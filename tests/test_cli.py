import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from haarlab import cli, groups, measure, plane
from haarlab.errors import InternalInconsistency, TooLarge
from haarlab.topology import FiniteSpace, bit_indices

from conftest import SRC, src_env, write_fresh
from literal import closed_sets, opens


def run_cli(tmp_path, command, payload, *extra, name="input.json"):
    """Run the CLI on payload, written as JSON, or as is when it is bytes."""
    path = tmp_path / name
    write_fresh(path, payload if isinstance(payload, bytes) else json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", command, "--input", str(path), *extra],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc, report


Z4_COSET = {
    "group": {"family": "cyclic", "params": {"n": 4}},
    "topology": {"normal_subgroup": [0, 2]},
}


def test_verify_haar_pass(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 0
    assert report["passed"] is True
    assert report["results"]["is_haar"] is True
    assert report["schema_version"] == "1"

def test_verify_haar_fail_with_witness(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]})
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 1
    assert report["passed"] is False
    w = report["results"]["witnesses"][0]
    assert w["set"] == [0, 2]
    assert w["element"] == 1

def test_counterexample_zero_mass(tmp_path):
    proc, report = run_cli(tmp_path, "counterexample", {"c": "0/1"})
    assert proc.returncode == 0
    assert report["results"]["verdict"] == "NonzeroViolated"
    assert report["results"]["verified"] is True

def test_counterexample_probe_bound_flag(tmp_path):
    proc, report = run_cli(
        tmp_path, "counterexample", {"c": "1/1"}, "--probe-bound", "10/1"
    )
    assert proc.returncode == 0
    assert report["results"]["verdict"] == "FinitenessViolated"
    assert report["results"]["translate_count"] == 11

def test_empty_probe_bound_flag_exits_2(tmp_path):
    # an empty flag is a bad rational, as an empty "probe_bound" is
    proc, report = run_cli(
        tmp_path, "counterexample", {"c": "1/1"}, "--probe-bound", ""
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["error"].startswith("bad rational ''")

def test_input_probe_bound_is_checked_under_the_flag(tmp_path):
    """The flag takes the place of the input's probe_bound, which must
    still be a rational."""
    payload = {"c": "1/2", "probe_bound": "banana"}
    proc, report = run_cli(tmp_path, "counterexample", payload, "--probe-bound", "1")
    assert proc.returncode == 2
    assert report["error"] == "bad rational 'banana': Invalid literal for Fraction: 'banana'"
    payload = {"c": "1/1", "probe_bound": "2"}
    proc, report = run_cli(tmp_path, "counterexample", payload, "--probe-bound", "10/1")
    assert proc.returncode == 0
    assert report["results"]["translate_count"] == 11

def test_enumerate_z4(tmp_path):
    proc, report = run_cli(
        tmp_path, "enumerate", {"group": {"family": "cyclic", "params": {"n": 4}}}
    )
    assert proc.returncode == 0
    topos = report["results"]["topologies"]
    assert len(topos) == 3
    assert all(t["haar_dimension"] == 1 for t in topos)

def test_enumerate_custom_table(tmp_path):
    payload = {"group": {"order": 2, "table": [[0, 1], [1, 0]]}}
    proc, report = run_cli(tmp_path, "enumerate", payload)
    assert proc.returncode == 0
    assert len(report["results"]["topologies"]) == 2

def test_construct_examples(tmp_path):
    payload = dict(Z4_COSET, k0=[0, 2])
    proc, report = run_cli(tmp_path, "construct", payload)
    assert proc.returncode == 0
    assert report["results"]["measure"] == ["1/1", "1/1"]
    assert report["results"]["canonical_scalar"] == "1/1"
    payload = dict(Z4_COSET, k0=[0, 1, 2, 3])
    proc, report = run_cli(tmp_path, "construct", payload)
    assert proc.returncode == 0
    assert report["results"]["canonical_scalar"] == "1/2"

def test_quotient(tmp_path):
    proc, report = run_cli(tmp_path, "quotient", dict(Z4_COSET))
    assert proc.returncode == 0
    r = report["results"]
    assert r["quotient_order"] == 2
    assert r["projection"] == [0, 1, 0, 1]
    assert r["pullback_roundtrip_ok"] is True

def test_counterexample_verifies_once(tmp_path, monkeypatch):
    path = tmp_path / "in.json"
    write_fresh(path, json.dumps({"c": "1/3", "probe_bound": "10/1"}))
    out = tmp_path / "out.json"
    verdicts = []
    verify = plane.verify_bk_certificate

    def counting_verify(cert):
        verdicts.append(verify(cert))
        return verdicts[-1]

    monkeypatch.setattr(plane, "verify_bk_certificate", counting_verify)
    argv = ["counterexample", "--input", str(path), "--output", str(out)]
    assert cli.run(argv) == 0
    assert verdicts == [True]
    # a certificate that fails verification is reported, with exit 1
    monkeypatch.setattr(plane, "verify_bk_certificate", lambda cert: False)
    assert cli.run(argv) == 1
    assert json.loads(out.read_text())["results"]["verified"] is False

class UnlistedStep(Fraction):
    """A certificate step that refuses to make a tile offset from it."""

    def __mul__(self, other):
        raise AssertionError("a tile offset was built")

    __rmul__ = __add__ = __radd__ = __mul__

def test_counterexample_over_listing_cap(tmp_path, monkeypatch):
    build = plane.counterexample_bk

    def unlisted(c, probe_bound):
        cert = build(c, probe_bound)
        fields = dict(zip(cert._fields, cert._values()), step=UnlistedStep(cert.step))
        return plane.BkCertificate(**fields)

    monkeypatch.setattr(plane, "counterexample_bk", unlisted)
    # 10^12 + 1 tiles: verified without listing one
    cert = plane.counterexample_bk(Fraction(1, 10**12), 1)
    assert cert.count == 10**12 + 1
    assert plane.verify_bk_certificate(cert)
    # the CLI rejects the listing before building an offset
    payload = {"c": "1/1000000000000", "probe_bound": "1/1"}
    path = tmp_path / "in.json"
    write_fresh(path, json.dumps(payload))
    out = tmp_path / "out.json"
    assert cli.run(["counterexample", "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == (
        "TooLarge: 1000000000001 tiles exceeds the listing cap 131072"
    )
    monkeypatch.undo()
    proc, report = run_cli(tmp_path, "counterexample", payload)
    assert proc.returncode == 2 and proc.stderr == ""
    assert set(report) == {"schema_version", "command", "error"}

def test_counterexample_listing_builds_three_fractions_per_tile(tmp_path, monkeypatch):
    """Listing a certificate builds at most 3 Fractions per tile: the
    1,000-tile report builds at most 3 * 999 more than the one-tile report
    of the same mass.  A count of constructions, not a timing."""
    new = Fraction.__new__
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    def fractions_built(probe_bound, tiles):
        nonlocal built
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        write_fresh(path, json.dumps({"c": "1", "probe_bound": probe_bound}))
        built = 0
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counting_new))
            code = cli.run(["counterexample", "--input", str(path), "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["results"]["translate_count"] == tiles
        return built

    one = fractions_built("1/2", 1)
    assert fractions_built("999", 1000) - one <= 3 * 999

def test_fubini(tmp_path):
    payload = {
        "group1": dict(Z4_COSET),
        "group2": {
            "group": {"family": "cyclic", "params": {"n": 2}},
            "topology": {"normal_subgroup": [0]},
        },
    }
    proc, report = run_cli(tmp_path, "fubini", payload)
    assert proc.returncode == 0
    assert all(c["equal"] for c in report["results"]["checks"])

def test_plane(tmp_path):
    payload = {
        "intervals": [{"lo": "0/1", "hi": "1/1", "lo_closed": False, "hi_closed": False}],
        "shift": ["3/1", "-7/1"],
        "eps": "1/10",
    }
    proc, report = run_cli(tmp_path, "plane", payload)
    assert proc.returncode == 0
    r = report["results"]
    assert r["mass"] == "1/1"
    assert r["shifted_mass"] == "1/1"
    assert r["inner"] == [
        {"lo": "1/20", "hi": "19/20", "lo_closed": True, "hi_closed": True}
    ]
    assert r["outer"] == [
        {"lo": "-1/20", "hi": "21/20", "lo_closed": False, "hi_closed": False}
    ]

def test_plane_inner_midpoint(tmp_path):
    """An eps wider than an open interval collapses its inner interval to
    the midpoint; both masses stay within eps, so the report passes."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    payload = {
        "intervals": [{"lo": "0", "hi": "1", "lo_closed": False, "hi_closed": False}],
        "eps": "10",
    }
    write_fresh(path, json.dumps(payload))
    assert cli.run(["plane", "--input", str(path), "--output", str(out)]) == 0
    r = json.loads(out.read_text())["results"]
    assert r["inner"] == [{"lo": "1/2", "hi": "1/2", "lo_closed": True, "hi_closed": True}]
    assert r["inner_mass"] == "0/1"
    assert r["outer"] == [{"lo": "-5/1", "hi": "6/1", "lo_closed": False, "hi_closed": False}]
    assert r["outer_mass"] == "11/1"

def test_plane_computes_each_mass_once(tmp_path, monkeypatch):
    """With a shift and an eps, `plane` reports four masses (base, shifted,
    inner and outer) and calls haar_v at most once for each."""
    haar_v = plane.haar_v
    calls = 0

    def counting_haar_v(e):
        nonlocal calls
        calls += 1
        return haar_v(e)

    monkeypatch.setattr(plane, "haar_v", counting_haar_v)
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    payload = {"intervals": [{"lo": "0", "hi": "1"}, {"lo": "2", "hi": "5/2"}],
               "shift": ["1/3", "0"], "eps": "1/10"}
    write_fresh(path, json.dumps(payload))
    assert cli.run(["plane", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["mass"] == "3/2"
    assert calls <= 4


# Normal subgroup counts: divisors of 24 and 64; Z2xZ16 has 10 cyclic
# subgroups and the 4 non-cyclic Z2 x Z(2^j), j = 1..4.
LARGE_GROUPS = [
    ({"family": "cyclic", "params": {"n": 24}}, 24, 8),
    (
        {
            "family": "product",
            "params": {
                "factors": [
                    {"family": "cyclic", "params": {"n": 2}},
                    {"family": "cyclic", "params": {"n": 16}},
                ]
            },
        },
        32,
        14,
    ),
    ({"family": "cyclic", "params": {"n": 64}}, 64, 7),
]

@pytest.mark.parametrize(
    "group,order,n_normal", LARGE_GROUPS, ids=["Z24", "Z2xZ16", "Z64"]
)
def test_more_than_16_atoms(tmp_path, group, order, n_normal):
    proc, report = run_cli(tmp_path, "enumerate", {"group": group})
    assert proc.returncode == 0 and proc.stderr == ""
    topos = report["results"]["topologies"]
    assert len(topos) == n_normal
    assert len({tuple(t["normal_subgroup"]) for t in topos}) == n_normal
    for t in topos:
        assert t["haar_dimension"] == 1
        assert t["canonical_masses"] == ["1/1"] * len(t["atoms"])
    # the discrete topology has one atom per element, more than 16: the
    # quotient is G itself and every translate check passes
    base = {"group": group, "topology": {"normal_subgroup": [0]}}
    proc, report = run_cli(tmp_path, "quotient", base)
    assert proc.returncode == 0 and proc.stderr == ""
    results = report["results"]
    assert results["atoms"] == [[x] for x in range(order)]
    assert results["quotient_order"] == order
    assert results["projection"] == list(range(order))
    assert results["pushforward_masses"] == ["1/1"] * order
    assert results["pullback_roundtrip_ok"] and results["pushforward_is_haar"]
    payload = dict(base, measure={"atom_masses": ["1/1"] * order})
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 0 and proc.stderr == ""
    assert report["results"]["is_haar"] and report["results"]["witnesses"] == []
    # past 6 atoms the covering table is truncated to the atoms and G
    # against {0} and G; covering G by singletons takes all of them
    proc, report = run_cli(tmp_path, "construct", dict(base, k0=[0]))
    assert proc.returncode == 0 and proc.stderr == ""
    results = report["results"]
    assert results["measure"] == ["1/1"] * order
    assert results["canonical_scalar"] == "1/1"
    assert results["table_truncated"] is True
    full = list(range(order))
    assert results["covering_table"] == [
        {"k": k, "u": u, "count": order if (k, u) == (full, [0]) else 1}
        for k in [[x] for x in range(order)] + [full]
        for u in ([0], full)
    ]


def test_quotient_atom_cap_checked_before_quotient(tmp_path, capsys):
    """No atom cap stands before the quotient: a discrete cyclic group past
    16 atoms gets its quotient, and the pushforward of the canonical
    measure is Haar on it."""
    path = tmp_path / "input.json"
    for n in (17, 24, 64):
        payload = {
            "group": {"family": "cyclic", "params": {"n": n}},
            "topology": {"normal_subgroup": [0]},
        }
        write_fresh(path, json.dumps(payload))
        assert cli.run(["quotient", "--input", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["quotient_order"] == n
        assert results["pushforward_masses"] == ["1/1"] * n
        assert results["pushforward_is_haar"] is True


def test_fubini_atom_cap(tmp_path, capsys):
    """A factor past 16 atoms is checked like any other: Z24 x Z2, under
    the order cap, in both orders, gives 48 equal iterated integrals."""
    z24 = {"group": {"family": "cyclic", "params": {"n": 24}}, "topology": {"normal_subgroup": [0]}}
    z2 = {"group": {"family": "cyclic", "params": {"n": 2}}, "topology": {"normal_subgroup": [0]}}
    path = tmp_path / "input.json"
    for payload in ({"group1": z24, "group2": z2}, {"group1": z2, "group2": z24}):
        write_fresh(path, json.dumps(payload))
        assert cli.run(["fubini", "--input", str(path)]) == 0
        checks = json.loads(capsys.readouterr().out)["results"]["checks"]
        assert len(checks) == 48
        assert all(
            c["equal"] and c["lhs"] == c["rhs"] == "1/1" for c in checks
        )


def test_fubini_worst_case_counters(tmp_path, capsys, monkeypatch):
    """Counter bound at the order cap: fubini on discrete Z8 x discrete Z8
    checks each of its 64 product atoms once, and lists the product atoms
    once for the command and once in each check."""
    calls = {"fubini_check": 0, "product_cells": 0}

    def counting(name):
        method = getattr(measure, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(measure, name, counting(name))
    z8 = {"group": {"family": "cyclic", "params": {"n": 8}}, "topology": {"normal_subgroup": [0]}}
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps({"group1": z8, "group2": z8}))
    assert cli.run(["fubini", "--input", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["checks"]) == 64
    assert calls["fubini_check"] == 64
    assert calls["product_cells"] <= 65


def test_verify_haar_witness_past_16_atoms(tmp_path, capsys):
    """A perturbed measure on discrete Z64 fails with the first light atom
    that translation by 1 moves onto the heavy atom 40, on both sides."""
    masses = ["1/1"] * 64
    masses[40] = "3/2"
    payload = {
        "group": {"family": "cyclic", "params": {"n": 64}},
        "topology": {"normal_subgroup": [0]},
        "measure": {"atom_masses": masses},
    }
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    assert cli.run(["verify-haar", "--input", str(path)]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert not results["left_invariant"] and not results["right_invariant"]
    assert results["witnesses"] == [
        {"kind": "left", "set": [39], "element": 1},
        {"kind": "right", "set": [39], "element": 1},
    ]


def table_spec(group):
    return {"order": group.order, "table": [list(r) for r in group.table]}

def test_partition_once_per_top_group(corpus, monkeypatch):
    """Counter bound: the partition is built once per topological group, and
    N, the atoms and the representatives are all read from it.  Every
    FiniteTopGroup that enumerate, quotient, construct and verify-haar
    build, quotients included, computes _partition exactly once, and no
    closure runs inside it: the atoms are the distinct minimal opens."""
    built, calls = [], []
    closures = {"active": False, "inside": 0}
    init, partition = groups.FiniteTopGroup.__init__, groups.FiniteTopGroup._partition.func
    closure = FiniteSpace.closure

    def recording_init(self, group, n_mask):
        init(self, group, n_mask)
        built.append(self)

    def counting_partition(self):
        calls.append(self)
        closures["active"] = True
        try:
            return partition(self)
        finally:
            closures["active"] = False

    def counting_closure(self, mask):
        if closures["active"]:
            closures["inside"] += 1
        return closure(self, mask)

    prop = functools.cached_property(counting_partition)
    prop.__set_name__(groups.FiniteTopGroup, "_partition")
    monkeypatch.setattr(groups.FiniteTopGroup, "__init__", recording_init)
    monkeypatch.setattr(groups.FiniteTopGroup, "_partition", prop)
    monkeypatch.setattr(FiniteSpace, "closure", counting_closure)
    z48 = groups.cyclic(48)
    n8 = z48.generated_subgroup([6])
    cases = [(g, n) for g in corpus for n in g.normal_subgroups()] + [(z48, n8)]
    opts = cli.Options()
    for group in [*corpus, z48]:
        built.clear()
        calls.clear()
        cli.cmd_enumerate({"group": table_spec(group)}, opts)
        assert len(calls) == len(built) == len(group.normal_subgroups())
        assert {id(tg) for tg in calls} == {id(tg) for tg in built}
    for group, n_mask in cases:
        base = {"group": table_spec(group), "topology": {"normal_subgroup": list(bit_indices(n_mask))}}
        k = group.order // bin(n_mask).count("1")
        for command, payload in (
            (cli.cmd_quotient, base),
            (cli.cmd_construct, dict(base, k0=list(bit_indices(n_mask)))),
            (cli.cmd_verify_haar, dict(base, measure={"atom_masses": ["1"] * k})),
        ):
            built.clear()
            calls.clear()
            command(payload, opts)
            assert len(calls) == len(built) >= 1, (group.name, command.__name__)
            assert {id(tg) for tg in calls} == {id(tg) for tg in built}
    assert closures["inside"] == 0

def test_quotient_builds_two_groups(corpus, monkeypatch):
    """Counter bound: quotient builds exactly two groups, G and G/N, as
    pushforward and pullback read the G/N that quotient(tg) holds."""
    built = []
    init = groups.FiniteGroup.__init__

    def recording_init(self, table, name="group"):
        init(self, table, name)
        built.append(name)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", recording_init)
    opts = cli.Options()
    for group in corpus:
        for n_mask in group.normal_subgroups():
            built.clear()
            cli.cmd_quotient(
                {
                    "group": dict(table_spec(group), name=group.name),
                    "topology": {"normal_subgroup": list(bit_indices(n_mask))},
                },
                opts,
            )
            assert built == [group.name, f"{group.name}/N"], (group.name, n_mask)

def test_enumerate_makes_no_normality_test(corpus, monkeypatch):
    """Counter bound: enumerate builds no FiniteSpace, as each topology is
    stored as the normal subgroup the lattice found, whose normality the
    constructor checks in one pass per coset; and past that lattice it
    makes at most 2n translate calls per topology: one per coset builds
    the atoms."""
    counts = {"spaces": 0, "translate": 0, "lattice": False}
    space_init, translate = FiniteSpace.__init__, groups.FiniteGroup.translate
    normal_subgroups = groups.FiniteGroup.normal_subgroups

    def counting_space_init(self, n, min_open):
        counts["spaces"] += 1
        space_init(self, n, min_open)

    def counting_translate(self, g, mask):
        if not counts["lattice"]:
            counts["translate"] += 1
        return translate(self, g, mask)

    def lattice(self):
        counts["lattice"] = True
        try:
            return normal_subgroups(self)
        finally:
            counts["lattice"] = False

    z2 = groups.cyclic(2)
    z2_4 = groups.direct_product(groups.direct_product(z2, z2), groups.direct_product(z2, z2))
    monkeypatch.setattr(FiniteSpace, "__init__", counting_space_init)
    monkeypatch.setattr(groups.FiniteGroup, "translate", counting_translate)
    monkeypatch.setattr(groups.FiniteGroup, "normal_subgroups", lattice)
    opts = cli.Options()
    for group in [*corpus, z2_4]:
        counts.update(spaces=0, translate=0)
        results, _ = cli.cmd_enumerate({"group": table_spec(group)}, opts)
        n_topologies = len(results["topologies"])
        assert counts["spaces"] == 0, group.name
        assert counts["translate"] <= 2 * group.order * n_topologies, group.name
    assert n_topologies == 67  # (Z2)^4, abelian: one per subgroup

def test_spaces_built_per_command(corpus, monkeypatch):
    """Counter bound: FiniteSpace.__init__ runs 0 times for enumerate on
    each corpus group, and, on each of its topologies given as a normal
    subgroup, 0 times for quotient, verify-haar and construct, whose
    reference set K0 is checked to be closed on the atoms."""
    built = []
    init = FiniteSpace.__init__

    def counting_init(self, n, min_open):
        built.append(n)
        init(self, n, min_open)

    monkeypatch.setattr(FiniteSpace, "__init__", counting_init)
    for group in corpus:
        built.clear()
        cli.cmd_enumerate({"group": table_spec(group)}, cli.Options())
        assert built == [], group.name
        for n_mask in group.normal_subgroups():
            n_points = list(bit_indices(n_mask))
            base = {"group": table_spec(group), "topology": {"normal_subgroup": n_points}}
            k = group.order // len(n_points)
            for command, payload, want in (
                ("quotient", base, []),
                ("verify-haar", dict(base, measure={"atom_masses": ["1"] * k}), []),
                ("construct", dict(base, k0=n_points), []),
            ):
                built.clear()
                cli.COMMANDS[command](payload, cli.Options())
                assert built == want, (group.name, n_mask, command)

def test_construct_never_lists_the_open_family(corpus_instances):
    """construct runs over atom selections, and its table has the sets of
    the literal listing of the open family in the listing's order."""
    z48 = groups.cyclic(48)
    cases = [(tg.group, tg.atoms[0]) for tg in corpus_instances if len(tg.atoms) <= 6]
    cases += [(z48, z48.generated_subgroup([6])), (groups.cyclic(12), 1)]
    expected = []
    for group, n_mask in cases:
        tg = groups.FiniteTopGroup(group, n_mask)
        space = tg.space
        if len(tg.atoms) > 6:
            closed, nbhds = [*tg.atoms, space.full], [n_mask, space.full]
        else:
            closed = [c for c in closed_sets(space) if c]
            nbhds = [u for u in opens(space) if u >> group.identity & 1]
        expected.append(
            [(list(bit_indices(k)), list(bit_indices(u))) for k in closed for u in nbhds]
        )

    opts = cli.Options()
    for (group, n_mask), want in zip(cases, expected):
        n_points = list(bit_indices(n_mask))
        payload = {
            "group": table_spec(group),
            "topology": {"normal_subgroup": n_points},
            "k0": n_points,
        }
        results, ok = cli.cmd_construct(payload, opts)
        assert ok
        assert [(e["k"], e["u"]) for e in results["covering_table"]] == want

def test_opens_form_matches_normal_subgroup_form(corpus_instances):
    """A topology given by its full open family loads the same space as
    the one given by N = U_e: verify-haar, quotient and construct give the
    same results and verdict on every corpus instance either way."""
    for tg in corpus_instances:
        n_points = list(bit_indices(tg.atoms[0]))
        k = len(tg.atoms)
        forms = (
            {"normal_subgroup": n_points},
            {"opens": [list(bit_indices(u)) for u in opens(tg.space)]},
        )
        extras = [
            ("verify-haar", {"measure": {"atom_masses": ["1"] * k}}),
            ("verify-haar", {"measure": {"atom_masses": ["1"] + ["2"] * (k - 1)}}),
            ("quotient", {}),
            ("construct", {"k0": n_points}),
        ]
        for command, extra in extras:
            by_form = [
                cli.COMMANDS[command](
                    {"group": table_spec(tg.group), "topology": topology, **extra},
                    cli.Options(),
                )
                for topology in forms
            ]
            assert by_form[0] == by_form[1], (tg.group.name, k, command)


# -- input errors -> exit 2 ---------------------------------------------------

def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    write_fresh(path, "{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", "verify-haar", "--input", str(path)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)

def test_unknown_field_rejected(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]}, bogus=1)
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 2
    assert "bogus" in report["error"]

def test_bad_rational(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "one"]})
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 2

def test_incompatible_topology(tmp_path):
    payload = {
        "group": {"family": "cyclic", "params": {"n": 4}},
        "topology": {"opens": [[], [0], [0, 1, 2, 3]]},
        "measure": {"atom_masses": ["1/1"]},
    }
    proc, report = run_cli(tmp_path, "verify-haar", payload)
    assert proc.returncode == 2
    assert "incompatible" in report["error"]

def test_env_order_cap_is_ignored(tmp_path):
    """The CLI reads no environment variable: HAARLAB_MAX_ORDER=4 leaves
    enumerate on Z5 at exit 0, with the bytes of a run without it."""
    path = tmp_path / "in.json"
    write_fresh(path, json.dumps({"group": {"family": "cyclic", "params": {"n": 5}}}))
    argv = [sys.executable, "-m", "haarlab.cli", "enumerate", "--input", str(path)]
    procs = [
        subprocess.run(argv, capture_output=True, env=env)
        for env in (src_env(), src_env(HAARLAB_MAX_ORDER="4"))
    ]
    assert [(p.returncode, p.stderr) for p in procs] == [(0, b"")] * 2
    assert procs[0].stdout == procs[1].stdout

@pytest.mark.parametrize("setting", ["flag", "env"])
def test_order_cap_stays_at_64(tmp_path, capsys, monkeypatch, setting):
    """Neither old way of raising the cap lifts it: with HAARLAB_MAX_ORDER
    at 4096, fubini on discrete Z16 x Z16, of order 256, exits 2 with the
    cap error; --max-order 4096 exits 2 as an unknown flag. Neither run
    reaches fubini_check."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps({"group1": DISCRETE_Z16, "group2": DISCRETE_Z16}))
    calls = []
    monkeypatch.setattr(measure, "fubini_check", lambda *args: calls.append(args))
    if setting == "env":
        monkeypatch.setenv("HAARLAB_MAX_ORDER", "4096")
    flags = ["--max-order", "4096"] if setting == "flag" else []
    assert cli.run(["fubini", "--input", str(path), *flags]) == 2
    error = {
        "env": "combined order exceeds the cap",
        "flag": "unknown flag '--max-order'",
    }[setting]
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": "1",
        "command": "fubini",
        "error": error,
    }
    assert calls == []

Z4_HAAR = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
DISCRETE_Z16 = {
    "group": {"family": "cyclic", "params": {"n": 16}},
    "topology": {"normal_subgroup": [0]},
}
# order 80, past the cap of 64
D5_X_Q8 = {
    "family": "product",
    "params": {"factors": [{"family": "dihedral", "params": {"n": 5}}, {"family": "quaternion8"}]},
}
MALFORMED = {
    "masses_not_a_list": ("verify-haar", dict(Z4_HAAR, measure={"atom_masses": "11"})),
    "subgroup_element_not_int": (
        "verify-haar", dict(Z4_HAAR, topology={"normal_subgroup": [0, "x"]})
    ),
    "subgroup_element_negative": (
        "verify-haar", dict(Z4_HAAR, topology={"normal_subgroup": [0, -2]})
    ),
    "params_without_n": (
        "verify-haar", dict(Z4_HAAR, group={"family": "cyclic", "params": {}})
    ),
    "params_not_object": (
        "verify-haar", dict(Z4_HAAR, group={"family": "cyclic", "params": [4]})
    ),
    "open_not_a_list": (
        "verify-haar",
        dict(Z4_HAAR, topology={"opens": [[], 0, [0, 1, 2, 3]]}, measure={"atom_masses": ["1/1"]}),
    ),
    "interval_flag_not_bool": (
        "plane", {"intervals": [{"lo": "0/1", "hi": "1/1", "lo_closed": "false"}]}
    ),
    "input_not_utf8": ("counterexample", b'{"c": "1/1\xff"}'),
    "rational_exponent_over_cap": ("counterexample", {"c": "1e999999999"}),
    "rational_over_length_cap": ("plane", {"intervals": [{"lo": "0/1", "hi": "1" * 1001}]}),
    # an integer literal past the int-to-text digit limit, and nesting past
    # the recursion limit: both fail inside json.load
    "int_over_digit_limit": ("counterexample", b'{"c": ' + b"1" * 5000 + b"}"),
    "nesting_over_recursion_limit": (
        "counterexample", b'{"c": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    ),
    "table_name_not_string": (
        "enumerate", {"group": {"name": {"x": 1}, "order": 2, "table": [[0, 1], [1, 0]]}}
    ),
    "table_row_not_a_list": ("enumerate", {"group": {"order": 2, "table": [1, 2]}}),
    "table_entry_not_int": (
        "enumerate", {"group": {"order": 2, "table": [[0, "a"], [1, 0]]}}
    ),
    # 2n has 4,301 digits, past what an int converts to text
    "dihedral_order_past_digit_limit": (
        "enumerate", {"group": {"family": "dihedral", "params": {"n": 9 * 10**4299}}}
    ),
    # params keys are checked per family
    "trivial_params_key": (
        "enumerate", {"group": {"family": "trivial", "params": {"x": 1}}}
    ),
    "cyclic_params_extra_key": (
        "enumerate", {"group": {"family": "cyclic", "params": {"n": 3, "extra": [1]}}}
    ),
    "dihedral_params_extra_key": (
        "enumerate", {"group": {"family": "dihedral", "params": {"n": 3, "m": 2}}}
    ),
    "symmetric3_params_key": (
        "enumerate", {"group": {"family": "symmetric3", "params": {"n": 3}}}
    ),
    "product_params_extra_key": (
        "enumerate",
        {
            "group": {
                "family": "product",
                "params": {
                    "factors": [{"family": "trivial"}, {"family": "quaternion8"}],
                    "n": 2,
                },
            }
        },
    ),
}

@pytest.mark.parametrize("command,payload", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2(tmp_path, command, payload):
    proc, report = run_cli(tmp_path, command, payload)
    assert proc.returncode == 2 and proc.stderr == ""
    assert set(report) == {"schema_version", "command", "error"}

FAMILY_PARAMS_ERRORS = [
    ({"family": "trivial", "params": {"x": 1}}, "trivial params: unknown fields ['x']"),
    (
        {"family": "cyclic", "params": {"n": 3, "extra": [1]}},
        "cyclic params: unknown fields ['extra']",
    ),
    (
        {"family": "quaternion8", "params": {"factors": []}},
        "quaternion8 params: unknown fields ['factors']",
    ),
    ({"family": "dihedral", "params": {}}, "dihedral params: missing fields ['n']"),
    (
        {"family": "product", "params": {"factors": [{"family": "trivial"}]}},
        "product family needs exactly two factors",
    ),
    ({"family": "product", "params": {}}, "product family needs exactly two factors"),
    ({"family": ["cyclic"], "params": {"n": 2}}, "unknown family ['cyclic']"),
]

@pytest.mark.parametrize("spec,message", FAMILY_PARAMS_ERRORS)
def test_family_params_checked(spec, message):
    with pytest.raises(cli.InputError) as info:
        cli.load_group(spec)
    assert str(info.value) == message

def table_input(table):
    return {"group": {"order": len(table), "table": table}}

def z4_opens(*opens):
    return dict(Z4_HAAR, topology={"opens": [[], *opens, [0, 1, 2, 3]]})

# 12 intervals [i + 1/q, i + 2/q], q = 10^494 + 3 + 2i: each endpoint has at
# most 992 characters, under the cap, but the mass, the sum of the 1/q, has a
# denominator of 5,924 digits, more than an int converts to text
PLANE_MASS_PAST_INT_TEXT = {
    "intervals": [
        {"lo": f"{i * q + 1}/{q}", "hi": f"{i * q + 2}/{q}"}
        for i, q in ((i, 10**494 + 3 + 2 * i) for i in range(12))
    ],
    "shift": ["1/2", "0"],
    "eps": "1/10",
}

#: One input per precondition the library checks, and the error text of its
#: exit-2 report.
ERROR_TEXTS = {
    "table_not_square": (
        "enumerate",
        table_input([[0, 1], [1]]),
        "bad Cayley table: Cayley table is not square over 0..order-1",
    ),
    "table_row": (
        "enumerate", table_input([[0, 0], [1, 1]]), "bad Cayley table: row 0 is not a permutation"
    ),
    "table_column": (
        "enumerate",
        table_input([[0, 1], [0, 1]]),
        "bad Cayley table: column 0 is not a permutation",
    ),
    "table_identity": (
        "enumerate",
        table_input([[0, 2, 1], [2, 1, 0], [1, 0, 2]]),
        "bad Cayley table: no identity element",
    ),
    "table_inverse": (
        "enumerate",
        table_input(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
        ),
        "bad Cayley table: element 2 has no inverse",
    ),
    "table_associativity": (
        "enumerate",
        table_input(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        ),
        "bad Cayley table: associativity fails at (1, 1, 2)",
    ),
    "cyclic_n_zero": (
        "enumerate",
        {"group": {"family": "cyclic", "params": {"n": 0}}},
        "group order must be at least 1",
    ),
    "cyclic_n_negative": (
        "enumerate",
        {"group": {"family": "cyclic", "params": {"n": -3}}},
        "group order must be at least 1",
    ),
    "dihedral_n_zero": (
        "enumerate",
        {"group": {"family": "dihedral", "params": {"n": 0}}},
        "group order must be at least 1",
    ),
    "dihedral_n_negative": (
        "enumerate",
        {"group": {"family": "dihedral", "params": {"n": -3}}},
        "group order must be at least 1",
    ),
    # 2n has 4,301 digits, more than an int converts to text: the message
    # must not name the order
    "dihedral_order_past_int_text": (
        "enumerate",
        {"group": {"family": "dihedral", "params": {"n": -5 * 10**4299}}},
        "group order must be at least 1",
    ),
    "table_order_zero": ("enumerate", table_input([]), "group order must be at least 1"),
    "cyclic_over_cap": (
        "enumerate",
        {"group": {"family": "cyclic", "params": {"n": 65}}},
        "TooLarge: order 65 outside 1..64",
    ),
    "dihedral_over_cap": (
        "enumerate",
        {"group": {"family": "dihedral", "params": {"n": 33}}},
        "TooLarge: order 66 outside 1..64",
    ),
    # 2n has 4,301 digits: the message must not name the order
    "dihedral_over_cap_past_int_text": (
        "enumerate",
        {"group": {"family": "dihedral", "params": {"n": 5 * 10**4299}}},
        "TooLarge: order past 2^64 outside 1..64",
    ),
    "product_over_cap": (
        "enumerate",
        {"group": D5_X_Q8},
        "TooLarge: order 80 outside 1..64",
    ),
    "table_over_cap": (
        "enumerate",
        table_input([[(i + j) % 65 for j in range(65)] for i in range(65)]),
        "TooLarge: order 65 outside 1..64",
    ),
    # the one size check the CLI makes itself: fubini's product order
    "fubini_over_cap": (
        "fubini",
        {"group1": DISCRETE_Z16, "group2": DISCRETE_Z16},
        "combined order exceeds the cap",
    ),
    "subgroup_not_normal": (
        "quotient",
        {"group": {"family": "symmetric3"}, "topology": {"normal_subgroup": [0, 1]}},
        "mask is not a normal subgroup",
    ),
    # JSON shapes the CLI checks before the library sees them
    "topology_not_object": (
        "verify-haar", dict(Z4_HAAR, topology=5), "topology spec must be an object"
    ),
    "opens_not_a_list": (
        "verify-haar", dict(Z4_HAAR, topology={"opens": 5}), "opens must be a list of open sets"
    ),
    "params_not_object": (
        "enumerate",
        {"group": {"family": "cyclic", "params": []}},
        "cyclic params: expected an object",
    ),
    # the family is looked up before its params
    "family_unknown_params_not_object": (
        "enumerate",
        {"group": {"family": "banana", "params": []}},
        "unknown family 'banana'",
    ),
    "group_name_not_string": (
        "enumerate",
        {"group": {"name": 5, "order": 1, "table": [[0]]}},
        "group name must be a string",
    ),
    "declared_order": (
        "enumerate",
        {"group": {"order": 2, "table": [[0]]}},
        "declared order does not match the table",
    ),
    "atom_masses_not_a_list": (
        "verify-haar",
        dict(Z4_HAAR, measure={"atom_masses": "1/1"}),
        "atom_masses must be a list of rationals",
    ),
    "intervals_not_a_list": ("plane", {"intervals": {}}, "intervals must be a list"),
    "lo_closed_not_bool": (
        "plane",
        {"intervals": [{"lo": "0", "hi": "1", "lo_closed": 1}]},
        "lo_closed must be true or false, got 1",
    ),
    "shift_not_a_pair": (
        "plane",
        {"intervals": [{"lo": "0", "hi": "1"}], "shift": ["1"]},
        "shift must be a pair of rationals",
    ),
    "group_spec_not_object": ("verify-haar", dict(Z4_HAAR, group=5), "group spec must be an object"),
    "topology_without_form": (
        "verify-haar",
        dict(Z4_HAAR, topology={}),
        "topology spec needs normal_subgroup or opens",
    ),
    "subgroup_element_outside": (
        "verify-haar",
        dict(Z4_HAAR, topology={"normal_subgroup": [0, 4]}),
        "normal_subgroup: 4 is not an element 0..3",
    ),
    "param_not_int": (
        "verify-haar",
        dict(Z4_HAAR, group={"family": "cyclic", "params": {"n": "4"}}),
        "cyclic params: n must be an integer, got '4'",
    ),
    "fubini_group_without_topology": (
        "fubini",
        {"group1": {"group": Z4_COSET["group"]}, "group2": Z4_COSET},
        "group1: missing fields ['topology']",
    ),
    "opens_without_empty_set": (
        "verify-haar",
        dict(Z4_HAAR, topology={"opens": [[0, 1, 2, 3]]}),
        "opens must contain the empty set and the full set",
    ),
    "opens_not_closed_under_intersection": (
        "verify-haar",
        z4_opens([0, 1], [1, 2]),
        "opens not closed under intersection near point 1",
    ),
    "opens_not_closed_under_union": (
        "verify-haar", z4_opens([0], [1]), "opens not closed under pairwise union"
    ),
    "opens_incompatible": (
        "verify-haar",
        z4_opens([0]),
        "incompatible topology: witness: pair (3, 1), open 0x1",
    ),
    "mass_count": (
        "verify-haar", dict(Z4_COSET, measure={"atom_masses": ["1"] * 3}), "3 masses for 2 atoms"
    ),
    "mass_negative": (
        "verify-haar",
        dict(Z4_COSET, measure={"atom_masses": ["-1", "1"]}),
        "atom masses must be nonnegative",
    ),
    "side": ("verify-haar", dict(Z4_HAAR, side="up"), "side must be left or right, got 'up'"),
    "k0_not_closed": (
        "construct", dict(Z4_COSET, k0=[0]), "reference set 0x1 is not closed"
    ),
    "k0_empty_interior": (
        "construct", dict(Z4_COSET, k0=[]), "reference set 0x0 has empty interior"
    ),
    "c_negative": (
        "counterexample", {"c": "-1"}, "hypothesized tile mass -1 is negative"
    ),
    "probe_bound_zero": (
        "counterexample", {"c": "1", "probe_bound": "0"}, "probe bound must be positive"
    ),
    "interval_empty": ("plane", {"intervals": [{"lo": "1", "hi": "0"}]}, "empty interval 1 > 0"),
    "interval_degenerate_open": (
        "plane",
        {"intervals": [{"lo": "0", "hi": "0", "lo_closed": False}]},
        "degenerate interval must be closed",
    ),
    "eps_zero": (
        "plane", {"intervals": [{"lo": "0", "hi": "1"}], "eps": "0"}, "eps must be positive"
    ),
    "plane_mass_past_int_text": (
        "plane",
        PLANE_MASS_PAST_INT_TEXT,
        "TooLarge: a rational in the report has a numerator or denominator of more than "
        "4300 digits",
    ),
}

@pytest.mark.parametrize("command,payload,message", ERROR_TEXTS.values(), ids=ERROR_TEXTS)
def test_error_texts(tmp_path, capsys, command, payload, message):
    """Each broken precondition exits 2 with exactly its error text."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    assert cli.run([command, "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": "1",
        "command": command,
        "error": message,
    }

def test_plane_mass_past_int_text_as_process(tmp_path):
    """The same input through `python -m haarlab.cli`: exit 2 and the same
    report, with no traceback."""
    proc, report = run_cli(tmp_path, "plane", PLANE_MASS_PAST_INT_TEXT)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert report["error"] == ERROR_TEXTS["plane_mass_past_int_text"][2]

def test_rational_caps_checked_before_fraction(tmp_path, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    path = tmp_path / "in.json"
    write_fresh(path, json.dumps({"c": "1e999999999"}))
    out = tmp_path / "out.json"
    argv = ["counterexample", "--input", str(path), "--output", str(out)]
    assert cli.run(argv) == 2
    assert json.loads(out.read_text())["error"] == (
        "bad rational '1e999999999': exponent exceeds the cap 1000"
    )
    assert cli.run([*argv, "--probe-bound", "1/1" + "0" * 1000]) == 2
    assert json.loads(out.read_text())["error"] == (
        "bad rational: 1003 characters exceeds the cap 1000"
    )

RATIONAL_SPELLINGS = [
    "1/3", "-2/4", "+3", " 7 ", "1.5", ".5", "5.", "-0", "1e3", "1E-3", "2.5e+2",
    "1_000/3", "1.5_5e1_0", "\u0663/\u0664", "\t1/2\u3000", "1e1000", "1e-1000",
    0.5, 3, 1e300,
]

def readme_fraction(text):
    """Fraction(text) as Python 3.11 reads it, which is the README grammar,
    on every supported Python: 3.10's Fraction refuses underscores between
    digits, and from 3.12 on it accepts whitespace around '/'."""
    if sys.version_info < (3, 11):
        text = re.sub(r"(?<=\d)_(?=\d)", "", text)
    elif sys.version_info >= (3, 12) and re.search(r"\s/|/\s", text):
        raise ValueError(f"whitespace around '/' in {text!r}")
    return Fraction(text)

@pytest.mark.parametrize("spelling", RATIONAL_SPELLINGS, ids=repr)
def test_rational_spellings_match_fraction(spelling):
    assert cli.parse_frac(spelling) == readme_fraction(str(spelling))

@given(st.text(alphabet="0123456789_./eE+- \t\u0663", max_size=7))
@example("0/ 1")
@example("1_000")
@settings(max_examples=400, deadline=None)
def test_rational_grammar_agrees_with_fraction(text):
    """Under the caps, parse_frac accepts exactly what the README grammar
    accepts, with the same value; the only extra rejections are named by
    the caps."""
    try:
        want = readme_fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    try:
        got = cli.parse_frac(text)
    except cli.InputError as exc:
        assert want is None or "exceeds the cap" in str(exc), text
    else:
        assert got == want, text

VERSION_SENSITIVE_SPELLINGS = {
    "1_000": 1000,
    "1_0/2_0": Fraction(1, 2),
    "1e1_0": 10**10,
    "-1_5.2_5e-1": Fraction(-61, 40),
    "1__0": None,
    "_1": None,
    "1_": None,
    "1 / 2": None,
    "0/ 1": None,
}

@pytest.mark.parametrize("text", VERSION_SENSITIVE_SPELLINGS, ids=repr)
def test_version_sensitive_spellings(text):
    """The spellings that Fraction reads differently across Pythons, pinned
    to the README grammar on every one: single underscores between digits
    are accepted, as 3.10's Fraction does not, and whitespace around '/'
    is refused, as 3.12's Fraction does not."""
    want = VERSION_SENSITIVE_SPELLINGS[text]
    if want is None:
        with pytest.raises(cli.InputError) as info:
            cli.parse_frac(text)
        assert str(info.value) == (
            f"bad rational {text!r}: Invalid literal for Fraction: {text!r}"
        )
    else:
        assert cli.parse_frac(text) == want

def counterexample_on(tmp_path, capsys, text):
    """Exit code and report of counterexample --probe-bound 3/10 on an
    input file whose text is given."""
    path = tmp_path / "input.json"
    write_fresh(path, text)
    code = cli.run(["counterexample", "--input", str(path), "--probe-bound", "3/10"])
    return code, json.loads(capsys.readouterr().out)

@pytest.mark.parametrize("number", ["1e-400", "0.30000000000000001", "1e400"])
def test_lossy_json_number_exits_2(tmp_path, capsys, number):
    """A JSON number whose float is another rational is refused by name:
    1e-400 loads as 0.0 and 0.30000000000000001 as 0.3, which would be
    verified in its place.  The check runs as the file loads, so it also
    refuses such a number in the input's probe_bound under --probe-bound,
    which takes its place."""
    message = (
        f"JSON number {number} loads as the float {float(number)!r}, "
        "not the rational written; give it as a string"
    )
    for text in (f'{{"c": {number}}}', f'{{"c": "1", "probe_bound": {number}}}'):
        code, report = counterexample_on(tmp_path, capsys, text)
        assert (code, report["error"]) == (2, message), text

@pytest.mark.parametrize("number", ["0.5", "1e300", "0.1", "2.5e-3", "1E+2"])
def test_exact_json_number_is_the_rational_written(tmp_path, capsys, number):
    """A JSON number whose float's repr spells the rational written is
    verified as that rational: the results are those of its string, and
    the report echoes the float."""
    code, report = counterexample_on(tmp_path, capsys, f'{{"c": {number}}}')
    want_code, want = counterexample_on(tmp_path, capsys, f'{{"c": "{number}"}}')
    assert code == want_code == 0
    assert report["results"] == want["results"]
    assert report["inputs"] == {"c": float(number)}

def test_cli_import_skips_dataclasses_and_inspect(tmp_path):
    """Neither importing the CLI nor running a command, a usage error or
    --help loads dataclasses, inspect, argparse or gettext."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(Z4_HAAR))
    code = (
        "import io, sys\n"
        "import haarlab.cli as cli\n"
        "heavy = {'dataclasses', 'inspect', 'argparse', 'gettext'}\n"
        "loaded = [sorted(heavy & set(sys.modules))]\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"for argv in (['verify-haar', '--input', {str(path)!r}], ['verify-haar'], ['--help']):\n"
        "    loaded.append((cli.run(argv), sorted(heavy & set(sys.modules))))\n"
        "sys.stdout = out\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "[[], (0, []), (2, []), (0, [])]\n"

SIZE_CAP_SPECS = {
    "cyclic": {"family": "cyclic", "params": {"n": 10**9}},
    "dihedral": {"family": "dihedral", "params": {"n": 10**9}},
    "product": D5_X_Q8,
}

@pytest.mark.parametrize("spec", SIZE_CAP_SPECS.values(), ids=SIZE_CAP_SPECS)
def test_order_cap_checked_before_tables(spec, monkeypatch):
    """An order past groups.MAX_ORDER raises TooLarge before a FiniteGroup
    of that order is built; the product's factors, under the cap, are."""
    orders = []
    init = groups.FiniteGroup.__init__

    def recording_init(self, table, *args, **kwargs):
        orders.append(len(table))
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", recording_init)
    with pytest.raises(TooLarge):
        cli.load_group(spec)
    assert all(order <= groups.MAX_ORDER for order in orders)

@pytest.mark.parametrize("readable", [True, False], ids=["success", "error"])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_2(tmp_path, readable, where):
    """An --output that cannot be opened: an error report on stdout, exit
    2 and no traceback, whether the command succeeded or failed."""
    path = tmp_path / "input.json"
    if readable:
        write_fresh(path, json.dumps(Z4_HAAR))
    output = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "haarlab.cli", "verify-haar",
            "--input", str(path), "--output", str(output),
        ],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    report = json.loads(proc.stdout)
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["command"] == "verify-haar"
    assert report["error"].startswith("cannot write output: ")

def test_empty_output_path_exits_2(tmp_path):
    """--output "" names no file: an error report on stdout and exit 2,
    not the report on stdout with exit 0."""
    proc, report = run_cli(tmp_path, "verify-haar", Z4_HAAR, "--output", "")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["error"].startswith("cannot write output: ")

def test_report_is_streamed(tmp_path):
    """Writing the 1.9 MB counterexample report of 40,960 tiles never holds
    the whole text: under 256 KiB of peak allocation into a sink that only
    counts characters."""
    payload = {"c": "1/40959", "probe_bound": "1/1"}
    out = tmp_path / "report.json"
    proc, _ = run_cli(tmp_path, "counterexample", payload, "--output", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)

    class CountingSink:
        chars = 0

        def write(self, chunk):
            self.chars += len(chunk)

    sink = CountingSink()
    tracemalloc.start()
    try:
        cli._write_report(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(text) > 1_500_000
    assert peak < 256 * 1024

def test_construct_bad_k0(tmp_path):
    payload = dict(Z4_COSET, k0=[0])
    proc, report = run_cli(tmp_path, "construct", payload)
    assert proc.returncode == 2


# -- determinism --------------------------------------------------------------

def test_byte_identical_reports(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    outputs = []
    for seed in ("0", "1", "12345"):
        out = tmp_path / f"out-{seed}.json"
        env = src_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable, "-m", "haarlab.cli", "verify-haar",
                "--input", str(path), "--output", str(out),
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].endswith(b"\n")
    assert b"\r" not in outputs[0]

def test_report_digest_is_unchanged():
    """Every report and exit code of the seed-1 benchmark rounds, byte for
    byte.  A change that alters reports on purpose updates this digest and
    says so in CHANGES.md."""
    tool = SRC.parent / "tools" / "report_digest.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "42db73986d2506d74043c6f4732f83e6d4adaa27647f06016ccfa533af6f7420\n"
    )

def test_enumerate_z2_to_the_5_report_is_unchanged(tmp_path):
    """The enumerate report of (Z2)^5, 374 topologies (one per subgroup, as
    the group is abelian), byte for byte: no benchmark round has a group
    with hundreds of normal subgroups."""
    spec = {"family": "cyclic", "params": {"n": 2}}
    for _ in range(4):
        spec = {"family": "product", "params": {"factors": [spec, {"family": "cyclic", "params": {"n": 2}}]}}
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    write_fresh(path, json.dumps({"group": spec}))
    assert cli.run(["enumerate", "--input", str(path), "--output", str(out)]) == 0
    report = out.read_bytes()
    assert len(json.loads(report)["results"]["topologies"]) == 374
    assert len(report) == 85578
    assert hashlib.sha256(report).hexdigest() == (
        "dd36214b004b841bf7ab0fcbda15972b98ce45d3ce392c0a2fc95e3513018288"
    )


# -- fuzz of the input boundary -------------------------------------------------

class Raw:
    """JSON text spliced into a payload as is: nesting and integer literals
    that json.dumps itself could not write."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return f"Raw({self.text[:12]!r} ... {len(self.text)} chars)"

def to_json(value):
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    return json.dumps(value)

# every key and word the input schema knows, so new keys and values often
# take the shape of real specs
SPEC_WORDS = [
    "family", "params", "n", "factors", "name", "order", "table",
    "normal_subgroup", "opens", "atom_masses", "lo", "hi", "lo_closed",
    "hi_closed", "group", "topology", "measure", "side", "k0", "c",
    "probe_bound", "group1", "group2", "intervals", "shift", "eps", "cyclic",
    "dihedral", "symmetric3", "quaternion8", "trivial", "product", "left",
    "right", "1/2", "0", "-1",
]
HUGE_INTS = [9 * 10**4299, -(10**4299), 2**64]
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.sampled_from(HUGE_INTS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(SPEC_WORDS)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
raw_values = st.one_of(
    st.integers(1, 3000).map(lambda d: Raw("[" * d + "]" * d)),
    st.integers(1, 3000).map(lambda d: Raw('{"n": ' * d + "4" + "}" * d)),
    st.just(Raw("[" * 100_000 + "]" * 100_000)),
    st.integers(4290, 5000).map(lambda digits: Raw("7" * digits)),
)
# one value in four is deep nesting or an integer past the digit limit
new_values = st.integers(0, 3).flatmap(lambda i: raw_values if i == 0 else json_values)

Z2_DISCRETE = {
    "group": {"family": "cyclic", "params": {"n": 2}},
    "topology": {"normal_subgroup": [0]},
}
Z2_TABLE = {
    "group": {"name": "Z2", "order": 2, "table": [[0, 1], [1, 0]]},
    "topology": {"opens": [[], [0, 1]]},
}
#: Valid inputs of each command, the starting points of the fuzz.
VALID_INPUTS = {
    "enumerate": [{"group": Z4_COSET["group"]}, {"group": Z2_TABLE["group"]}],
    "verify-haar": [
        dict(Z4_HAAR, side="right"),
        dict(Z2_TABLE, measure={"atom_masses": ["1/3"]}),
    ],
    "construct": [dict(Z4_COSET, k0=[0, 2]), dict(Z2_DISCRETE, k0=[0])],
    "quotient": [Z4_COSET, Z2_TABLE],
    "counterexample": [{"c": "1/3", "probe_bound": "2"}, {"c": "0"}],
    "fubini": [{"group1": Z4_COSET, "group2": Z2_DISCRETE}],
    "plane": [
        {
            "intervals": [{"lo": "0", "hi": "1", "lo_closed": False, "hi_closed": True}],
            "shift": ["1/2", "-3"],
            "eps": "1/10",
        },
        PLANE_MASS_PAST_INT_TEXT,
    ],
}

def json_paths(value, prefix=()):
    """The path of every node of a JSON value, the root's () first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from json_paths(child, prefix + (key,))

def with_node(value, path, new, drop=False):
    """A copy of value with the node at path set to new, or removed."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) > 1:
        copy[path[0]] = with_node(value[path[0]], path[1:], new, drop)
    elif drop:
        del copy[path[0]]
    else:
        copy[path[0]] = new
    return copy

@st.composite
def cli_inputs(draw):
    """A valid input of a random command with up to three edits: a node
    replaced by a new JSON value, a node removed, or a key added."""
    command = draw(st.sampled_from(sorted(VALID_INPUTS)))
    payload = draw(st.sampled_from(VALID_INPUTS[command]))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(json_paths(payload))))
        node = payload
        for key in path:
            node = node[key]
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add" and isinstance(node, dict):
            path += (draw(st.sampled_from(SPEC_WORDS)),)
        if edit == "drop" and path:
            payload = with_node(payload, path, None, drop=True)
        else:
            payload = with_node(payload, path, draw(new_values))
    flags = draw(st.sampled_from([[], ["--probe-bound", "1/3"]]))
    return command, payload, flags

@given(cli_inputs())
@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_fuzz_inputs_never_crash(tmp_path, capsys, case):
    """Any JSON under each command's keys, nested deep or holding integers
    past the digit limit, gives exit 0, 1 or 2 and a report that parses;
    exit 2 carries exactly the error report."""
    command, payload, flags = case
    path = tmp_path / "input.json"
    write_fresh(path, to_json(payload))
    code = cli.run([command, "--input", str(path), *flags])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2)
    if code == 2:
        assert set(report) == {"schema_version", "command", "error"}
    else:
        assert report["passed"] is (code == 0)


# -- how the CLI process ends ----------------------------------------------------

# 4,096 tiles: a report of about 180 kB, more than a pipe buffer holds
BIG_REPORT = ("counterexample", {"c": "1/4095", "probe_bound": "1/1"})

def in_process(tmp_path, capsys, command, payload, *extra):
    """Exit code and report bytes of cli.run in this process."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    code = cli.run([command, "--input", str(path), *extra])
    return code, capsys.readouterr().out.encode()

def env_buffering(unbuffered):
    """src_env with PYTHONUNBUFFERED set to 1, or unset."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env

def child(tmp_path, command, payload, *extra, env=None):
    """The same command as `python -m haarlab.cli` in a child process."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    argv = [sys.executable, "-m", "haarlab.cli", command, "--input", str(path), *extra]
    return subprocess.run(argv, capture_output=True, env=env or src_env())

@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_large_report_arrives_whole(tmp_path, capsys, unbuffered):
    code, want = in_process(tmp_path, capsys, *BIG_REPORT)
    assert code == 0 and len(want) > 1 << 17
    env = env_buffering(unbuffered)
    proc = child(tmp_path, *BIG_REPORT, env=env)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == want
    out = tmp_path / "out.json"
    proc = child(tmp_path, *BIG_REPORT, "--output", str(out), env=env)
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
    assert out.read_bytes() == want

EXIT_CASES = {
    "passed": ("verify-haar", Z4_HAAR, 0),
    "check_failed": ("verify-haar", dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]}), 1),
    "malformed": ("verify-haar", dict(Z4_HAAR, side="up"), 2),
}

@pytest.mark.parametrize("command,payload,want_code", EXIT_CASES.values(), ids=EXIT_CASES)
def test_child_exit_code_and_bytes_match_run(tmp_path, capsys, command, payload, want_code):
    code, want = in_process(tmp_path, capsys, command, payload)
    assert code == want_code
    proc = child(tmp_path, command, payload)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want_code, want, b"")

def test_exception_in_handler_gives_traceback_and_exit_1(tmp_path):
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps({"c": "1/2"}))
    code = (
        "import sys\n"
        "from haarlab import cli\n"
        "def boom(data, opts):\n"
        "    raise RuntimeError('boom')\n"
        "cli.COMMANDS['counterexample'] = boom\n"
        f"sys.argv = ['haarlab', 'counterexample', '--input', {str(path)!r}]\n"
        "cli.main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" in proc.stderr and "RuntimeError: boom" in proc.stderr

#: A library call made to fail as a bug would, and an input that reaches it.
Z2_GROUP = {"group": Z2_TABLE["group"]}
LIBRARY_BUGS = {
    "table": (groups.FiniteGroup, "__init__", ValueError, "enumerate", Z2_GROUP),
    "table_key": (groups.FiniteGroup, "__init__", KeyError, "enumerate", Z2_GROUP),
    "coset_topology": (groups.FiniteTopGroup, "__init__", ValueError, "quotient", Z4_COSET),
    "internal_inconsistency": (
        groups.FiniteTopGroup, "__init__", InternalInconsistency, "quotient", Z4_COSET
    ),
    "opens": (FiniteSpace, "__init__", ValueError, "quotient", Z2_TABLE),
    "interval": (plane.Interval, "__init__", ValueError, "plane", VALID_INPUTS["plane"][0]),
}

@pytest.mark.parametrize(
    "owner,name,error,command,payload", LIBRARY_BUGS.values(), ids=LIBRARY_BUGS
)
def test_library_bug_is_not_malformed_input(
    tmp_path, monkeypatch, owner, name, error, command, payload
):
    """A bare ValueError or KeyError, or an InternalInconsistency, from the
    library is a bug, not a malformed input: run lets it propagate, and no
    report is written."""
    def bug(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(owner, name, bug)
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    out = tmp_path / "out.json"
    with pytest.raises(error) as info:
        cli.run([command, "--input", str(path), "--output", str(out)])
    assert type(info.value) is error and not out.exists()

# Command lines outside the grammar; "P" stands for the input's path.
USAGE_ERRORS = {
    "no_command": ([], None, "no command"),
    "unknown_command": (["bogus", "--input", "P"], None, "unknown command 'bogus'"),
    "missing_input": (["counterexample"], "counterexample", "--input is required"),
    "flag_without_value": (["counterexample", "--input"], "counterexample", "--input needs a value"),
    "unknown_flag": (["counterexample", "--input", "P", "--verbose"], "counterexample", "unknown flag '--verbose'"),
    "abbreviated_flag": (["counterexample", "--inp", "P"], "counterexample", "unknown flag '--inp'"),
    "max_order": (["counterexample", "--input", "P", "--max-order", "8"], "counterexample", "unknown flag '--max-order'"),
    "probe_bound_elsewhere": (
        ["verify-haar", "--input", "P", "--probe-bound", "banana"],
        "verify-haar",
        "--probe-bound applies only to counterexample",
    ),
    "output_given": (
        ["counterexample", "--input", "P", "--output", "O", "--verbose"],
        "counterexample",
        "unknown flag '--verbose'",
    ),
}

@pytest.mark.parametrize("argv,command,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2(tmp_path, argv, command, message):
    """Exit 2 with a JSON error report on stdout and nothing on stderr,
    even when the command line names an --output, which is not created."""
    path, out = tmp_path / "input.json", tmp_path / "out.json"
    write_fresh(path, json.dumps({"c": "1/2"}))
    argv = [{"P": str(path), "O": str(out)}.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", *argv], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    report = json.loads(proc.stdout)
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["command"] == command
    assert message in report["error"]
    assert not out.exists()

@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["plane", "--help"]])
def test_help_exits_0(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", *argv], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: haarlab <command> --input PATH")
    assert all(command in proc.stdout for command in cli.COMMANDS)

def test_flag_spellings_give_the_same_bytes(tmp_path):
    """--flag=value and --flag value, in any order; a repeated flag keeps
    its last value."""
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps({"c": "1/3"}))
    spellings = [
        ["--input", str(path), "--probe-bound", "2"],
        [f"--input={path}", "--probe-bound=2"],
        ["--probe-bound", "2", "--input", str(path)],
        ["--input", "missing.json", "--probe-bound=5", f"--input={path}", "--probe-bound", "2"],
    ]
    outputs = set()
    for flags in spellings:
        proc = subprocess.run(
            [sys.executable, "-m", "haarlab.cli", "counterexample", *flags],
            capture_output=True,
            env=src_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["results"]["translate_count"] == 7

@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("big", [False, True], ids=["flush", "write"])
def test_closed_stdout_never_exits_0(tmp_path, big, unbuffered):
    """A reader that closes the pipe early: the small report fails at the
    final flush, the large one while it is written."""
    command, payload = BIG_REPORT if big else ("counterexample", {"c": "1/2"})
    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(payload))
    proc = subprocess.Popen(
        [sys.executable, "-m", "haarlab.cli", command, "--input", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env_buffering(unbuffered),
    )
    if big:
        assert proc.stdout.read(100)
    proc.stdout.close()
    assert proc.wait(timeout=60) != 0

def test_main_flushes_then_ends_with_the_code_of_run(tmp_path, capsys, monkeypatch):
    class Exited(Exception):
        pass

    def fake_exit(code):
        raise Exited(code)

    path = tmp_path / "input.json"
    write_fresh(path, json.dumps(dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]})))
    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "argv", ["haarlab", "verify-haar", "--input", str(path)])
    with pytest.raises(Exited) as exited:
        cli.main()
    assert exited.value.args == (1,)
    assert json.loads(capsys.readouterr().out)["passed"] is False

    # a flush that fails propagates before os._exit is reached
    class ClosedPipe:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main()
