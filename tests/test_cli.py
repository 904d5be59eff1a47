import hashlib
import io
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

from conftest import CLI, SRC, python_child, run_python, src_env
from literal import closed_sets, opens


Z4_COSET = {
    "group": {"family": "cyclic", "params": {"n": 4}},
    "topology": {"normal_subgroup": [0, 2]},
}


def test_verify_haar_pass(in_process):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
    proc = in_process("verify-haar", payload)
    assert proc.returncode == 0
    report = proc.report
    assert report["passed"] is True
    assert report["results"]["is_haar"] is True
    assert report["schema_version"] == "1"

def test_verify_haar_fail_with_witness(in_process):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]})
    proc = in_process("verify-haar", payload)
    assert proc.returncode == 1
    assert proc.report["passed"] is False
    w = proc.report["results"]["witnesses"][0]
    assert w["set"] == [0, 2]
    assert w["element"] == 1

def test_counterexample_zero_mass(in_process):
    proc = in_process("counterexample", {"c": "0/1"})
    assert proc.returncode == 0
    assert proc.report["results"]["verdict"] == "NonzeroViolated"
    assert proc.report["results"]["verified"] is True

def test_counterexample_probe_bound_flag(in_process):
    proc = in_process("counterexample", {"c": "1/1"}, "--probe-bound", "10/1")
    assert proc.returncode == 0
    assert proc.report["results"]["verdict"] == "FinitenessViolated"
    assert proc.report["results"]["translate_count"] == 11

def test_empty_probe_bound_flag_exits_2(in_process):
    # an empty flag is a bad rational, as an empty "probe_bound" is
    proc = in_process("counterexample", {"c": "1/1"}, "--probe-bound", "")
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert sorted(proc.report) == ["command", "error", "schema_version"]
    assert proc.report["error"].startswith("bad rational ''")

def test_input_probe_bound_is_checked_under_the_flag(in_process):
    """The flag takes the place of the input's probe_bound, which must
    still be a rational."""
    payload = {"c": "1/2", "probe_bound": "banana"}
    proc = in_process("counterexample", payload, "--probe-bound", "1")
    assert proc.returncode == 2
    assert proc.report["error"] == (
        "bad rational 'banana': Invalid literal for Fraction: 'banana'"
    )
    payload = {"c": "1/1", "probe_bound": "2"}
    proc = in_process("counterexample", payload, "--probe-bound", "10/1")
    assert proc.returncode == 0
    assert proc.report["results"]["translate_count"] == 11

def test_enumerate_z4(in_process):
    proc = in_process("enumerate", {"group": {"family": "cyclic", "params": {"n": 4}}})
    assert proc.returncode == 0
    topos = proc.report["results"]["topologies"]
    assert len(topos) == 3
    assert all(t["haar_dimension"] == 1 for t in topos)

def test_enumerate_custom_table(in_process):
    proc = in_process("enumerate", {"group": {"order": 2, "table": [[0, 1], [1, 0]]}})
    assert proc.returncode == 0
    assert len(proc.report["results"]["topologies"]) == 2

def test_construct_examples(in_process):
    proc = in_process("construct", dict(Z4_COSET, k0=[0, 2]))
    assert proc.returncode == 0
    assert proc.report["results"]["measure"] == ["1/1", "1/1"]
    assert proc.report["results"]["canonical_scalar"] == "1/1"
    proc = in_process("construct", dict(Z4_COSET, k0=[0, 1, 2, 3]))
    assert proc.returncode == 0
    assert proc.report["results"]["canonical_scalar"] == "1/2"

def test_quotient(in_process):
    proc = in_process("quotient", dict(Z4_COSET))
    assert proc.returncode == 0
    r = proc.report["results"]
    assert r["quotient_order"] == 2
    assert r["projection"] == [0, 1, 0, 1]
    assert r["pullback_roundtrip_ok"] is True

def test_counterexample_verifies_once(in_process, count_calls, monkeypatch):
    verdicts = count_calls(plane, "verify_bk_certificate")
    payload = {"c": "1/3", "probe_bound": "10/1"}
    assert in_process("counterexample", payload).returncode == 0
    assert [call.result for call in verdicts] == [True]
    # a certificate that fails verification is reported, with exit 1
    monkeypatch.setattr(plane, "verify_bk_certificate", lambda cert: False)
    proc = in_process("counterexample", payload)
    assert proc.returncode == 1
    assert proc.report["results"]["verified"] is False

class UnlistedStep(Fraction):
    """A certificate step that refuses to make a tile offset from it."""

    def __mul__(self, other):
        raise AssertionError("a tile offset was built")

    __rmul__ = __add__ = __radd__ = __mul__

def test_counterexample_over_listing_cap(in_process, monkeypatch):
    build = plane.counterexample_bk

    # rebuilds the certificate around a step that refuses arithmetic
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
    want = {
        "schema_version": "1",
        "command": "counterexample",
        "error": "TooLarge: 1000000000001 tiles exceeds the listing cap 131072",
    }
    proc = in_process("counterexample", payload)
    assert (proc.returncode, proc.stderr, proc.report) == (2, b"", want)
    monkeypatch.undo()
    proc = in_process("counterexample", payload)
    assert (proc.returncode, proc.stderr, proc.report) == (2, b"", want)

def test_counterexample_listing_builds_three_fractions_per_tile(in_process, count_calls):
    """Listing a certificate builds at most 3 Fractions per tile: the
    1,000-tile report builds at most 3 * 999 more than the one-tile report
    of the same mass.  A count of constructions, not a timing.

    counterexample's heaviest input under the caps is c = 1 with probe
    bound 131071: 131,072 tiles, `plane.MAX_LISTED_TILES`, all listed.
    Its work is one certificate, an O(1) verification and a listing linear
    in the tile count, so this bound covers it: at most 3 * 131,071
    Fractions past the one-tile report."""
    built = count_calls(Fraction, "__new__")

    def fractions_built(probe_bound, tiles):
        built.clear()
        proc = in_process("counterexample", {"c": "1", "probe_bound": probe_bound})
        assert proc.returncode == 0
        n = len(built)
        assert proc.report["results"]["translate_count"] == tiles
        return n

    one = fractions_built("1/2", 1)
    assert fractions_built("999", 1000) - one <= 3 * 999

def test_fubini(in_process):
    payload = {
        "group1": dict(Z4_COSET),
        "group2": {
            "group": {"family": "cyclic", "params": {"n": 2}},
            "topology": {"normal_subgroup": [0]},
        },
    }
    proc = in_process("fubini", payload)
    assert proc.returncode == 0
    assert all(c["equal"] for c in proc.report["results"]["checks"])

def test_plane(in_process):
    payload = {
        "intervals": [{"lo": "0/1", "hi": "1/1", "lo_closed": False, "hi_closed": False}],
        "shift": ["3/1", "-7/1"],
        "eps": "1/10",
    }
    proc = in_process("plane", payload)
    assert proc.returncode == 0
    r = proc.report["results"]
    assert r["mass"] == "1/1"
    assert r["shifted_mass"] == "1/1"
    assert r["inner"] == [
        {"lo": "1/20", "hi": "19/20", "lo_closed": True, "hi_closed": True}
    ]
    assert r["outer"] == [
        {"lo": "-1/20", "hi": "21/20", "lo_closed": False, "hi_closed": False}
    ]

def test_plane_inner_midpoint(in_process):
    """An eps wider than an open interval collapses its inner interval to
    the midpoint; both masses stay within eps, so the report passes."""
    payload = {
        "intervals": [{"lo": "0", "hi": "1", "lo_closed": False, "hi_closed": False}],
        "eps": "10",
    }
    proc = in_process("plane", payload)
    assert proc.returncode == 0
    r = proc.report["results"]
    assert r["inner"] == [{"lo": "1/2", "hi": "1/2", "lo_closed": True, "hi_closed": True}]
    assert r["inner_mass"] == "0/1"
    assert r["outer"] == [{"lo": "-5/1", "hi": "6/1", "lo_closed": False, "hi_closed": False}]
    assert r["outer_mass"] == "11/1"

def test_plane_computes_each_mass_once(in_process, count_calls):
    """With a shift and an eps, `plane` reports four masses (base, shifted,
    inner and outer) and calls haar_v at most once for each."""
    calls = count_calls(plane, "haar_v")
    payload = {"intervals": [{"lo": "0", "hi": "1"}, {"lo": "2", "hi": "5/2"}],
               "shift": ["1/3", "0"], "eps": "1/10"}
    proc = in_process("plane", payload)
    assert proc.returncode == 0
    assert proc.report["results"]["mass"] == "3/2"
    assert len(calls) <= 4


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
def test_more_than_16_atoms(in_process, group, order, n_normal):
    proc = in_process("enumerate", {"group": group})
    assert (proc.returncode, proc.stderr) == (0, b"")
    topos = proc.report["results"]["topologies"]
    assert len(topos) == n_normal
    assert len({tuple(t["normal_subgroup"]) for t in topos}) == n_normal
    for t in topos:
        assert t["haar_dimension"] == 1
        assert t["canonical_masses"] == ["1/1"] * len(t["atoms"])
    # the discrete topology has one atom per element, more than 16: the
    # quotient is G itself and every translate check passes
    base = {"group": group, "topology": {"normal_subgroup": [0]}}
    proc = in_process("quotient", base)
    assert (proc.returncode, proc.stderr) == (0, b"")
    results = proc.report["results"]
    assert results["atoms"] == [[x] for x in range(order)]
    assert results["quotient_order"] == order
    assert results["projection"] == list(range(order))
    assert results["pushforward_masses"] == ["1/1"] * order
    assert results["pullback_roundtrip_ok"] and results["pushforward_is_haar"]
    payload = dict(base, measure={"atom_masses": ["1/1"] * order})
    proc = in_process("verify-haar", payload)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.report["results"]["is_haar"] and proc.report["results"]["witnesses"] == []
    # past 6 atoms the covering table is truncated to the atoms and G
    # against {0} and G; covering G by singletons takes all of them
    proc = in_process("construct", dict(base, k0=[0]))
    assert (proc.returncode, proc.stderr) == (0, b"")
    results = proc.report["results"]
    assert results["measure"] == ["1/1"] * order
    assert results["canonical_scalar"] == "1/1"
    assert results["table_truncated"] is True
    full = list(range(order))
    assert results["covering_table"] == [
        {"k": k, "u": u, "count": order if (k, u) == (full, [0]) else 1}
        for k in [[x] for x in range(order)] + [full]
        for u in ([0], full)
    ]


def test_quotient_atom_cap_checked_before_quotient(in_process):
    """No atom cap stands before the quotient: a discrete cyclic group past
    16 atoms gets its quotient, and the pushforward of the canonical
    measure is Haar on it."""
    for n in (17, 24, 64):
        payload = {
            "group": {"family": "cyclic", "params": {"n": n}},
            "topology": {"normal_subgroup": [0]},
        }
        proc = in_process("quotient", payload)
        assert proc.returncode == 0
        results = proc.report["results"]
        assert results["quotient_order"] == n
        assert results["pushforward_masses"] == ["1/1"] * n
        assert results["pushforward_is_haar"] is True


def test_fubini_atom_cap(in_process):
    """A factor past 16 atoms is checked like any other: Z24 x Z2, under
    the order cap, in both orders, gives 48 equal iterated integrals."""
    z24 = {"group": {"family": "cyclic", "params": {"n": 24}}, "topology": {"normal_subgroup": [0]}}
    z2 = {"group": {"family": "cyclic", "params": {"n": 2}}, "topology": {"normal_subgroup": [0]}}
    for payload in ({"group1": z24, "group2": z2}, {"group1": z2, "group2": z24}):
        proc = in_process("fubini", payload)
        assert proc.returncode == 0
        checks = proc.report["results"]["checks"]
        assert len(checks) == 48
        assert all(
            c["equal"] and c["lhs"] == c["rhs"] == "1/1" for c in checks
        )


def test_fubini_worst_case_counters(in_process, count_calls):
    """Counter bound at the order cap: fubini on discrete Z8 x discrete Z8
    checks each of its 64 product atoms once, and lists the product atoms
    once for the command and once in each check."""
    checks = count_calls(measure, "fubini_check")
    cells = count_calls(measure, "product_cells")
    z8 = {"group": {"family": "cyclic", "params": {"n": 8}}, "topology": {"normal_subgroup": [0]}}
    proc = in_process("fubini", {"group1": z8, "group2": z8})
    assert proc.returncode == 0
    assert len(proc.report["results"]["checks"]) == 64
    assert len(checks) == 64
    assert len(cells) <= 65


def test_verify_haar_witness_past_16_atoms(in_process):
    """A perturbed measure on discrete Z64 fails with the first light atom
    that translation by 1 moves onto the heavy atom 40, on both sides."""
    masses = ["1/1"] * 64
    masses[40] = "3/2"
    payload = {
        "group": {"family": "cyclic", "params": {"n": 64}},
        "topology": {"normal_subgroup": [0]},
        "measure": {"atom_masses": masses},
    }
    proc = in_process("verify-haar", payload)
    assert proc.returncode == 1
    results = proc.report["results"]
    assert not results["left_invariant"] and not results["right_invariant"]
    assert results["witnesses"] == [
        {"kind": "left", "set": [39], "element": 1},
        {"kind": "right", "set": [39], "element": 1},
    ]


def table_spec(group):
    return {"order": group.order, "table": [list(r) for r in group.table]}

def test_partition_once_per_top_group(corpus, count_calls):
    """Counter bound: the partition is built at most once per topological
    group, and N, the atoms, the representatives and G/N are all read from
    it.  A group is built either by the checked constructor or, where a
    theorem proves its checks, by `_trusted`; every group whose partition
    enumerate, quotient, construct and verify-haar compute is one they
    built, and they compute it once for each topology they report on (and
    once more for G/N in quotient, whose pushforward is checked on it).
    The other groups they build are quotients whose table alone is read.
    No closure runs inside the partition (nor anywhere else in these
    commands): the atoms are the distinct minimal opens."""
    checked = count_calls(groups.FiniteTopGroup, "__init__")
    trusted = count_calls(groups.FiniteTopGroup, "_trusted")
    calls = count_calls(groups.FiniteTopGroup._partition, "func")
    closures = count_calls(FiniteSpace, "closure")

    def clear():
        for records in (checked, trusted, calls):
            records.clear()

    def built():
        return {id(call.args[0]) for call in checked} | {id(call.result) for call in trusted}

    z48 = groups.cyclic(48)
    n8 = z48.generated_subgroup([6])
    cases = [(g, n) for g in corpus for n in g.normal_subgroups()] + [(z48, n8)]
    opts = cli.Options()
    for group in [*corpus, z48]:
        clear()
        cli.cmd_enumerate({"group": table_spec(group)}, opts)
        partitioned = [id(call.args[0]) for call in calls]
        n_topologies = len(group.normal_subgroups())
        assert len(partitioned) == len(set(partitioned)) == n_topologies, group.name
        assert set(partitioned) <= built(), group.name
        # each topology and its G/N, both by theorem
        assert (len(checked), len(trusted)) == (0, 2 * n_topologies), group.name
    for group, n_mask in cases:
        base = {"group": table_spec(group), "topology": {"normal_subgroup": list(bit_indices(n_mask))}}
        k = group.order // bin(n_mask).count("1")
        for command, payload, want in (
            (cli.cmd_quotient, base, 2),
            (cli.cmd_construct, dict(base, k0=list(bit_indices(n_mask))), 1),
            (cli.cmd_verify_haar, dict(base, measure={"atom_masses": ["1"] * k}), 1),
        ):
            clear()
            command(payload, opts)
            partitioned = [id(call.args[0]) for call in calls]
            assert len(partitioned) == len(set(partitioned)) == want, (group.name, command.__name__)
            assert set(partitioned) <= built(), (group.name, command.__name__)
            # G checked; G/N, and in quotient the G/N of G/N, by theorem
            assert (len(checked), len(trusted)) == (1, want), (group.name, command.__name__)
    assert closures == []

def test_quotient_validates_one_group(corpus, count_calls):
    """Counter bound: quotient validates exactly one Cayley table, G's.
    G/N, which pushforward and pullback read as quotient(tg) holds it, is
    built from the partition with no validation, as is the G/N of G/N
    whose table is_haar reads on the pushforward."""
    validated = count_calls(groups.FiniteGroup, "__init__")
    trusted = count_calls(groups.FiniteGroup, "_trusted")
    opts = cli.Options()
    for group in corpus:
        for n_mask in group.normal_subgroups():
            validated.clear()
            trusted.clear()
            cli.cmd_quotient(
                {
                    "group": dict(table_spec(group), name=group.name),
                    "topology": {"normal_subgroup": list(bit_indices(n_mask))},
                },
                opts,
            )
            assert [call.args[0].name for call in validated] == [group.name], (group.name, n_mask)
            names = [call.result.name for call in trusted]
            assert names == [f"{group.name}/N", f"{group.name}/N/N"], (group.name, n_mask)

def test_enumerate_makes_no_normality_test(corpus, count_calls):
    """Counter bound: enumerate builds no FiniteSpace, as each topology is
    stored as the normal subgroup the lattice found, whose normality the
    constructor checks in one pass per coset; and past that lattice it
    makes at most 2n translate calls per topology: one per coset builds
    the atoms."""
    spaces = count_calls(FiniteSpace, "__init__")
    translates = count_calls(groups.FiniteGroup, "translate")
    z2 = groups.cyclic(2)
    z2_4 = groups.direct_product(groups.direct_product(z2, z2), groups.direct_product(z2, z2))
    opts = cli.Options()
    for group in [*corpus, z2_4]:
        spec = {"group": table_spec(group)}
        translates.clear()
        cli.load_group(spec["group"]).normal_subgroups()
        lattice = len(translates)
        spaces.clear()
        translates.clear()
        results, _ = cli.cmd_enumerate(spec, opts)
        n_topologies = len(results["topologies"])
        assert spaces == [], group.name
        assert len(translates) - lattice <= 2 * group.order * n_topologies, group.name
    assert n_topologies == 67  # (Z2)^4, abelian: one per subgroup

def test_spaces_built_per_command(corpus, count_calls):
    """Counter bound: FiniteSpace.__init__ runs 0 times for enumerate on
    each corpus group, and, on each of its topologies given as a normal
    subgroup, 0 times for quotient, verify-haar and construct, whose
    reference set K0 is checked to be closed on the atoms."""
    built = count_calls(FiniteSpace, "__init__")
    for group in corpus:
        cli.cmd_enumerate({"group": table_spec(group)}, cli.Options())
        assert built == [], group.name
        for n_mask in group.normal_subgroups():
            n_points = list(bit_indices(n_mask))
            base = {"group": table_spec(group), "topology": {"normal_subgroup": n_points}}
            k = group.order // len(n_points)
            for command, payload in (
                ("quotient", base),
                ("verify-haar", dict(base, measure={"atom_masses": ["1"] * k})),
                ("construct", dict(base, k0=n_points)),
            ):
                cli.COMMANDS[command](payload, cli.Options())
                assert built == [], (group.name, n_mask, command)

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

def test_malformed_json(in_process):
    proc = in_process("verify-haar", "{not json")
    assert proc.returncode == 2
    assert "error" in proc.report

def test_unknown_field_rejected(in_process):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]}, bogus=1)
    proc = in_process("verify-haar", payload)
    assert proc.returncode == 2
    assert "bogus" in proc.report["error"]

def test_bad_rational(in_process):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "one"]})
    assert in_process("verify-haar", payload).returncode == 2

def test_incompatible_topology(in_process):
    payload = {
        "group": {"family": "cyclic", "params": {"n": 4}},
        "topology": {"opens": [[], [0], [0, 1, 2, 3]]},
        "measure": {"atom_masses": ["1/1"]},
    }
    proc = in_process("verify-haar", payload)
    assert proc.returncode == 2
    assert "incompatible" in proc.report["error"]

def test_env_order_cap_is_ignored(child):
    """The CLI reads no environment variable: HAARLAB_MAX_ORDER=4 leaves
    enumerate on Z5 at exit 0, with the bytes of a run without it."""
    payload = {"group": {"family": "cyclic", "params": {"n": 5}}}
    procs = [
        child("enumerate", payload, env=env)
        for env in (src_env(), src_env(HAARLAB_MAX_ORDER="4"))
    ]
    assert [(p.returncode, p.stderr) for p in procs] == [(0, b"")] * 2
    assert procs[0].stdout == procs[1].stdout

@pytest.mark.parametrize("setting", ["flag", "env"])
def test_order_cap_stays_at_64(in_process, count_calls, monkeypatch, setting):
    """Neither old way of raising the cap lifts it: with HAARLAB_MAX_ORDER
    at 4096, fubini on discrete Z16 x Z16, of order 256, exits 2 with the
    cap error; --max-order 4096 exits 2 as an unknown flag. Neither run
    reaches fubini_check."""
    calls = count_calls(measure, "fubini_check")
    if setting == "env":
        monkeypatch.setenv("HAARLAB_MAX_ORDER", "4096")
    flags = ["--max-order", "4096"] if setting == "flag" else []
    proc = in_process("fubini", {"group1": DISCRETE_Z16, "group2": DISCRETE_Z16}, *flags)
    assert proc.returncode == 2
    error = {
        "env": "combined order exceeds the cap",
        "flag": "unknown flag '--max-order'",
    }[setting]
    assert proc.report == {
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
def test_malformed_input_exits_2(in_process, command, payload):
    proc = in_process(command, payload)
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert set(proc.report) == {"schema_version", "command", "error"}

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

def nested_product(depth):
    """A spec of order 1 with depth product specs nested in one another."""
    spec = {"family": "trivial"}
    for _ in range(depth):
        spec = {"family": "product", "params": {"factors": [{"family": "trivial"}, spec]}}
    return spec

# 12 intervals [i + 1/q, i + 2/q], q = 10^494 + 3 + 2i: each endpoint has at
# most 992 characters, under the cap, but the mass, the sum of the 1/q, would
# have a denominator of 5,924 digits, more than an int converts to text, so
# plane.check_budget refuses it
PLANE_MASS_PAST_INT_TEXT = {
    "intervals": [
        {"lo": f"{i * q + 1}/{q}", "hi": f"{i * q + 2}/{q}"}
        for i, q in ((i, 10**494 + 3 + 2 * i) for i in range(12))
    ],
    "shift": ["1/2", "0"],
    "eps": "1/10",
}

PLANE_BUDGET_TEXT = (
    "TooLarge: plane input exceeds the budget of 256 merged intervals and "
    "4300-digit report rationals"
)

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
    "product_nesting_over_cap": (
        "enumerate",
        {"group": nested_product(cli.MAX_PRODUCT_DEPTH + 1)},
        "TooLarge: group spec nests product past depth 64",
    ),
    "plane_mass_past_int_text": ("plane", PLANE_MASS_PAST_INT_TEXT, PLANE_BUDGET_TEXT),
    "plane_over_interval_cap": (
        "plane",
        {"intervals": [{"lo": str(2 * i), "hi": str(2 * i + 1)} for i in range(257)]},
        PLANE_BUDGET_TEXT,
    ),
}

@pytest.mark.parametrize("command,payload,message", ERROR_TEXTS.values(), ids=ERROR_TEXTS)
def test_error_texts(in_process, command, payload, message):
    """Each broken precondition exits 2 with exactly its error text."""
    proc = in_process(command, payload)
    assert proc.returncode == 2
    assert proc.report == {
        "schema_version": "1",
        "command": command,
        "error": message,
    }

def test_plane_refuses_over_budget_input_before_any_sum(in_process, count_calls):
    """1,000 intervals [i + 1/q_i, i + 2/q_i], q_i = 10^494 + 3 + 2i, with
    eps = 1/10^400: each endpoint is under the rational caps, and the
    library calls on them once took 13.2 s before the report failed to
    print.  plane.check_budget refuses them before any interval sum, with
    no haar_v call, and the twelve intervals of the same shape too."""
    sums = count_calls(plane, "haar_v")
    payload = {
        "intervals": [
            {"lo": f"{i * q + 1}/{q}", "hi": f"{i * q + 2}/{q}"}
            for i, q in ((i, 10**494 + 3 + 2 * i) for i in range(1000))
        ],
        "eps": f"1/{10**400}",
    }
    for payload in (payload, PLANE_MASS_PAST_INT_TEXT):
        proc = in_process("plane", payload)
        assert (proc.returncode, proc.report["error"]) == (2, PLANE_BUDGET_TEXT)
    assert sums == []

def test_frac_str_refuses_a_rational_past_int_text():
    """frac_str's TooLarge stays as a guard behind plane.check_budget: a
    rational whose numerator or denominator has more than 4,300 digits
    raises it, with a message that formats no number."""
    for value in (Fraction(1, 10**4300), Fraction(10**4300, 3)):
        with pytest.raises(TooLarge) as info:
            cli.frac_str(value)
        assert str(info.value) == (
            "a rational in the report has a numerator or denominator of more "
            "than 4300 digits"
        )
    assert cli.frac_str(Fraction(1, 10**4299)) == f"1/{10**4299}"

def plane_heaviest():
    """plane's heaviest input under the caps: plane.MAX_INTERVALS open
    intervals whose endpoints have up to 999 characters over one 497-digit
    denominator, a shift and an eps of about 1,000 characters over two
    more.  The digit budget holds (L has about 6,600 bits), and the work,
    after a sort of the input intervals, is linear in the interval count
    with arithmetic on rationals of at most 4,300 digits."""
    d = 10**496 + 1
    return {
        "intervals": [
            {"lo": f"{2 * i * d + d // 3}/{d}", "hi": f"{2 * i * d + 2 * d // 3}/{d}",
             "lo_closed": False, "hi_closed": False}
            for i in range(plane.MAX_INTERVALS)
        ],
        "shift": [f"{10**497 + 1}/{10**498 + 3}", "0"],
        "eps": f"1/{10**997 + 7}",
    }

def test_plane_worst_case_counters(in_process, count_calls):
    """Counter bound on plane's heaviest input: four intervals built per
    input interval (the base, its translate and the two gaps), and at most
    four masses."""
    built = count_calls(plane.Interval, "__init__")
    sums = count_calls(plane, "haar_v")
    proc = in_process("plane", plane_heaviest())
    assert proc.returncode == 0
    assert len(proc.report["results"]["outer"]) == plane.MAX_INTERVALS
    assert len(built) <= 4 * plane.MAX_INTERVALS
    assert len(sums) <= 4

@pytest.mark.parametrize("family", [
    {"family": "cyclic", "params": {"n": 64}}, {"family": "dihedral", "params": {"n": 32}},
], ids=["Z64", "D32"])
def test_verify_haar_and_quotient_worst_case_counters(in_process, count_calls, family):
    """Counter bound on the heaviest input of verify-haar and of quotient
    under the caps: a group of order 64 with the discrete topology, 64
    atoms.  verify-haar builds one group and one topological group, whose
    partition it reads once, and runs the invariance check once a side,
    at most 64^2 comparisons each (test_is_haar_work_is_linear_in_atoms);
    quotient validates G alone, builds G/N from its partition with no
    check, and checks the pushforward on G/N the same way.  The table
    validation is O(n^2) row reads for an order-n group."""
    tables = count_calls(groups.FiniteGroup, "__init__")
    top_groups = count_calls(groups.FiniteTopGroup, "__init__")
    partitions = count_calls(groups.FiniteTopGroup._partition, "func")
    sides = count_calls(measure, "_check_invariance")
    base = {"group": family, "topology": {"normal_subgroup": [0]}}
    for command, payload, want in (
        ("verify-haar", dict(base, measure={"atom_masses": ["1"] * 64}), (1, 1, 1, 2)),
        ("quotient", base, (1, 1, 2, 2)),
    ):
        for calls in (tables, top_groups, partitions, sides):
            calls.clear()
        proc = in_process(command, payload)
        assert proc.returncode == 0, command
        counts = tuple(map(len, (tables, top_groups, partitions, sides)))
        assert counts == want, (command, counts)

def test_rational_caps_checked_before_fraction(in_process, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    proc = in_process("counterexample", {"c": "1e999999999"})
    assert proc.returncode == 2
    assert proc.report["error"] == (
        "bad rational '1e999999999': exponent exceeds the cap 1000"
    )
    proc = in_process("counterexample", {"c": "1e999999999"}, "--probe-bound", "1/1" + "0" * 1000)
    assert proc.returncode == 2
    assert proc.report["error"] == (
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

#: The flag every JSON-number case runs counterexample with.
PROBE_BOUND = ("--probe-bound", "3/10")

@pytest.mark.parametrize("number", ["1e-400", "0.30000000000000001", "1e400"])
def test_lossy_json_number_exits_2(in_process, number):
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
        proc = in_process("counterexample", text, *PROBE_BOUND)
        assert (proc.returncode, proc.report["error"]) == (2, message), text

@pytest.mark.parametrize("number", ["0.5", "1e300", "0.1", "2.5e-3", "1E+2"])
def test_exact_json_number_is_the_rational_written(in_process, number):
    """A JSON number whose float's repr spells the rational written is
    verified as that rational: the results are those of its string, and
    the report echoes the float."""
    proc = in_process("counterexample", f'{{"c": {number}}}', *PROBE_BOUND)
    want = in_process("counterexample", f'{{"c": "{number}"}}', *PROBE_BOUND)
    assert proc.returncode == want.returncode == 0
    assert proc.report["results"] == want.report["results"]
    assert proc.report["inputs"] == {"c": float(number)}

#: What `import haarlab.cli` adds to the modules that importing only the
#: standard library modules cli.py names loads: haarlab's own nine.
HAARLAB_MODULES = [
    "haarlab", "haarlab.cli", "haarlab.covering", "haarlab.errors", "haarlab.groups",
    "haarlab.measure", "haarlab.plane", "haarlab.records", "haarlab.topology",
]

def test_cli_import_skips_dataclasses_and_inspect(write_input):
    """Importing the CLI loads haarlab's own nine modules and nothing else
    past the standard library modules cli.py imports, and neither that
    import nor running a command, a usage error or --help loads
    dataclasses, inspect, argparse or gettext.  A fresh interpreter
    without site, as `setup_s` in bench/ times the import."""
    path = write_input(Z4_HAAR)
    code = (
        "import sys\n"
        "import io, json, math, os, re, sys, fractions\n"
        "stdlib = set(sys.modules)\n"
        "import haarlab.cli as cli\n"
        "print(sorted(set(sys.modules) - stdlib))\n"
        "heavy = {'dataclasses', 'inspect', 'argparse', 'gettext'}\n"
        "loaded = [sorted(heavy & set(sys.modules))]\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"for argv in (['verify-haar', '--input', {path!r}], ['verify-haar'], ['--help']):\n"
        "    loaded.append((cli.run(argv), sorted(heavy & set(sys.modules))))\n"
        "sys.stdout = out\n"
        "print(loaded)\n"
    )
    proc = run_python("-S", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, b"")
    added, loaded = proc.stdout.decode().splitlines()
    assert added == repr(HAARLAB_MODULES)
    assert loaded == "[[], (0, []), (2, []), (0, [])]"

SIZE_CAP_SPECS = {
    "cyclic": {"family": "cyclic", "params": {"n": 10**9}},
    "dihedral": {"family": "dihedral", "params": {"n": 10**9}},
    "product": D5_X_Q8,
}

@pytest.mark.parametrize("spec", SIZE_CAP_SPECS.values(), ids=SIZE_CAP_SPECS)
def test_order_cap_checked_before_tables(spec, count_calls):
    """An order past groups.MAX_ORDER raises TooLarge before a FiniteGroup
    of that order is built; the product's factors, under the cap, are."""
    built = count_calls(groups.FiniteGroup, "__init__")
    with pytest.raises(TooLarge):
        cli.load_group(spec)
    assert all(len(call.args[1]) <= groups.MAX_ORDER for call in built)

#: The --input of each case: a valid one, a missing file and malformed JSON.
UNWRITABLE_OUTPUT_INPUTS = {"success": Z4_HAAR, "error": None, "malformed": b"{not json"}

@pytest.mark.parametrize(
    "payload", UNWRITABLE_OUTPUT_INPUTS.values(), ids=UNWRITABLE_OUTPUT_INPUTS
)
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_2(tmp_path, write_input, capsys, payload, where):
    """An --output that cannot be opened: an error report on stdout, exit
    2 and no traceback, whether the command succeeded or failed, and
    whether its input was missing or unreadable."""
    output = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    path = str(tmp_path / "absent.json") if payload is None else write_input(payload)
    code = cli.run(["verify-haar", "--input", path, "--output", str(output)])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["command"] == "verify-haar"
    assert report["error"].startswith("cannot write output: ")

def test_empty_output_path_exits_2(in_process):
    """--output "" names no file: an error report on stdout and exit 2,
    not the report on stdout with exit 0."""
    proc = in_process("verify-haar", Z4_HAAR, "--output", "")
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert sorted(proc.report) == ["command", "error", "schema_version"]
    assert proc.report["error"].startswith("cannot write output: ")

def test_report_is_streamed(tmp_path, in_process):
    """Writing the 1.9 MB counterexample report of 40,960 tiles never holds
    the whole text: under 256 KiB of peak allocation into a sink that only
    counts characters."""
    payload = {"c": "1/40959", "probe_bound": "1/1"}
    out = tmp_path / "report.json"
    proc = in_process("counterexample", payload, "--output", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
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

def test_deepest_product_spec_reports(in_process, child, count_calls):
    """The deepest product nesting accepted, 64 levels of order 1, writes
    its report in process under pytest and in a fresh interpreter alike.
    One level more is refused at depth 64, before any deeper call: the 65
    product specs raise, and only the trivial first factors of the 64
    outer ones were loaded."""
    deepest = {"group": nested_product(cli.MAX_PRODUCT_DEPTH)}
    want = in_process("enumerate", deepest)
    assert (want.returncode, want.stderr) == (0, b"")
    assert want.report["results"]["order"] == 1
    proc = child("enumerate", deepest)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.stdout, b"")
    calls = count_calls(cli, "load_group")
    with pytest.raises(TooLarge):
        cli.load_group(nested_product(cli.MAX_PRODUCT_DEPTH + 1))
    depths = sorted(call.args[1] if len(call.args) > 1 else 0 for call in calls)
    assert depths == sorted([*range(1, 65), *range(65)])
    assert sum(isinstance(call.result, TooLarge) for call in calls) == 65

#: JSON values of every kind a report holds: strings with escapes and past
#: ASCII, big ints, bools, None, the finite floats that `cli._json_float`
#: admits, and lists, tuples and dicts, empty and nested.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)

@given(JSON_VALUES)
@example({"": [], "a": {}, "b": [[], {}, ()], "\u2028\"\\\x00": "\u00e9\U0001f600"})
@example([10**70, -(10**70), True, False, None, 1e-300, -0.0, 0.1])
@example(((1, (2, ())), {"z": (), "a": [{}]}))
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(value):
    """_write_report writes the text json.dumps encodes, byte for byte."""
    sink = io.StringIO()
    cli._write_report(value, sink)
    assert sink.getvalue() == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"

def test_report_writes_one_list_element_at_a_time(in_process, count_calls):
    """Counter bound: writing the Z48/N8 construct report, 2,016 covering
    rows, no write is longer than its longest list element with the comma
    or bracket before it."""
    n8 = list(range(0, 48, 6))
    payload = {
        "group": {"family": "cyclic", "params": {"n": 48}},
        "topology": {"normal_subgroup": n8},
        "k0": n8,
    }
    proc = in_process("construct", payload)
    assert proc.returncode == 0
    report = proc.report
    assert len(report["results"]["covering_table"]) == 2016

    def lists(value):
        if isinstance(value, dict):
            value = list(value.values())
        elif isinstance(value, list):
            yield value
        else:
            return
        for item in value:
            yield from lists(item)

    longest = max(
        len(json.dumps(item, sort_keys=True, separators=(",", ":")))
        for items in lists(report)
        for item in items
    )

    class Sink:
        def write(self, chunk):
            pass

    writes = count_calls(Sink, "write")
    cli._write_report(report, Sink())
    assert "".join(call.args[1] for call in writes).encode() == proc.stdout
    assert max(len(call.args[1]) for call in writes) <= longest + 1
    assert longest + 1 < len(proc.stdout) // 1000  # 292 of 343,176 bytes

def test_construct_bad_k0(in_process):
    assert in_process("construct", dict(Z4_COSET, k0=[0])).returncode == 2


# -- determinism --------------------------------------------------------------

def test_byte_identical_reports(tmp_path, child):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
    outputs = []
    for seed in ("0", "1", "12345"):
        out = tmp_path / f"out-{seed}.json"
        proc = child("verify-haar", payload, "--output", str(out), env=src_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].endswith(b"\n")
    assert b"\r" not in outputs[0]

def test_report_digest_is_unchanged():
    """Every report and exit code of the seed-1 benchmark rounds, byte for
    byte.  A change that alters reports on purpose updates this digest and
    says so in CHANGES.md."""
    proc = run_python(str(SRC.parent / "tools" / "report_digest.py"), "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        b"42db73986d2506d74043c6f4732f83e6d4adaa27647f06016ccfa533af6f7420\n"
    )

def test_enumerate_z2_to_the_5_report_is_unchanged(tmp_path, in_process):
    """The enumerate report of (Z2)^5, 374 topologies (one per subgroup, as
    the group is abelian), byte for byte: no benchmark round has a group
    with hundreds of normal subgroups."""
    spec = {"family": "cyclic", "params": {"n": 2}}
    for _ in range(4):
        spec = {"family": "product", "params": {"factors": [spec, {"family": "cyclic", "params": {"n": 2}}]}}
    out = tmp_path / "report.json"
    assert in_process("enumerate", {"group": spec}, "--output", str(out)).returncode == 0
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
def test_fuzz_inputs_never_crash(in_process, case):
    """Any JSON under each command's keys, nested deep or holding integers
    past the digit limit, gives exit 0, 1 or 2 and a report that parses;
    exit 2 carries exactly the error report."""
    command, payload, flags = case
    proc = in_process(command, to_json(payload), *flags)
    assert proc.returncode in (0, 1, 2)
    if proc.returncode == 2:
        assert set(proc.report) == {"schema_version", "command", "error"}
    else:
        assert proc.report["passed"] is (proc.returncode == 0)


# -- how the CLI process ends ----------------------------------------------------

# 4,096 tiles: a report of about 180 kB, more than a pipe buffer holds
BIG_REPORT = ("counterexample", {"c": "1/4095", "probe_bound": "1/1"})

def env_buffering(unbuffered):
    """src_env with PYTHONUNBUFFERED set to 1, or unset."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env

@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_large_report_arrives_whole(tmp_path, in_process, child, unbuffered):
    want = in_process(*BIG_REPORT)
    assert want.returncode == 0 and len(want.stdout) > 1 << 17
    env = env_buffering(unbuffered)
    proc = child(*BIG_REPORT, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.stdout, b"")
    out = tmp_path / "out.json"
    proc = child(*BIG_REPORT, "--output", str(out), env=env)
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
    assert out.read_bytes() == want.stdout

#: For each command, an input for each exit code it can give.  Only
#: verify-haar has a check that an input can fail; counterexample's exit
#: 2 is nesting past a fresh interpreter's recursion limit.
EXIT_CASES = {
    "enumerate_passed": ("enumerate", {"group": Z4_COSET["group"]}, 0),
    "enumerate_malformed": ("enumerate", table_input([[0, 1], [0, 1]]), 2),
    "passed": ("verify-haar", Z4_HAAR, 0),
    "check_failed": ("verify-haar", dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]}), 1),
    "malformed": ("verify-haar", dict(Z4_HAAR, side="up"), 2),
    "construct_passed": ("construct", dict(Z4_COSET, k0=[0, 2]), 0),
    "construct_malformed": ("construct", dict(Z4_COSET, k0=[0]), 2),
    "quotient_passed": ("quotient", Z4_COSET, 0),
    "quotient_malformed": ("quotient", ERROR_TEXTS["subgroup_not_normal"][1], 2),
    "counterexample_passed": ("counterexample", {"c": "1/3", "probe_bound": "2"}, 0),
    "counterexample_malformed": ("counterexample", MALFORMED["nesting_over_recursion_limit"][1], 2),
    "fubini_passed": ("fubini", VALID_INPUTS["fubini"][0], 0),
    "fubini_malformed": ("fubini", ERROR_TEXTS["fubini_over_cap"][1], 2),
    "plane_passed": ("plane", VALID_INPUTS["plane"][0], 0),
    "plane_malformed": ("plane", PLANE_MASS_PAST_INT_TEXT, 2),
}

@pytest.mark.parametrize("command,payload,want_code", EXIT_CASES.values(), ids=EXIT_CASES)
def test_child_exit_code_and_bytes_match_run(in_process, child, command, payload, want_code):
    """`python -m haarlab.cli` ends with the exit code of cli.run, its
    report bytes on stdout and nothing on stderr."""
    want = in_process(command, payload)
    assert want.returncode == want_code
    proc = child(command, payload)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want_code, want.stdout, b"")

def test_exception_in_handler_gives_traceback_and_exit_1(write_input):
    path = write_input({"c": "1/2"})
    code = (
        "import sys\n"
        "from haarlab import cli\n"
        "def boom(data, opts):\n"
        "    raise RuntimeError('boom')\n"
        "cli.COMMANDS['counterexample'] = boom\n"
        f"sys.argv = ['haarlab', 'counterexample', '--input', {path!r}]\n"
        "cli.main()\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" in proc.stderr and b"RuntimeError: boom" in proc.stderr

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
    tmp_path, in_process, monkeypatch, owner, name, error, command, payload
):
    """A bare ValueError or KeyError, or an InternalInconsistency, from the
    library is a bug, not a malformed input: run lets it propagate, and no
    report is written."""
    def bug(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(owner, name, bug)
    out = tmp_path / "out.json"
    with pytest.raises(error) as info:
        in_process(command, payload, "--output", str(out))
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
def test_usage_error_exits_2(tmp_path, write_input, capsys, argv, command, message):
    """Exit 2 with a JSON error report on stdout and nothing on stderr,
    even when the command line names an --output, which is not created."""
    out = tmp_path / "out.json"
    names = {"P": write_input({"c": "1/2"}), "O": str(out)}
    assert cli.run([names.get(a, a) for a in argv]) == 2
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    report = json.loads(stdout)
    assert sorted(report) == ["command", "error", "schema_version"]
    assert report["command"] == command
    assert message in report["error"]
    assert not out.exists()

@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["plane", "--help"]])
def test_help_exits_0(capsys, argv):
    assert cli.run(argv) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    assert stdout.startswith("usage: haarlab <command> --input PATH")
    assert all(command in stdout for command in cli.COMMANDS)

def test_flag_spellings_give_the_same_bytes(write_input, capsys):
    """--flag=value and --flag value, in any order; a repeated flag keeps
    its last value."""
    path = write_input({"c": "1/3"})
    spellings = [
        ["--input", path, "--probe-bound", "2"],
        [f"--input={path}", "--probe-bound=2"],
        ["--probe-bound", "2", "--input", path],
        ["--input", "missing.json", "--probe-bound=5", f"--input={path}", "--probe-bound", "2"],
    ]
    outputs = set()
    for flags in spellings:
        assert cli.run(["counterexample", *flags]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        outputs.add(stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["results"]["translate_count"] == 7

@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("big", [False, True], ids=["flush", "write"])
def test_closed_stdout_never_exits_0(write_input, big, unbuffered):
    """A reader that closes the pipe early: the small report fails at the
    final flush, the large one while it is written."""
    command, payload = BIG_REPORT if big else ("counterexample", {"c": "1/2"})
    with python_child(
        *CLI, command, "--input", write_input(payload),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env_buffering(unbuffered),
    ) as proc:
        if big:
            assert proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=60) != 0

def test_main_flushes_then_ends_with_the_code_of_run(write_input, capsys, monkeypatch):
    class Exited(Exception):
        pass

    def fake_exit(code):
        raise Exited(code)

    path = write_input(dict(Z4_COSET, measure={"atom_masses": ["1/1", "2/1"]}))
    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "argv", ["haarlab", "verify-haar", "--input", path])
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
