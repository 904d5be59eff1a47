import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarlab import cli, groups, plane


def run_cli(tmp_path, command, payload, *extra, name="input.json"):
    """Run the CLI on payload, written as JSON, or as is when it is bytes."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", command, "--input", str(path), *extra],
        capture_output=True,
        text=True,
        env=env,
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
    path.write_text(json.dumps({"c": "1/3", "probe_bound": "10/1"}), encoding="utf-8")
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

def test_counterexample_over_listing_cap(tmp_path, monkeypatch):
    def no_tile(*args, **kwargs):
        raise AssertionError("a tile was built")

    monkeypatch.setattr(plane.Rect, "shifted", no_tile)
    monkeypatch.setattr(plane.Rect, "__init__", no_tile)
    # 10^12 + 1 tiles: verified without building one
    cert = plane.counterexample_bk(Fraction(1, 10**12), 1)
    assert cert.count == 10**12 + 1
    assert plane.verify_bk_certificate(cert)
    # the CLI rejects the listing before building a tile
    payload = {"c": "1/1000000000000", "probe_bound": "1/1"}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.run(["counterexample", "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == (
        "TooLarge: 1000000000001 tiles exceeds the listing cap 131072"
    )
    monkeypatch.undo()
    proc, report = run_cli(tmp_path, "counterexample", payload)
    assert proc.returncode == 2 and proc.stderr == ""
    assert set(report) == {"schema_version", "command", "error"}

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
    # the discrete topology has one atom per element: past every cap
    base = {"group": group, "topology": {"normal_subgroup": [0]}}
    for command, extra in (
        ("quotient", {}),
        ("verify-haar", {"measure": {"atom_masses": ["1/1"] * order}}),
        ("construct", {"k0": [0]}),
    ):
        proc, report = run_cli(tmp_path, command, dict(base, **extra))
        assert proc.returncode == 2 and proc.stderr == "", command
        assert report["error"].startswith("TooLarge: "), command


# -- input errors -> exit 2 ---------------------------------------------------

def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", "verify-haar", "--input", str(path)],
        capture_output=True,
        text=True,
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

def test_order_cap(tmp_path):
    payload = {"group": {"family": "cyclic", "params": {"n": 5}}}
    proc, report = run_cli(tmp_path, "enumerate", payload, "--max-order", "4")
    assert proc.returncode == 2
    assert "cap" in report["error"]

def test_env_order_cap(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"group": {"family": "cyclic", "params": {"n": 5}}}),
        encoding="utf-8",
    )
    env = dict(os.environ, HAARLAB_MAX_ORDER="4")
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", "enumerate", "--input", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2

def test_env_order_cap_not_an_int(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"group": {"family": "cyclic", "params": {"n": 5}}}),
        encoding="utf-8",
    )
    env = dict(os.environ, HAARLAB_MAX_ORDER="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "haarlab.cli", "enumerate", "--input", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == (
        "HAARLAB_MAX_ORDER must be an integer, got 'abc'"
    )

Z4_HAAR = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
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
}

@pytest.mark.parametrize("command,payload", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2(tmp_path, command, payload):
    proc, report = run_cli(tmp_path, command, payload)
    assert proc.returncode == 2 and proc.stderr == ""
    assert set(report) == {"schema_version", "command", "error"}

def test_rational_caps_checked_before_fraction(tmp_path, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"c": "1e999999999"}), encoding="utf-8")
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

@pytest.mark.parametrize("spelling", RATIONAL_SPELLINGS, ids=repr)
def test_rational_spellings_match_fraction(spelling):
    assert cli.parse_frac(spelling) == Fraction(str(spelling))

@given(st.text(alphabet="0123456789_./eE+- \t\u0663", max_size=7))
@settings(max_examples=400, deadline=None)
def test_rational_grammar_agrees_with_fraction(text):
    """Under the caps, parse_frac accepts exactly what Fraction accepts, with
    the same value; the only extra rejections are named by the caps."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    try:
        got = cli.parse_frac(text)
    except cli.InputError as exc:
        assert want is None or "exceeds the cap" in str(exc), text
    else:
        assert got == want, text

def test_cli_import_skips_dataclasses_and_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, haarlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "[]\n"

SIZE_CAP_SPECS = {
    "cyclic": {"family": "cyclic", "params": {"n": 10**9}},
    "dihedral": {"family": "dihedral", "params": {"n": 10**9}},
    "product": {
        "family": "product",
        "params": {"factors": [{"family": "symmetric3"}, {"family": "quaternion8"}]},
    },
}

@pytest.mark.parametrize("spec", SIZE_CAP_SPECS.values(), ids=SIZE_CAP_SPECS)
def test_order_cap_checked_before_tables(spec, monkeypatch):
    def no_table(*args):
        raise AssertionError("table built past the cap")

    for family in ("cyclic", "dihedral", "direct_product"):
        monkeypatch.setattr(groups, family, no_table)
    with pytest.raises(cli.InputError, match="exceeds the cap 32"):
        cli.load_group(spec, 32)

def test_construct_bad_k0(tmp_path):
    payload = dict(Z4_COSET, k0=[0])
    proc, report = run_cli(tmp_path, "construct", payload)
    assert proc.returncode == 2


# -- determinism --------------------------------------------------------------

def test_byte_identical_reports(tmp_path):
    payload = dict(Z4_COSET, measure={"atom_masses": ["1/1", "1/1"]})
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    outputs = []
    for seed in ("0", "1", "12345"):
        out = tmp_path / f"out-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
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
