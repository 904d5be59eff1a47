"""haarlab: deterministic JSON verification reports.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
witness is in the report), 2 malformed input.  Reports are byte-stable:
sorted keys, canonical "p/q" rationals, LF line endings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import covering as covering_mod
from . import groups as groups_mod
from . import measure as measure_mod
from . import plane as plane_mod
from .errors import HaarlabError, TooLarge
from .topology import FiniteSpace, PointFunction, bit_indices, mask_of

SCHEMA_VERSION = "1"


class InputError(Exception):
    """Malformed user input; maps to exit code 2."""


def frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


#: Longest accepted spelling of a rational, and the largest accepted
#: magnitude of its decimal exponent.  Under both caps a spelling expands to
#: a Fraction of at most about 2,000 digits, where an exponent alone such as
#: 1e999999999 would make Fraction build a billion-digit integer.
MAX_RATIONAL_CHARS = 1000
MAX_RATIONAL_EXPONENT = 1000

# The spellings Fraction accepts: an optional sign, then an integer, a
# quotient p/q, or a decimal with an optional exponent; digits may be
# grouped by single underscores, and whitespace may surround the whole.
_RATIONAL = re.compile(
    r"""
    \s*[-+]?
    (?=\d|\.\d)
    (?:\d+(?:_\d+)*)?
    (?:
        /\d+(?:_\d+)*
    |
        (?:\.(?:\d+(?:_\d+)*)?)?
        (?:e(?P<exp>[-+]?\d+(?:_\d+)*))?
    )
    \s*
    """,
    re.VERBOSE | re.IGNORECASE,
)


def parse_frac(s) -> Fraction:
    """A rational from its JSON value, checked against the grammar and the
    caps above before any Fraction is built."""
    text = str(s)
    if len(text) > MAX_RATIONAL_CHARS:
        raise InputError(
            f"bad rational: {len(text)} characters exceeds the cap {MAX_RATIONAL_CHARS}"
        )
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise InputError(f"bad rational {s!r}: Invalid literal for Fraction: {text!r}")
    if m["exp"] and abs(int(m["exp"])) > MAX_RATIONAL_EXPONENT:
        raise InputError(
            f"bad rational {s!r}: exponent exceeds the cap {MAX_RATIONAL_EXPONENT}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}: {exc}") from exc


def points_list(mask: int):
    return list(bit_indices(mask))


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InputError(f"{where}: missing fields {sorted(missing)}")


def _int_value(value, where) -> int:
    if type(value) is not int:  # JSON true/false load as bool, an int subclass
        raise InputError(f"{where} must be an integer, got {value!r}")
    return value


def _bool_value(value, where) -> bool:
    if type(value) is not bool:
        raise InputError(f"{where} must be true or false, got {value!r}")
    return value


def _point_mask(values, order, where) -> int:
    """Mask of a JSON list of element indices, each in 0..order-1."""
    if not isinstance(values, list):
        raise InputError(f"{where} must be a list of elements")
    for x in values:
        if type(x) is not int or not 0 <= x < order:
            raise InputError(f"{where}: {x!r} is not an element 0..{order - 1}")
    return mask_of(values)


def _check_cap(order, max_order):
    if order > max_order:
        raise InputError(f"order {order} exceeds the cap {max_order}")


def _size_param(params, family, order_per_n, max_order) -> int:
    """params["n"] of a family whose group has order order_per_n * n."""
    if "n" not in params:
        raise InputError(f"{family} params: missing fields ['n']")
    n = _int_value(params["n"], f"{family} params: n")
    if n < 1:
        raise InputError(f"{family} params: n must be positive, got {n}")
    _check_cap(order_per_n * n, max_order)
    return n


def load_group(spec, max_order) -> groups_mod.FiniteGroup:
    """Build a group from its JSON spec; every order is checked against
    max_order before any Cayley table is built."""
    if not isinstance(spec, dict):
        raise InputError("group spec must be an object")
    if "family" in spec:
        _require_keys(spec, {"family", "params"}, {"family"}, "group")
        family = spec["family"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise InputError("group params: expected an object")
        if family == "cyclic":
            g = groups_mod.cyclic(_size_param(params, family, 1, max_order))
        elif family == "dihedral":
            g = groups_mod.dihedral(_size_param(params, family, 2, max_order))
        elif family == "symmetric3":
            g = groups_mod.symmetric3()
        elif family == "quaternion8":
            g = groups_mod.quaternion8()
        elif family == "trivial":
            g = groups_mod.trivial_group()
        elif family == "product":
            factors = params.get("factors", [])
            if not isinstance(factors, list) or len(factors) != 2:
                raise InputError("product family needs exactly two factors")
            g1 = load_group(factors[0], max_order)
            g2 = load_group(factors[1], max_order)
            _check_cap(g1.order * g2.order, max_order)
            g = groups_mod.direct_product(g1, g2)
        else:
            raise InputError(f"unknown family {family!r}")
    else:
        _require_keys(spec, {"name", "order", "table"}, {"order", "table"}, "group")
        _check_cap(_int_value(spec["order"], "group order"), max_order)
        try:
            g = groups_mod.FiniteGroup(
                spec["table"], name=spec.get("name", "group")
            )
        except (ValueError, KeyError) as exc:
            raise InputError(f"bad Cayley table: {exc}") from exc
        if g.order != spec["order"]:
            raise InputError("declared order does not match the table")
    _check_cap(g.order, max_order)
    return g


def load_top_group(group_spec, topo_spec, max_order) -> groups_mod.FiniteTopGroup:
    group = load_group(group_spec, max_order)
    if not isinstance(topo_spec, dict):
        raise InputError("topology spec must be an object")
    if "normal_subgroup" in topo_spec:
        _require_keys(topo_spec, {"normal_subgroup"}, {"normal_subgroup"}, "topology")
        n_mask = _point_mask(
            topo_spec["normal_subgroup"], group.order, "normal_subgroup"
        )
        try:
            space = groups_mod.coset_topology(group, n_mask)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    elif "opens" in topo_spec:
        _require_keys(topo_spec, {"opens"}, {"opens"}, "topology")
        opens = topo_spec["opens"]
        if not isinstance(opens, list):
            raise InputError("opens must be a list of open sets")
        masks = [_point_mask(u, group.order, "open set") for u in opens]
        try:
            space = FiniteSpace(group.order, masks)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        raise InputError("topology spec needs normal_subgroup or opens")
    try:
        return groups_mod.validate_top_group(group, space)
    except HaarlabError as exc:
        raise InputError(f"incompatible topology: {exc}") from exc


def load_measure(spec, g) -> measure_mod.FiniteMeasure:
    _require_keys(spec, {"atom_masses"}, {"atom_masses"}, "measure")
    if not isinstance(spec["atom_masses"], list):
        raise InputError("atom_masses must be a list of rationals")
    masses = tuple(parse_frac(s) for s in spec["atom_masses"])
    if any(m < 0 for m in masses):
        raise InputError("atom masses must be nonnegative")
    try:
        return measure_mod.FiniteMeasure(g, masses)
    except HaarlabError as exc:
        raise InputError(str(exc)) from exc


def load_cylinder(spec) -> plane_mod.CylinderSet:
    if not isinstance(spec, list):
        raise InputError("intervals must be a list")
    ivs = []
    for entry in spec:
        _require_keys(
            entry,
            {"lo", "hi", "lo_closed", "hi_closed"},
            {"lo", "hi"},
            "interval",
        )
        try:
            ivs.append(
                plane_mod.Interval(
                    parse_frac(entry["lo"]),
                    parse_frac(entry["hi"]),
                    _bool_value(entry.get("lo_closed", True), "lo_closed"),
                    _bool_value(entry.get("hi_closed", True), "hi_closed"),
                )
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return plane_mod.CylinderSet(plane_mod.IntervalUnion(ivs))


def intervals_json(iu: plane_mod.IntervalUnion):
    return [
        {
            "lo": frac_str(iv.lo),
            "hi": frac_str(iv.hi),
            "lo_closed": iv.lo_closed,
            "hi_closed": iv.hi_closed,
        }
        for iv in iu.intervals
    ]


def _check_atom_cap(tg) -> int:
    """The atom count, refused past the exhaustive Haar check's cap before
    any per-atom table is built."""
    k_atoms = len(tg.atoms)
    if k_atoms > measure_mod.MAX_ATOMS_CHECK:
        raise TooLarge(f"{k_atoms} atoms exceeds the exhaustive-check cap")
    return k_atoms


# -- command handlers: (data, opts) -> (results, math_ok) ---------------------
#
# opts is the parsed command line with opts.max_order resolved.


def cmd_enumerate(data, opts):
    _require_keys(data, {"group"}, {"group"}, "input")
    group = load_group(data["group"], opts.max_order)
    topologies = []
    for tg in groups_mod.group_topologies(group):
        n_mask = groups_mod.identity_closure(tg)
        dim, _ = measure_mod.haar_solution_space(tg)
        canon = measure_mod.canonical_haar(tg)
        topologies.append(
            {
                "normal_subgroup": points_list(n_mask),
                "atoms": [points_list(a) for a in tg.atoms],
                "haar_dimension": dim,
                "canonical_masses": [frac_str(m) for m in canon.atom_mass],
            }
        )
    results = {"group": group.name, "order": group.order, "topologies": topologies}
    ok = all(t["haar_dimension"] == 1 for t in topologies)
    return results, ok


def cmd_verify_haar(data, opts):
    _require_keys(
        data, {"group", "topology", "measure", "side"}, {"group", "topology", "measure"}, "input"
    )
    side = data.get("side", "left")
    if side not in ("left", "right"):
        raise InputError(f"side must be left or right, got {side!r}")
    tg = load_top_group(data["group"], data["topology"], opts.max_order)
    mu = load_measure(data["measure"], tg)
    report = measure_mod.is_haar(tg, mu, side=side)
    witnesses = [
        {
            "kind": kind,
            "set": points_list(tg.preimage(sel) if sel is not None else 0),
            "element": elem,
        }
        for kind, sel, elem in report.witnesses
    ]
    results = {
        "side": side,
        "nonzero": report.nonzero,
        "left_invariant": report.left_invariant,
        "right_invariant": report.right_invariant,
        "locally_finite": report.locally_finite,
        "outer_regular": report.outer_regular,
        "inner_regular_on_opens": report.inner_regular_on_opens,
        "is_haar": report.is_haar,
        "witnesses": witnesses,
    }
    return results, report.is_haar


def cmd_construct(data, opts):
    _require_keys(data, {"group", "topology", "k0"}, {"group", "topology", "k0"}, "input")
    tg = load_top_group(data["group"], data["topology"], opts.max_order)
    k0 = _point_mask(data["k0"], tg.group.order, "k0")
    if tg.space.interior(k0) == 0 or not tg.space.is_closed(k0):
        raise InputError("k0 must be closed with nonempty interior")
    k_atoms = _check_atom_cap(tg)
    mu = covering_mod.existence_via_covering(tg, k0)
    canon = measure_mod.canonical_haar(tg)
    scalar = None
    if all(
        mu.atom_mass[i] * canon.atom_mass[0] == canon.atom_mass[i] * mu.atom_mass[0]
        for i in range(len(tg.atoms))
    ):
        scalar = mu.atom_mass[0] / canon.atom_mass[0]
    # full (K:U) table over closed sets and open identity neighborhoods,
    # truncated to atoms and the full set past the size cap
    truncated = k_atoms > 6
    if truncated:
        closed_sets = list(tg.atoms) + [tg.space.full]
        open_nbhds = [
            groups_mod.identity_closure(tg),
            tg.space.full,
        ]

        def count(k, u):
            problem = covering_mod.CoveringProblem(tg, k, u)
            return covering_mod.covering_number(problem).count

    else:
        closed_sets = [c for c in tg.space.closed_sets() if c != 0]
        e_bit = tg.group.identity
        open_nbhds = [u for u in tg.space.opens if u >> e_bit & 1]
        # one table of (K:U) per U, read at K's atom selection
        tables = {u: covering_mod.covering_table(tg, u) for u in open_nbhds}
        sels = {k: tg.image(k) for k in closed_sets}

        def count(k, u):
            return tables[u][sels[k]]

    table = [
        {"k": points_list(k), "u": points_list(u), "count": count(k, u)}
        for k in closed_sets
        for u in open_nbhds
    ]
    results = {
        "covering_table": table,
        "table_truncated": truncated,
        "measure": [frac_str(m) for m in mu.atom_mass],
        "canonical_scalar": frac_str(scalar) if scalar is not None else None,
    }
    report = measure_mod.is_haar(tg, mu)
    return results, report.is_haar and scalar is not None


def cmd_quotient(data, opts):
    _require_keys(data, {"group", "topology"}, {"group", "topology"}, "input")
    tg = load_top_group(data["group"], data["topology"], opts.max_order)
    _check_atom_cap(tg)
    q = groups_mod.quotient(tg)
    canon = measure_mod.canonical_haar(tg)
    pushed = measure_mod.pushforward(q, canon)
    pulled = measure_mod.pullback(q, pushed)
    roundtrip_ok = pulled == canon
    pushed_haar = measure_mod.is_haar(q.quotient, pushed).is_haar
    results = {
        "normal_subgroup": points_list(groups_mod.identity_closure(tg)),
        "atoms": [points_list(a) for a in tg.atoms],
        "quotient_order": q.quotient.group.order,
        "projection": list(q.proj),
        "pushforward_masses": [frac_str(m) for m in pushed.atom_mass],
        "pullback_roundtrip_ok": roundtrip_ok,
        "pushforward_is_haar": pushed_haar,
    }
    return results, roundtrip_ok and pushed_haar


def cmd_counterexample(data, opts):
    flag = parse_frac(opts.probe_bound) if opts.probe_bound else None
    _require_keys(data, {"c", "probe_bound"}, {"c"}, "input")
    c = parse_frac(data["c"])
    if c < 0:
        raise InputError("hypothesized mass must be nonnegative")
    probe_bound = flag if flag is not None else parse_frac(data.get("probe_bound", "1"))
    if probe_bound <= 0:
        raise InputError("probe bound must be positive")
    cert = plane_mod.counterexample_bk(c, probe_bound)
    verified = plane_mod.verify_bk_certificate(cert)
    results = {
        "verdict": cert.verdict,
        "verified": verified,
        "translate_count": cert.count,
        "translates": [
            {
                "x": [frac_str(t.x_lo), frac_str(t.x_hi)],
                "y": [frac_str(t.y_lo), frac_str(t.y_hi)],
            }
            for t in cert.translates
        ],
        "grid_offsets": [list(o) for o in cert.grid_offsets],
    }
    return results, verified


def cmd_fubini(data, opts):
    _require_keys(data, {"group1", "group2"}, {"group1", "group2"}, "input")
    tgs = []
    for key in ("group1", "group2"):
        entry = data[key]
        _require_keys(entry, {"group", "topology"}, {"group", "topology"}, key)
        tgs.append(load_top_group(entry["group"], entry["topology"], opts.max_order))
    g, h = tgs
    if g.group.order * h.group.order > opts.max_order:
        raise InputError("combined order exceeds the cap")
    mu = measure_mod.canonical_haar(g)
    lam = measure_mod.canonical_haar(h)
    oh = h.group.order
    checks = []
    ok = True
    for i, a in enumerate(g.atoms):
        for j, b in enumerate(h.atoms):
            values = [
                Fraction((a >> x & 1) and (b >> y & 1))
                for x in range(g.group.order)
                for y in range(oh)
            ]
            f = PointFunction(tuple(values))
            lhs, rhs = measure_mod.fubini_check(g, h, f, mu, lam)
            equal = lhs == rhs
            ok = ok and equal
            checks.append(
                {
                    "f": f"indicator_atom_{i}x{j}",
                    "lhs": frac_str(lhs),
                    "rhs": frac_str(rhs),
                    "equal": equal,
                }
            )
    return {"checks": checks}, ok


def cmd_plane(data, opts):
    _require_keys(data, {"intervals", "shift", "eps"}, {"intervals"}, "input")
    e = load_cylinder(data["intervals"])
    results = {
        "base": intervals_json(e.base),
        "mass": frac_str(plane_mod.haar_v(e)),
    }
    ok = True
    if "shift" in data:
        shift = data["shift"]
        if not isinstance(shift, list) or len(shift) != 2:
            raise InputError("shift must be a pair of rationals")
        a, b = (parse_frac(s) for s in shift)
        moved = plane_mod.translate_v(e, a, b)
        results["shifted"] = intervals_json(moved.base)
        results["shifted_mass"] = frac_str(plane_mod.haar_v(moved))
        ok = ok and plane_mod.haar_v(moved) == plane_mod.haar_v(e)
    if "eps" in data:
        eps = parse_frac(data["eps"])
        if eps <= 0:
            raise InputError("eps must be positive")
        inner, outer = plane_mod.regularity_gap(e, eps)
        mass = plane_mod.haar_v(e)
        results["inner"] = intervals_json(inner.base)
        results["inner_mass"] = frac_str(plane_mod.haar_v(inner))
        results["outer"] = intervals_json(outer.base)
        results["outer_mass"] = frac_str(plane_mod.haar_v(outer))
        ok = ok and mass - plane_mod.haar_v(inner) <= eps
        ok = ok and plane_mod.haar_v(outer) - mass <= eps
    return results, ok


# -- driver ------------------------------------------------------------------

COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify-haar": cmd_verify_haar,
    "construct": cmd_construct,
    "quotient": cmd_quotient,
    "counterexample": cmd_counterexample,
    "fubini": cmd_fubini,
    "plane": cmd_plane,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="haarlab",
        description="Verify Haar-measure facts on finite groups and the seminorm plane.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--input", required=True, help="path to the JSON input")
    parser.add_argument("--output", default=None, help="path for the JSON report (default stdout)")
    parser.add_argument("--max-order", type=int, default=None)
    parser.add_argument("--probe-bound", default=None, help="rational p/q for counterexample")
    return parser


def _max_order(flag) -> int:
    """--max-order, else HAARLAB_MAX_ORDER, else groups.MAX_ORDER."""
    if flag is not None:
        return flag
    env = os.environ.get("HAARLAB_MAX_ORDER")
    if not env:
        return groups_mod.MAX_ORDER
    try:
        return int(env)
    except ValueError:
        raise InputError(f"HAARLAB_MAX_ORDER must be an integer, got {env!r}") from None


def _read_input(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def emit(report):
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    try:
        args.max_order = _max_order(args.max_order)
        data = _read_input(args.input)
        results, ok = COMMANDS[args.command](data, args)
    except InputError as exc:
        emit(_error_report(args.command, str(exc)))
        return 2
    except HaarlabError as exc:
        emit(_error_report(args.command, f"{type(exc).__name__}: {exc}"))
        return 2

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": data,
        "results": results,
        "passed": ok,
    }
    emit(report)
    return 0 if ok else 1


def _error_report(command, message):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": message,
    }


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
