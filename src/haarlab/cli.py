"""haarlab: deterministic JSON verification reports.

    haarlab <command> --input PATH [--output PATH] [--probe-bound p/q]

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
witness is in the report), 2 malformed input, a command line outside the
grammar (see `parse_args`) or an --output that cannot be written (the
error report then goes to stdout).  -h or --help prints the usage and
exits 0.  Reports are byte-stable compact JSON: sorted keys, no
whitespace between tokens, canonical "p/q" rationals and one LF at the
end (`python -m json.tool` pretty-prints one).

The library checks each precondition on its arguments itself: a broken
one raises InputError, which is also a ValueError, and the error report
carries its message as is.  An input past a size cap raises TooLarge,
reported by name as `TooLarge: message`.  Both exit 2.  The CLI checks
only what the library cannot, with the same errors: the JSON shape,
fubini's combined order, the rational grammar, the command line (one
outside the grammar is an InputError) and that each report rational
converts to text.  Any other exception, InternalInconsistency included,
is a bug: a traceback and exit 1.

The command line is parsed here, not by argparse, whose import and
locale lookups would add milliseconds to every process.
"""

import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import covering as covering_mod
from . import groups as groups_mod
from . import measure as measure_mod
from . import plane as plane_mod
from .errors import InputError, TooLarge
from .topology import FiniteSpace, PointFunction, bit_indices, mask_of

SCHEMA_VERSION = "1"


def frac_str(f: Fraction) -> str:
    """The text p/q of a Fraction or int f; TooLarge if p or q has more
    digits than an int converts to text.  A mass sums its intervals'
    lengths, so its denominator can pass that limit while every rational of
    the input is under the caps below."""
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # formatting fails, so the message names no number
        raise TooLarge(
            "a rational in the report has a numerator or denominator of more "
            f"than {sys.get_int_max_str_digits()} digits"
        ) from exc


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


#: Each group family: its constructor and its params keys, each an
#: integer but product's factors.
_FAMILIES = {
    "cyclic": (groups_mod.cyclic, ("n",)),
    "dihedral": (groups_mod.dihedral, ("n",)),
    "product": (groups_mod.direct_product, ("factors",)),
    "symmetric3": (groups_mod.symmetric3, ()),
    "quaternion8": (groups_mod.quaternion8, ()),
    "trivial": (groups_mod.trivial_group, ()),
}


def load_group(spec) -> groups_mod.FiniteGroup:
    """Build a group from its JSON spec; the library checks every order
    against groups.MAX_ORDER before any Cayley table is built."""
    if not isinstance(spec, dict):
        raise InputError("group spec must be an object")
    if "family" in spec:
        _require_keys(spec, {"family", "params"}, {"family"}, "group")
        family = spec["family"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise InputError("group params: expected an object")
        entry = _FAMILIES.get(family) if isinstance(family, str) else None
        if entry is None:
            raise InputError(f"unknown family {family!r}")
        make, keys = entry
        if family == "product":  # factors is optional here, counted below
            _require_keys(params, keys, (), "product params")
            factors = params.get("factors", [])
            if not isinstance(factors, list) or len(factors) != 2:
                raise InputError("product family needs exactly two factors")
            g = make(load_group(factors[0]), load_group(factors[1]))
        else:
            _require_keys(params, keys, keys, f"{family} params")
            g = make(*(_int_value(params[k], f"{family} params: {k}") for k in keys))
    else:
        _require_keys(spec, {"name", "order", "table"}, {"order", "table"}, "group")
        order = _int_value(spec["order"], "group order")
        name = spec.get("name", "group")
        if type(name) is not str:
            raise InputError("group name must be a string")
        table = spec["table"]
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(type(v) is int for v in row)
            for row in table
        ):
            raise InputError("bad Cayley table: expected a list of rows of integers")
        g = groups_mod.FiniteGroup(table, name=name)
        if g.order != order:
            raise InputError("declared order does not match the table")
    return g


def load_top_group(group_spec, topo_spec) -> groups_mod.FiniteTopGroup:
    group = load_group(group_spec)
    if not isinstance(topo_spec, dict):
        raise InputError("topology spec must be an object")
    if "normal_subgroup" in topo_spec:
        _require_keys(topo_spec, {"normal_subgroup"}, {"normal_subgroup"}, "topology")
        n_mask = _point_mask(
            topo_spec["normal_subgroup"], group.order, "normal_subgroup"
        )
        return groups_mod.FiniteTopGroup(group, n_mask)
    if "opens" in topo_spec:
        _require_keys(topo_spec, {"opens"}, {"opens"}, "topology")
        opens = topo_spec["opens"]
        if not isinstance(opens, list):
            raise InputError("opens must be a list of open sets")
        masks = [_point_mask(u, group.order, "open set") for u in opens]
        space = FiniteSpace.from_opens(group.order, masks)
        return groups_mod.FiniteTopGroup.from_space(group, space)
    raise InputError("topology spec needs normal_subgroup or opens")


def load_measure(spec, g) -> measure_mod.FiniteMeasure:
    _require_keys(spec, {"atom_masses"}, {"atom_masses"}, "measure")
    if not isinstance(spec["atom_masses"], list):
        raise InputError("atom_masses must be a list of rationals")
    masses = tuple(parse_frac(s) for s in spec["atom_masses"])
    return measure_mod.FiniteMeasure(g, masses)


def load_cylinder(spec) -> plane_mod.IntervalUnion:
    """The base E of the cylinder E x R given by a list of intervals."""
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
        ivs.append(
            plane_mod.Interval(
                parse_frac(entry["lo"]),
                parse_frac(entry["hi"]),
                _bool_value(entry.get("lo_closed", True), "lo_closed"),
                _bool_value(entry.get("hi_closed", True), "hi_closed"),
            )
        )
    return plane_mod.IntervalUnion(ivs)


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


# -- command handlers: (data, opts) -> (results, math_ok) ---------------------


def cmd_enumerate(data, opts):
    """Every compatible topology with its Haar data.  It passes on every
    valid input: each column of G/N's atom table holds every atom, so
    translation has one orbit on the atoms, and `haar_dimension` is 1."""
    _require_keys(data, {"group"}, {"group"}, "input")
    group = load_group(data["group"])
    topologies = []
    for tg in groups_mod.group_topologies(group):
        dim, _ = measure_mod.haar_solution_space(tg)
        canon = measure_mod.canonical_haar(tg)
        topologies.append(
            {
                "normal_subgroup": points_list(tg.atoms[0]),
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
    tg = load_top_group(data["group"], data["topology"])
    mu = load_measure(data["measure"], tg)
    report = measure_mod.is_haar(tg, mu, side=side)
    witnesses = [
        {
            "kind": kind,
            "set": points_list(tg.preimage(sel)),
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
    tg = load_top_group(data["group"], data["topology"])
    k0 = _point_mask(data["k0"], tg.group.order, "k0")
    k_atoms = len(tg.atoms)
    mu = covering_mod.existence_via_covering(tg, k0)
    # the canonical Haar measure has mass 1 on every atom
    masses = mu.atom_mass
    scalar = masses[0] if all(m == masses[0] for m in masses) else None
    # full (K:U) table over closed sets and open identity neighborhoods,
    # truncated to atoms and the full set past the size cap.  Closed and
    # open sets alike are the unions of atoms, so both run over atom
    # selections in the order of their point masks, and `covering` takes
    # them as they are; the neighborhoods are the selections holding atom
    # 0, N.  counts[u][k] is (K:U).
    full = (1 << k_atoms) - 1
    truncated = k_atoms > 6
    if truncated:
        closed_sels = [1 << i for i in range(k_atoms)] + [full]
        nbhd_sels = [1, full]
        counts = {
            u: {k: covering_mod.covering_number(tg, k, u) for k in closed_sels}
            for u in nbhd_sels
        }
    else:
        closed_sels = sorted(range(1, full + 1), key=tg.preimage)
        nbhd_sels = [u for u in closed_sels if u & 1]
        counts = {u: covering_mod.covering_table(tg, u) for u in nbhd_sels}
    listed = {s: points_list(tg.preimage(s)) for s in closed_sels}
    table = [
        {"k": listed[k], "u": listed[u], "count": counts[u][k]}
        for k in closed_sels
        for u in nbhd_sels
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
    tg = load_top_group(data["group"], data["topology"])
    qtg = groups_mod.quotient(tg)
    canon = measure_mod.canonical_haar(tg)
    pushed = measure_mod.pushforward(tg, canon)
    pulled = measure_mod.pullback(tg, pushed)
    roundtrip_ok = pulled == canon
    pushed_haar = measure_mod.is_haar(qtg, pushed).is_haar
    results = {
        "normal_subgroup": points_list(tg.atoms[0]),
        "atoms": [points_list(a) for a in tg.atoms],
        "quotient_order": qtg.group.order,
        "projection": list(tg.atom_of),
        "pushforward_masses": [frac_str(m) for m in pushed.atom_mass],
        "pullback_roundtrip_ok": roundtrip_ok,
        "pushforward_is_haar": pushed_haar,
    }
    return results, roundtrip_ok and pushed_haar


def cmd_counterexample(data, opts):
    flag = parse_frac(opts.probe_bound) if opts.probe_bound is not None else None
    _require_keys(data, {"c", "probe_bound"}, {"c"}, "input")
    c = parse_frac(data["c"])
    probe_bound = parse_frac(data.get("probe_bound", "1"))  # checked under the flag too
    cert = plane_mod.counterexample_bk(c, probe_bound if flag is None else flag)
    verified = plane_mod.verify_bk_certificate(cert)
    side = plane_mod.UNIT_SIDE
    x = [frac_str(side.lo), frac_str(side.hi)]
    results = {
        "verdict": cert.verdict,
        "verified": verified,
        "translate_count": cert.count,
        "translates": [
            {"x": x, "y": [frac_str(side.lo + dy), frac_str(side.hi + dy)]}
            for dy in cert.translates
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
        tgs.append(load_top_group(entry["group"], entry["topology"]))
    g, h = tgs
    if g.group.order * h.group.order > groups_mod.MAX_ORDER:
        raise InputError("combined order exceeds the cap")
    mu = measure_mod.canonical_haar(g)
    lam = measure_mod.canonical_haar(h)
    n = g.group.order * h.group.order
    checks = []
    ok = True
    for c, cell in enumerate(measure_mod.product_cells(g, h)):
        i, j = divmod(c, len(h.atoms))
        f = PointFunction.indicator(n, cell)
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
    results = {"base": intervals_json(e)}
    mass = plane_mod.haar_v(e)
    results["mass"] = frac_str(mass)
    ok = True
    if "shift" in data:
        shift = data["shift"]
        if not isinstance(shift, list) or len(shift) != 2:
            raise InputError("shift must be a pair of rationals")
        a, b = (parse_frac(s) for s in shift)
        moved = plane_mod.translate_v(e, a, b)
        results["shifted"] = intervals_json(moved)
        moved_mass = plane_mod.haar_v(moved)
        results["shifted_mass"] = frac_str(moved_mass)
        ok = moved_mass == mass
    if "eps" in data:
        eps = parse_frac(data["eps"])
        inner, outer = plane_mod.regularity_gap(e, eps)
        results["inner"] = intervals_json(inner)
        inner_mass = plane_mod.haar_v(inner)
        results["inner_mass"] = frac_str(inner_mass)
        results["outer"] = intervals_json(outer)
        outer_mass = plane_mod.haar_v(outer)
        results["outer_mass"] = frac_str(outer_mass)
        ok = ok and mass - inner_mass <= eps and outer_mass - mass <= eps
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


HELP = f"""\
usage: haarlab <command> --input PATH [--output PATH] [--probe-bound p/q]

Verify Haar-measure facts on finite groups and the seminorm plane.

commands: {", ".join(COMMANDS)}

  --input PATH       the JSON input (required)
  --output PATH      write the JSON report there instead of to stdout
  --probe-bound p/q  counterexample's probe bound, in place of the input's
"""

#: Each flag of the grammar, and the Options attribute its value goes to.
_FLAGS = {
    "--input": "input",
    "--output": "output",
    "--probe-bound": "probe_bound",
}
_HELP = ("-h", "--help")


class Options:
    """A parsed command line: the command and each flag's value, None
    where the flag is not given."""

    __slots__ = ("command", "input", "output", "probe_bound")

    def __init__(self, command):
        self.command = command
        self.input = self.output = self.probe_bound = None


def parse_args(argv) -> Options | None:
    """The Options of `haarlab <command> --input PATH [--output PATH]
    [--probe-bound p/q]`, or None for -h or --help.

    Flags follow the command in any order, as `--flag value` or
    `--flag=value`, and a repeated flag keeps its last value.  A value
    that starts with `--` needs the `=` form.  Anything else raises
    InputError: no command or an unknown one, an unknown or abbreviated
    flag, a flag with no value, a stray argument, --probe-bound on a
    command other than counterexample, or no --input."""
    if not argv:
        raise InputError(f"no command; expected one of {', '.join(COMMANDS)}")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    opts = Options(command)
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return None
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS:
            what = "flag" if token.startswith("-") else "argument"
            raise InputError(f"unknown {what} {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputError(f"{flag} needs a value")
        setattr(opts, _FLAGS[flag], value)
    if opts.probe_bound is not None and command != "counterexample":
        raise InputError("--probe-bound applies only to counterexample")
    if opts.input is None:
        raise InputError("--input is required")
    return opts


def _json_float(text):
    """A JSON number with a fraction or an exponent, as its float, if the
    float's repr, which `parse_frac` reads, is the rational written (within
    the caps): 1e-400 would load as 0.0, 0.30000000000000001 as 0.3."""
    written = parse_frac(text)
    value = float(text)
    if math.isinf(value) or parse_frac(repr(value)) != written:
        raise InputError(
            f"JSON number {text} loads as the float {value!r}, not the "
            "rational written; give it as a string"
        )
    return value


def _read_input(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_json_float)
    except InputError:  # a number _json_float refuses, reported as it stands
        raise
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past the int-to-text digit limit; RecursionError is nesting
    # deeper than the parser's recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc


def run(argv=None) -> int:
    """Run one command line (default sys.argv[1:]): write its report to
    stdout or --output and return the exit code.  A command line outside
    the grammar gets its error report on stdout."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    output = None
    try:
        opts = parse_args(argv)
        if opts is None:
            sys.stdout.write(HELP)
            return 0
        output = opts.output
        data = _read_input(opts.input)
        results, ok = COMMANDS[command](data, opts)
    except InputError as exc:
        report, code = _error_report(command, str(exc)), 2
    except TooLarge as exc:
        report, code = _error_report(command, f"TooLarge: {exc}"), 2
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": data,
            "results": results,
            "passed": ok,
        }
        code = 0 if ok else 1

    if output is not None:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                _write_report(report, fh)
            return code
        except OSError as exc:
            report, code = _error_report(command, f"cannot write output: {exc}"), 2
    _write_report(report, sys.stdout)
    return code


def _write_report(report, fh):
    """Stream the report's canonical text to fh, chunk by chunk, so that no
    copy of the whole text is ever built: compact JSON with sorted keys and
    no whitespace between tokens, then one LF.

    json.dumps would encode the whole text at once in C, several times
    faster, but it builds that whole text: a peak allocation the size of
    the report, where json.dump's chunks keep it to kilobytes."""
    json.dump(report, fh, sort_keys=True, separators=(",", ":"))
    fh.write("\n")


def _error_report(command, message):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": message,
    }


def main():  # console entry point
    """Run one command, then end the process without interpreter teardown.

    When run() returns, every check has run and the report is written
    (--output is closed by then), so both streams are flushed and
    os._exit skips module finalisation and the last garbage-collection
    pass.  Usage errors and --help return from run() like any other
    command line.  An exception from run() and a flush that fails (a
    closed pipe) take the normal exit path, never exit 0.  run() is the
    in-process entry point; it returns.

    Under PYTHONUNBUFFERED (or -u) stdout's text layer writes straight to
    the raw file and drops the rest of a short write, so a reader that
    closes the pipe mid-report would leave it truncated with exit 0.  A
    buffered layer finishes short writes and raises on a broken pipe.
    """
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(out.buffer), encoding=out.encoding, errors=out.errors
        )
    code = run()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
