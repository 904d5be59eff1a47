"""Seeded inputs for the three workloads, each paired with its oracle check.

A workload is a *round*: a fixed list of operation slots.  The seed picks
the concrete group, relabelling, normal subgroup, masses, tile mass or
intervals for each slot, but never the slots themselves, so every seed
gives a round of the same shape and about the same cost, and the known
faulty operations are the same share of every round.  The seed also
shuffles the order of the round, so that commands of one size are spread
over the run rather than timed in one stretch of machine speed.

Each operation carries a `check(code, report)` that returns None when the
report is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as o

SCHEMA = "1"


@dataclass
class Op:
    cmd: str
    data: dict
    check: object
    argv: list = field(default_factory=list)
    #: Fails with exit 2 TooLarge at this commit: counted, not a wrong answer.
    known_fault: bool = False


# -- group pools -------------------------------------------------------------


def _pool():
    z, d, x = o.cyclic, o.dihedral, o.product
    q8, s3 = o.quaternion8, o.symmetric3
    return {
        2: [z(2)],
        3: [z(3)],
        4: [z(4), x(z(2), z(2))],
        5: [z(5)],
        6: [z(6), s3()],
        8: [z(8), x(z(2), z(4)), d(4), q8()],
        9: [z(9), x(z(3), z(3))],
        10: [z(10), d(5)],
        12: [z(12), d(6), x(z(2), z(6)), x(s3(), z(2))],
        14: [z(14), d(7)],
        16: [z(16), x(z(2), z(8)), x(z(4), z(4)), d(8), x(q8(), z(2)), x(d(4), z(2))],
        18: [z(18), x(z(3), z(6)), d(9), x(s3(), z(3))],
        20: [z(20), d(10), x(z(2), z(10))],
        24: [z(24), x(z(2), z(12)), d(12), x(s3(), z(4)), x(q8(), z(3)), x(d(4), z(3))],
        32: [z(32), x(z(2), z(16)), x(z(4), z(8)), d(16), x(q8(), z(4)), x(d(4), z(4))],
        40: [z(40), x(z(2), z(20)), d(20), x(z(4), z(10))],
        48: [z(48), x(z(2), z(24)), x(z(4), z(12)), d(24), x(s3(), z(8)), x(q8(), z(6))],
        64: [z(64), x(z(2), z(32)), x(z(4), z(16)), x(z(8), z(8)), d(32), x(q8(), z(8))],
    }


def corpus_groups():
    """The test suite's corpus: Z1..Z12, D3, D4, Q8, S3 and Z2 x Z4."""
    groups = [o.cyclic(n) for n in range(1, 13)]
    groups += [o.dihedral(3), o.dihedral(4), o.quaternion8(), o.symmetric3()]
    groups.append(o.product(o.cyclic(2), o.cyclic(4)))
    return groups


class Picker:
    """Seeded choices of groups, normal subgroups and relabellings."""

    def __init__(self, seed, workload):
        self.rng = random.Random(f"{workload}/{seed}")
        self.pool = _pool()
        self._normals = {}

    def normals(self, g):
        key = id(g)
        if key not in self._normals:
            self._normals[key] = o.normal_subgroups(g)
        return self._normals[key]

    def relabel(self, g, n_mask=0):
        """Rename the elements at random, keeping the identity at 0."""
        others = [x for x in range(g.order) if x != g.e]
        targets = list(range(1, g.order))
        self.rng.shuffle(targets)
        sigma = [0] * g.order
        for x, t in zip(others, targets):
            sigma[x] = t
        return g.relabel(sigma), o.mask(sigma[x] for x in o.bits(n_mask))

    def shape(self, order, atoms):
        """A relabelled group of this order with a normal subgroup of index
        `atoms`, so that every seed gives the same lattice size."""
        cands = [
            (g, n)
            for g in self.pool[order]
            for n in self.normals(g)
            if order // bin(n).count("1") == atoms
        ]
        g, n = self.rng.choice(cands)
        return self.relabel(g, n)

    def frac(self, lo=1, hi=99):
        return Fraction(self.rng.randint(lo, hi), self.rng.randint(lo, hi))


def table_spec(g):
    return {"order": g.order, "table": g.table}


def _common(cmd, data, code, report, want_code):
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if report.get("schema_version") != SCHEMA or report.get("command") != cmd:
        return "bad schema_version or command"
    if report.get("inputs") != data:
        return "inputs not echoed"
    if report.get("passed") is not (want_code == 0):
        return "passed does not match the exit code"
    return None


# -- lattice -------------------------------------------------------------------


def quotient_op(g, n_mask):
    data = {"group": table_spec(g), "topology": {"normal_subgroup": o.bits(n_mask)}}
    want = o.expect_quotient(g, n_mask)

    def check(code, report):
        bad = _common("quotient", data, code, report, 0)
        if bad:
            return bad
        if report["results"] != want:
            return "quotient report differs from the coset computation"
        return None

    return Op("quotient", data, check)


def enumerate_op(spec, g, known_fault=False):
    data = {"group": spec}
    want = o.expect_enumerate(g)

    def check(code, report):
        if known_fault and code == 2 and "TooLarge" in str((report or {}).get("error")):
            return "known fault"
        bad = _common("enumerate", data, code, report, 0)
        if bad:
            return bad
        res = report["results"]
        if res.get("order") != g.order:
            return "wrong order"
        got = {tuple(t["normal_subgroup"]): t for t in res["topologies"]}
        if len(got) != len(res["topologies"]) or got != want:
            return f"{len(got)} topologies, expected one per normal subgroup ({len(want)})"
        return None

    return Op("enumerate", data, check, known_fault=known_fault)


#: Extra quotient slots beyond the corpus: (group order, atoms).  With the
#: `enumerate` slots they bring a round to 108 commands.  The sixteen
#: order-18 slots are a block of commands of one size, so that the 90th
#: percentile of a round falls inside it whatever the seed picks.
LATTICE_QUOTIENTS = [(18, 9)] * 16 + [
    (12, 6), (16, 4), (18, 6), (20, 4), (20, 5), (24, 4), (24, 6),
    (32, 4), (32, 8), (40, 5), (48, 4), (48, 8), (64, 4), (64, 8),
]
#: Orders of the groups given to `enumerate` that it can answer.
LATTICE_ENUMERATE = [4, 6, 6, 8, 8, 9, 10, 10, 12, 12, 12, 12, 12]
#: `enumerate` inputs that exit 2 at this commit (more than 16 cosets).
KNOWN_FAULTS = [
    {"family": "cyclic", "params": {"n": 24}},
    {"family": "cyclic", "params": {"n": 32}},
    {"family": "cyclic", "params": {"n": 64}},
    {
        "family": "product",
        "params": {
            "factors": [
                {"family": "cyclic", "params": {"n": 2}},
                {"family": "cyclic", "params": {"n": 16}},
            ]
        },
    },
]


def lattice(seed, tiny=False):
    p = Picker(seed, "lattice")
    ops = []
    corpus = corpus_groups()[:6] if tiny else corpus_groups()
    for g in corpus:
        for n in p.normals(g):
            ops.append(quotient_op(*p.relabel(g, n)))
    for order, k in LATTICE_QUOTIENTS[:1] if tiny else LATTICE_QUOTIENTS:
        ops.append(quotient_op(*p.shape(order, k)))
    for order in LATTICE_ENUMERATE[:2] if tiny else LATTICE_ENUMERATE:
        g, _ = p.relabel(p.rng.choice(p.pool[order]))
        ops.append(enumerate_op(table_spec(g), g))
    for spec in KNOWN_FAULTS[:1] if tiny else KNOWN_FAULTS:
        ops.append(enumerate_op(spec, o.group_from_spec(spec), known_fault=True))
    p.rng.shuffle(ops)
    return ops


# -- haar ------------------------------------------------------------------------


def verify_op(g, n_mask, masses, side):
    data = {
        "group": table_spec(g),
        "topology": {"normal_subgroup": o.bits(n_mask)},
        "measure": {"atom_masses": [o.frac_str(m) for m in masses]},
        "side": side,
    }
    atoms = o.cosets(g, n_mask)
    haar = o.haar_expected(masses)

    def check(code, report):
        bad = _common("verify-haar", data, code, report, 0 if haar else 1)
        if bad:
            return bad
        res = report["results"]
        flags = {
            "side": side,
            "is_haar": haar,
            "nonzero": True,
            "left_invariant": haar,
            "right_invariant": haar,
            "locally_finite": True,
            "outer_regular": True,
            "inner_regular_on_opens": True,
        }
        for key, want in flags.items():
            if res.get(key) != want:
                return f"{key} is {res.get(key)!r}, expected {want!r}"
        wit = res["witnesses"]
        if haar and wit:
            return "witnesses reported for a Haar measure"
        if not haar:
            if {w.get("kind") for w in wit} != {"left", "right"}:
                return "expected one left and one right witness"
            if not all(o.witness_ok(g, atoms, masses, w) for w in wit):
                return "a witness set has equal mass before and after translation"
        return None

    return Op("verify-haar", data, check)


def fubini_op(factors):
    data = {}
    ks = []
    for key, (g, n) in zip(("group1", "group2"), factors):
        data[key] = {"group": table_spec(g), "topology": {"normal_subgroup": o.bits(n)}}
        ks.append(len(o.cosets(g, n)))
    want = [
        {"f": f"indicator_atom_{i}x{j}", "lhs": "1/1", "rhs": "1/1", "equal": True}
        for i in range(ks[0])
        for j in range(ks[1])
    ]

    def check(code, report):
        bad = _common("fubini", data, code, report, 0)
        if bad:
            return bad
        if report["results"].get("checks") != want:
            return "iterated integrals differ from the product of atom masses"
        return None

    return Op("fubini", data, check)


def construct_op(g, n_mask, k0):
    data = {
        "group": table_spec(g),
        "topology": {"normal_subgroup": o.bits(n_mask)},
        "k0": o.bits(k0),
    }
    want = o.expect_construct(g, n_mask, k0)

    def check(code, report):
        bad = _common("construct", data, code, report, 0)
        if bad:
            return bad
        res = report["results"]
        if res.get("table_truncated") != want["truncated"]:
            return "table_truncated is wrong"
        if res.get("measure") != want["measure"]:
            return "measure differs from 1 / (atoms in k0)"
        if res.get("canonical_scalar") != want["canonical_scalar"]:
            return "canonical_scalar is wrong"
        rows = res["covering_table"]
        got = {(tuple(r["k"]), tuple(r["u"])): r["count"] for r in rows}
        if len(rows) != len(want["table"]) or got != want["table"]:
            bad_rows = [key for key in want["table"] if got.get(key) != want["table"][key]]
            return f"covering table differs from brute force at {len(bad_rows)} entries"
        return None

    return Op("construct", data, check)


#: verify-haar slots, (group order, atoms); each gets a passing and a
#: failing measure.  The small slots bring a round to 114 commands; the
#: sixteen (12, 12) slots are a block of full sweeps of one size that holds
#: the 90th percentile of a round.
HAAR_VERIFY = [
    (2, 2), (3, 3), (4, 2), (4, 4), (5, 5), (6, 2), (6, 3), (6, 6), (8, 2),
    (8, 4), (8, 8), (9, 9), (10, 5), (10, 10), (12, 3), (12, 4), (12, 6),
    (16, 8), (20, 10), (32, 8), (40, 10), (64, 8), (48, 12),
    (2, 2), (3, 3), (4, 4), (5, 5), (6, 3), (6, 6), (8, 2), (8, 8), (9, 9),
    (10, 10), (12, 4), (12, 6), (16, 4),
] + [(12, 12)] * 16
#: Failing-only slots: a full sweep here takes several seconds.
HAAR_VERIFY_FAIL_ONLY = [(16, 16)]
#: Fubini factor pairs, ((order, atoms), (order, atoms)), product order <= 64.
HAAR_FUBINI = [
    ((8, 4), (8, 4)), ((6, 6), (6, 6)), ((4, 4), (4, 4)), ((8, 4), (8, 2)), ((4, 2), (6, 3)),
]
#: construct slots: full covering table up to 6 atoms, truncated past that.
HAAR_CONSTRUCT = [(48, 6), (12, 4), (12, 12), (32, 8)]


def _measure(p, k, perturb):
    s = p.frac()
    masses = [s] * k
    if perturb:
        masses[p.rng.randrange(k)] = s + p.frac(1, 50)
    return masses


def haar(seed, tiny=False):
    p = Picker(seed, "haar")
    ops = []
    verify = HAAR_VERIFY[:4] if tiny else HAAR_VERIFY
    for order, k in verify:
        for perturb in (False, True):
            g, n = p.shape(order, k)
            side = p.rng.choice(["left", "right"])
            ops.append(verify_op(g, n, _measure(p, k, perturb), side))
    for order, k in [] if tiny else HAAR_VERIFY_FAIL_ONLY:
        g, n = p.shape(order, k)
        ops.append(verify_op(g, n, _measure(p, k, True), p.rng.choice(["left", "right"])))
    for pair in HAAR_FUBINI[2:3] if tiny else HAAR_FUBINI:
        ops.append(fubini_op([p.shape(order, k) for order, k in pair]))
    for order, k in HAAR_CONSTRUCT[1:2] if tiny else HAAR_CONSTRUCT:
        g, n = p.shape(order, k)
        atoms = o.cosets(g, n)
        chosen = [a for a in atoms if p.rng.random() < 0.5] or [atoms[0]]
        ops.append(construct_op(g, n, o.mask(x for a in chosen for x in o.bits(a))))
    p.rng.shuffle(ops)
    return ops


# -- certificate ---------------------------------------------------------------------


def counterexample_op(c, bound, via_flag):
    data = {"c": o.frac_str(c)}
    argv = []
    if via_flag:
        argv = ["--probe-bound", o.frac_str(bound)]
    else:
        data["probe_bound"] = o.frac_str(bound)
    if c > 0:
        want_tiles = o.tiles(c, bound)
        if len(want_tiles) * c <= bound:
            raise ValueError("tile count does not exceed the bound")
    else:
        want_tiles = []

    def check(code, report):
        bad = _common("counterexample", data, code, report, 0)
        if bad:
            return bad
        res = report["results"]
        if res.get("verified") is not True:
            return "certificate not verified"
        if c > 0:
            if res.get("verdict") != "FinitenessViolated":
                return "wrong verdict for a positive tile mass"
            if res.get("translate_count") != len(want_tiles):
                return f"translate_count {res.get('translate_count')}, expected {len(want_tiles)}"
            if res.get("translates") != want_tiles:
                return "tiles missing or out of place"
            if res.get("grid_offsets") != []:
                return "grid offsets in a finiteness certificate"
        else:
            if res.get("verdict") != "NonzeroViolated":
                return "wrong verdict for tile mass 0"
            offsets = res.get("grid_offsets", [])
            if len(offsets) != len(o.GRID) or {tuple(x) for x in offsets} != o.GRID:
                return "grid window is not every offset within 3"
            if res.get("translates") != [] or res.get("translate_count") != 0:
                return "tiles in a nonzero certificate"
        return None

    return Op("counterexample", data, check, argv=argv)


def plane_op(ivs, shift, eps):
    data = {"intervals": o.intervals_json(ivs)}
    if shift is not None:
        data["shift"] = [o.frac_str(s) for s in shift]
    if eps is not None:
        data["eps"] = o.frac_str(eps)
    base = o.merge(ivs)
    mass = o.length(base)

    def check(code, report):
        bad = _common("plane", data, code, report, 0)
        if bad:
            return bad
        res = report["results"]
        if res.get("base") != o.intervals_json(base):
            return "base is not the merged union"
        if res.get("mass") != o.frac_str(mass):
            return "mass is not the merged length"
        if shift is not None:
            moved = o.merge([(lo + shift[0], hi + shift[0], lc, hc) for lo, hi, lc, hc in base])
            if res.get("shifted") != o.intervals_json(moved):
                return "shifted base is wrong"
            if res.get("shifted_mass") != o.frac_str(mass):
                return "translation changed the mass"
        if eps is not None:
            inner = o.parse_intervals(res["inner"])
            outer = o.parse_intervals(res["outer"])
            if not all(lc and hc for _, _, lc, hc in inner):
                return "inner set is not closed"
            if any(lc or hc for _, _, lc, hc in outer):
                return "outer set is not open"
            if not o.contains(base, inner) or not o.contains(outer, base):
                return "inner/outer sets do not sandwich the base"
            im, om = o.length(o.merge(inner)), o.length(o.merge(outer))
            if res.get("inner_mass") != o.frac_str(im) or res.get("outer_mass") != o.frac_str(om):
                return "inner/outer masses are not their lengths"
            if mass - im > eps or om - mass > eps:
                return "regularity gap exceeds eps"
        return None

    return Op("plane", data, check)


#: Tile counts of the counterexample slots; the seed varies each by 2%.
#: The sixteen 192-tile slots are a block that holds the 90th percentile.
CERT_TILES = [1, 2, 4, 8, 16, 32, 64, 128] + [192] * 16 + [512, 768, 1024]
CERT_ZERO = 2
CERT_PLANE = 81


def _intervals(p):
    ivs = []
    for _ in range(p.rng.randint(1, 12)):
        lo = Fraction(p.rng.randint(-40, 40), p.rng.choice([1, 2, 3, 4]))
        hi = lo + Fraction(p.rng.randint(0, 12), p.rng.choice([1, 2, 3]))
        if lo == hi:
            ivs.append((lo, hi, True, True))
        else:
            ivs.append((lo, hi, p.rng.random() < 0.5, p.rng.random() < 0.5))
    return ivs


def certificate(seed, tiny=False):
    p = Picker(seed, "certificate")
    ops = []
    for m in CERT_TILES[:4] if tiny else CERT_TILES:
        c = Fraction(p.rng.randint(1, 9), p.rng.randint(1, 9))
        count = p.rng.randint(max(1, round(m * 0.98)), round(m * 1.02))
        bound = c * (count - 1) + c * Fraction(p.rng.randint(1, 9), 10)
        ops.append(counterexample_op(c, bound, p.rng.random() < 0.5))
    for _ in range(1 if tiny else CERT_ZERO):
        ops.append(counterexample_op(Fraction(0), p.frac(), p.rng.random() < 0.5))
    for i in range(4 if tiny else CERT_PLANE):
        ivs = [] if i == 0 else _intervals(p)
        shift = None
        if i % 4 in (1, 3):
            shift = tuple(Fraction(p.rng.randint(-120, 120), p.rng.randint(1, 6)) for _ in "ab")
        eps = p.frac(1, 20) / 10 if i % 4 in (2, 3) else None
        ops.append(plane_op(ivs, shift, eps))
    p.rng.shuffle(ops)
    return ops


WORKLOADS = {"lattice": lattice, "haar": haar, "certificate": certificate}
