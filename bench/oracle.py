"""Reference computations that the benchmark checks haarlab's reports against.

This module imports nothing from haarlab.  Groups are rebuilt from their
own multiplication rules (modular addition, the dihedral relation,
composition of permutations of three points, quaternion arithmetic),
subgroups are found by a different algorithm (joins of normal closures),
covering numbers by brute force over subsets of translates on the
quotient, and interval unions by a plain sort-and-merge.  Sets of group
elements are bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


def frac(s):
    return Fraction(str(s))


def frac_str(f):
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


# -- groups ------------------------------------------------------------------


class Group:
    """A finite group on 0..order-1 given by a full multiplication table."""

    def __init__(self, table):
        self.table = [list(row) for row in table]
        self.order = n = len(self.table)
        self.e = next(
            e for e in range(n) if all(self.table[e][x] == x for x in range(n))
        )
        self.inv = [
            next(y for y in range(n) if self.table[x][y] == self.e) for x in range(n)
        ]

    def lmul(self, g, m):
        row = self.table[g]
        return mask(row[x] for x in bits(m))

    def rmul(self, m, g):
        return mask(self.table[x][g] for x in bits(m))

    def relabel(self, sigma):
        """The same group with element x renamed sigma[x]."""
        n = self.order
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[sigma[a]][sigma[b]] = sigma[self.table[a][b]]
        return Group(out)


def cyclic(n):
    return Group([[(a + b) % n for b in range(n)] for a in range(n)])


def dihedral(n):
    """Element k*n + i is s^k r^i; moving r^i past s^k2 inverts it k2 times."""

    def mul(a, b):
        k1, i1 = divmod(a, n)
        k2, i2 = divmod(b, n)
        i = (-i1 if k2 else i1) + i2
        return ((k1 + k2) % 2) * n + i % n

    return Group([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def symmetric3():
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return Group(
        [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    )


def quaternion8():
    """1, -1, i, -i, j, -j, k, -k as unit quaternions (w, x, y, z)."""
    units = []
    for axis in range(4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))

    def qmul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    return Group([[units.index(qmul(p, q)) for q in units] for p in units])


def product(g, h):
    """Pair (a, b) is element a * |h| + b."""
    m = h.order
    return Group(
        [
            [g.table[a // m][b // m] * m + h.table[a % m][b % m] for b in range(g.order * m)]
            for a in range(g.order * m)
        ]
    )


def group_from_spec(spec):
    """Rebuild a group given as a table or as a cyclic or product family."""
    if "family" not in spec:
        return Group(spec["table"])
    params = spec["params"]
    if spec["family"] == "cyclic":
        return cyclic(params["n"])
    if spec["family"] == "product":
        a, b = params["factors"]
        return product(group_from_spec(a), group_from_spec(b))
    raise ValueError(f"unsupported family {spec['family']!r}")


def generated(g, gens):
    """Subgroup generated by a set of elements, as a mask."""
    seen = mask([g.e])
    frontier = [g.e]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.table[x][s]
            if not seen >> y & 1:
                seen |= 1 << y
                frontier.append(y)
    return seen


def normal_subgroups(g):
    """Every normal subgroup: all joins of the normal closures of elements."""
    closures = set()
    for x in range(g.order):
        conj = {g.table[g.table[h][x]][g.inv[h]] for h in range(g.order)}
        closures.add(generated(g, conj))
    found = {mask([g.e])} | closures
    frontier = list(found)
    while frontier:
        a = frontier.pop()
        for b in closures:
            j = generated(g, bits(a | b))
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found)


def cosets(g, n_mask):
    """The N-cosets: the identity coset first, then by smallest member."""
    out = []
    covered = 0
    for x in range(g.order):
        if not covered >> x & 1:
            c = g.lmul(x, n_mask)
            covered |= c
            out.append(c)
    ident = next(c for c in out if c >> g.e & 1)
    out.remove(ident)
    return [ident] + sorted(out, key=lambda c: bits(c)[0])


# -- lattice -----------------------------------------------------------------


def expect_quotient(g, n_mask):
    atoms = cosets(g, n_mask)
    proj = [next(i for i, a in enumerate(atoms) if a >> x & 1) for x in range(g.order)]
    return {
        "normal_subgroup": bits(n_mask),
        "atoms": [bits(a) for a in atoms],
        "quotient_order": len(atoms),
        "projection": proj,
        "pushforward_masses": ["1/1"] * len(atoms),
        "pullback_roundtrip_ok": True,
        "pushforward_is_haar": True,
    }


def expect_enumerate(g):
    """One topology per normal subgroup, each with a 1-dimensional Haar
    solution space and canonical mass 1 on every coset."""
    out = {}
    for n_mask in normal_subgroups(g):
        atoms = cosets(g, n_mask)
        out[tuple(bits(n_mask))] = {
            "normal_subgroup": bits(n_mask),
            "atoms": [bits(a) for a in atoms],
            "haar_dimension": 1,
            "canonical_masses": ["1/1"] * len(atoms),
        }
    return out


# -- measures ------------------------------------------------------------------


def haar_expected(masses):
    """On a finite group the cosets are permuted transitively by translation,
    so a measure is Haar exactly when every atom has the same nonzero mass."""
    return masses[0] > 0 and all(m == masses[0] for m in masses)


def set_mass(atoms, masses, point_mask):
    """Mass of a union of atoms; None when the set cuts an atom."""
    total = Fraction(0)
    for a, m in zip(atoms, masses):
        if a & point_mask:
            if a & ~point_mask:
                return None
            total += m
    return total


def witness_ok(g, atoms, masses, witness):
    """A left/right witness must name a set whose translate has another mass."""
    kind = witness.get("kind")
    if kind not in ("left", "right"):
        return False
    s = mask(witness["set"])
    elem = witness["element"]
    if not isinstance(elem, int) or not 0 <= elem < g.order:
        return False
    moved = g.lmul(elem, s) if kind == "left" else g.rmul(s, elem)
    before = set_mass(atoms, masses, s)
    after = set_mass(atoms, masses, moved)
    return before is not None and after is not None and before != after


def covering_count(g, atoms, k_sel, u_sel):
    """Fewest translates x*U covering K, by brute force over the quotient.

    K and U are unions of atoms given as atom-index masks; on the quotient
    the translate by a coset representative permutes atom indices.
    """
    if k_sel == 0:
        return 0
    index = {}
    for i, a in enumerate(atoms):
        for x in bits(a):
            index[x] = i
    reps = [bits(a)[0] for a in atoms]
    translates = set()
    for r in reps:
        translates.add(mask(index[g.table[r][reps[j]]] for j in bits(u_sel)))
    translates = sorted(translates)
    for size in range(1, len(translates) + 1):
        for combo in combinations(translates, size):
            acc = 0
            for t in combo:
                acc |= t
            if k_sel & ~acc == 0:
                return size
    raise ValueError("no cover")


def expect_construct(g, n_mask, k0):
    """The covering table and measure that `construct` must report."""
    atoms = cosets(g, n_mask)
    k = len(atoms)
    full_sel = (1 << k) - 1

    def points(sel):
        return tuple(bits(mask(x for i in bits(sel) for x in bits(atoms[i]))))

    k0_atoms = sum(1 for a in atoms if a & k0)
    if k > 6:
        ks = [1 << i for i in range(k)] + [full_sel]
        us = [1, full_sel]
    else:
        ks = range(1, full_sel + 1)
        us = [sel for sel in range(1 << k) if sel & 1]
    table = {
        (points(ks_), points(us_)): covering_count(g, atoms, ks_, us_)
        for ks_ in ks
        for us_ in us
    }
    return {
        "table": table,
        "truncated": k > 6,
        "measure": [frac_str(Fraction(1, k0_atoms))] * k,
        "canonical_scalar": frac_str(Fraction(1, k0_atoms)),
    }


# -- the plane -----------------------------------------------------------------


def tiles(c, bound):
    """The stacked unit tiles [0,1] x [2n, 2n+1] whose masses exceed bound."""
    count = bound // c + 1
    return [
        {"x": ["0/1", "1/1"], "y": [frac_str(2 * n), frac_str(2 * n + 1)]}
        for n in range(count)
    ]


GRID = {(m, n) for m in range(-3, 4) for n in range(-3, 4)}


def merge(intervals):
    """Canonical union of (lo, hi, lo_closed, hi_closed) intervals."""
    ivs = sorted(intervals, key=lambda iv: (iv[0], not iv[2]))
    out = []
    for lo, hi, lc, hc in ivs:
        if out:
            plo, phi, plc, phc = out[-1]
            if phi > lo or (phi == lo and (phc or lc)):
                if hi > phi:
                    out[-1] = (plo, hi, plc, hc)
                elif hi == phi:
                    out[-1] = (plo, phi, plc, phc or hc)
                continue
        out.append((lo, hi, lc, hc))
    return out


def length(ivs):
    return sum((hi - lo for lo, hi, _, _ in ivs), Fraction(0))


def contains(outer_ivs, inner_ivs):
    """Every inner interval lies inside one outer interval."""

    def inside(a, b):
        lo_ok = b[0] < a[0] or (b[0] == a[0] and (b[2] or not a[2]))
        hi_ok = b[1] > a[1] or (b[1] == a[1] and (b[3] or not a[3]))
        return lo_ok and hi_ok

    return all(any(inside(a, b) for b in outer_ivs) for a in inner_ivs)


def parse_intervals(entries):
    return [
        (frac(e["lo"]), frac(e["hi"]), bool(e["lo_closed"]), bool(e["hi_closed"]))
        for e in entries
    ]


def intervals_json(ivs):
    return [
        {"lo": frac_str(lo), "hi": frac_str(hi), "lo_closed": lc, "hi_closed": hc}
        for lo, hi, lc, hc in ivs
    ]
