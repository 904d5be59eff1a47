"""Literal references for the tests: the open family of a finite space
(up to 2^k sets, which the library never lists), the product topological
group, predicates no command needs (Hausdorff spaces, interval unions,
rectangles), and the library's computations redone from their
definitions."""

import functools
import math
from fractions import Fraction

from haarlab import FiniteGroup, FiniteMeasure, FiniteSpace, FiniteTopGroup, quotient
from haarlab import direct_product
from haarlab.errors import InternalInconsistency
from haarlab.measure import HaarReport
from haarlab.plane import FINITENESS_VIOLATED, GRID_WINDOW, NONZERO_VIOLATED, UNIT_SIDE
from haarlab.topology import bit_indices, mask_of

@functools.lru_cache(maxsize=None)
def opens(space):
    """Every open set, ascending: every union of the minimal opens."""
    family = {0}
    for r in set(space.min_open):
        family |= {u | r for u in family}
    return tuple(sorted(family))

def closed_sets(space):
    """Every closed set, ascending: the complements of the opens."""
    return tuple(sorted(space.full ^ u for u in opens(space)))

_direct_product = functools.lru_cache(maxsize=None)(direct_product)

def product_group(g, h):
    """The direct product with the product topology, the coset topology of
    N_g x N_h; the point (x, y) is indexed x * |H| + y."""
    pg, oh = _direct_product(g.group, h.group), h.group.order
    n_mask = mask_of(a * oh + b for a in bit_indices(g.atoms[0]) for b in bit_indices(h.atoms[0]))
    return FiniteTopGroup(pg, n_mask)

# -- topology ------------------------------------------------------------------

def literal_closure(space, s):
    """Reference: the intersection of every closed superset."""
    acc = space.full
    for c in closed_sets(space):
        if s & ~c == 0:
            acc &= c
    return acc

def literal_interior(space, s):
    """Reference: the union of every open subset."""
    acc = 0
    for u in opens(space):
        if u & ~s == 0:
            acc |= u
    return acc

def hausdorff(space):
    """Distinct points have disjoint open neighbourhoods; U_x lies in every
    open around x, so U_x and U_y must be disjoint."""
    mo = space.min_open
    return all(mo[x] & mo[y] == 0 for x in range(space.n) for y in range(x + 1, space.n))

def reference_separate(space, a, b):
    """The lexicographically smallest disjoint open pair (U, V) with
    a <= U and b <= V, found by searching the listed opens."""
    for u in opens(space):
        if a & ~u:
            continue
        for v in opens(space):
            if b & ~v == 0 and u & v == 0:
                return u, v
    raise AssertionError("regular space failed to separate")

# -- groups --------------------------------------------------------------------

def literal_associativity_error(table):
    """Reference: the triple loop over (a, b, c) in order; the message of
    the first failing triple, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"associativity fails at {(a, b, c)}"
    return None

def literal_identity_and_inverses(table):
    """Reference: a search of every element for a two-sided identity e, then
    of every y for a two-sided inverse of each x in turn; (e, inverses), or
    the message for the first that is missing."""
    n = len(table)
    found = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not found:
        return "no identity element"
    e, inverse = found[0], []
    for x in range(n):
        ys = [y for y in range(n) if table[x][y] == e == table[y][x]]
        if not ys:
            return f"element {x} has no inverse"
        inverse.append(ys[0])
    return e, tuple(inverse)

def literal_set_product(group, a, b):
    """A * B = {xy : x in A, y in B}, pair by pair."""
    return mask_of(group.mul(x, y) for x in bit_indices(a) for y in bit_indices(b))

def coset_space(g):
    """The topology of a topological group, from its group and its stored
    N alone: the minimal open of x is the set product {x} * N."""
    group, n_mask = g.group, g.normal_subgroup
    return FiniteSpace(
        group.order, [literal_set_product(group, 1 << x, n_mask) for x in range(group.order)]
    )

def literal_is_normal(group, mask):
    """Reference: gH = Hg for every g."""
    return all(
        literal_set_product(group, 1 << g, mask) == literal_set_product(group, mask, 1 << g)
        for g in range(group.order)
    )

def literal_is_subgroup(group, mask):
    """Reference: mask holds e and, with any a and b, holds ab and some
    two-sided inverse of a."""
    e, members = group.identity, list(bit_indices(mask))
    return (
        mask >> e & 1 == 1
        and all(mask >> group.mul(a, b) & 1 for a in members for b in members)
        and all(any(group.mul(a, b) == e == group.mul(b, a) for b in members) for a in members)
    )

def literal_continuity(group, space):
    """Reference: (multiplication, inversion) continuous, each checked as
    "the preimage of every open is open" over the listed open family.  The
    product G x G is the Alexandroff product: a set P of pairs is open iff
    it holds U_a x U_b for each of its pairs (a, b)."""
    open_sets = set(opens(space))
    mo = space.min_open
    n = group.order
    prod = [
        [mask_of(group.mul(x, y) for x in bit_indices(mo[a]) for y in bit_indices(mo[b]))
         for b in range(n)]
        for a in range(n)
    ]
    mul_ok = all(
        prod[a][b] & ~w == 0
        for w in open_sets
        for a in range(n)
        for b in range(n)
        if w >> group.mul(a, b) & 1
    )
    inv_ok = all(mask_of(group.inverse[x] for x in bit_indices(w)) in open_sets for w in open_sets)
    return mul_ok, inv_ok

def literal_partition(g, n_mask=None):
    """The atoms, atom_of and atom table from the definitions: N is the
    intersection of the closed sets holding e in `coset_space(g)` (or
    n_mask, for a group whose N is known by construction and whose opens
    are too many to list), the
    atoms are the cosets xN, N first then by smallest member, and entry
    (i, j) of the table is the atom equal to the set product of atoms i
    and j."""
    group, space = g.group, coset_space(g)
    if n_mask is None:
        n_mask = space.full
        for u in opens(space):
            if not u >> group.identity & 1:
                n_mask &= space.full ^ u
    cosets = {mask_of(group.mul(x, y) for y in bit_indices(n_mask)) for x in range(group.order)}
    atoms = (n_mask, *sorted(cosets - {n_mask}, key=lambda a: min(bit_indices(a))))
    atom_of = tuple(next(i for i, a in enumerate(atoms) if a >> x & 1) for x in range(group.order))
    table = tuple(
        tuple(
            atoms.index(mask_of(group.mul(x, y) for x in bit_indices(a) for y in bit_indices(b)))
            for b in atoms
        )
        for a in atoms
    )
    return atoms, atom_of, table

def reference_quotient(g):
    group = g.group
    atoms = g.atoms
    k = len(atoms)
    reps = [min(bit_indices(a)) for a in atoms]
    proj = g.atom_of
    image, preimage = g.image, g.preimage
    qtable = [
        [proj[group.mul(reps[i], reps[j])] for j in range(k)] for i in range(k)
    ]
    qspace = FiniteSpace(k, [1 << i for i in range(k)])  # discrete
    qgroup = FiniteGroup(qtable, name=f"{group.name}/N")
    qtg = FiniteTopGroup.from_space(qgroup, qspace)

    # homomorphism + well-definedness
    for a in range(group.order):
        for b in range(group.order):
            if proj[group.mul(a, b)] != qgroup.mul(proj[a], proj[b]):
                raise InternalInconsistency("projection is not a homomorphism")
    if set(proj) != set(range(k)):
        raise InternalInconsistency("projection is not surjective")

    # statements: projection open and closed; quotient Hausdorff
    space = coset_space(g)
    for u in opens(space):
        if not qspace.is_open(image(u)):
            raise InternalInconsistency("projection is not open")
        if not qspace.is_closed(image(space.full ^ u)):
            raise InternalInconsistency("projection is not closed")
    if not hausdorff(qspace):
        raise InternalInconsistency("quotient is not Hausdorff")
    # topology and Borel sets of the quotient are exactly images
    if {image(u) for u in opens(space)} != set(opens(qspace)):
        raise InternalInconsistency("quotient topology is not the image family")
    # compact lifting: every subset C of the quotient lifts to the closed
    # compact preimage
    check_all = k <= 12
    candidates = range(1 << k) if check_all else [1 << i for i in range(k)] + [
        (1 << k) - 1
    ]
    for c in candidates:
        lift = preimage(c)
        if image(lift) != c or not space.is_closed(lift):
            raise InternalInconsistency("compact lifting failed")
    return qtg

def reference_borel_atoms(g):
    space = coset_space(g)
    atoms = g.atoms
    k = len(atoms)
    # partition + clopen atoms
    acc = 0
    for a in atoms:
        if acc & a:
            raise InternalInconsistency("atoms overlap")
        acc |= a
        if not (space.is_open(a) and space.is_closed(a)):
            raise InternalInconsistency("atom is not clopen")
    if acc != space.full:
        raise InternalInconsistency("atoms do not cover the points")
    # each atom is the closure of each of its points
    point_closure = [space.closure(1 << x) for x in range(space.n)]
    for x, c in enumerate(point_closure):
        if c != atoms[g.atom_of[x]]:
            raise InternalInconsistency("atom is not a point closure")
    # saturation: x in E implies closure(x) <= E, for opens (and hence for
    # every union of atoms)
    for u in opens(space):
        for x in bit_indices(u):
            if point_closure[x] & ~u:
                raise InternalInconsistency("open set is not saturated")
    image, preimage = g.image, g.preimage

    if k <= 8:
        sets = [preimage(sel) for sel in range(1 << k)]
        for e1 in sets:
            if preimage(image(e1)) != e1:
                raise InternalInconsistency("preimage round trip failed")
            for e2 in sets:
                i1, i2 = image(e1), image(e2)
                if e1 & e2 == 0 and i1 & i2:
                    raise InternalInconsistency("disjointness not preserved")
                if i1 & ~i2 == 0 and e1 & ~e2:
                    raise InternalInconsistency("image inclusion cancellation")
                if i1 == i2 and e1 != e2:
                    raise InternalInconsistency("image equality cancellation")
    else:
        images = [image(a) for a in atoms]
        if len(set(images)) != k:
            raise InternalInconsistency("projection not injective on atoms")
        for a in atoms:
            if preimage(image(a)) != a:
                raise InternalInconsistency("atom preimage round trip failed")
    return atoms

def reference_atom_perm(g, elem, side):
    """Atom index permutation induced by translation by elem, from the
    representatives' products."""
    perm = []
    for a in g.atoms:
        rep = next(bit_indices(a))
        moved = g.group.mul(elem, rep) if side == "left" else g.group.mul(rep, elem)
        perm.append(g.atom_of[moved])
    return tuple(perm)

# -- measure -------------------------------------------------------------------

def _mass_inside(atoms, masses, points):
    """The mass of a point set: the masses of the atoms inside it."""
    return sum((m for a, m in zip(atoms, masses) if a & ~points == 0), Fraction(0))

def literal_pushforward(g, mu, n_base=None, n_quotient=None):
    """Reference: (pi_* mu)(B) = mu(pi^-1(B)) for each atom B of G/N, from
    points.  pi sends x to the number of its coset in
    literal_partition(g), the number of its point in G/N; the atoms of
    G/N are literal_partition(quotient(g))'s.  n_base and n_quotient pass N
    on to literal_partition."""
    atoms, proj, _ = literal_partition(g, n_base)
    q_atoms = literal_partition(quotient(g), n_quotient)[0]
    masses = [
        _mass_inside(atoms, mu.atom_mass, mask_of(x for x, p in enumerate(proj) if b >> p & 1))
        for b in q_atoms
    ]
    return FiniteMeasure(quotient(g), masses)

def literal_pullback(g, nu, n_base=None, n_quotient=None):
    """Reference: (pi^* nu)(A) = nu(pi(A)) for each atom A of G, from
    points, with pi and the atoms of G/N as in `literal_pushforward`."""
    atoms, proj, _ = literal_partition(g, n_base)
    q_atoms = literal_partition(quotient(g), n_quotient)[0]
    masses = [
        _mass_inside(q_atoms, nu.atom_mass, mask_of(proj[x] for x in bit_indices(a)))
        for a in atoms
    ]
    return FiniteMeasure(g, masses)

def literal_regularity(g, mu):
    """Reference: outer regularity of every Borel set and inner regularity
    of every open, literally at point level.  mu(E) is compared with the
    minimum of mu(U) over every open U containing E, and mu(U) with the
    maximum of mu(K) over every closed K inside U (every set of a finite
    space is compact).  Returns both flags and the witnesses, as atom
    selections.

    Masses are read from a table over all point sets, with each atom's
    mass spread evenly over its points and scaled to ints.  The opens
    containing E are those containing each point of E: an AND of one
    bitset per point over the opens listed by descending mass, whose
    highest set bit is the minimum.  Likewise the closed sets inside U are
    those missing each point outside U, listed by ascending mass."""
    size = g.group.order // len(g.atoms)
    den = math.lcm(*(m.denominator for m in mu.atom_mass)) * size
    mass = [0]
    for x in range(g.group.order):
        w = mu.atom_mass[g.atom_of[x]] * den / size
        assert w.denominator == 1
        mass += [m + w.numerator for m in mass]
    mass_of = mass.__getitem__

    def by_point(family, has):
        # entry x: bit i set iff family[i] has point x (lacks it if not has)
        return [
            int("".join(["01"[(s >> x & 1) == has] for s in reversed(family)]), 2)
            for x in range(g.group.order)
        ]

    space = coset_space(g)
    open_sets = sorted(opens(space), key=mass_of, reverse=True)
    closed = sorted(closed_sets(space), key=mass_of)
    borel = [g.preimage(sel) for sel in range(1 << len(g.atoms))]
    flags, witnesses = [], []
    for kind, sets, family, index, outside in (
        ("outer", borel, open_sets, by_point(open_sets, True), 0),
        ("inner", opens(space), closed, by_point(closed, False), space.full),
    ):
        flags.append(True)
        every = (1 << len(family)) - 1
        for s in sets:
            found = every
            for x in bit_indices(s ^ outside):
                found &= index[x]
            assert found, (kind, s)  # the full set is open, the empty set closed
            if mass_of(family[found.bit_length() - 1]) != mass_of(s):
                flags[-1] = False
                witnesses.append((kind, g.image(s), None))
                break
    return flags, witnesses

def literal_is_haar(g, mu, side):
    """Reference: Fraction masses of every selection, each translate built
    bit by bit for every group element; `literal_regularity` must find
    both regularity flags true."""
    k = len(g.atoms)
    masses = [sum((mu.atom_mass[i] for i in bit_indices(sel)), Fraction(0))
              for sel in range(1 << k)]
    witnesses = []
    invariant = {}
    for kind in ("left", "right"):
        invariant[kind] = True
        for elem in range(g.group.order):
            perm = []
            for a in g.atoms:
                rep = next(bit_indices(a))
                moved = g.group.mul(elem, rep) if kind == "left" else g.group.mul(rep, elem)
                perm.append(next(j for j, b in enumerate(g.atoms) if b >> moved & 1))
            bad = next(
                (sel for sel in range(1 << k)
                 if masses[sum(1 << perm[i] for i in bit_indices(sel))] != masses[sel]),
                None,
            )
            if bad is not None:
                invariant[kind] = False
                witnesses.append((kind, bad, elem))
                break
    # every measure on a FiniteTopGroup is regular, so HaarReport holds
    # the regularity flags as constants
    assert literal_regularity(g, mu) == ([True, True], [])
    return HaarReport(
        side=side,
        nonzero=any(m > 0 for m in mu.atom_mass),
        left_invariant=invariant["left"],
        right_invariant=invariant["right"],
        witnesses=tuple(witnesses),
    )

def literal_singleton_invariance(g, mu):
    """Reference past 16 atoms: for every element x and every atom A, the
    masses of A, x.A and A.x, each translate built point by point from
    group.mul and its mass summed over its points, each point carrying an
    equal share of its atom's mass.  Reads neither atom_table nor reps.
    Returns left and right invariance and the first witness of each side,
    the first element in label order and its first atom, as in is_haar."""
    share = {}
    for a, m in zip(g.atoms, mu.atom_mass):
        for x in bit_indices(a):
            share[x] = m / bin(a).count("1")

    def mass(points):
        return sum((share[x] for x in points), Fraction(0))

    def first_witness(kind):
        for elem in range(g.group.order):
            for j, a in enumerate(g.atoms):
                moved = {
                    g.group.mul(elem, x) if kind == "left" else g.group.mul(x, elem)
                    for x in bit_indices(a)
                }
                if mass(moved) != mass(bit_indices(a)):
                    return (kind, 1 << j, elem)
        return None

    left, right = first_witness("left"), first_witness("right")
    return left is None, right is None, tuple(w for w in (left, right) if w)

def literal_solution_space(g):
    """Dimension and basis masses of the invariant measures, from the
    orbits of the atoms under left translation by every element: a
    union-find over the group law at the points, reading no atom table.
    Each root is the smallest atom of its orbit."""
    k = len(g.atoms)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for x in range(g.group.order):
        for j, rep in enumerate(g.reps):
            a, b = find(j), find(g.atom_of[g.group.mul(x, rep)])
            parent[max(a, b)] = min(a, b)
    roots = sorted({find(i) for i in range(k)})
    basis = [tuple(Fraction(find(i) == r) for i in range(k)) for r in roots]
    return len(roots), basis

# -- plane ---------------------------------------------------------------------

def _holds(iv, x):
    """The point x lies in the interval iv."""
    return (iv.lo < x or x == iv.lo and iv.lo_closed) and (
        x < iv.hi or x == iv.hi and iv.hi_closed
    )

def is_open_union(iu):
    return all(not iv.lo_closed and not iv.hi_closed for iv in iu.intervals)

def is_closed_union(iu):
    return all(iv.lo_closed and iv.hi_closed for iv in iu.intervals)

def union_contains(outer, inner):
    """Each interval of inner, being connected, lies in one interval of the
    merged outer: both of its ends do, or are open at an equal end."""
    def inside(o, iv):
        return (o.lo < iv.lo or o.lo == iv.lo and (o.lo_closed or not iv.lo_closed)) and (
            iv.hi < o.hi or o.hi == iv.hi and (o.hi_closed or not iv.hi_closed)
        )
    return all(any(inside(o, iv) for o in outer.intervals) for iv in inner.intervals)

def unions_disjoint(a, b):
    """Two intervals meet iff the larger lower end lies below the smaller
    upper end, or equals it and lies in both."""
    for p in a.intervals:
        for q in b.intervals:
            lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
            if lo < hi or lo == hi and _holds(p, lo) and _holds(q, lo):
                return False
    return True

def tile_rects(cert):
    """A certificate's closed tiles as (x_lo, x_hi, y_lo, y_hi): the unit
    side across, and the unit side raised by each listed offset."""
    s = UNIT_SIDE
    return [(s.lo, s.hi, s.lo + dy, s.hi + dy) for dy in cert.translates]

def rects_disjoint(r, s):
    """Closed rectangles (x_lo, x_hi, y_lo, y_hi) are disjoint iff one lies
    strictly beside or strictly above the other."""
    return r[1] < s[0] or s[1] < r[0] or r[3] < s[2] or s[3] < r[2]

def literal_verify(cert):
    """The tile-by-tile verifier that the O(1) one replaced: every tile's
    position, every pair's disjointness and every tile's containment,
    read off the listed tiles."""
    c = cert.input_mass
    if cert.verdict == FINITENESS_VIOLATED:
        if c <= 0:
            return False
        tiles = tile_rects(cert)
        for n, tile in enumerate(tiles):
            # tile n is the unit square raised by 2n
            if tile != (0, 1, 2 * n, 2 * n + 1):
                return False
        for i in range(len(tiles)):
            for j in range(i + 1, len(tiles)):
                if not rects_disjoint(tiles[i], tiles[j]):
                    return False
        for tile in tiles:
            if tile[0] < 0 or tile[1] > 1:
                return False
        return len(tiles) * c > cert.probe_bound
    if cert.verdict == NONZERO_VIOLATED:
        w = GRID_WINDOW
        window = {(m, n) for m in range(-w, w + 1) for n in range(-w, w + 1)}
        return c == 0 and set(cert.grid_offsets) == window
    return False
