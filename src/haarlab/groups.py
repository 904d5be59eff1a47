"""Finite groups as Cayley tables, and finite topological groups.

A compatible topology on a finite group is exactly the coset topology of
a normal subgroup N = closure({e}).  That follows from the continuity
check at construction (`FiniteTopGroup`), and the test suite checks it
against literal references.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .errors import InputError, NotContinuousMultiplication, NotMeasurable, TooLarge
from .records import Record
from .topology import MAX_POINTS, FiniteSpace, bit_indices, mask_of

#: The group-order cap: a group's space has one point per element.
MAX_ORDER = MAX_POINTS


def _check_order(order: int):
    # an order below 1 or past 2^64 goes unnamed: a dihedral input's 2n
    # can have more digits than an int converts to text
    if order < 1:
        raise InputError("group order must be at least 1")
    if order > MAX_ORDER:
        shown = order if order <= 1 << 64 else "past 2^64"
        raise TooLarge(f"order {shown} outside 1..{MAX_ORDER}")


class FiniteGroup:
    """A group on elements 0..order-1 given by its Cayley table, checked to
    be a Latin square with an identity, inverses and associativity; an
    associativity error names the first failing triple (a, b, c)."""

    def __init__(self, table, name: str = "group"):
        order = len(table)
        _check_order(order)
        table = tuple(tuple(row) for row in table)
        for row in table:
            if len(row) != order or any(not 0 <= v < order for v in row):
                raise InputError(
                    "bad Cayley table: Cayley table is not square over 0..order-1"
                )
        for i in range(order):
            if len({table[i][j] for j in range(order)}) != order:
                raise InputError(f"bad Cayley table: row {i} is not a permutation")
            if len({table[j][i] for j in range(order)}) != order:
                raise InputError(f"bad Cayley table: column {i} is not a permutation")
        identity = None
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                identity = e
                break
        if identity is None:
            raise InputError("bad Cayley table: no identity element")
        inverse = [None] * order
        for x in range(order):
            for y in range(order):
                if table[x][y] == identity and table[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise InputError(f"bad Cayley table: element {x} has no inverse")
        # (ab)c == a(bc) for every c at once: row ab against row a read
        # through row b.  Pairs go in the order of the triples, and the
        # first bad row is scanned for its first c, so the error names the
        # lexicographically first failing triple.  A one-item itemgetter
        # returns a scalar; order 1 has only [[0]], which is associative.
        if order > 1:
            through = [itemgetter(*row) for row in table]
            for a, row_a in enumerate(table):
                for b, ab in enumerate(row_a):
                    if table[ab] != through[b](row_a):
                        row_b = table[b]
                        c = next(
                            c for c in range(order) if table[ab][c] != row_a[row_b[c]]
                        )
                        raise InputError(
                            f"bad Cayley table: associativity fails at {(a, b, c)}"
                        )

        self.order = order
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def mul_sets(self, a_mask: int, b_mask: int) -> int:
        acc = 0
        for a in bit_indices(a_mask):
            row = self.table[a]
            for b in bit_indices(b_mask):
                acc |= 1 << row[b]
        return acc

    def translate(self, g: int, mask: int) -> int:
        """The left translate g * mask."""
        return mask_of(self.table[g][x] for x in bit_indices(mask))

    # -- subgroup machinery ------------------------------------------------

    def generated_subgroup(self, gens) -> int:
        """Mask of the subgroup generated by the given elements."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.table[x][g], self.table[x][self.inverse[g]]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return mask_of(seen)

    def subgroups(self):
        """All subgroups, as masks, found by closing the join lattice.

        <h, gx> = <h, g> for every x in h, so one element per left coset gh
        outside h is tried: |G|/|h| - 1 joins for each subgroup h."""
        found = {self.generated_subgroup([])}
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            members = list(bit_indices(h))
            rest = ((1 << self.order) - 1) & ~h
            while rest:
                g = next(bit_indices(rest))
                rest &= ~self.translate(g, h)
                j = self.generated_subgroup(members + [g])
                if j not in found:
                    found.add(j)
                    frontier.append(j)
        return sorted(found)

    def is_subgroup(self, mask: int) -> bool:
        if not mask >> self.identity & 1:
            return False
        members = list(bit_indices(mask))
        return all(
            mask >> self.table[a][b] & 1 for a in members for b in members
        ) and all(mask >> self.inverse[a] & 1 for a in members)

    def is_normal(self, mask: int) -> bool:
        return all(
            mask >> self.table[self.table[g][h]][self.inverse[g]] & 1
            for g in range(self.order)
            for h in bit_indices(mask)
        )

    def normal_subgroups(self):
        return [h for h in self.subgroups() if self.is_normal(h)]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


# -- named constructors ------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="trivial")


def cyclic(n: int) -> FiniteGroup:
    _check_order(n)  # before the n x n table is built
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Order 2n; index k*n + i encodes s^k r^i with s r s = r^-1."""
    _check_order(2 * n)

    def mul(a, b):
        k1, i1 = divmod(a, n)
        k2, i2 = divmod(b, n)
        k = (k1 + k2) % 2
        i = (i1 * (-1) ** k2 + i2) % n
        return k * n + i

    order = 2 * n
    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(table, name=f"D{n}")


def symmetric3() -> FiniteGroup:
    """S3 on permutations of (0,1,2), listed lexicographically."""
    from itertools import permutations

    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p . q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table, name="S3")


def quaternion8() -> FiniteGroup:
    """Q8 on 1, -1, i, -i, j, -j, k, -k in that order."""
    units = ["1", "i", "j", "k"]
    # unit multiplication: (sign, unit)
    rules = {
        ("1", "1"): (1, "1"),
        ("1", "i"): (1, "i"),
        ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"),
        ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"),
        ("k", "j"): (-1, "i"),
        ("i", "k"): (-1, "j"),
    }

    def decode(x):
        return (1 if x % 2 == 0 else -1), units[x // 2]

    def encode(sign, unit):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    def mul(a, b):
        sa, ua = decode(a)
        sb, ub = decode(b)
        sr, ur = rules[(ua, ub)]
        return encode(sa * sb * sr, ur)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, name="Q8")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    order = g.order * h.order
    _check_order(order)  # before the product table is built

    def mul(a, b):
        a1, a2 = divmod(a, h.order)
        b1, b2 = divmod(b, h.order)
        return g.mul(a1, b1) * h.order + h.mul(a2, b2)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


# -- topological groups ------------------------------------------------------


class FiniteTopGroup:
    """A finite group together with a compatible topology on its elements.

    Continuity of multiplication reduces to U_a * U_b <= U_ab on minimal
    open neighborhoods (any open around a contains U_a).  That holds for
    every pair iff U_e * U_e <= U_e and U_a = a * U_e = U_e * a for every
    a, which takes O(n |U_e| + |U_e|^2) products to check.  If: U_a * U_b
    = a * U_e * U_e * b <= a * U_e * b = ab * U_e = U_ab.  Only if: the
    pair (e, e) is the first condition; U_a * U_e >= a * U_e gives a * U_e
    <= U_a from the pair (a, e), and U_{a^-1} * U_a >= a^-1 * U_a gives
    a^-1 * U_a <= U_e, that is U_a <= a * U_e, from (a^-1, a); U_e * U_a
    >= U_e * a gives U_e * a <= U_a from (e, a), and as U_e * a has as
    many points as a * U_e = U_a, that makes them equal.  A failure names
    that pair, which fails U_a * U_b <= U_ab literally.

    Continuity of inversion, (U_a)^-1 <= U_{a^-1}, then follows, as
    inversion is the power map y -> y^(m-1) for m = |G| > 1 (Arhangel'skii
    and Tkachenko, Topological Groups and Related Structures, 2008): for y
    in U_a, induction on j gives y^j in U_a^j <= U_{a^j}, so y^-1 =
    y^(m-1) lies in U_{a^(m-1)} = U_{a^-1}.

    Everything past the check is read off U_e.  U_e holds e and is closed
    under products, and it is finite, so it is a subgroup N.  As x lies in
    closure({y}) iff y lies in U_x = xN, and y in xN iff x in yN,
    closure({x}) = xN = U_x for every x; in particular N = closure({e}).
    aN = U_a = Na, so N is normal and (aN)(bN) = abN: the projection onto
    G/N is a homomorphism, and any members of two cosets give the same
    product coset.  So the atoms, the N-cosets, are the distinct minimal
    opens; each is a minimal open and a point closure, so clopen, and
    every Borel set, a union of atoms, is open, closed and compact.
    """

    def __init__(self, group: FiniteGroup, space: FiniteSpace):
        if group.order != space.n:
            raise InputError("group and space must share the index set")
        mo = space.min_open
        table, inverse, e = group.table, group.inverse, group.identity

        def fail(a, b):
            raise NotContinuousMultiplication(
                f"incompatible topology: witness: pair ({a}, {b}), open {mo[table[a][b]]:#x}"
            )

        u_e = mo[e]
        if group.mul_sets(u_e, u_e) & ~u_e:
            fail(e, e)
        members = list(bit_indices(u_e))
        for a, u_a in enumerate(mo):
            left = group.translate(a, u_e)
            if left & ~u_a:
                fail(a, e)
            if u_a & ~left:
                fail(inverse[a], a)
            if mask_of(table[x][a] for x in members) & ~u_a:  # U_e * a
                fail(e, a)
        self.group = group
        self.space = space

    @cached_property
    def _partition(self):
        """N = U_e first, then the other distinct minimal opens by smallest
        member: the N-cosets, as U_x = xN (class docstring)."""
        mo = self.space.min_open
        n_mask = mo[self.group.identity]
        atoms = (n_mask, *sorted(set(mo) - {n_mask}, key=lambda a: a & -a))
        index = {a: i for i, a in enumerate(atoms)}
        return atoms, tuple(index[u] for u in mo)

    @property
    def atoms(self):
        """The N-cosets, identity coset first then by smallest member."""
        return self._partition[0]

    @property
    def atom_of(self):
        """Point -> index of the atom containing it."""
        return self._partition[1]

    @cached_property
    def reps(self):
        """The smallest member of each atom."""
        return tuple(next(bit_indices(a)) for a in self.atoms)

    @cached_property
    def atom_table(self):
        """The Cayley table of G/N on atom indices: entry (i, j) is the atom
        of reps[i] * reps[j].  As (aN)(bN) = abN (class docstring), any
        members of atoms i and j may stand in for the representatives:
        atom_of[a * b] == table[atom_of[a]][atom_of[b]] for all a, b."""
        proj, reps = self.atom_of, self.reps
        rows = self.group.table
        return tuple(tuple(proj[rows[r][s]] for s in reps) for r in reps)

    def image(self, mask: int) -> int:
        """Atom-index mask of the atoms meeting a point mask."""
        return mask_of(self.atom_of[x] for x in bit_indices(mask))

    def preimage(self, sel: int) -> int:
        """Point mask of the union of the atoms selected by sel."""
        acc = 0
        for i in bit_indices(sel):
            acc |= self.atoms[i]
        return acc

    def selection(self, mask: int) -> int:
        """The atom selection of a union of atoms, the inverse of
        `preimage`; NotMeasurable if mask cuts an atom or holds a bit past
        the points."""
        sel = self.image(mask & self.space.full)
        for i in bit_indices(sel):
            if self.atoms[i] & ~mask:
                raise NotMeasurable(f"set {mask:#x} cuts atom {self.atoms[i]:#x}")
        if self.preimage(sel) != mask:
            raise NotMeasurable(f"set {mask:#x} is not a union of atoms")
        return sel

    def __repr__(self):
        return (
            f"FiniteTopGroup({self.group.name}, "
            f"N={sorted(bit_indices(self.atoms[0]))})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTopGroup)
            and self.group == other.group
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.group, self.space))


def identity_closure(g: FiniteTopGroup) -> int:
    """N = closure({e}) = U_e, the first atom (`FiniteTopGroup`)."""
    return g.atoms[0]


def _coset_space(group: FiniteGroup, n_mask: int) -> FiniteSpace:
    """The space whose minimal open at x is the coset xN of a subgroup N,
    from one translate per coset."""
    rows = [0] * group.order
    for x in range(group.order):
        if not rows[x]:
            coset = group.translate(x, n_mask)
            for y in bit_indices(coset):
                rows[y] = coset
    return FiniteSpace.from_min_open(group.order, rows)


def coset_topology(group: FiniteGroup, n_mask: int) -> FiniteSpace:
    """The topology whose opens are all unions of cosets of a normal subgroup."""
    if not group.is_subgroup(n_mask) or not group.is_normal(n_mask):
        raise InputError("mask is not a normal subgroup")
    return _coset_space(group, n_mask)


def group_topologies(group: FiniteGroup):
    """All compatible topologies on the group, one per normal subgroup."""
    return [
        FiniteTopGroup(group, _coset_space(group, n_mask))
        for n_mask in group.normal_subgroups()
    ]


# -- quotient ----------------------------------------------------------------


class QuotientData(Record):
    _fields = ("base", "quotient", "proj")

    def __init__(self, base: FiniteTopGroup, quotient: FiniteTopGroup, proj: tuple):
        # proj: base point -> quotient point
        self._assign(base, quotient, proj)


def quotient(g: FiniteTopGroup) -> QuotientData:
    """The quotient by the identity closure N, with the final topology of
    the projection: V is open iff preimage(V) is open.

    Every atom is a minimal open U_x = xN (`FiniteTopGroup`), so the
    preimage of every set of atom labels is open and the final topology
    is discrete, with minimal opens the singletons {i}.  Hence:

    - surjectivity: atom i is the image of its representative;
    - open and closed projection: every image is open and closed;
    - homomorphism: `atom_table` is the group law the projection carries,
      and it is the quotient's Cayley table;
    - Hausdorff quotient: the space is discrete;
    - compact lifting: the preimage of a set of labels is a union of
      atoms, closed and, the space being finite, compact.
    """
    k = len(g.atoms)
    qspace = FiniteSpace.from_min_open(k, [1 << i for i in range(k)])
    qgroup = FiniteGroup(g.atom_table, name=f"{g.group.name}/N")
    qtg = FiniteTopGroup(qgroup, qspace)
    return QuotientData(base=g, quotient=qtg, proj=g.atom_of)

