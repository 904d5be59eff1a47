"""Finite groups as Cayley tables, and finite topological groups.

A compatible topology on a finite group is exactly the coset topology of
a normal subgroup N = closure({e}), so `FiniteTopGroup` stores N.  That
follows from the continuity check of `FiniteTopGroup.from_space`, and
the test suite checks it against literal references.
"""

from functools import cached_property
from operator import itemgetter

from .errors import InputError, TooLarge
from .records import Record
from .topology import MAX_POINTS, FiniteSpace, bit_indices, check_mask, mask_of

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


def _check_elements(xs, order: int):
    for x in xs:
        if not 0 <= x < order:
            raise InputError(f"element {x} not valid for order {order}")


class FiniteGroup(Record):
    """A group on elements 0..order-1 given by its Cayley table, checked to
    be a Latin square with an identity, inverses and associativity; an
    associativity error names the first failing triple (a, b, c).  In a
    Latin square only the row with 0 in column 0 can be the identity, and
    only the y with xy = e in row x can be x^-1, so both are read by index."""

    _fields = ("table", "name")

    def __init__(self, table, name: str = "group"):
        _check_order(len(table))
        table = tuple(tuple(row) for row in table)
        self._assign(table, name)
        order = self.order
        for row in table:
            if len(row) != order or any(not 0 <= v < order for v in row):
                raise InputError(
                    "bad Cayley table: Cayley table is not square over 0..order-1"
                )
        columns = tuple(zip(*table))
        for i in range(order):
            if len(set(table[i])) != order:
                raise InputError(f"bad Cayley table: row {i} is not a permutation")
            if len(set(columns[i])) != order:
                raise InputError(f"bad Cayley table: column {i} is not a permutation")
        identity = self.identity
        elements = tuple(range(order))
        if table[identity] != elements or columns[identity] != elements:
            raise InputError("bad Cayley table: no identity element")
        for x, y in enumerate(self.inverse):
            if table[y][x] != identity:
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

    @cached_property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int:
        """The row with 0 in column 0."""
        return [row[0] for row in self.table].index(0)

    @cached_property
    def inverse(self) -> tuple:
        """x^-1 for each x: the column holding the identity in row x."""
        return tuple(row.index(self.identity) for row in self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def translate(self, g: int, mask: int) -> int:
        """The left translate g * mask."""
        _check_elements((g,), self.order)
        check_mask(mask, self.order)
        return mask_of(self.table[g][x] for x in bit_indices(mask))

    # -- subgroup machinery ------------------------------------------------

    def generated_subgroup(self, gens) -> int:
        """Mask of the products of gens, their subgroup as g^-1 = g^(ord g - 1)."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        _check_elements(gens, self.order)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return mask_of(seen)

    def normal_subgroups(self):
        """All normal subgroups, as masks, found by closing the join lattice.

        Each found h keeps the generators it was joined from, a union of
        conjugacy classes.  For g outside h, those and g's class generate
        the least normal subgroup holding h and g (conjugation permutes
        them), the same join for every gx with x in h; so one element per
        left coset gh outside h is tried: |G|/|h| - 1 joins for each h.
        Every normal M is found: take a found h <= M that is maximal among
        those found; if h < M, some coset gh outside h lies inside M, and
        its join lies in M and strictly above h, contradicting maximality."""
        rows, inverse, order = self.table, self.inverse, self.order
        classes = [list({rows[rows[x][g]][inverse[x]] for x in range(order)}) for g in range(order)]
        found = {self.generated_subgroup([]): []}  # normal subgroup -> its generators
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            rest = ((1 << order) - 1) & ~h
            while rest:
                g = next(bit_indices(rest))
                rest &= ~self.translate(g, h)
                gens = found[h] + classes[g]
                j = self.generated_subgroup(gens)
                if j not in found:
                    found[j] = gens
                    frontier.append(j)
        return sorted(found)

    def is_subgroup(self, mask: int) -> bool:
        """A set H is a subgroup iff H is nonempty and its members generate
        exactly H."""
        return (
            0 < mask and not mask >> self.order
            and self.generated_subgroup(bit_indices(mask)) == mask
        )


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
    """Q8 on 1, -1, i, -i, j, -j, k, -k in that order: index 2u + s is the
    unit u of (1, i, j, k) with sign (-1)^s.  Hamilton's rule: i^2 = j^2 =
    k^2 = -1 and ij = k, jk = i, ki = j, negated against that cycle."""

    def mul(a, b):
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        if u == 0 or v == 0:
            w, minus = u + v, 0
        elif u == v:
            w, minus = 0, 1
        else:  # the third unit
            w, minus = 6 - u - v, int((v - u) % 3 == 2)
        return 2 * w + (s ^ t ^ minus)

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


class FiniteTopGroup(Record):
    """A finite group with a compatible topology, stored as the normal
    subgroup N = closure({e}).

    Every compatible topology on a finite group is the coset topology of
    the normal subgroup N = U_e (`from_space` proves it; Hewitt and Ross,
    Abstract Harmonic Analysis I, Section 5), and every normal N gives one,
    as U_a * U_b = aNbN = abN = U_ab and (aN)^-1 = Na^-1 = U_{a^-1}.  So N
    determines the topology, and the constructor checks only that N is a
    normal subgroup: xN = Nx for one x per coset, as Nxn = xNn = xN.

    Everything is read off N.  x lies in closure({y}) iff y lies in U_x =
    xN, iff x lies in yN; so closure({x}) = xN = U_x, and N = closure({e}).
    (aN)(bN) = abN: the projection onto G/N is a homomorphism, and any
    members of two cosets give the same product coset.  The atoms, the
    N-cosets, are minimal opens and point closures, so clopen, and every
    Borel set, a union of atoms, is open, closed and compact.
    """

    _fields = ("group", "normal_subgroup")

    def __init__(self, group: FiniteGroup, n_mask: int):
        if not group.is_subgroup(n_mask):
            raise InputError("mask is not a normal subgroup")
        self._assign(group, n_mask)
        rows, members = group.table, list(bit_indices(n_mask))
        for x, coset in zip(self.reps, self.atoms):  # coset == xN
            if mask_of(rows[n][x] for n in members) != coset:
                raise InputError("mask is not a normal subgroup")

    @classmethod
    def from_space(cls, group: FiniteGroup, space: FiniteSpace) -> "FiniteTopGroup":
        """The group with the topology of space, checked to be compatible.

        Continuity of multiplication reduces to U_a * U_b <= U_ab on
        minimal open neighborhoods (any open around a contains U_a).  That
        holds for every pair iff U_e * U_e <= U_e and U_a = a * U_e = U_e *
        a for every a, which takes O(n |U_e| + |U_e|^2) products to check.
        If: U_a * U_b = a * U_e * U_e * b <= a * U_e * b = ab * U_e = U_ab.
        Only if: the pair (e, e) is the first condition; U_a * U_e >= a *
        U_e gives a * U_e <= U_a from the pair (a, e), and U_{a^-1} * U_a
        >= a^-1 * U_a gives a^-1 * U_a <= U_e, that is U_a <= a * U_e, from
        (a^-1, a); U_e * U_a >= U_e * a gives U_e * a <= U_a from (e, a),
        and as U_e * a has as many points as a * U_e = U_a, that makes them
        equal.  A failure names that pair, which fails U_a * U_b <= U_ab
        literally.

        Continuity of inversion, (U_a)^-1 <= U_{a^-1}, then follows, as
        inversion is the power map y -> y^(m-1) for m = |G| > 1
        (Arhangel'skii and Tkachenko, Topological Groups and Related
        Structures, 2008): for y in U_a, induction on j gives y^j in U_a^j
        <= U_{a^j}, so y^-1 = y^(m-1) lies in U_{a^(m-1)} = U_{a^-1}.
        Past the check, U_e is a subgroup N, normal as aN = U_a = Na, and
        the space is its coset topology.  That is all the constructor
        checks, so the record is stored without running it.
        """
        if group.order != space.n:
            raise InputError("group and space must share the index set")
        mo = space.min_open
        table, inverse, e = group.table, group.inverse, group.identity

        def fail(a, b):
            raise InputError(
                f"incompatible topology: witness: pair ({a}, {b}), open {mo[table[a][b]]:#x}"
            )

        u_e = mo[e]
        if not group.is_subgroup(u_e):  # U_e * U_e <= U_e iff U_e, holding e, generates only itself
            fail(e, e)
        members = list(bit_indices(u_e))
        for a, u_a in enumerate(mo):
            left = mask_of(table[a][x] for x in members)  # a * U_e
            if left & ~u_a:
                fail(a, e)
            if u_a & ~left:
                fail(inverse[a], a)
            if mask_of(table[x][a] for x in members) & ~u_a:  # U_e * a
                fail(e, a)
        return cls._trusted(group, u_e)

    @cached_property
    def _partition(self):
        """The cosets xN, one translate each: N = eN first, then the others
        by smallest member; and each point's atom index."""
        group, n_mask = self.group, self.normal_subgroup
        atoms, atom_of = [], [None] * group.order
        for x in (group.identity, *range(group.order)):
            if atom_of[x] is None:
                coset = group.translate(x, n_mask)
                for y in bit_indices(coset):
                    atom_of[y] = len(atoms)
                atoms.append(coset)
        return tuple(atoms), tuple(atom_of)

    @cached_property
    def space(self) -> FiniteSpace:
        """The coset topology: the minimal open of each point is its atom."""
        atoms = self.atoms
        return FiniteSpace(self.group.order, [atoms[i] for i in self.atom_of])

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

    def image(self, mask: int) -> int:
        """Atom-index mask of the atoms meeting a point mask."""
        check_mask(mask, self.group.order)
        return mask_of(self.atom_of[x] for x in bit_indices(mask))

    def preimage(self, sel: int) -> int:
        """Point mask of the union of the atoms selected by sel."""
        check_mask(sel, len(self.atoms))
        acc = 0
        for i in bit_indices(sel):
            acc |= self.atoms[i]
        return acc

    def selection(self, mask: int) -> int:
        """The atom selection of a union of atoms, the inverse of
        `preimage`; InputError if mask cuts an atom or holds a bit past
        the points."""
        sel = self.image(mask & ((1 << self.group.order) - 1))
        for i in bit_indices(sel):
            if self.atoms[i] & ~mask:
                raise InputError(f"set {mask:#x} cuts atom {self.atoms[i]:#x}")
        if self.preimage(sel) != mask:
            raise InputError(f"set {mask:#x} is not a union of atoms")
        return sel

    @cached_property
    def _quotient(self):
        """G/N, built on first use (`quotient`) straight from the partition.

        Its Cayley table has entry (i, j) the atom of reps[i] * reps[j].  As
        (aN)(bN) = abN (class docstring), any members of atoms i and j may
        stand in for the representatives, atom_of[a * b] ==
        table[atom_of[a]][atom_of[b]] for all a, b, so the table is the
        group law of G/N, the image of G's under the projection, with
        identity 0, the atom N.  Its N is then {0}, a normal subgroup.  That
        proves every check of both constructors, so neither runs."""
        proj, reps, rows = self.atom_of, self.reps, self.group.table
        table = tuple(tuple(proj[rows[r][s]] for s in reps) for r in reps)
        group = FiniteGroup._trusted(table, f"{self.group.name}/N")
        return FiniteTopGroup._trusted(group, 1)


def identity_closure(g: FiniteTopGroup) -> int:
    """N = closure({e}), the normal subgroup g stores (`FiniteTopGroup`)."""
    return g.normal_subgroup


def coset_topology(group: FiniteGroup, n_mask: int) -> FiniteSpace:
    """The topology whose opens are all unions of cosets of a normal subgroup."""
    return FiniteTopGroup(group, n_mask).space


def group_topologies(group: FiniteGroup):
    """All compatible topologies on the group, one per normal subgroup.
    Each N that `normal_subgroups` finds is generated by a union of
    conjugacy classes, which conjugation permutes, so it is normal and
    the constructor's check is not run."""
    return [FiniteTopGroup._trusted(group, n_mask) for n_mask in group.normal_subgroups()]


def quotient(g: FiniteTopGroup) -> FiniteTopGroup:
    """G/N for the identity closure N, with the final topology of the
    projection: V is open iff preimage(V) is open.  It is built once per
    group, so quotient(g) is quotient(g).

    Every atom is a minimal open U_x = xN (`FiniteTopGroup`), so the
    preimage of every set of atom labels is open and the final topology
    is discrete, with minimal opens the singletons {i}.  Hence:

    - surjectivity: atom i is the image of its representative;
    - open and closed projection: every image is open and closed;
    - homomorphism: the quotient's Cayley table is the group law the
      projection carries (`FiniteTopGroup._quotient`);
    - Hausdorff quotient: the space is discrete;
    - compact lifting: the preimage of a set of labels is a union of
      atoms, closed and, the space being finite, compact.

    The labelling: point i is atom i of G, so the projection is `atom_of`.
    G/N has identity 0, as row 0 of its table is that of atom 0 = N, so
    its N is {0} and its atoms are the singletons: atom i of G/N is point i.
    The atom-level functions of `measure` and `covering` read G's group
    law on atoms as quotient(g).group.table.
    """
    return g._quotient
