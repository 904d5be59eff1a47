"""Finite groups as Cayley tables, and finite topological groups.

A compatible topology on a finite group turns out to be exactly a coset
topology of a normal subgroup; the library never assumes this, it is
verified by the continuity checks at construction and by the test suite.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    InternalInconsistency,
    NotContinuousInversion,
    NotContinuousMultiplication,
    TooLarge,
)
from .records import Record
from .topology import FiniteSpace, bit_indices, mask_of

MAX_ORDER = 64


def _check_order(order: int):
    if not 1 <= order <= MAX_ORDER:
        raise TooLarge(f"order {order} outside 1..{MAX_ORDER}")


class FiniteGroup:
    """A group on elements 0..order-1 given by its Cayley table."""

    def __init__(self, table, name: str = "group"):
        order = len(table)
        _check_order(order)
        table = tuple(tuple(row) for row in table)
        for row in table:
            if len(row) != order or any(not 0 <= v < order for v in row):
                raise ValueError("Cayley table is not square over 0..order-1")
        for i in range(order):
            if len({table[i][j] for j in range(order)}) != order:
                raise ValueError(f"row {i} is not a permutation")
            if len({table[j][i] for j in range(order)}) != order:
                raise ValueError(f"column {i} is not a permutation")
        identity = None
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverse = [None] * order
        for x in range(order):
            for y in range(order):
                if table[x][y] == identity and table[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise ValueError(f"element {x} has no inverse")
        for a in range(order):
            for b in range(order):
                for c in range(order):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError(f"associativity fails at {(a, b, c)}")

        self.order = order
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def mul_sets(self, a_mask: int, b_mask: int) -> int:
        acc = 0
        for a in bit_indices(a_mask):
            row = self.table[a]
            for b in bit_indices(b_mask):
                acc |= 1 << row[b]
        return acc

    def inv_set(self, mask: int) -> int:
        return mask_of(self.inverse[x] for x in bit_indices(mask))

    def translate(self, g: int, mask: int, side: str = "left") -> int:
        if side == "left":
            return mask_of(self.table[g][x] for x in bit_indices(mask))
        return mask_of(self.table[x][g] for x in bit_indices(mask))

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
        """All subgroups, as masks, found by closing the join lattice."""
        found = {self.generated_subgroup([])}
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            members = list(bit_indices(h))
            for g in range(self.order):
                if h >> g & 1:
                    continue
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
    if n < 1:
        raise ValueError("dihedral requires n >= 1")
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
    if order > MAX_ORDER:
        raise TooLarge(f"combined order {order} exceeds {MAX_ORDER}")

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
    open neighborhoods (any open around a contains U_a), and similarly
    (U_a)^-1 <= U_{a^-1} for inversion; both are checked exhaustively.
    """

    def __init__(self, group: FiniteGroup, space: FiniteSpace):
        if group.order != space.n:
            raise ValueError("group and space must share the index set")
        mo = space.min_open
        memo = {}
        for a in range(group.order):
            for b in range(group.order):
                key = (mo[a], mo[b])
                prod = memo.get(key)
                if prod is None:
                    prod = group.mul_sets(mo[a], mo[b])
                    memo[key] = prod
                target = mo[group.mul(a, b)]
                if prod & ~target:
                    raise NotContinuousMultiplication(
                        f"witness: pair ({a}, {b}), open {target:#x}"
                    )
        for a in range(group.order):
            if group.inv_set(mo[a]) & ~mo[group.inv(a)]:
                raise NotContinuousInversion(
                    f"witness: point {a}, open {mo[group.inv(a)]:#x}"
                )
        self.group = group
        self.space = space

    @cached_property
    def _partition(self):
        n_mask = identity_closure(self)
        cosets = sorted(
            {
                self.group.translate(x, n_mask, "left")
                for x in range(self.group.order)
            },
            key=lambda c: min(bit_indices(c)),
        )
        ident = self.group.translate(self.group.identity, n_mask, "left")
        cosets.remove(ident)
        atoms = tuple([ident] + cosets)
        atom_of = [None] * self.group.order
        for i, a in enumerate(atoms):
            for x in bit_indices(a):
                atom_of[x] = i
        return atoms, tuple(atom_of)

    @property
    def atoms(self):
        """The N-cosets, identity coset first then by smallest member."""
        return self._partition[0]

    @property
    def atom_of(self):
        """Point -> index of the atom containing it."""
        return self._partition[1]

    def image(self, mask: int) -> int:
        """Atom-index mask of the atoms meeting a point mask."""
        return mask_of(self.atom_of[x] for x in bit_indices(mask))

    def preimage(self, sel: int) -> int:
        """Point mask of the union of the atoms selected by sel."""
        acc = 0
        for i in bit_indices(sel):
            acc |= self.atoms[i]
        return acc

    def __repr__(self):
        return (
            f"FiniteTopGroup({self.group.name}, "
            f"N={sorted(bit_indices(identity_closure(self)))})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTopGroup)
            and self.group == other.group
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.group, self.space))


def validate_top_group(group: FiniteGroup, space: FiniteSpace) -> FiniteTopGroup:
    """Constructor enforcing continuity of multiplication and inversion."""
    return FiniteTopGroup(group, space)


def identity_closure(g: FiniteTopGroup) -> int:
    """N = closure({e}); asserts it is a normal subgroup with xN = cl({x})."""
    n_mask = g.space.closure(1 << g.group.identity)
    if not g.group.is_subgroup(n_mask):
        raise InternalInconsistency("closure of identity is not a subgroup")
    if not g.group.is_normal(n_mask):
        raise InternalInconsistency("closure of identity is not normal")
    for x in range(g.group.order):
        if g.group.translate(x, n_mask, side="left") != g.space.closure(1 << x):
            raise InternalInconsistency(f"xN != closure(x) at x={x}")
    return n_mask


def coset_topology(group: FiniteGroup, n_mask: int) -> FiniteSpace:
    """The topology whose opens are all unions of cosets of a normal subgroup."""
    if not group.is_subgroup(n_mask) or not group.is_normal(n_mask):
        raise ValueError("mask is not a normal subgroup")
    return FiniteSpace.from_min_open(
        group.order,
        [group.translate(x, n_mask, "left") for x in range(group.order)],
    )


def group_topologies(group: FiniteGroup):
    """All compatible topologies on the group, one per normal subgroup."""
    if group.order > MAX_ORDER:
        raise TooLarge(f"order {group.order} exceeds {MAX_ORDER}")
    out = []
    for n_mask in group.normal_subgroups():
        space = coset_topology(group, n_mask)
        out.append(validate_top_group(group, space))
    return out


# -- quotient and Borel atoms ------------------------------------------------


class QuotientData(Record):
    _fields = ("base", "quotient", "proj")

    def __init__(self, base: FiniteTopGroup, quotient: FiniteTopGroup, proj: tuple):
        # proj: base point -> quotient point
        self._assign(base, quotient, proj)


class BorelAtoms(Record):
    _fields = ("atoms",)

    def __init__(self, atoms: tuple):
        self._assign(atoms)  # masks, canonical order


def _check_atoms(g: FiniteTopGroup):
    """The atoms partition the points and the projection labels them:
    they are disjoint and cover, image(atom i) = {i} and preimage({i}) =
    atom i.  Images and preimages commute with unions, so every union of
    atoms then round-trips too, and disjoint unions have disjoint images."""
    acc = 0
    for i, a in enumerate(g.atoms):
        if acc & a:
            raise InternalInconsistency("atoms overlap")
        acc |= a
        if g.image(a) != 1 << i or g.preimage(1 << i) != a:
            raise InternalInconsistency(f"atom {i} does not round-trip")
    if acc != g.space.full:
        raise InternalInconsistency("atoms do not cover the points")


def quotient(g: FiniteTopGroup) -> QuotientData:
    """The quotient by the identity closure N, with the final topology of
    the projection: V is open iff preimage(V) is open.

    A finite topology is given by its n minimal opens U_x, its opens are
    the unions of the U_x and its closed sets the unions of the point
    closures xN, and images and preimages commute with unions.  So each
    statement is verified at build time on these generators: surjective
    homomorphism; open projection with the image family as the quotient
    topology (the minimal open of atom i is image(U_x) for every x in
    atom i, and its preimage is open); closed projection; Hausdorff
    quotient; and compact lifting via preimages.
    """
    group, space = g.group, g.space
    atoms = g.atoms
    k = len(atoms)
    proj = g.atom_of
    image, preimage = g.image, g.preimage
    _check_atoms(g)  # hence also surjective

    reps = [min(bit_indices(a)) for a in atoms]
    # final topology; equal rows within an atom make the projection open
    rows = []
    for i, a in enumerate(atoms):
        row = image(space.min_open[reps[i]])
        if any(image(space.min_open[x]) != row for x in bit_indices(a)):
            raise InternalInconsistency("projection is not open")
        if not space.is_open(preimage(row)):
            raise InternalInconsistency("quotient topology is not the final one")
        rows.append(row)
    qspace = FiniteSpace.from_min_open(k, rows)

    qtable = [
        [proj[group.mul(reps[i], reps[j])] for j in range(k)] for i in range(k)
    ]
    qgroup = FiniteGroup(qtable, name=f"{group.name}/N")
    # homomorphism + well-definedness
    for a in range(group.order):
        for b in range(group.order):
            if proj[group.mul(a, b)] != qgroup.mul(proj[a], proj[b]):
                raise InternalInconsistency("projection is not a homomorphism")
    qtg = validate_top_group(qgroup, qspace)
    if not qspace.separation_flags().hausdorff:
        raise InternalInconsistency("quotient is not Hausdorff")
    for i, a in enumerate(atoms):
        # closed sets are unions of the point closures, the atoms xN
        if not qspace.is_closed(image(a)):
            raise InternalInconsistency("projection is not closed")
        # compact lifting: {i} lifts to the closed compact atom i
        if not space.is_closed(preimage(1 << i)):
            raise InternalInconsistency("compact lifting failed")
    return QuotientData(base=g, quotient=qtg, proj=proj)


def borel_atoms(g: FiniteTopGroup) -> BorelAtoms:
    """The atom partition, with the saturation statements verified.

    The atoms partition the points, round-trip through the projection and
    are clopen; saturation (x in E implies closure(x) <= E) holds on each
    minimal open, hence on every open, each being a union of them.  With
    images and preimages commuting with unions, these per-atom facts give
    disjointness preservation and the image inclusion and equality
    cancellations on every union of atoms.
    """
    space = g.space
    _check_atoms(g)
    for a in g.atoms:
        if not (space.is_open(a) and space.is_closed(a)):
            raise InternalInconsistency("atom is not clopen")
    point_closure = [space.closure(1 << x) for x in range(space.n)]
    for u in space.min_open:
        for x in bit_indices(u):
            if point_closure[x] & ~u:
                raise InternalInconsistency("open set is not saturated")
    return BorelAtoms(atoms=g.atoms)


def product_group(g: FiniteTopGroup, h: FiniteTopGroup) -> FiniteTopGroup:
    """Direct product with the product topology (coset topology of N_g x N_h)."""
    pg = direct_product(g.group, h.group)
    ng = identity_closure(g)
    nh = identity_closure(h)
    n_mask = 0
    for a in bit_indices(ng):
        for b in bit_indices(nh):
            n_mask |= 1 << (a * h.group.order + b)
    space = coset_topology(pg, n_mask)
    return validate_top_group(pg, space)
