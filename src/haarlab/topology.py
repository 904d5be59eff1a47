"""Finite topological spaces over bitmask-encoded point sets.

Points of a space on n points are the indices 0..n-1; a subset is an int
whose bit i records membership of point i.  A finite topology is the same
thing as a preorder (Alexandroff): it is fully given by each point's
minimal open set U_x, the intersection of all opens containing x, and the
opens are exactly the unions of the U_x.  A space stores only these n
masks; closure, interior and openness are O(n) scans of them, and each
separation flag is computed on first access.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import InputError, InternalInconsistency, TooLarge
from .records import Record

MAX_POINTS = 64

#: `enumerate_topologies` walks every assignment of minimal opens, up to
#: 2^(n(n-1)) of them, so it refuses more points than this.
MAX_ENUMERATED_POINTS = 4

#: Number of topologies on n labeled points, n = 0..5 (used as a sanity oracle).
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355, 6942)


def bit_indices(mask: int):
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def check_mask(mask: int, n: int) -> int:
    """mask, if it is a set of the points 0..n-1; InputError if not."""
    if mask < 0 or mask >> n:
        raise InputError(f"subset {mask:#x} not valid for {n} points")
    return mask


def _check_points(n: int):
    if n < 1:
        raise InputError("point count must be at least 1")
    if n > MAX_POINTS:
        shown = n if n <= 1 << 64 else "past 2^64"
        raise TooLarge(f"point count {shown} outside 1..{MAX_POINTS}")


class FiniteSpace(Record):
    """A topology on points 0..n-1, stored as the minimal open set of each
    point (``min_open[x]``, a mask containing x).

    ``FiniteSpace(n, min_open)`` checks that the minimal opens form a
    preorder: x in U_x, and U_y <= U_x for every y in U_x.
    ``FiniteSpace.from_opens(n, opens)`` validates an explicit open family:
    it must contain the empty and full sets and be closed under pairwise
    union and intersection.

    The separation flags are attributes: `regular`, `normal` and
    `base_closed_compact_nbhds`, each computed on first access, and the
    local-compactness flags that hold on every finite space.
    """

    _fields = ("n", "min_open")

    def __init__(self, n: int, min_open):
        _check_points(n)
        rows = tuple(min_open)
        full = (1 << n) - 1
        if len(rows) != n:
            raise InputError(f"{len(rows)} minimal opens for {n} points")
        for x, r in enumerate(rows):
            if r < 0 or r > full or not r >> x & 1:
                raise InputError(f"minimal open {r:#x} does not contain point {x}")
            for y in bit_indices(r):
                if rows[y] & ~r:
                    raise InputError(
                        f"minimal open of {y} not inside that of {x}"
                    )
        self._assign(n, rows)

    @classmethod
    def from_opens(cls, n: int, opens) -> "FiniteSpace":
        """The space with open family opens.  The minimal opens of a valid
        family always form a preorder, so the constructor accepts them."""
        _check_points(n)
        full = (1 << n) - 1
        fam = sorted(set(opens))
        for u in fam:
            if u < 0 or u > full:
                raise InputError(f"open set {u:#x} not a subset of {n} points")
        if 0 not in fam or full not in fam:
            raise InputError("opens must contain the empty set and the full set")

        fam_set = frozenset(fam)
        min_open = []
        for x in range(n):
            m = full
            for u in fam:
                if u >> x & 1:
                    m &= u
            min_open.append(m)
            if m not in fam_set:
                raise InputError(
                    f"opens not closed under intersection near point {x}"
                )
        # Every open u is the union of the minimal opens of its points, so
        # with each U_x inside, the family is a topology iff it holds every
        # union of them: iff adding one U_x to a member stays inside.  This
        # never builds more sets than the input has.
        distinct_min = set(min_open)
        if any(u | r not in fam_set for u in fam for r in distinct_min):
            raise InputError("opens not closed under pairwise union")
        return cls(n, min_open)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    # -- basic predicates ------------------------------------------------

    def is_open(self, mask: int) -> bool:
        """Open sets are the up-closed ones: each point brings its U_x."""
        return 0 <= mask <= self.full and self.smallest_open_superset(mask) == mask

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full ^ mask)

    # -- closure / interior ----------------------------------------------

    def closure(self, mask: int) -> int:
        """Smallest closed superset: y is in it iff every open around y,
        hence U_y, meets mask."""
        check_mask(mask, self.n)
        return mask_of(y for y, u in enumerate(self.min_open) if u & mask)

    def interior(self, mask: int) -> int:
        """Largest open subset: union of minimal opens contained in mask."""
        check_mask(mask, self.n)
        acc = 0
        for x in bit_indices(mask):
            u = self.min_open[x]
            if u & ~mask == 0:
                acc |= u
        return acc

    def smallest_open_superset(self, mask: int) -> int:
        """Opens are intersection-closed, so this is itself open."""
        acc = 0
        for x in bit_indices(mask):
            acc |= self.min_open[x]
        return acc

    # -- separation flags -------------------------------------------------
    #
    # Two sets have disjoint open supersets iff their smallest open
    # supersets are disjoint (opens are intersection-closed), and every
    # subset of a finite space is compact; each flag below reduces its
    # definition to the minimal opens with these two facts.

    def separation_flags(self) -> "FiniteSpace":
        """The space itself, whose attributes are the flags; the bench's
        `topology.flags` span times this call."""
        return self

    # The full set is a closed compact neighborhood of every point, and U_x
    # is a compact neighborhood of x inside every open containing x.
    locally_compact = strongly_locally_compact = base_compact_nbhds = True

    @property
    def regular(self) -> bool:
        # The largest closed set missing x is G - U_x, and it has an open
        # superset missing U_x iff it is open itself: iff U_x is closed.
        return self.base_closed_compact_nbhds

    @cached_property
    def normal(self) -> bool:
        # Disjoint closed C1, C2 have overlapping smallest open supersets
        # iff they hold points a, b with overlapping U_a, U_b; then cl{a}
        # <= C1 and cl{b} <= C2 are disjoint closed sets already.
        cl = [self.closure(1 << x) for x in range(self.n)]
        return all(
            self.min_open[a] & self.min_open[b] == 0
            for a in range(self.n)
            for b in range(a + 1, self.n)
            if cl[a] & cl[b] == 0
        )

    @cached_property
    def base_closed_compact_nbhds(self) -> bool:
        # Every open W around x contains U_x, itself an open around x, so
        # the condition is cl(U_x) <= U_x: each minimal open is closed.
        return all(self.closure(u) == u for u in self.min_open)


class PointFunction(Record):
    """A rational-valued function on the points of a finite space."""

    _fields = ("values",)

    def __init__(self, values):
        self._assign(tuple(Fraction(v) for v in values))

    @classmethod
    def indicator(cls, n: int, mask: int) -> "PointFunction":
        check_mask(mask, n)
        return cls(tuple(Fraction(mask >> x & 1) for x in range(n)))

    def level_set(self, value) -> int:
        return mask_of(x for x, v in enumerate(self.values) if v == value)

    def is_continuous(self, space: FiniteSpace) -> bool:
        """The image is a finite subset of the reals, hence discrete in the
        subspace topology: continuity means every level set is open."""
        if len(self.values) != space.n:
            raise InputError("function defined on a different point set")
        return all(space.is_open(self.level_set(v)) for v in set(self.values))


# -- constructive separation lemmas ----------------------------------------


def separate(space: FiniteSpace, a: int, b: int):
    """Disjoint open sets (U, V) with a <= U and b <= V, lexicographically
    smallest in the canonical ordering of opens: the smallest open
    supersets of a and of b.

    Every open superset of a set contains its smallest one, so no pair is
    smaller.  They are disjoint: for x in a, U_x misses the closed b, so b
    lies in the complement of U_x, whose smallest open superset misses U_x
    on a regular space.
    """
    check_mask(a, space.n)
    check_mask(b, space.n)
    if a & b:
        raise InputError(f"sets share points {a & b:#x}")
    if not space.is_closed(b):
        raise InputError(f"{b:#x} is not closed")
    if not space.regular:
        raise InputError("separation is only guaranteed on regular spaces")
    return space.smallest_open_superset(a), space.smallest_open_superset(b)


def split_compact(space: FiniteSpace, k: int, u1: int, u2: int):
    """Split a closed compact k covered by opens u1, u2 into closed parts
    K1 <= u1, K2 <= u2 with K1 | K2 == k, replaying the separation proof."""
    check_mask(k, space.n)
    if not space.is_closed(k):
        raise InputError(f"{k:#x} is not closed")
    for u in (u1, u2):
        if not space.is_open(u):
            raise InputError(f"{u:#x} is not open")
    if k & ~(u1 | u2):
        raise InputError(f"{k:#x} not covered by {u1:#x} | {u2:#x}")
    l1 = k & ~u1
    l2 = k & ~u2
    v1, v2 = separate(space, l1, l2)
    k1 = k & ~v1
    k2 = k & ~v2
    if k1 | k2 != k or k1 & ~u1 or k2 & ~u2:
        raise InternalInconsistency("split postcondition failed")
    return k1, k2


def urysohn_finite(space: FiniteSpace, k: int, u: int) -> PointFunction:
    """A continuous g with 1_k <= g <= 1_u and closed support inside u.

    On a regular finite space every closed set is clopen, so the indicator
    of k already qualifies.
    """
    check_mask(k, space.n)
    if not space.is_closed(k):
        raise InputError(f"{k:#x} is not closed")
    if not space.is_open(u):
        raise InputError(f"{u:#x} is not open")
    if k & ~u:
        raise InputError(f"{k:#x} is not contained in {u:#x}")
    if not space.regular:
        raise InputError("construction requires a regular space")
    g = PointFunction.indicator(space.n, k)
    if not g.is_continuous(space):
        raise InternalInconsistency("indicator of closed set not continuous")
    return g


# -- enumeration ------------------------------------------------------------


def enumerate_topologies(n: int):
    """All topologies on n labeled points, ordered by their minimal opens.

    A topology is determined by the minimal open neighborhoods of its
    points: any assignment x -> U_x with x in U_x and U_y <= U_x for every
    y in U_x arises from exactly one topology, whose opens are the unions
    of the U_x.  This walks all such assignments.
    """
    if n < 1:
        raise InputError("point count must be at least 1")
    if n > MAX_ENUMERATED_POINTS:
        raise TooLarge(f"n={n} exceeds the enumeration bound {MAX_ENUMERATED_POINTS}")
    candidates = [[r for r in range(1 << n) if r >> x & 1] for x in range(n)]
    spaces = []
    for rows in product(*candidates):
        try:
            spaces.append(FiniteSpace(n, rows))
        except InputError:  # not a preorder
            pass
    spaces.sort(key=lambda s: s.min_open)
    return spaces
