import re
from fractions import Fraction
from itertools import combinations

import pytest

from haarlab import (
    FiniteSpace,
    PointFunction,
    enumerate_topologies,
    separate,
    split_compact,
    urysohn_finite,
)
from haarlab.errors import InputError, TooLarge
from haarlab.topology import TOPOLOGY_COUNTS, mask_of

from literal import closed_sets, hausdorff, literal_closure, literal_interior, opens, reference_separate


def sierpinski():
    # opens {∅, {1}, {0,1}}
    return FiniteSpace.from_opens(2, [0b00, 0b10, 0b11])

def discrete(n):
    return FiniteSpace.from_opens(n, range(1 << n))

def indiscrete(n):
    return FiniteSpace.from_opens(n, [0, (1 << n) - 1])

def z4_coset_space():
    # opens = unions of cosets of {0,2} in Z4
    return FiniteSpace.from_opens(4, [0b0000, 0b0101, 0b1010, 0b1111])


# -- construction validation -------------------------------------------------

def test_rejects_family_missing_full_set():
    with pytest.raises(ValueError):
        FiniteSpace.from_opens(2, [0b00, 0b01])

def test_rejects_family_not_union_closed():
    with pytest.raises(ValueError):
        FiniteSpace.from_opens(3, [0b000, 0b001, 0b010, 0b111])

def test_rejects_family_not_intersection_closed():
    with pytest.raises(ValueError):
        FiniteSpace.from_opens(3, [0b000, 0b011, 0b110, 0b111])

def test_rejects_too_many_points():
    with pytest.raises(TooLarge):
        FiniteSpace.from_opens(65, [0])
    # more digits than an int converts to text: the count goes unnamed
    with pytest.raises(TooLarge, match=r"^point count past 2\^64 outside 1\.\.64$"):
        FiniteSpace.from_opens(10**5000, [0])

def test_rejects_no_points():
    builds = (
        lambda: FiniteSpace.from_opens(0, [0]),
        lambda: FiniteSpace(0, []),
        lambda: enumerate_topologies(0),
        lambda: enumerate_topologies(-1),
    )
    for build in builds:
        with pytest.raises(InputError, match="^point count must be at least 1$"):
            build()

def test_rejects_non_topology_without_generating_its_unions():
    # 64 singleton minimal opens would generate 2^64 unions
    full = (1 << 64) - 1
    with pytest.raises(ValueError, match="pairwise union"):
        FiniteSpace.from_opens(64, [0, full] + [1 << x for x in range(64)])

def test_min_open_validation():
    assert FiniteSpace(2, [0b11, 0b10]) == sierpinski()
    with pytest.raises(ValueError):
        FiniteSpace(2, [0b10, 0b10])  # 0 not in U_0
    with pytest.raises(ValueError):
        FiniteSpace(3, [0b011, 0b110, 0b100])  # U_1 not in U_0
    with pytest.raises(ValueError):
        FiniteSpace(2, [0b11])
    with pytest.raises(TooLarge):
        FiniteSpace(65, [0] * 65)

def test_opens_listed_lazily_under_cap():
    space = FiniteSpace(17, [1 << x for x in range(17)])
    assert "opens" not in repr(space)
    assert space.closure(0b101) == 0b101 and space.is_open(0b101)
    assert space.separation_flags().regular


# -- closure / interior ------------------------------------------------------

def test_closure_sierpinski():
    # smallest closed superset of {1}, by intersecting all closed supersets
    s = sierpinski()
    closed_supersets = [c for c in closed_sets(s) if c & 0b10 == 0b10]
    expected = s.full
    for c in closed_supersets:
        expected &= c
    assert s.closure(0b10) == expected == 0b11

def test_closure_empty_and_discrete():
    assert sierpinski().closure(0) == 0
    assert discrete(3).closure(0b100) == 0b100

def test_interior_sierpinski():
    # union of opens inside {0}
    s = sierpinski()
    expected = 0
    for u in opens(s):
        if u & ~0b01 == 0:
            expected |= u
    assert s.interior(0b01) == expected == 0

def test_interior_full_and_indiscrete():
    assert sierpinski().interior(0b11) == 0b11
    assert indiscrete(2).interior(0b01) == 0

def test_closure_interior_duality_all_small_spaces():
    for space in enumerate_topologies(3):
        for s in range(space.full + 1):
            comp = space.full ^ s
            assert space.interior(s) == space.full ^ space.closure(comp)

def test_predicates_match_literal_definitions(corpus_instances):
    spaces = set(enumerate_topologies(4)) | {tg.space for tg in corpus_instances}
    for space in spaces:
        open_sets = set(opens(space))
        for s in range(space.full + 1):
            assert space.closure(s) == literal_closure(space, s)
            assert space.interior(s) == literal_interior(space, s)
            assert space.is_open(s) == (s in open_sets)
            assert space.is_closed(s) == (space.full ^ s in open_sets)
        for bad in (-1, space.full + 1):
            assert not space.is_open(bad) and not space.is_closed(bad)

def test_closure_idempotent_monotone():
    for space in enumerate_topologies(3):
        for s in range(space.full + 1):
            c = space.closure(s)
            assert space.closure(c) == c
            assert c & s == s
            i = space.interior(s)
            assert space.interior(i) == i
            assert i & ~s == 0


# -- separation flags --------------------------------------------------------

def brute_force_flags(space):
    """Independent oracle: explicit exists-quantifiers over the open family."""
    open_sets = opens(space)
    n = space.n
    closed = closed_sets(space)

    def separable(a, b):
        return any(
            a & ~u == 0 and b & ~v == 0 and u & v == 0
            for u in open_sets
            for v in open_sets
        )

    def nbhd_inside(x, w, candidates):
        """Some candidate K has an open U with x in U <= K <= w."""
        return any(
            u >> x & 1 and u & ~k == 0 and k & ~w == 0
            for u in open_sets
            for k in candidates
        )

    hausdorff = all(
        separable(1 << x, 1 << y) for x in range(n) for y in range(x + 1, n)
    )
    regular = all(
        separable(1 << x, c)
        for c in closed
        for x in range(n)
        if not c >> x & 1
    )
    normal = all(
        separable(c1, c2) for c1 in closed for c2 in closed if c1 & c2 == 0
    )
    # every subset of a finite space is compact
    subsets = range(space.full + 1)
    locally_compact = all(nbhd_inside(x, space.full, subsets) for x in range(n))
    strongly = all(nbhd_inside(x, space.full, closed) for x in range(n))
    base = all(
        nbhd_inside(x, w, subsets) for x in range(n) for w in open_sets if w >> x & 1
    )
    base_closed = all(
        nbhd_inside(x, w, closed) for x in range(n) for w in open_sets if w >> x & 1
    )
    return (
        hausdorff, regular, normal, locally_compact, strongly, base, base_closed
    )

def test_flags_match_brute_force_oracle():
    for space in enumerate_topologies(3) + enumerate_topologies(4):
        f = space.separation_flags()
        assert (
            hausdorff(space),
            f.regular,
            f.normal,
            f.locally_compact,
            f.strongly_locally_compact,
            f.base_compact_nbhds,
            f.base_closed_compact_nbhds,
        ) == brute_force_flags(space)

def test_flags_examples():
    f = indiscrete(2).separation_flags()
    assert (hausdorff(indiscrete(2)), f.regular, f.normal) == (False, True, True)
    assert not sierpinski().separation_flags().regular
    f = discrete(3).separation_flags()
    assert all(
        [
            hausdorff(discrete(3)),
            f.regular,
            f.normal,
            f.locally_compact,
            f.strongly_locally_compact,
            f.base_compact_nbhds,
            f.base_closed_compact_nbhds,
        ]
    )

def test_local_compactness_always_true_finitely():
    for space in enumerate_topologies(3):
        assert space.separation_flags().locally_compact


# -- separate ----------------------------------------------------------------

def test_separate_discrete_singletons():
    assert separate(discrete(3), 0b001, 0b100) == (0b001, 0b100)

def test_separate_empty_closed_set():
    assert separate(indiscrete(2), 0b11, 0) == (0b11, 0)

def test_separate_z4_cosets():
    assert separate(z4_coset_space(), 0b0101, 0b1010) == (0b0101, 0b1010)

def test_separate_errors():
    with pytest.raises(InputError, match="^sets share points 0x1$"):
        separate(discrete(2), 0b01, 0b01)
    with pytest.raises(InputError, match=r"^0x2 is not closed$"):
        separate(z4_coset_space(), 0b0101, 0b0010)
    with pytest.raises(InputError, match="^separation is only guaranteed on regular spaces$"):
        separate(sierpinski(), 0b10, 0b01)

def test_separate_matches_search_over_opens(corpus_instances):
    """Every disjoint (a, closed b) on every regular space of at most 4
    points and every distinct corpus coset space of at most 9 points."""
    spaces = [s for n in range(1, 5) for s in enumerate_topologies(n)]
    spaces = [s for s in spaces if s.separation_flags().regular]
    spaces += sorted(
        {tg.space for tg in corpus_instances if tg.space.n <= 9},
        key=lambda s: (s.n, s.min_open),
    )
    cases = 0
    for space in spaces:
        for b in closed_sets(space):
            free = space.full ^ b
            a = free
            while True:  # every subset a of the complement of b
                assert separate(space, a, b) == reference_separate(space, a, b)
                cases += 1
                if a == 0:
                    break
                a = (a - 1) & free
    assert cases == 36_267

def test_separate_property_all_regular_spaces():
    for space in enumerate_topologies(3):
        if not space.separation_flags().regular:
            continue
        for a in range(space.full + 1):
            for b in closed_sets(space):
                if a & b:
                    continue
                u, v = separate(space, a, b)
                assert space.is_open(u) and space.is_open(v)
                assert a & ~u == 0 and b & ~v == 0 and u & v == 0


# -- split_compact -----------------------------------------------------------

def test_split_empty():
    assert split_compact(discrete(2), 0, 0b01, 0b10) == (0, 0)

def test_split_discrete_partition():
    assert split_compact(discrete(4), 0b1111, 0b0011, 0b1100) == (0b0011, 0b1100)

def test_split_degenerate_second_cover():
    space = discrete(3)
    assert split_compact(space, 0b011, 0b011, 0) == (0b011, 0)

def test_split_not_covered():
    with pytest.raises(InputError, match=r"^0x7 not covered by 0x1 \| 0x2$"):
        split_compact(discrete(3), 0b111, 0b001, 0b010)

def test_split_refuses_a_cover_that_is_not_open():
    # indiscrete(2) is regular, so without the check the split would go on
    space = indiscrete(2)
    for u1, u2 in ((0b01, 0b11), (0b11, 0b01)):
        with pytest.raises(InputError, match=r"^0x1 is not open$"):
            split_compact(space, 0b11, u1, u2)

def test_split_property_all_regular_spaces():
    for space in enumerate_topologies(3):
        if not space.separation_flags().regular:
            continue
        for k in closed_sets(space):
            for u1 in opens(space):
                for u2 in opens(space):
                    if k & ~(u1 | u2):
                        continue
                    k1, k2 = split_compact(space, k, u1, u2)
                    assert space.is_closed(k1) and space.is_closed(k2)
                    assert k1 | k2 == k
                    assert k1 & ~u1 == 0 and k2 & ~u2 == 0


# -- sandwich ----------------------------------------------------------------
#
# The constant strongly_locally_compact flag: every set k lies in an open U
# inside a closed compact L, namely its smallest open superset and the
# closure of that.

def sandwich(space, k):
    u = space.smallest_open_superset(k)
    return u, space.closure(u)

def test_sandwich_z4():
    assert sandwich(z4_coset_space(), 0b0001) == (0b0101, 0b0101)

def test_sandwich_empty():
    assert sandwich(z4_coset_space(), 0) == (0, 0)

def test_sandwich_property():
    for space in enumerate_topologies(3):
        assert space.separation_flags().strongly_locally_compact
        for k in range(space.full + 1):
            u, l = sandwich(space, k)
            assert space.is_open(u) and space.is_closed(l)
            assert k & ~u == 0 and u & ~l == 0


# -- urysohn -----------------------------------------------------------------

def ray_preimages_open(space, f):
    """Continuity oracle: preimages of the ray-generated value opens."""
    values = sorted(set(f.values))
    for t in values:
        above = mask_of(x for x, v in enumerate(f.values) if v > t)
        below = mask_of(x for x, v in enumerate(f.values) if v < t)
        if not (space.is_open(above) and space.is_open(below)):
            return False
    return True

def test_urysohn_z4_clopen_indicator():
    space = z4_coset_space()
    g = urysohn_finite(space, 0b0101, space.full)
    assert g.values == (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
    assert ray_preimages_open(space, g)

@pytest.mark.parametrize("mask,shown", [(0b110000, "0x30"), (0b10001, "0x11"), (-1, "-0x1")])
def test_indicator_refuses_sets_outside_the_points(mask, shown):
    """A mask with a bit past the points, or a negative one, is refused
    with check_mask's text, not read as the set of its low bits."""
    with pytest.raises(InputError, match=rf"^subset {shown} not valid for 4 points$"):
        PointFunction.indicator(4, mask)

def test_urysohn_extremes():
    space = z4_coset_space()
    assert urysohn_finite(space, 0, space.full).values == (Fraction(0),) * 4
    assert urysohn_finite(space, space.full, space.full).values == (Fraction(1),) * 4

def test_urysohn_not_nested():
    with pytest.raises(InputError, match="^0x5 is not contained in 0xa$"):
        urysohn_finite(z4_coset_space(), 0b0101, 0b1010)

# FiniteSpace(2, [1, 3]) is the Sierpinski space with U_0 = {0}: its only
# proper closed set is {1}, and it is not regular.
PRECONDITIONS = {
    "from_opens_point_outside": (
        lambda: FiniteSpace.from_opens(2, [0, 3, 4]), "open set 0x4 not a subset of 2 points"
    ),
    "is_continuous_other_points": (
        lambda: PointFunction([0, 0]).is_continuous(FiniteSpace(3, [7, 7, 7])),
        "function defined on a different point set",
    ),
    "split_not_closed": (
        lambda: split_compact(FiniteSpace(2, [1, 3]), 1, 3, 3), "0x1 is not closed"
    ),
    "urysohn_not_closed": (
        lambda: urysohn_finite(FiniteSpace(2, [1, 3]), 1, 3), "0x1 is not closed"
    ),
    "urysohn_not_open": (
        lambda: urysohn_finite(FiniteSpace(2, [1, 3]), 2, 2), "0x2 is not open"
    ),
    "urysohn_not_regular": (
        lambda: urysohn_finite(FiniteSpace(2, [1, 3]), 2, 3),
        "construction requires a regular space",
    ),
}

@pytest.mark.parametrize("call,message", PRECONDITIONS.values(), ids=PRECONDITIONS)
def test_preconditions_refused(call, message):
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        call()

def test_urysohn_property_all_regular_spaces():
    for space in enumerate_topologies(3):
        if not space.separation_flags().regular:
            continue
        for k in closed_sets(space):
            for u in opens(space):
                if k & ~u:
                    continue
                g = urysohn_finite(space, k, u)
                # 1_k <= g <= 1_u with closed support in u
                for x in range(space.n):
                    v = g.values[x]
                    assert 0 <= v <= 1
                    if k >> x & 1:
                        assert v == 1
                    if not u >> x & 1:
                        assert v == 0
                assert space.is_closed(mask_of(x for x, v in enumerate(g.values) if v))
                assert g.is_continuous(space)
                assert ray_preimages_open(space, g)


# -- enumeration -------------------------------------------------------------

def brute_force_topologies(n):
    """All subset families closed under union/intersection with 0 and full."""
    full = (1 << n) - 1
    subsets = list(range(full + 1))
    out = []
    for sel in range(1 << len(subsets)):
        fam = [s for i, s in enumerate(subsets) if sel >> i & 1]
        if 0 not in fam or full not in fam:
            continue
        fs = set(fam)
        if all(a | b in fs and a & b in fs for a, b in combinations(fam, 2)):
            out.append(tuple(sorted(fam)))
    return sorted(out)

def test_enumeration_counts():
    for n in (1, 2, 3, 4):
        assert len(enumerate_topologies(n)) == TOPOLOGY_COUNTS[n]

def test_enumeration_matches_brute_force():
    for n in (1, 2, 3, 4):
        expected = brute_force_topologies(n)
        spaces = enumerate_topologies(n)
        got = sorted(opens(s) for s in spaces)
        assert got == expected
        # each brute-force family, read back into its minimal opens
        assert {FiniteSpace.from_opens(n, f) for f in expected} == set(spaces)

def test_enumeration_bound():
    with pytest.raises(TooLarge, match="^n=5 exceeds the enumeration bound 4$"):
        enumerate_topologies(5)
