from itertools import combinations

import pytest

from haarlab import (
    FiniteGroup,
    FiniteSpace,
    SeparationFlags,
    borel_atoms,
    coset_topology,
    cyclic,
    dihedral,
    direct_product,
    group_topologies,
    identity_closure,
    product_group,
    quaternion8,
    quotient,
    symmetric3,
    trivial_group,
    validate_top_group,
)
from haarlab.errors import (
    NotContinuousMultiplication,
    TooLarge,
)
from haarlab.topology import bit_indices, mask_of


def discrete_group(group):
    return validate_top_group(group, FiniteSpace(group.order, range(1 << group.order)))

def indiscrete_group(group):
    full = (1 << group.order) - 1
    return validate_top_group(group, FiniteSpace(group.order, [0, full]))


# -- FiniteGroup validation and constructors ---------------------------------

def test_rejects_broken_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])  # column not a permutation
    with pytest.raises(ValueError, match="identity"):
        # Latin square but no row is the identity permutation
        FiniteGroup([[1, 0, 2], [2, 1, 0], [0, 2, 1]])
    # Latin square without associativity: smallest examples are order 5
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(t)

def test_constructor_basics():
    assert trivial_group().order == 1
    assert cyclic(6).order == 6
    assert dihedral(4).order == 8
    assert symmetric3().order == 6
    assert quaternion8().order == 8
    assert direct_product(cyclic(2), cyclic(4)).order == 8
    z5 = cyclic(5)
    assert z5.mul(3, 4) == 2
    assert z5.inv(2) == 3

def test_dihedral_relation():
    d4 = dihedral(4)
    r, s = 1, 4  # r = rotation, s = reflection
    # s r s^-1 == r^-1
    conj = d4.mul(d4.mul(s, r), d4.inv(s))
    assert conj == d4.inv(r)

def test_quaternion_relations():
    q8 = quaternion8()
    one, minus, i, j, k = 0, 1, 2, 4, 6
    assert q8.mul(i, i) == minus
    assert q8.mul(j, j) == minus
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.inv(k)
    assert q8.mul(minus, minus) == one


# -- subgroup lattice --------------------------------------------------------

def brute_force_subgroups(group):
    """Oracle: test every subset of the element set."""
    out = []
    elems = range(group.order)
    for size in range(1, group.order + 1):
        for combo in combinations(elems, size):
            mask = mask_of(combo)
            if group.is_subgroup(mask):
                out.append(mask)
    return sorted(out)

@pytest.mark.parametrize(
    "group,n_subgroups,n_normal",
    [
        (cyclic(12), 6, 6),
        (symmetric3(), 6, 3),
        (dihedral(3), 6, 3),
        (dihedral(4), 10, 6),
        (quaternion8(), 6, 6),
        (direct_product(cyclic(2), cyclic(4)), 8, 8),
    ],
)
def test_subgroup_counts(group, n_subgroups, n_normal):
    assert len(group.subgroups()) == n_subgroups
    assert len(group.normal_subgroups()) == n_normal

def test_subgroups_match_brute_force():
    for group in (cyclic(8), symmetric3(), quaternion8(), dihedral(4)):
        assert group.subgroups() == brute_force_subgroups(group)


# -- compatible topologies ---------------------------------------------------

def test_validate_z4_coset_topology():
    z4 = cyclic(4)
    tg = validate_top_group(z4, coset_topology(z4, 0b0101))
    assert identity_closure(tg) == 0b0101

def test_validate_rejects_sierpinski_style_opens():
    z4 = cyclic(4)
    space = FiniteSpace(4, [0b0000, 0b0001, 0b1111])
    with pytest.raises(NotContinuousMultiplication):
        validate_top_group(z4, space)

def test_discrete_always_valid():
    for group in (cyclic(5), symmetric3(), quaternion8()):
        discrete_group(group)

def test_identity_closure_examples():
    z4 = cyclic(4)
    assert identity_closure(discrete_group(z4)) == 0b0001
    assert identity_closure(indiscrete_group(z4)) == 0b1111
    tg = validate_top_group(z4, coset_topology(z4, 0b0101))
    assert identity_closure(tg) == 0b0101

def test_group_topologies_counts():
    assert len(group_topologies(cyclic(4))) == 3
    assert len(group_topologies(symmetric3())) == 3
    assert len(group_topologies(trivial_group())) == 1

def test_group_topologies_bijection_with_normal_subgroups():
    for group in (cyclic(6), symmetric3(), dihedral(4), quaternion8()):
        tgs = group_topologies(group)
        closures = [identity_closure(tg) for tg in tgs]
        assert sorted(closures) == group.normal_subgroups()
        assert len(set(closures)) == len(closures)

def test_opens_are_exactly_coset_unions():
    for group in (cyclic(6), symmetric3(), dihedral(4)):
        for tg in group_topologies(group):
            n_mask = identity_closure(tg)
            cosets = sorted(
                {group.translate(x, n_mask, "left") for x in range(group.order)}
            )
            expected = set()
            for sel in range(1 << len(cosets)):
                acc = 0
                for i in bit_indices(sel):
                    acc |= cosets[i]
                expected.add(acc)
            assert set(tg.space.opens) == expected


# -- quotient ----------------------------------------------------------------

def test_quotient_z4_mod_n():
    z4 = cyclic(4)
    tg = validate_top_group(z4, coset_topology(z4, 0b0101))
    q = quotient(tg)
    assert q.quotient.group.order == 2
    assert q.proj == (0, 1, 0, 1)
    assert q.proj[0] == q.proj[2]

def test_quotient_discrete_is_identity():
    z3 = cyclic(3)
    q = quotient(discrete_group(z3))
    assert q.quotient.group.order == 3
    assert q.proj == (0, 1, 2)
    assert q.quotient.group.table == z3.table

def test_quotient_indiscrete_is_trivial():
    q = quotient(indiscrete_group(cyclic(4)))
    assert q.quotient.group.order == 1

def test_quotient_projection_open_closed_hausdorff(corpus_instances):
    # the constructor re-verifies statements (i)-(v); just exercise it
    for tg in corpus_instances:
        q = quotient(tg)
        assert q.quotient.space.separation_flags().hausdorff

def test_quotient_work_is_linear_in_order(corpus, monkeypatch):
    """Counter bound: closure calls per quotient, and no flag but hausdorff."""
    calls = 0
    closure = FiniteSpace.closure

    def counting_closure(self, mask):
        nonlocal calls
        calls += 1
        return closure(self, mask)

    def unexpected_flag(self):
        raise AssertionError("quotient read a flag other than hausdorff")

    monkeypatch.setattr(FiniteSpace, "closure", counting_closure)
    for name in (
        "regular",
        "normal",
        "locally_compact",
        "strongly_locally_compact",
        "base_compact_nbhds",
        "base_closed_compact_nbhds",
    ):
        monkeypatch.setattr(SeparationFlags, name, property(unexpected_flag))
    for group in corpus:
        for tg in group_topologies(group):
            calls = 0
            quotient(tg)
            # measured: order + 1 (one closure per point for the atoms,
            # plus the identity's); the bound doubles it
            assert calls <= 2 * group.order + 2, (group.name, calls)

def test_quotient_of_hausdorff_group_is_isomorphic_copy():
    for group in (cyclic(5), symmetric3()):
        q = quotient(discrete_group(group))
        assert q.proj == tuple(range(group.order))
        q2 = quotient(q.quotient)
        assert q2.proj == tuple(range(group.order))


# -- borel atoms -------------------------------------------------------------

def test_borel_atoms_examples():
    z4 = cyclic(4)
    tg = validate_top_group(z4, coset_topology(z4, 0b0101))
    assert borel_atoms(tg).atoms == (0b0101, 0b1010)
    assert borel_atoms(discrete_group(cyclic(3))).atoms == (0b001, 0b010, 0b100)
    assert borel_atoms(indiscrete_group(cyclic(3))).atoms == (0b111,)

def test_borel_atoms_partition(corpus_instances):
    for tg in corpus_instances:
        atoms = borel_atoms(tg).atoms
        acc = 0
        for a in atoms:
            assert acc & a == 0
            acc |= a
            assert tg.space.is_open(a) and tg.space.is_closed(a)
        assert acc == tg.space.full


# -- products ----------------------------------------------------------------

def test_product_discrete_times_indiscrete():
    p = product_group(discrete_group(cyclic(2)), indiscrete_group(cyclic(2)))
    assert identity_closure(p) == 0b0011  # {e} x Z2
    assert len(p.atoms) == 2

def test_product_with_trivial_is_copy():
    g = discrete_group(symmetric3())
    p = product_group(g, discrete_group(trivial_group()))
    assert p.group.table == g.group.table
    assert len(p.atoms) == 6

def test_product_indiscrete_squared():
    p = product_group(indiscrete_group(cyclic(2)), indiscrete_group(cyclic(2)))
    assert len(p.atoms) == 1
    assert p.space.opens == (0, 0b1111)

def test_product_order_cap():
    with pytest.raises(TooLarge):
        direct_product(cyclic(9), cyclic(9))
