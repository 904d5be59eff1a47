from itertools import combinations

import pytest

from haarlab import (
    BorelAtoms,
    FiniteGroup,
    FiniteSpace,
    QuotientData,
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
    InternalInconsistency,
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

#: Past the 16 listable opens: 24, 32 and 64 atoms, and 16 atoms of order 4.
LARGE_INSTANCES = [
    (cyclic(24), 1),
    (direct_product(cyclic(2), cyclic(16)), 1),
    (cyclic(64), 1),
    (cyclic(64), mask_of([0, 16, 32, 48])),
]

def test_quotient_work_is_linear_in_order(corpus, monkeypatch):
    """Counter bound: closure calls per quotient and per borel_atoms, no
    listing of the opens, and no flag but hausdorff."""
    calls = 0
    closure = FiniteSpace.closure

    def counting_closure(self, mask):
        nonlocal calls
        calls += 1
        return closure(self, mask)

    def unexpected_flag(self):
        raise AssertionError("quotient read a flag other than hausdorff")

    def unexpected_opens(self):
        raise AssertionError("the open family was listed")

    monkeypatch.setattr(FiniteSpace, "closure", counting_closure)
    monkeypatch.setattr(FiniteSpace, "opens", property(unexpected_opens))
    for name in (
        "regular",
        "normal",
        "locally_compact",
        "strongly_locally_compact",
        "base_compact_nbhds",
        "base_closed_compact_nbhds",
    ):
        monkeypatch.setattr(SeparationFlags, name, property(unexpected_flag))
    instances = [(g, tg.space) for g in corpus for tg in group_topologies(g)]
    instances += [(g, coset_topology(g, n)) for g, n in LARGE_INSTANCES]
    for group, space in instances:
        for fn in (quotient, borel_atoms):
            tg = validate_top_group(group, space)
            calls = 0
            fn(tg)
            # measured: order + 1 for quotient (one closure per point for
            # the atoms, plus the identity's) and 2 * order + 1 for
            # borel_atoms (one more per point for saturation)
            assert calls <= 2 * group.order + 2, (group.name, fn.__name__, calls)

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


# -- literal references ------------------------------------------------------
#
# The library's quotient and borel_atoms check each statement on the n minimal
# opens.  These references check the same statements literally: over all
# 2^k opens of the base, every subset of a quotient of at most 12 points, and
# every pair of atom unions up to 8 atoms.

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
    qspace = FiniteSpace.from_min_open(k, [1 << i for i in range(k)])  # discrete
    qgroup = FiniteGroup(qtable, name=f"{group.name}/N")
    qtg = validate_top_group(qgroup, qspace)

    # homomorphism + well-definedness
    for a in range(group.order):
        for b in range(group.order):
            if proj[group.mul(a, b)] != qgroup.mul(proj[a], proj[b]):
                raise InternalInconsistency("projection is not a homomorphism")
    if set(proj) != set(range(k)):
        raise InternalInconsistency("projection is not surjective")

    # statements: projection open and closed; quotient Hausdorff
    for u in g.space.opens:
        if not qspace.is_open(image(u)):
            raise InternalInconsistency("projection is not open")
        if not qspace.is_closed(image(g.space.full ^ u)):
            raise InternalInconsistency("projection is not closed")
    if not qspace.separation_flags().hausdorff:
        raise InternalInconsistency("quotient is not Hausdorff")
    # topology and Borel sets of the quotient are exactly images
    if {image(u) for u in g.space.opens} != set(qspace.opens):
        raise InternalInconsistency("quotient topology is not the image family")
    # compact lifting: every subset C of the quotient lifts to the closed
    # compact preimage
    check_all = k <= 12
    candidates = range(1 << k) if check_all else [1 << i for i in range(k)] + [
        (1 << k) - 1
    ]
    for c in candidates:
        lift = preimage(c)
        if image(lift) != c or not g.space.is_closed(lift):
            raise InternalInconsistency("compact lifting failed")
    return QuotientData(base=g, quotient=qtg, proj=proj)

def reference_borel_atoms(g):
    space = g.space
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
    # saturation: x in E implies closure(x) <= E, for opens (and hence for
    # every union of atoms)
    point_closure = [space.closure(1 << x) for x in range(space.n)]
    for u in space.opens:
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
    return BorelAtoms(atoms=atoms)

def test_generator_checks_match_literal_references(corpus_instances):
    for tg in corpus_instances:
        q, ref = quotient(tg), reference_quotient(tg)
        assert q == ref and q.quotient.group.name == ref.quotient.group.name
        assert q.quotient.space.min_open == ref.quotient.space.min_open
        assert borel_atoms(tg) == reference_borel_atoms(tg)

Z6_ATOMS = ((0b001001, 0b010010, 0b100100), (0, 1, 2, 0, 1, 2))

def z6_mod_3():
    """Z6 mod {0, 3}: atoms {0,3} {1,4} {2,5} and atom_of (0,1,2,0,1,2)."""
    z6 = cyclic(6)
    tg = validate_top_group(z6, coset_topology(z6, 0b001001))
    assert tg._partition == Z6_ATOMS
    return tg

#: Partitions set through the cached _partition of z6_mod_3(), each with the
#: messages quotient and borel_atoms raise on it.
Z6_TAMPERS = {
    # two atom_of labels swapped: 1 -> atom 2, 2 -> atom 1
    "labels_swapped": (
        (Z6_ATOMS[0], (0, 2, 1, 0, 1, 2)),
        "atom 1 does not round-trip",
        "atom 1 does not round-trip",
    ),
    # point 4 moved from the coset {1,4} to {2,5}, labels following
    "point_moved": (
        ((0b001001, 0b000010, 0b110100), (0, 1, 2, 0, 2, 2)),
        "projection is not open",
        "atom is not clopen",
    ),
    # point 4 dropped from its atom, its label kept
    "point_dropped": (
        ((0b001001, 0b000010, 0b100100), (0, 1, 2, 0, 1, 2)),
        "atoms do not cover the points",
        "atoms do not cover the points",
    ),
}

@pytest.mark.parametrize("tamper", Z6_TAMPERS.values(), ids=Z6_TAMPERS)
def test_tampered_partitions_rejected(tamper):
    partition, quotient_msg, borel_msg = tamper
    for fn, errors, msg in (
        (quotient, InternalInconsistency, quotient_msg),
        (borel_atoms, InternalInconsistency, borel_msg),
        # the literal quotient may also fail on the quotient's Cayley table
        (reference_quotient, (InternalInconsistency, ValueError), None),
        (reference_borel_atoms, InternalInconsistency, None),
    ):
        tg = z6_mod_3()
        tg._partition = partition
        with pytest.raises(errors, match=msg):
            fn(tg)

def test_quotient_rejects_non_coset_partition():
    """Atoms {0,1,3,4} {2,5} are clopen and saturated, and their table from
    the representatives 0 and 2 is a group, but 1 + 1 = 2 maps atom 0 to
    atom 1: the projection is not a homomorphism."""
    for fn in (quotient, reference_quotient):
        tg = z6_mod_3()
        tg._partition = ((0b011011, 0b100100), (0, 0, 1, 0, 0, 1))
        with pytest.raises(InternalInconsistency, match="not a homomorphism"):
            fn(tg)

def test_quotient_checks_hausdorff():
    """With the base space swapped for the indiscrete one behind the cached
    atoms, the final topology on Z6/{0,3} is indiscrete: not Hausdorff."""
    for fn, msg in ((quotient, "quotient is not Hausdorff"), (reference_quotient, None)):
        tg = z6_mod_3()
        tg.space = FiniteSpace.from_min_open(6, [0b111111] * 6)
        with pytest.raises(InternalInconsistency, match=msg):
            fn(tg)


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
