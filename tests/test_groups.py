import functools
import random
import re
from itertools import combinations

import pytest

from haarlab import (
    FiniteGroup,
    FiniteMeasure,
    FiniteSpace,
    FiniteTopGroup,
    coset_topology,
    cyclic,
    dihedral,
    direct_product,
    enumerate_topologies,
    group_topologies,
    identity_closure,
    pullback,
    pushforward,
    quaternion8,
    quotient,
    symmetric3,
    trivial_group,
)
from haarlab.errors import InputError, InternalInconsistency, TooLarge
from haarlab.measure import product_cells
from haarlab.topology import bit_indices, mask_of

from conftest import (
    LARGE_INSTANCES,
    discrete_instance,
    indiscrete_instance,
    random_fraction,
    z4_coset_instance,
)
from literal import coset_space, hausdorff, literal_associativity_error, literal_continuity
from literal import literal_partition, opens
from literal import literal_identity_and_inverses, literal_is_normal, literal_is_subgroup
from literal import product_group, reference_atom_perm, reference_borel_atoms, reference_quotient
from literal import literal_pullback, literal_pushforward


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

def random_loop(n, rng, inverses=True):
    """A random Latin square on 0..n-1 with identity 0 in which every x
    has a two-sided inverse: a loop that passes every FiniteGroup check
    before associativity.  The inverses are a random involution; the rest
    is filled by backtracking with shuffled candidates, starting over with
    a new involution when one cannot be completed within a step budget.
    With inverses=False no involution is placed, and the 0s are filled
    like any other value."""
    while True:
        t = [[None] * n for _ in range(n)]
        t[0] = list(range(n))
        for x in range(n):
            t[x][0] = x
        rest = list(range(1, n)) if inverses else []
        rng.shuffle(rest)
        while rest:
            x = rest.pop()
            y = rest.pop() if rest and rng.random() < 0.7 else x
            t[x][y] = t[y][x] = 0
        cells = [(i, j) for i in range(1, n) for j in range(1, n) if t[i][j] is None]
        steps = [0]

        def fill(c):
            if c == len(cells):
                return True
            steps[0] += 1
            if steps[0] > 2000:
                return False
            i, j = cells[c]
            used = set(t[i]) | {t[r][j] for r in range(n)}
            options = [v for v in range(n) if v not in used]
            rng.shuffle(options)
            for v in options:
                t[i][j] = v
                if fill(c + 1):
                    return True
            t[i][j] = None
            return False

        if fill(0):
            return t

def renamed(table, p):
    """The table with each element x renamed p[x]."""
    out = [[None] * len(p) for _ in p]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[p[a]][p[b]] = p[ab]
    return out

def test_row_associativity_matches_triple_loop(corpus):
    tables = [g.table for g in corpus]
    rng = random.Random(5)
    loops = []
    for n in range(5, 9):
        for _ in range(6):
            # each loop also renamed by a random p fixing 0, which moves
            # its first failing triple
            t = random_loop(n, rng)
            loops += [t, renamed(t, [0] + rng.sample(range(1, n), n - 1))]
    for table in tables + loops:
        want = literal_associativity_error(table)
        try:
            FiniteGroup(table)
        except ValueError as exc:
            assert str(exc) == f"bad Cayley table: {want}", table
        else:
            assert want is None, table
    # most loops are not groups, so the failing branch is exercised
    assert sum(literal_associativity_error(t) is not None for t in loops) >= 36

def test_identity_and_inverses_match_search(corpus):
    """FiniteGroup reads e and the inverses off the Latin square by index;
    the element-by-element searches find the same ones, or fail first on
    the same element.  Cases: random loops, with two-sided inverses or
    without, renamed so that e moves off 0; random isotopes of the corpus
    tables, x * y = c(a(x) b(y)), which have no identity; and x^-1 y and
    x y^-1 on the corpus groups, where e is an identity on one side only
    unless every element is its own inverse."""
    rng = random.Random(27)
    tables = []
    for n in range(2, 9):
        for inverses in (True, False):
            for _ in range(6):
                tables.append(renamed(random_loop(n, rng, inverses), rng.sample(range(n), n)))
    for g in corpus:
        a, b, c = (rng.sample(range(g.order), g.order) for _ in range(3))
        tables.append([[c[g.mul(x, y)] for y in b] for x in a])
        inv, elements = g.inverse, range(g.order)
        tables.append([[g.mul(inv[x], y) for y in elements] for x in elements])
        tables.append([[g.mul(x, inv[y]) for y in elements] for x in elements])
    outcomes = {"identity": 0, "inverse": 0, "group": 0}
    for table in tables:
        want = literal_identity_and_inverses(table)
        try:
            group = FiniteGroup(table)
        except ValueError as exc:
            if isinstance(want, str):
                assert str(exc) == f"bad Cayley table: {want}", table
                outcomes["identity" if "identity" in want else "inverse"] += 1
            else:
                assert str(exc) == f"bad Cayley table: {literal_associativity_error(table)}"
        else:
            assert (group.identity, group.inverse) == want, table
            outcomes["group"] += 1
    assert min(outcomes.values()) >= 5, outcomes

def test_constructor_basics():
    assert trivial_group().order == 1
    assert cyclic(6).order == 6
    assert dihedral(4).order == 8
    assert symmetric3().order == 6
    assert quaternion8().order == 8
    assert direct_product(cyclic(2), cyclic(4)).order == 8
    z5 = cyclic(5)
    assert z5.mul(3, 4) == 2
    assert z5.inverse[2] == 3

def test_dihedral_relation():
    d4 = dihedral(4)
    r, s = 1, 4  # r = rotation, s = reflection
    # s r s^-1 == r^-1
    conj = d4.mul(d4.mul(s, r), d4.inverse[s])
    assert conj == d4.inverse[r]

def test_quaternion_relations():
    q8 = quaternion8()
    one, minus, i, j, k = 0, 1, 2, 4, 6
    assert q8.mul(i, i) == minus
    assert q8.mul(j, j) == minus
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.inverse[k]
    assert q8.mul(minus, minus) == one
    # -1 flips the sign bit: with the relations above, every label is pinned
    assert all(q8.mul(minus, x) == x ^ 1 for x in range(8))


# -- subgroup lattice --------------------------------------------------------

def brute_force_subgroups(group):
    """Oracle: test every subset of the element set."""
    out = []
    elems = range(group.order)
    for size in range(1, group.order + 1):
        for combo in combinations(elems, size):
            mask = mask_of(combo)
            if literal_is_subgroup(group, mask):
                out.append(mask)
    return sorted(out)

def brute_force_normal_subgroups(group):
    """Oracle: the subgroups of the subset sweep with gH = Hg for every g."""
    return [h for h in brute_force_subgroups(group) if literal_is_normal(group, h)]

# the Klein four-group with its identity at element 1
KLEIN_IDENTITY_1 = FiniteGroup([[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]])

@pytest.mark.parametrize(
    "group,n_subgroups,n_normal",
    [
        (cyclic(12), 6, 6),
        (symmetric3(), 6, 3),
        (dihedral(3), 6, 3),
        (dihedral(4), 10, 6),
        (quaternion8(), 6, 6),
        (direct_product(cyclic(2), cyclic(4)), 8, 8),
        (KLEIN_IDENTITY_1, 5, 5),
    ],
)
def test_subgroup_counts(group, n_subgroups, n_normal):
    assert len(brute_force_subgroups(group)) == n_subgroups
    assert len(group.normal_subgroups()) == n_normal

def test_subgroups_match_brute_force(corpus):
    """normal_subgroups against the subset sweep, on the corpus (orders 1
    to 12) and the Klein group with its identity at 1; (Z2)^4 is swept in
    `test_subgroups_try_one_element_per_coset`."""
    for group in (*corpus, KLEIN_IDENTITY_1):
        assert group.normal_subgroups() == brute_force_normal_subgroups(group), group.name

def test_is_subgroup_matches_literal():
    """The generation test against the literal definition, on
    every subset, the empty one included."""
    z2_z4 = direct_product(cyclic(2), cyclic(4))
    for group in (cyclic(8), symmetric3(), dihedral(4), quaternion8(), z2_z4):
        for mask in range(1 << group.order):
            assert group.is_subgroup(mask) == literal_is_subgroup(group, mask), (group, mask)

def lookups(calls):
    """The table lookups of the recorded `generated_subgroup` calls: one
    per member of the result and generator, |J|·|gens| for each."""
    return sum(call.result.bit_count() * len(call.args[1]) for call in calls)

def power_of_z2(k):
    group = cyclic(2)
    for _ in range(k - 1):
        group = direct_product(group, cyclic(2))
    return group

def test_subgroups_try_one_element_per_coset(count_calls, monkeypatch):
    """(Z2)^4, where every subgroup is normal: one join per left coset
    outside each normal subgroup h, so 1 + sum over h of (|G|/|h| - 1) =
    1 + 15 + 15*7 + 35*3 + 15 = 241 `generated_subgroup` calls, not one
    per element outside h."""
    group = power_of_z2(4)
    calls = count_calls(FiniteGroup, "generated_subgroup")
    normals = group.normal_subgroups()
    assert len(calls) == 1 + sum(16 // h.bit_count() - 1 for h in normals) == 241
    monkeypatch.undo()
    assert normals == brute_force_subgroups(group)

def test_normal_subgroups_worst_case_counters(count_calls):
    """Counter bound on enumerate's heaviest input, (Z2)^6: 2,825 normal
    subgroups from exactly 23,563 joins and no space built; D32, with 9
    normal subgroups among its many subgroups, takes 123 joins.  Each join
    starts from the generators its parent was joined from, not from every
    member of the parent, and its table lookups are pinned: 1,211,742 on
    (Z2)^6 and 40,110 on D32."""
    spaces_built = count_calls(FiniteSpace, "__init__")
    calls = count_calls(FiniteGroup, "generated_subgroup")
    for group, n_normal, n_calls, n_lookups in (
        (power_of_z2(6), 2825, 23563, 1211742), (dihedral(32), 9, 123, 40110)
    ):
        calls.clear()
        normals = group.normal_subgroups()
        assert len(normals) == n_normal, group.name
        assert len(calls) == 1 + sum(group.order // h.bit_count() - 1 for h in normals) == n_calls
        assert lookups(calls) == n_lookups, group.name
    assert spaces_built == []


# -- compatible topologies ---------------------------------------------------

def test_validate_z4_coset_topology():
    tg = z4_coset_instance()
    assert identity_closure(tg) == 0b0101

def test_validate_rejects_sierpinski_style_opens():
    z4 = cyclic(4)
    space = FiniteSpace.from_opens(4, [0b0000, 0b0001, 0b1111])
    witness = r"^incompatible topology: witness: pair \(3, 1\), open 0x1$"
    with pytest.raises(InputError, match=witness):
        FiniteTopGroup.from_space(z4, space)

def test_from_space_refuses_a_space_on_other_points():
    with pytest.raises(InputError, match=r"^group and space must share the index set$"):
        FiniteTopGroup.from_space(cyclic(4), FiniteSpace(3, [7, 7, 7]))

def test_discrete_always_valid():
    for group in (cyclic(5), symmetric3(), quaternion8()):
        discrete_instance(group)

def random_preorder_space(n, rng):
    """The space of the reflexive-transitive closure of a random relation,
    U_x = the points below x, at a random density."""
    density = rng.choice([0.05, 0.1, 0.2, 0.4])
    below = [1 << x | mask_of(y for y in range(n) if rng.random() < density)
             for x in range(n)]
    for y in range(n):  # Warshall: close under paths through y
        for x in range(n):
            if below[x] >> y & 1:
                below[x] |= below[y]
    return FiniteSpace(n, below)

def continuity_cases():
    """Every topology of at most 4 points with every group of that order,
    and random preorders of groups of order 6 and 8 together with their
    compatible topologies."""
    klein = direct_product(cyclic(2), cyclic(2))
    cases = [
        (group, space)
        for group in (cyclic(1), cyclic(2), cyclic(3), cyclic(4), klein)
        for space in enumerate_topologies(group.order)
    ]
    rng = random.Random(1113)
    for group in (symmetric3(), cyclic(6), quaternion8(), dihedral(4)):
        cases += [(group, random_preorder_space(group.order, rng)) for _ in range(150)]
        cases += [(group, tg.space) for tg in group_topologies(group)]
    return cases

def test_inversion_continuity_follows_from_multiplication():
    """FiniteTopGroup.from_space checks multiplication only, through U_e and
    the translates of U_e; it accepts exactly the spaces where both literal
    checks pass, on every case of `continuity_cases`, and each space it
    accepts is the coset topology of the N it stores."""
    tally = {}
    for group, space in continuity_cases():
        mul_ok, inv_ok = literal_continuity(group, space)
        try:
            tg = FiniteTopGroup.from_space(group, space)
            accepted = True
            assert coset_space(tg) == space, (group, space)
        except InputError as exc:
            assert str(exc).startswith("incompatible topology: witness:"), exc
            accepted = False
        assert accepted == (mul_ok and inv_ok), (group, space)
        tally[mul_ok, inv_ok] = tally.get((mul_ok, inv_ok), 0) + 1
    # multiplication alone decides; inversion fails on some rejected spaces
    assert (True, False) not in tally
    assert tally[True, True] >= 100 and tally[False, True] >= 300
    assert tally[False, False] >= 500

def test_continuity_witness_fails_literally():
    """The pair a rejection names breaks U_a * U_b <= U_ab, computed
    point by point, and the message names U_ab; each of the four kinds
    of pair the check can name occurs.  The left cosets of a subgroup
    that is not normal pass every check but (e, a)."""
    left_cosets = [
        (group, FiniteSpace(
            group.order, [group.translate(x, h) for x in range(group.order)]))
        for group in (symmetric3(), dihedral(4))
        for h in brute_force_subgroups(group)
        if not literal_is_normal(group, h)
    ]
    kinds = set()
    for group, space in continuity_cases() + left_cosets:
        try:
            FiniteTopGroup.from_space(group, space)
        except InputError as exc:
            assert str(exc).startswith("incompatible topology: witness:"), exc
            m = re.fullmatch(
                r"incompatible topology: witness: pair \((\d+), (\d+)\), open (0x[0-9a-f]+)",
                str(exc),
            )
            a, b, target = int(m[1]), int(m[2]), int(m[3], 16)
        else:
            continue
        mo = space.min_open
        product = {group.mul(x, y) for x in bit_indices(mo[a]) for y in bit_indices(mo[b])}
        assert target == mo[group.mul(a, b)]
        assert not product <= set(bit_indices(target)), (group, space, a, b)
        e, inv = group.identity, group.inverse
        kinds.add(
            "ee" if (a, b) == (e, e)
            else "ae" if b == e
            else "ea" if a == e
            else "a'a" if a == inv[b]
            else "other"
        )
    assert kinds == {"ee", "ae", "ea", "a'a"}

def test_identity_closure_examples():
    z4 = cyclic(4)
    assert identity_closure(discrete_instance(z4)) == 0b0001
    assert identity_closure(indiscrete_instance(z4)) == 0b1111
    tg = z4_coset_instance()
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
                {group.translate(x, n_mask) for x in range(group.order)}
            )
            expected = set()
            for sel in range(1 << len(cosets)):
                acc = 0
                for i in bit_indices(sel):
                    acc |= cosets[i]
                expected.add(acc)
            assert set(opens(tg.space)) == expected

@pytest.mark.parametrize("n_mask", [0b10001, 0b100000, -1, -0b1011])
def test_coset_topology_refuses_masks_outside_the_group(n_mask):
    """A mask with a bit past the group, or a negative one, holds no
    subgroup of it, and is refused before any product reads a row past
    the table."""
    with pytest.raises(InputError, match=r"^mask is not a normal subgroup$"):
        coset_topology(cyclic(4), n_mask)

def test_constructor_accepts_exactly_the_normal_subgroups():
    """FiniteTopGroup(group, N) compares xN with Nx for one x per coset
    only; it accepts exactly the subgroups with gH = Hg for every g, on
    groups with subgroups that are not normal, and on a group with identity
    1, whose partition must still put N first."""
    klein_e1 = FiniteGroup([[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]])
    for group in (symmetric3(), dihedral(4), dihedral(6), klein_e1):
        for h in brute_force_subgroups(group):
            if literal_is_normal(group, h):
                tg = FiniteTopGroup(group, h)
                assert identity_closure(tg) == tg.atoms[0] == h
                law = quotient(tg).group.table
                assert (tg.atoms, tg.atom_of, law) == literal_partition(tg)
            else:
                with pytest.raises(InputError, match=r"^mask is not a normal subgroup$"):
                    FiniteTopGroup(group, h)

#: Calls on Z4 with a mask or an element outside the group, and the error
#: each raises in place of reading a row past the table or, for a negative
#: element, a row from its end.
OUTSIDE_Z4 = {
    "translate_mask": (lambda g: g.translate(1, 0b10000), "subset 0x10 not valid for 4 points"),
    "translate_negative_mask": (lambda g: g.translate(1, -1), "subset -0x1 not valid for 4 points"),
    "translate_element": (lambda g: g.translate(4, 0b1), "element 4 not valid for order 4"),
    "translate_negative_element": (lambda g: g.translate(-1, 0b1), "element -1 not valid for order 4"),
    "generated": (lambda g: g.generated_subgroup([7]), "element 7 not valid for order 4"),
    "generated_negative": (lambda g: g.generated_subgroup([1, -1]), "element -1 not valid for order 4"),
}

@pytest.mark.parametrize("call,message", OUTSIDE_Z4.values(), ids=OUTSIDE_Z4)
def test_set_methods_refuse_masks_and_elements_outside_the_group(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call(cyclic(4))

@pytest.mark.parametrize("mask", [0b10000, 0b10001, -1, -0b1011])
def test_subgroup_predicates_answer_false_outside_the_group(mask):
    """A set outside the group is no subgroup of it, as a non-subset is not
    open in `FiniteSpace.is_open`."""
    g = cyclic(4)
    assert g.is_subgroup(mask) is False

def test_image_and_preimage_refuse_sets_outside_their_points():
    """image takes a set of the group's points, preimage a set of atom
    indices."""
    tg = z4_coset_instance()
    with pytest.raises(InputError, match=r"^subset 0x10 not valid for 4 points$"):
        tg.image(0b10000)
    with pytest.raises(InputError, match=r"^subset -0x1 not valid for 4 points$"):
        tg.image(-1)
    with pytest.raises(InputError, match=r"^subset 0x4 not valid for 2 points$"):
        tg.preimage(0b100)
    with pytest.raises(InputError, match=r"^subset -0x1 not valid for 2 points$"):
        tg.preimage(-1)
    assert (tg.image(0b0110), tg.preimage(0b10)) == (0b11, 0b1010)


# -- quotient ----------------------------------------------------------------

def test_quotient_z4_mod_n():
    tg = z4_coset_instance()
    assert quotient(tg).group.order == 2
    assert tg.atom_of == (0, 1, 0, 1)
    assert tg.atom_of[0] == tg.atom_of[2]

def test_quotient_is_built_once_per_group(corpus_instances):
    """G/N is a value of its group: every call returns the same object, so
    no caller builds or validates it again."""
    for tg in corpus_instances:
        assert quotient(tg) is quotient(tg)
        assert quotient(tg) == quotient(FiniteTopGroup.from_space(tg.group, tg.space))

def test_quotient_runs_no_constructor_check(corpus_instances, count_calls):
    """Counter bound: quotient(tg) runs neither FiniteGroup.__init__ nor
    FiniteTopGroup.__init__, on the corpus and past 16 atoms, as
    (aN)(bN) = abN proves G/N's table a group law with N = {0}; the record
    it builds equals the one both constructors check."""
    validated = count_calls(FiniteGroup, "__init__")
    checked = count_calls(FiniteTopGroup, "__init__")
    instances = [*corpus_instances, *(FiniteTopGroup(g, n) for g, n in LARGE_INSTANCES)]
    for tg in instances:
        validated.clear()
        checked.clear()
        q = quotient(tg)
        assert (validated, checked) == ([], []), tg.group.name
        assert q == FiniteTopGroup(FiniteGroup(q.group.table, q.group.name), 1)

def test_group_topologies_and_from_space_run_no_normality_check(corpus, count_calls):
    """Counter bound: group_topologies and from_space run no
    FiniteTopGroup.__init__.  Each N of `normal_subgroups` is generated by
    conjugacy classes, and from_space's continuity checks prove U_e a
    normal subgroup; each record built so equals the checked one, on the
    corpus and on every space from_space accepts among
    `continuity_cases`."""
    checked = count_calls(FiniteTopGroup, "__init__")
    for group in corpus:
        checked.clear()
        tgs = group_topologies(group)
        spaces = [tg.space for tg in tgs]
        assert checked == [], group.name
        assert tgs == [FiniteTopGroup(group, n) for n in group.normal_subgroups()]
        checked.clear()
        assert [FiniteTopGroup.from_space(group, s) for s in spaces] == tgs
        assert checked == [], group.name
    checked.clear()
    accepted = accepted_cases.__wrapped__()
    assert checked == []
    for tg in accepted:
        assert tg == FiniteTopGroup(tg.group, tg.normal_subgroup)

def test_quotient_discrete_is_identity():
    z3 = cyclic(3)
    tg = discrete_instance(z3)
    assert quotient(tg).group.order == 3
    assert tg.atom_of == (0, 1, 2)
    assert quotient(tg).group.table == z3.table

def test_quotient_indiscrete_is_trivial():
    assert quotient(indiscrete_instance(cyclic(4))).group.order == 1

def test_quotient_projection_open_closed_hausdorff(corpus_instances):
    # the constructor re-verifies statements (i)-(v); just exercise it
    for tg in corpus_instances:
        assert hausdorff(quotient(tg).space)

def test_quotient_work_is_linear_in_order(corpus, count_calls, monkeypatch):
    """Counter bound: no closure call per quotient or per reading of the
    atoms, and no separation flag."""
    calls = count_calls(FiniteSpace, "closure")

    def unexpected_flag(self):
        raise AssertionError("quotient read a separation flag")

    for name in (
        "regular",
        "normal",
        "locally_compact",
        "strongly_locally_compact",
        "base_compact_nbhds",
        "base_closed_compact_nbhds",
    ):
        monkeypatch.setattr(FiniteSpace, name, property(unexpected_flag))
    instances = [(g, tg.space) for g in corpus for tg in group_topologies(g)]
    instances += [(g, coset_topology(g, n)) for g, n in LARGE_INSTANCES]
    for group, space in instances:
        for fn in (quotient, lambda tg: tg.atoms):
            tg = FiniteTopGroup.from_space(group, space)
            calls.clear()
            fn(tg)
            # the atoms are the distinct minimal opens, read with no closure
            assert calls == [], (group.name, fn.__name__)

def test_quotient_of_hausdorff_group_is_isomorphic_copy():
    for group in (cyclic(5), symmetric3()):
        tg = discrete_instance(group)
        assert tg.atom_of == tuple(range(group.order))
        assert quotient(tg).atom_of == tuple(range(group.order))


def test_push_pull_relabel_matches_point_level_reference(corpus_instances):
    """pushforward and pullback carry atom masses over by index; on random
    masses they equal the point-level references, on the corpus, on the
    spaces FiniteTopGroup accepts among `continuity_cases` and on
    LARGE_INSTANCES.  There the opens are too many to list, so N is the
    instance's normal subgroup and, G/N being Hausdorff, its points are
    closed and its N is {e}.  The labelling the relabel rests on holds:
    G/N has identity 0 and its atoms are its points in order."""
    cases = [(tg, None) for tg in [*corpus_instances, *accepted_cases()]]
    cases += [(FiniteTopGroup(g, n), n) for g, n in LARGE_INSTANCES]
    rng = random.Random(61)
    for tg, n_base in cases:
        q, k = quotient(tg), len(tg.atoms)
        assert q.atoms == tuple(1 << i for i in range(k))
        assert q.group.identity == 0
        n_quotient = None
        if n_base is not None:
            assert hausdorff(q.space)
            n_quotient = 1 << q.group.identity
        mu = FiniteMeasure(tg, [random_fraction(rng) for _ in range(k)])
        nu = FiniteMeasure(q, [random_fraction(rng) for _ in range(k)])
        assert pushforward(tg, mu) == literal_pushforward(tg, mu, n_base, n_quotient)
        assert pullback(tg, nu) == literal_pullback(tg, nu, n_base, n_quotient)


# -- borel atoms -------------------------------------------------------------

def test_borel_atoms_examples():
    tg = z4_coset_instance()
    assert tg.atoms == (0b0101, 0b1010)
    assert discrete_instance(cyclic(3)).atoms == (0b001, 0b010, 0b100)
    assert indiscrete_instance(cyclic(3)).atoms == (0b111,)

def test_borel_atoms_partition(corpus_instances):
    for tg in corpus_instances:
        atoms = tg.atoms
        acc = 0
        for a in atoms:
            assert acc & a == 0
            acc |= a
            assert tg.space.is_open(a) and tg.space.is_closed(a)
        assert acc == tg.space.full


# -- literal references ------------------------------------------------------
#
# The library reads the atoms and the quotient off the stored N, as the
# FiniteTopGroup docstring argues.  The references in literal.py check each
# statement literally, on the topology they build from the group and N by
# pairwise products: over all 2^k opens of the base, every subset of a
# quotient of at most 12 points, and every pair of atom unions up to 8 atoms.

@functools.cache
def accepted_cases():
    """The spaces FiniteTopGroup accepts among `continuity_cases`, as
    FiniteTopGroups; every rejection names its witness."""
    accepted = []
    for group, space in continuity_cases():
        try:
            accepted.append(FiniteTopGroup.from_space(group, space))
        except InputError as exc:
            assert str(exc).startswith("incompatible topology: witness:"), exc
    return tuple(accepted)

def test_generator_checks_match_literal_references(corpus_instances):
    """On the corpus, and on every space FiniteTopGroup accepts among
    `continuity_cases` (every topology of at most 4 points with every group
    of that order, and the random preorders), the atoms, atom_of, G/N's
    table and the quotient equal the literal references, which validate
    the quotient's table and check its topology."""
    accepted = accepted_cases()
    for tg in [*corpus_instances, *accepted]:
        law = quotient(tg).group.table
        assert (tg.atoms, tg.atom_of, law) == literal_partition(tg)
        assert reference_borel_atoms(tg) == tg.atoms
        q, ref = quotient(tg), reference_quotient(tg)
        assert q == ref and q.group.name == ref.group.name
        assert q.space.min_open == ref.space.min_open
    assert len(accepted) == 144

Z6_ATOMS = ((0b001001, 0b010010, 0b100100), (0, 1, 2, 0, 1, 2))

def z6_mod_3():
    """Z6 mod {0, 3}: atoms {0,3} {1,4} {2,5} and atom_of (0,1,2,0,1,2)."""
    z6 = cyclic(6)
    tg = FiniteTopGroup(z6, 0b001001)
    assert tg._partition == Z6_ATOMS
    return tg

#: Partitions set through the cached _partition of z6_mod_3().  The library
#: trusts _partition, which its construction proves; the literal references
#: reject each of these.
Z6_TAMPERS = {
    # two atom_of labels swapped: 1 -> atom 2, 2 -> atom 1
    "labels_swapped": (Z6_ATOMS[0], (0, 2, 1, 0, 1, 2)),
    # point 4 moved from the coset {1,4} to {2,5}, labels following
    "point_moved": ((0b001001, 0b000010, 0b110100), (0, 1, 2, 0, 2, 2)),
    # point 4 dropped from its atom, its label kept
    "point_dropped": ((0b001001, 0b000010, 0b100100), (0, 1, 2, 0, 1, 2)),
}

@pytest.mark.parametrize("partition", Z6_TAMPERS.values(), ids=Z6_TAMPERS)
def test_tampered_partitions_rejected(partition):
    for fn, errors in (
        # the literal quotient may also fail on the quotient's Cayley table
        (reference_quotient, (InternalInconsistency, ValueError)),
        (reference_borel_atoms, InternalInconsistency),
    ):
        tg = z6_mod_3()
        object.__setattr__(tg, "_partition", partition)
        with pytest.raises(errors):
            fn(tg)

def test_quotient_rejects_non_coset_partition():
    """Atoms {0,1,3,4} {2,5} are clopen and saturated, and their table from
    the representatives 0 and 2 is a group, but 1 + 1 = 2 maps atom 0 to
    atom 1: the projection is not a homomorphism."""
    tg = z6_mod_3()
    object.__setattr__(tg, "_partition", ((0b011011, 0b100100), (0, 0, 1, 0, 0, 1)))
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        reference_quotient(tg)

def test_borel_atoms_rejects_non_coset_partition():
    """The same atoms {0,1,3,4} {2,5} are clopen unions of cosets and
    saturate every open, but the minimal open and the closure of 0 are
    {0,3}, not its atom."""
    tg = z6_mod_3()
    object.__setattr__(tg, "_partition", ((0b011011, 0b100100), (0, 0, 1, 0, 0, 1)))
    with pytest.raises(InternalInconsistency, match="atom is not a point closure"):
        reference_borel_atoms(tg)

def test_quotient_checks_hausdorff():
    """With the base's N swapped for the whole group behind the cached
    atoms, the final topology on Z6/{0,3} is indiscrete, not the discrete
    quotient the atoms give."""
    tg = z6_mod_3()
    object.__setattr__(tg, "normal_subgroup", 0b111111)
    with pytest.raises(InternalInconsistency, match="not the image family"):
        reference_quotient(tg)


# -- the atom table ------------------------------------------------------------

def test_atom_table_matches_per_element_permutations(corpus_instances):
    """G/N's table, the group law on atoms that `measure` and `covering`
    read, holds in row i and column i the left and right translations by
    every element of atom i."""
    for tg in corpus_instances:
        table = quotient(tg).group.table
        assert tg.reps == tuple(min(bit_indices(a)) for a in tg.atoms)
        for elem in range(tg.group.order):
            i = tg.atom_of[elem]
            assert reference_atom_perm(tg, elem, "left") == table[i]
            assert reference_atom_perm(tg, elem, "right") == tuple(
                row[i] for row in table
            )


# -- atom selections -----------------------------------------------------------

def test_selection_inverts_preimage(corpus_instances):
    for tg in corpus_instances:
        k = len(tg.atoms)
        if k <= 8:
            assert all(tg.selection(tg.preimage(s)) == s for s in range(1 << k))

def test_selection_rejects_sets_that_are_not_unions_of_atoms():
    tg = z4_coset_instance()
    with pytest.raises(InputError, match=r"^set 0x7 cuts atom 0xa$"):
        tg.selection(0b0111)
    # bit 4 lies past the 4 points
    with pytest.raises(InputError, match=r"^set 0x15 is not a union of atoms$"):
        tg.selection(0b10101)
    with pytest.raises(InputError, match=r"^set -0x1 is not a union of atoms$"):
        tg.selection(-1)


# -- products ----------------------------------------------------------------

def test_product_cells_are_the_product_atoms(corpus_instances):
    """`product_cells` gives the atoms of the reference product, in (i, j)
    order, on every pair of corpus topologies with product order <= 64."""
    pairs = [
        (g, h)
        for g in corpus_instances
        for h in corpus_instances
        if g.group.order * h.group.order <= 64
    ]
    for g, h in pairs:
        assert product_cells(g, h) == list(product_group(g, h).atoms), (g, h)
    assert len(pairs) == 2568
    s3 = symmetric3()
    assert direct_product(s3, trivial_group()).table == s3.table

def test_product_discrete_times_indiscrete():
    g, h = discrete_instance(cyclic(2)), indiscrete_instance(cyclic(2))
    p = product_group(g, h)
    assert identity_closure(p) == 0b0011  # {e} x Z2
    assert len(p.atoms) == 2
    assert product_cells(g, h) == [0b0011, 0b1100]

def test_product_with_trivial_is_copy():
    g = discrete_instance(symmetric3())
    p = product_group(g, discrete_instance(trivial_group()))
    assert p.group.table == g.group.table
    assert len(p.atoms) == 6

def test_product_indiscrete_squared():
    g = indiscrete_instance(cyclic(2))
    p = product_group(g, g)
    assert len(p.atoms) == 1
    assert opens(p.space) == (0, 0b1111)
    assert product_cells(g, g) == [0b1111]

def test_product_order_cap():
    with pytest.raises(TooLarge):
        direct_product(cyclic(9), cyclic(9))

@pytest.mark.parametrize(
    "make,n", [(cyclic, 10**5000), (dihedral, 5 * 10**4299)], ids=["cyclic", "dihedral"]
)
def test_order_past_int_text_is_too_large(make, n):
    """An order with more digits than an int converts to text still raises
    TooLarge, with a message that does not name it."""
    with pytest.raises(TooLarge, match=r"^order past 2\^64 outside 1\.\.64$"):
        make(n)
