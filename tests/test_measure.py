import random
import tracemalloc
from fractions import Fraction

import pytest

from haarlab import (
    FiniteGroup,
    FiniteMeasure,
    FiniteTopGroup,
    PointFunction,
    canonical_haar,
    cyclic,
    dihedral,
    direct_product,
    fubini_check,
    group_topologies,
    haar_solution_space,
    integrate,
    is_haar,
    pullback,
    pushforward,
    quotient,
    riesz_check,
    symmetric3,
)
from haarlab.errors import InputError
from haarlab import measure
from haarlab.measure import HaarReport
from haarlab.topology import bit_indices

from conftest import (
    LARGE_INSTANCES,
    discrete_instance,
    indiscrete_instance,
    random_fraction,
    z4_coset_instance,
)
from literal import literal_is_haar, literal_regularity
from literal import literal_singleton_invariance, literal_solution_space


# -- FiniteMeasure basics ----------------------------------------------------

def test_measure_validation():
    tg = z4_coset_instance()
    with pytest.raises(InputError, match=r"^3 masses for 2 atoms$"):
        FiniteMeasure(tg, (1, 1, 1))
    with pytest.raises(ValueError):
        FiniteMeasure(tg, (1, -1))

def test_mass_of_point_masks():
    """The mass of a Borel set given as a point mask: the atom masses summed
    over the selection `FiniteTopGroup.selection` converts it to."""
    tg = z4_coset_instance()
    mu = FiniteMeasure(tg, (Fraction(1, 2), Fraction(3)))

    def mass_of(mask):
        return sum((mu.atom_mass[i] for i in bit_indices(tg.selection(mask))), Fraction(0))

    assert mu.total() == Fraction(7, 2)
    assert mass_of(0b0101) == Fraction(1, 2)
    assert mass_of(0b1111) == Fraction(7, 2)
    assert mass_of(0) == 0
    with pytest.raises(InputError, match=r"^set 0x1 cuts atom 0x5$"):
        mass_of(0b0001)  # cuts an atom


# -- is_haar -----------------------------------------------------------------

def test_is_haar_z4_coset_canonical():
    tg = z4_coset_instance()
    report = is_haar(tg, FiniteMeasure(tg, (1, 1)))
    assert report.is_haar
    assert report.left_invariant and report.right_invariant
    assert report.outer_regular and report.inner_regular_on_opens
    assert report.witnesses == ()

def test_is_haar_z4_unbalanced_masses():
    tg = z4_coset_instance()
    report = is_haar(tg, FiniteMeasure(tg, (1, 2)))
    assert not report.left_invariant
    assert not report.is_haar
    # translation by 1 swaps the atoms; first failing set is atom {0,2}
    side, sel, elem = report.witnesses[0]
    assert (side, sel, elem) == ("left", 0b01, 1)
    assert tg.atoms[0] == 0b0101

def test_is_haar_zero_measure():
    tg = z4_coset_instance()
    report = is_haar(tg, FiniteMeasure(tg, (0, 0)))
    assert not report.nonzero
    assert not report.is_haar
    # invariance and regularity still hold for the zero measure
    assert report.left_invariant and report.outer_regular

def test_is_haar_accepts_a_measure_on_an_equal_group():
    """A measure lives on every group equal to its own, not only on the
    same object."""
    tg, twin = z4_coset_instance(), z4_coset_instance()
    assert tg == twin and tg is not twin
    assert is_haar(twin, canonical_haar(tg)).is_haar

def test_is_haar_side_argument():
    tg = discrete_instance(symmetric3())
    mu = canonical_haar(tg)
    assert is_haar(tg, mu, "left").is_haar
    assert is_haar(tg, mu, "right").is_haar
    with pytest.raises(ValueError):
        is_haar(tg, mu, "both")

#: Calls that each pass one measure on another group: tg is the Z4 coset
#: group and h is Z2 discrete, mu lives on tg (not on G/N) and stray on h.
STRAY_MEASURE_CALLS = {
    "is_haar": lambda tg, h, mu, stray: is_haar(tg, stray),
    "integrate": lambda tg, h, mu, stray: integrate(tg, PointFunction((1,) * 4), stray),
    "riesz_check_first": lambda tg, h, mu, stray: riesz_check(tg, stray, mu),
    "riesz_check_second": lambda tg, h, mu, stray: riesz_check(tg, mu, stray),
    "fubini_check_first": lambda tg, h, mu, stray: fubini_check(
        tg, h, PointFunction((1,) * 8), stray, stray
    ),
    "fubini_check_second": lambda tg, h, mu, stray: fubini_check(
        tg, h, PointFunction((1,) * 8), mu, mu
    ),
    "pushforward": lambda tg, h, mu, stray: pushforward(tg, stray),
    "pullback": lambda tg, h, mu, stray: pullback(tg, mu),
}

@pytest.mark.parametrize("call", STRAY_MEASURE_CALLS.values(), ids=STRAY_MEASURE_CALLS)
def test_measure_on_another_group_is_refused(call):
    """Each function that takes a measure refuses one on another group,
    with the one message of `_check_measure`."""
    tg, h = z4_coset_instance(), discrete_instance(cyclic(2))
    with pytest.raises(InputError, match=r"^measure lives on a different group$"):
        call(tg, h, canonical_haar(tg), canonical_haar(h))


# -- is_haar against the literal Fraction sweep --------------------------------

def test_literal_regularity_sees_a_failure():
    # the reference computes its extrema: with a negative atom mass, forced
    # past FiniteMeasure's check, the empty set has a lighter open superset
    # and atom 1 a heavier closed subset (the empty set)
    tg = z4_coset_instance()
    mu = FiniteMeasure(tg, (1, 1))
    object.__setattr__(mu, "atom_mass", (Fraction(1), Fraction(-1)))
    assert literal_regularity(tg, mu) == (
        [False, False], [("outer", 0, None), ("inner", 0b10, None)]
    )

def assert_matches_literal(tg, mu):
    # the reference does the same work for both sides; only `side` differs
    ref = literal_is_haar(tg, mu, "left")
    for side in ("left", "right"):
        expected = HaarReport(
            side, ref.nonzero, ref.left_invariant, ref.right_invariant, ref.witnesses
        )
        assert is_haar(tg, mu, side) == expected, (tg, mu, side)

def reversed_labels(group):
    """The group with element x renamed n - 1 - x: the identity is the
    largest label, so N's smallest member is above other atoms' ones."""
    n = group.order
    table = [[n - 1 - group.mul(n - 1 - a, n - 1 - b) for b in range(n)]
             for a in range(n)]
    return FiniteGroup(table, name=f"{group.name}~")

def test_is_haar_matches_literal_sweep(corpus_instances):
    rng = random.Random(2309)
    relabelled = [
        tg
        for group in (cyclic(6), symmetric3(), dihedral(4), cyclic(12))
        for tg in group_topologies(reversed_labels(group))
    ]
    # the identity's atom comes first but has the larger representative
    assert sum(tg.reps[0] > min(tg.reps) for tg in relabelled) >= 5
    for tg in list(corpus_instances) + relabelled:
        k = len(tg.atoms)
        canon = canonical_haar(tg)
        masses = [canon, canon.scaled(Fraction(7, 3))]
        for changed in (1, 2):
            atom_mass = list(canon.scaled(Fraction(5, 2)).atom_mass)
            for i in rng.sample(range(k), min(changed, k)):
                atom_mass[i] = random_fraction(rng, max_num=5)
            if changed == 2:
                atom_mass[rng.randrange(k)] = Fraction(0)
            masses.append(FiniteMeasure(tg, tuple(atom_mass)))
        for mu in masses:
            assert_matches_literal(tg, mu)

def test_is_haar_matches_literal_sweep_16_atoms():
    tg = discrete_instance(cyclic(16))
    mu = FiniteMeasure(tg, (1,) * 9 + (Fraction(3, 2),) + (1,) * 6)
    assert not is_haar(tg, mu).is_haar
    assert_matches_literal(tg, mu)

def past_16_atoms():
    """Z24, Z2 x Z16 and Z64 discrete (24, 32 and 64 atoms), and Z64/{0,32}
    (32 atoms of two points)."""
    z64 = cyclic(64)
    return [
        FiniteTopGroup(group, normal)
        for group, normal in (
            (cyclic(24), 1),
            (direct_product(cyclic(2), cyclic(16)), 1),
            (z64, 1),
            (z64, z64.generated_subgroup([32])),
        )
    ]

def test_is_haar_matches_singleton_reference_past_16_atoms():
    rng = random.Random(4021)
    instances = past_16_atoms()
    for tg in instances:
        k = len(tg.atoms)
        canon = canonical_haar(tg)
        masses = [canon, canon.scaled(Fraction(7, 3))]
        for mass in (1 + Fraction(rng.randint(1, 5), rng.randint(1, 5)), Fraction(0)):
            atom_mass = list(canon.atom_mass)
            atom_mass[rng.randrange(1, k)] = mass
            masses.append(FiniteMeasure(tg, tuple(atom_mass)))
        for mu in masses:
            left, right, witnesses = literal_singleton_invariance(tg, mu)
            # translation permutes the atoms transitively
            equal = mu == canon.scaled(mu.atom_mass[0])
            assert left == right == equal
            for side in ("left", "right"):
                report = is_haar(tg, mu, side)
                assert report.left_invariant == left, (tg, mu, side)
                assert report.right_invariant == right, (tg, mu, side)
                assert report.witnesses == witnesses, (tg, mu, side)
                assert report.is_haar == (equal and any(mu.atom_mass))
    # a fixed case: on discrete Z64 with atom 40 heavier, translation by 1
    # moves the light atom 39 onto it, on either side
    tg = instances[2]
    atom_mass = [Fraction(1)] * 64
    atom_mass[40] = Fraction(3, 2)
    mu = FiniteMeasure(tg, atom_mass)
    witnesses = (("left", 1 << 39, 1), ("right", 1 << 39, 1))
    assert literal_singleton_invariance(tg, mu) == (False, False, witnesses)
    assert is_haar(tg, mu).witnesses == witnesses
    assert tg.preimage(1 << 39) == 1 << 39

def test_is_haar_work_is_linear_in_atoms(corpus_instances, count_calls, monkeypatch):
    """Counter bound: each side compares at most k pairs of atom weights
    for each of the k atoms of elements, so at most 2k^2 comparisons (two
    weight reads each), and no table over the 2^k atom selections is
    built: past 10 atoms is_haar's peak allocation stays under the 8 KiB
    that a 2^10-entry list of pointers alone would take.

    verify-haar's heaviest input under the caps is a group of order 64
    with the discrete topology, 64 atoms, among them discrete Z64 here:
    at most 2 * 64^2 comparisons."""

    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            assert isinstance(i, int)
            self.reads += 1
            return super().__getitem__(i)

    z48 = cyclic(48)
    n4 = z48.generated_subgroup([12])
    instances = list(corpus_instances)
    instances.append(FiniteTopGroup(z48, n4))
    assert len(instances[-1].atoms) == 12
    instances += past_16_atoms()
    sides = count_calls(measure, "_check_invariance")
    for tg in instances:
        k = len(tg.atoms)
        sides.clear()
        assert is_haar(tg, canonical_haar(tg)).is_haar
        assert [call.args[2] for call in sides] == ["left", "right"]
        reads = 0
        for g, weights, side in [call.args for call in sides]:
            weights = CountingList(weights)
            assert measure._check_invariance(g, weights, side) is None
            reads += weights.reads
        assert 0 < reads <= 2 * (2 * k * k), tg
    monkeypatch.undo()
    for tg in instances:
        if len(tg.atoms) >= 10:
            mu = canonical_haar(tg)
            tracemalloc.start()
            try:
                assert is_haar(tg, mu).is_haar
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 << 10, (tg, peak)

def test_is_haar_atom_cap():
    # no cap on the atom count: 32 atoms are checked like any other
    z64 = cyclic(64)
    tg = FiniteTopGroup(z64, z64.generated_subgroup([32]))
    assert len(tg.atoms) == 32
    report = is_haar(tg, canonical_haar(tg))
    assert report.is_haar and report.witnesses == ()


# -- canonical_haar ----------------------------------------------------------

def test_canonical_examples():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    assert mu.atom_mass == (Fraction(1), Fraction(1))
    assert mu.total() == 2
    assert canonical_haar(discrete_instance(cyclic(3))).atom_mass == (1, 1, 1)
    assert canonical_haar(indiscrete_instance(cyclic(5))).atom_mass == (1,)

def test_canonical_is_haar_everywhere(corpus_instances):
    for tg in corpus_instances:
        report = is_haar(tg, canonical_haar(tg))
        assert report.is_haar
        assert report.left_invariant and report.right_invariant


# -- solution space ----------------------------------------------------------

def test_solution_space_examples():
    dim, basis = haar_solution_space(z4_coset_instance())
    assert dim == 1
    assert basis[0].atom_mass == (1, 1)
    s3 = symmetric3()
    a3 = s3.generated_subgroup([s3.mul(1, 2)])  # a 3-cycle generates A3
    tg = FiniteTopGroup(s3, a3)
    dim, basis = haar_solution_space(tg)
    assert dim == 1
    assert basis[0].atom_mass == canonical_haar(tg).atom_mass

def test_solution_space_matches_point_level_orbits(corpus_instances):
    instances = list(corpus_instances)
    instances += [FiniteTopGroup(g, n) for g, n in LARGE_INSTANCES]
    for tg in instances:
        dim, basis = haar_solution_space(tg)
        assert (dim, [mu.atom_mass for mu in basis]) == literal_solution_space(tg)

def test_uniqueness_over_corpus(corpus_instances):
    rng = random.Random(405)
    for tg in corpus_instances:
        dim, basis = haar_solution_space(tg)
        assert dim == 1
        assert basis[0].atom_mass == canonical_haar(tg).atom_mass
        # any two Haar measures differ by the total-mass ratio
        mu = canonical_haar(tg)
        a = random_fraction(rng) + 1
        scaled = mu.scaled(a)
        assert is_haar(tg, scaled).is_haar
        assert scaled.total() / mu.total() == a
        assert scaled.atom_mass == mu.scaled(a).atom_mass


# -- pushforward / pullback --------------------------------------------------

def test_pushforward_examples():
    tg = z4_coset_instance()
    nu = pushforward(tg, FiniteMeasure(tg, (3, 3)))
    assert nu.atom_mass == (3, 3)
    assert pushforward(tg, canonical_haar(tg)).atom_mass == (1, 1)
    assert pushforward(tg, FiniteMeasure(tg, (0, 0))).atom_mass == (0, 0)
    with pytest.raises(InputError, match=r"^measure lives on a different group$"):
        pushforward(tg, canonical_haar(quotient(tg)))

def test_pullback_examples():
    tg = z4_coset_instance()
    counting = canonical_haar(quotient(tg))
    assert pullback(tg, counting).atom_mass == (1, 1)
    assert pullback(tg, counting.scaled(5)).atom_mass == (5, 5)
    assert pullback(tg, counting.scaled(0)).atom_mass == (0, 0)
    with pytest.raises(InputError, match=r"^measure lives on a different group$"):
        pullback(tg, canonical_haar(tg))

def test_pushforward_pullback_inverse_pair(corpus_instances):
    rng = random.Random(53)
    for tg in corpus_instances:
        mu = canonical_haar(tg).scaled(random_fraction(rng) + 1)
        # base atoms biject with quotient points, so the round trips are
        # exact identities
        rt = pullback(tg, pushforward(tg, mu))
        assert rt.atom_mass == mu.atom_mass
        nu = canonical_haar(quotient(tg)).scaled(random_fraction(rng) + 1)
        rt2 = pushforward(tg, pullback(tg, nu))
        assert rt2.atom_mass == nu.atom_mass
        # Haar in -> Haar out, both directions
        assert is_haar(quotient(tg), pushforward(tg, mu)).is_haar
        assert is_haar(tg, pullback(tg, nu)).is_haar


# -- integration -------------------------------------------------------------

def test_integrate_examples():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    one = PointFunction((1,) * 4)
    assert integrate(tg, one, mu) == 2
    assert integrate(tg, PointFunction((0,) * 4), mu) == 0
    f = PointFunction.indicator(4, tg.atoms[1])
    assert integrate(tg, f, mu) == 1

def test_integrate_errors():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    with pytest.raises(InputError, match=r"^function not constant on atom 0x5$"):
        integrate(tg, PointFunction.indicator(4, 0b0001), mu)
    with pytest.raises(InputError, match=r"^function defined on a different point set$"):
        integrate(tg, PointFunction((1,) * 3), mu)

def test_integral_translation_invariance(corpus_instances):
    for tg in corpus_instances:
        mu = canonical_haar(tg)
        for a in tg.atoms:
            f = PointFunction.indicator(tg.group.order, a)
            base = integrate(tg, f, mu)
            for g_elem in range(tg.group.order):
                shifted_vals = tuple(
                    f.values[tg.group.mul(g_elem, x)]
                    for x in range(tg.group.order)
                )
                shifted = PointFunction(shifted_vals)
                assert integrate(tg, shifted, mu) == base


# -- fubini ------------------------------------------------------------------

def test_fubini_constant():
    g = z4_coset_instance()
    h = discrete_instance(cyclic(3))
    mu, lam = canonical_haar(g), canonical_haar(h)
    f = PointFunction((1,) * 12)
    lhs, rhs = fubini_check(g, h, f, mu, lam)
    assert lhs == rhs == mu.total() * lam.total()

def test_fubini_product_indicator():
    g = discrete_instance(cyclic(2))
    h = indiscrete_instance(cyclic(2))
    # indicator of {e} x Z2 in the product of Z2(disc) x Z2(indisc)
    vals = tuple(Fraction(1) if x == 0 else Fraction(0) for x in (0, 0, 1, 1))
    f = PointFunction(vals)
    lhs, rhs = fubini_check(g, h, f, canonical_haar(g), canonical_haar(h))
    assert lhs == rhs == 1

def test_fubini_non_measurable_slice():
    g = discrete_instance(cyclic(2))
    h = indiscrete_instance(cyclic(2))
    # not constant on the product atom {0} x Z2
    f = PointFunction((1, 0, 0, 0))
    with pytest.raises(InputError, match=r"^function not constant on product atom 0x3$"):
        fubini_check(g, h, f, canonical_haar(g), canonical_haar(h))

def test_fubini_refuses_a_function_off_the_product_points():
    g, h = discrete_instance(cyclic(4)), discrete_instance(cyclic(2))
    f = PointFunction((0,) * 7)
    with pytest.raises(InputError, match=r"^function not defined on the product points$"):
        fubini_check(g, h, f, canonical_haar(g), canonical_haar(h))

def test_fubini_random_functions_exact():
    rng = random.Random(309)
    g = z4_coset_instance()
    h = discrete_instance(symmetric3())
    mu = canonical_haar(g).scaled(Fraction(2, 7))
    lam = canonical_haar(h).scaled(Fraction(5, 3))
    for _ in range(20):
        # random atom-constant function on the product
        vals = [None] * (g.group.order * h.group.order)
        for a in g.atoms:
            for b in h.atoms:
                v = random_fraction(rng, nonneg=False)
                for x in bit_indices(a):
                    for y in bit_indices(b):
                        vals[x * h.group.order + y] = v
        lhs, rhs = fubini_check(g, h, PointFunction(tuple(vals)), mu, lam)
        assert lhs == rhs


# -- riesz -------------------------------------------------------------------

def test_riesz_examples():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    assert riesz_check(tg, mu, mu)
    assert not riesz_check(tg, FiniteMeasure(tg, (1, 1)), FiniteMeasure(tg, (1, 2)))
    zero = FiniteMeasure(tg, (0, 0))
    assert riesz_check(tg, zero, zero)

def test_riesz_iff_equal(corpus_instances):
    rng = random.Random(77)
    for tg in corpus_instances:
        m1 = FiniteMeasure(tg, tuple(random_fraction(rng) for _ in tg.atoms))
        m2 = FiniteMeasure(tg, tuple(random_fraction(rng) for _ in tg.atoms))
        assert riesz_check(tg, m1, m2) == (m1.atom_mass == m2.atom_mass)
        assert riesz_check(tg, m1, m1)
