import random
from fractions import Fraction

import pytest

from haarlab import (
    FiniteMeasure,
    FiniteSpace,
    PointFunction,
    canonical_haar,
    coset_topology,
    cyclic,
    fubini_check,
    haar_solution_space,
    integrate,
    invert_measure,
    is_haar,
    positivity_report,
    pullback,
    pushforward,
    quotient,
    riesz_check,
    symmetric3,
    validate_top_group,
)
from haarlab.errors import MeasureSpaceMismatch, NotHaar, NotMeasurable, TooLarge
from haarlab import measure
from haarlab.measure import HaarReport, PositivityReport, is_radon
from haarlab.topology import bit_indices

from conftest import random_fraction


def z4_coset_instance():
    z4 = cyclic(4)
    return validate_top_group(z4, coset_topology(z4, 0b0101))

def discrete_instance(group):
    return validate_top_group(
        group, FiniteSpace(group.order, range(1 << group.order))
    )

def indiscrete_instance(group):
    full = (1 << group.order) - 1
    return validate_top_group(group, FiniteSpace(group.order, [0, full]))


# -- FiniteMeasure basics ----------------------------------------------------

def test_measure_validation():
    tg = z4_coset_instance()
    with pytest.raises(MeasureSpaceMismatch):
        FiniteMeasure(tg, (1, 1, 1))
    with pytest.raises(ValueError):
        FiniteMeasure(tg, (1, -1))

def test_mass_of_point_masks():
    tg = z4_coset_instance()
    mu = FiniteMeasure(tg, (Fraction(1, 2), Fraction(3)))
    assert mu.total() == Fraction(7, 2)
    assert mu.mass_of(0b0101) == Fraction(1, 2)
    assert mu.mass_of(0b1111) == Fraction(7, 2)
    assert mu.mass_of(0) == 0
    with pytest.raises(NotMeasurable):
        mu.mass_of(0b0001)  # cuts an atom


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

def test_is_haar_side_argument():
    tg = discrete_instance(symmetric3())
    mu = canonical_haar(tg)
    assert is_haar(tg, mu, "left").is_haar
    assert is_haar(tg, mu, "right").is_haar
    with pytest.raises(ValueError):
        is_haar(tg, mu, "both")

def test_is_haar_mismatch():
    tg = z4_coset_instance()
    other = discrete_instance(cyclic(2))
    with pytest.raises(MeasureSpaceMismatch):
        is_haar(tg, canonical_haar(other))


# -- is_haar against the literal Fraction sweep --------------------------------

def literal_is_haar(g, mu, side):
    """Reference: Fraction masses of every selection, each translate built
    bit by bit for every group element, regularity scans as in is_haar."""
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
    # outer: inf over supersets, visited upward; inner: sup over subsets,
    # visited downward; each scan stops once the extremum is the set's mass
    regular = {}
    full = (1 << k) - 1
    for kind, pick, step, last in (
        ("outer", min, lambda s, sel: (s + 1) | sel, lambda s: s == full),
        ("inner", max, lambda s, sel: (s - 1) & sel, lambda s: s == 0),
    ):
        regular[kind] = True
        for sel in range(1 << k):
            s = sel
            best = masses[s]
            while best != masses[sel] and not last(s):
                s = step(s, sel)
                best = pick(best, masses[s])
            if best != masses[sel]:
                regular[kind] = False
                witnesses.append((kind, sel, None))
                break
    return HaarReport(
        side=side,
        nonzero=any(m > 0 for m in mu.atom_mass),
        left_invariant=invariant["left"],
        right_invariant=invariant["right"],
        locally_finite=True,
        outer_regular=regular["outer"],
        inner_regular_on_opens=regular["inner"],
        witnesses=tuple(witnesses),
    )

def assert_matches_literal(tg, mu):
    # the reference does the same work for both sides; only `side` differs
    ref = literal_is_haar(tg, mu, "left")
    for side in ("left", "right"):
        assert is_haar(tg, mu, side) == ref.replace(side=side), (tg, mu, side)

def test_is_haar_matches_literal_sweep(corpus_instances):
    rng = random.Random(2309)
    for tg in corpus_instances:
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

def test_is_haar_work_is_linear_in_atoms(corpus_instances, monkeypatch):
    # one subset-sum table for the measure, then at most one per distinct
    # atom permutation on each side; there are at most k of those
    tables = []
    sums = measure._subset_sums

    def counting_sums(weights):
        tables.append(len(weights))
        return sums(weights)

    monkeypatch.setattr(measure, "_subset_sums", counting_sums)
    z48 = cyclic(48)
    n4 = z48.generated_subgroup([12])
    instances = list(corpus_instances)
    instances.append(validate_top_group(z48, coset_topology(z48, n4)))
    assert len(instances[-1].atoms) == 12
    for tg in instances:
        k = len(tg.atoms)
        tables.clear()
        assert is_haar(tg, canonical_haar(tg)).is_haar
        assert 1 <= len(tables) <= 1 + 2 * k, tg
        tables.clear()
        assert is_radon(tg, canonical_haar(tg))
        assert len(tables) == 1, tg

def test_is_haar_atom_cap():
    z64 = cyclic(64)
    tg = validate_top_group(z64, coset_topology(z64, z64.generated_subgroup([32])))
    assert len(tg.atoms) == 32
    for check in (is_radon, is_haar):
        with pytest.raises(TooLarge):
            check(tg, canonical_haar(tg))


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
    tg = validate_top_group(s3, coset_topology(s3, a3))
    dim, basis = haar_solution_space(tg)
    assert dim == 1
    assert basis[0].atom_mass == canonical_haar(tg).atom_mass

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


# -- inversion ---------------------------------------------------------------

def test_invert_examples():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    assert invert_measure(tg, mu).atom_mass == mu.atom_mass
    s3 = discrete_instance(symmetric3())
    nu = canonical_haar(s3)
    assert invert_measure(s3, nu).atom_mass == nu.atom_mass
    zero = FiniteMeasure(tg, (0, 0))
    assert invert_measure(tg, zero).is_zero()

def test_invert_involution_and_side_swap(corpus_instances):
    rng = random.Random(48)
    for tg in corpus_instances:
        masses = tuple(random_fraction(rng) for _ in tg.atoms)
        mu = FiniteMeasure(tg, masses)
        back = invert_measure(tg, invert_measure(tg, mu))
        assert back.atom_mass == mu.atom_mass
        rep = is_haar(tg, mu)
        rep_inv = is_haar(tg, invert_measure(tg, mu))
        assert rep.left_invariant == rep_inv.right_invariant
        assert rep.right_invariant == rep_inv.left_invariant


# -- pushforward / pullback --------------------------------------------------

def test_pushforward_examples():
    tg = z4_coset_instance()
    q = quotient(tg)
    nu = pushforward(q, FiniteMeasure(tg, (3, 3)))
    assert nu.atom_mass == (3, 3)
    assert pushforward(q, canonical_haar(tg)).atom_mass == (1, 1)
    assert pushforward(q, FiniteMeasure(tg, (0, 0))).is_zero()
    with pytest.raises(MeasureSpaceMismatch):
        pushforward(q, canonical_haar(q.quotient))

def test_pullback_examples():
    tg = z4_coset_instance()
    q = quotient(tg)
    counting = canonical_haar(q.quotient)
    assert pullback(q, counting).atom_mass == (1, 1)
    assert pullback(q, counting.scaled(5)).atom_mass == (5, 5)
    assert pullback(q, counting.scaled(0)).is_zero()
    with pytest.raises(MeasureSpaceMismatch):
        pullback(q, canonical_haar(tg))

def test_pushforward_pullback_inverse_pair(corpus_instances):
    rng = random.Random(53)
    for tg in corpus_instances:
        q = quotient(tg)
        mu = canonical_haar(tg).scaled(random_fraction(rng) + 1)
        # base atoms biject with quotient points, so the round trips are
        # exact identities
        rt = pullback(q, pushforward(q, mu))
        assert rt.atom_mass == mu.atom_mass
        nu = canonical_haar(q.quotient).scaled(random_fraction(rng) + 1)
        rt2 = pushforward(q, pullback(q, nu))
        assert rt2.atom_mass == nu.atom_mass
        # Haar in -> Haar out, both directions
        assert is_haar(q.quotient, pushforward(q, mu)).is_haar
        assert is_haar(tg, pullback(q, nu)).is_haar


# -- integration -------------------------------------------------------------

def test_integrate_examples():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    one = PointFunction.constant(4, 1)
    assert integrate(tg, one, mu) == 2
    assert integrate(tg, PointFunction.constant(4, 0), mu) == 0
    f = PointFunction.indicator(4, tg.atoms[1])
    assert integrate(tg, f, mu) == 1

def test_integrate_errors():
    tg = z4_coset_instance()
    mu = canonical_haar(tg)
    with pytest.raises(NotMeasurable):
        integrate(tg, PointFunction.indicator(4, 0b0001), mu)
    with pytest.raises(MeasureSpaceMismatch):
        integrate(tg, PointFunction.constant(3, 1), mu)

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
    f = PointFunction.constant(12, 1)
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
    with pytest.raises(NotMeasurable):
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


# -- positivity --------------------------------------------------------------

def test_positivity_examples(corpus_instances):
    for tg in corpus_instances:
        rep = positivity_report(tg, canonical_haar(tg))
        assert rep.all_hold

def literal_positivity_report(tg, mu):
    """Reference: the positivity facts over every closed set and every open."""
    if not is_haar(tg, mu).is_haar:
        raise NotHaar("positivity requires a Haar measure")
    return PositivityReport(
        closed_compact_positive=any(
            mu.mass_of(c) > 0 for c in tg.space.closed_sets() if c != 0
        ),
        opens_positive=all(mu.mass_of(u) > 0 for u in tg.space.opens if u != 0),
        integrals_positive=all(
            integrate(tg, PointFunction.indicator(tg.group.order, a), mu) > 0
            for a in tg.atoms
        ),
    )

def test_positivity_matches_literal_reference(corpus_instances):
    for tg in corpus_instances:
        canon = canonical_haar(tg)
        for mu in (canon, canon.scaled(Fraction(1, 3)), canon.scaled(7)):
            assert positivity_report(tg, mu) == literal_positivity_report(tg, mu)

def test_positivity_rejects_zero():
    tg = z4_coset_instance()
    with pytest.raises(NotHaar):
        positivity_report(tg, FiniteMeasure(tg, (0, 0)))


# -- radon helper ------------------------------------------------------------

def test_is_radon_any_nonnegative_masses():
    rng = random.Random(11)
    tg = z4_coset_instance()
    for _ in range(10):
        mu = FiniteMeasure(tg, (random_fraction(rng), random_fraction(rng)))
        assert is_radon(tg, mu)
