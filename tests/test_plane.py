from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarlab import (
    BkCertificate,
    Interval,
    IntervalUnion,
    counterexample_bk,
    haar_v,
    regularity_gap,
    translate_v,
    verify_bk_certificate,
)
from haarlab import plane
from haarlab.errors import InputError, TooLarge
from haarlab.plane import (
    FINITENESS_VIOLATED,
    GRID_WINDOW,
    NONZERO_VIOLATED,
)

from literal import (
    is_closed_union,
    is_open_union,
    literal_verify,
    rects_disjoint,
    tile_rects,
    union_contains,
    unions_disjoint,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


def cyl(*ivs):
    return IntervalUnion(ivs)


@st.composite
def cylinders(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    ivs = []
    for _ in range(n):
        lo = draw(rationals)
        width = draw(
            st.fractions(min_value=0, max_value=10, max_denominator=64)
        )
        if width == 0:
            ivs.append(Interval(lo, lo, True, True))
        else:
            ivs.append(
                Interval(lo, lo + width, draw(st.booleans()), draw(st.booleans()))
            )
    return IntervalUnion(ivs)


# -- interval plumbing -------------------------------------------------------

def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1, 0)
    with pytest.raises(ValueError):
        Interval(1, 1, True, False)

def test_union_canonical_merge():
    u = IntervalUnion([Interval(0, 1), Interval(Fraction(1, 2), 2)])
    assert len(u.intervals) == 1
    assert (u.intervals[0].lo, u.intervals[0].hi) == (0, 2)
    # adjacent with a shared closed endpoint merges; open-open does not
    u = IntervalUnion([Interval(0, 1, True, True), Interval(1, 2, True, True)])
    assert len(u.intervals) == 1
    u = IntervalUnion(
        [Interval(0, 1, True, False), Interval(1, 2, False, True)]
    )
    assert len(u.intervals) == 2

def test_union_order_independent():
    a = IntervalUnion([Interval(3, 4), Interval(0, 1)])
    b = IntervalUnion([Interval(0, 1), Interval(3, 4)])
    assert a == b


# -- haar_v ------------------------------------------------------------------

def test_haar_v_examples():
    assert haar_v(cyl(Interval(0, 1))) == 1
    assert haar_v(IntervalUnion([])) == 0
    assert haar_v(cyl(Interval(0, 1), Interval(2, Fraction(5, 2)))) == Fraction(3, 2)

def test_haar_v_flag_independent():
    closed = cyl(Interval(0, 1, True, True))
    open_ = cyl(Interval(0, 1, False, False))
    assert haar_v(closed) == haar_v(open_) == 1


# -- translate_v -------------------------------------------------------------

def test_translate_examples():
    e = cyl(Interval(0, 1))
    t = translate_v(e, 3, -7)
    assert t.intervals[0].lo == 3 and t.intervals[0].hi == 4
    assert translate_v(e, 0, 5) == e
    e2 = cyl(Interval(0, 1), Interval(2, 3))
    t2 = translate_v(e2, Fraction(1, 2), 0)
    assert [(iv.lo, iv.hi) for iv in t2.intervals] == [
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(5, 2), Fraction(7, 2)),
    ]

@given(cylinders(), rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_translation_invariance(e, a, b):
    assert haar_v(translate_v(e, a, b)) == haar_v(e)

@given(cylinders(), cylinders())
@settings(max_examples=200, deadline=None)
def test_finite_additivity(e1, e2):
    if not unions_disjoint(e1, e2):
        return
    u = IntervalUnion(e1.intervals + e2.intervals)
    assert haar_v(u) == haar_v(e1) + haar_v(e2)


# -- regularity gap ----------------------------------------------------------

def test_regularity_example():
    e = cyl(Interval(0, 1, False, False))
    inner, outer = regularity_gap(e, Fraction(1, 10))
    iv = inner.intervals[0]
    assert (iv.lo, iv.hi) == (Fraction(1, 20), Fraction(19, 20))
    assert is_closed_union(inner)
    ov = outer.intervals[0]
    assert (ov.lo, ov.hi) == (Fraction(-1, 20), Fraction(21, 20))
    assert is_open_union(outer)

def test_regularity_closed_base_is_fixed_point():
    e = cyl(Interval(0, 2), Interval(3, 4))
    inner, outer = regularity_gap(e, Fraction(1, 7))
    assert inner == e
    assert haar_v(outer) - haar_v(e) <= Fraction(1, 7)

def test_regularity_empty_base():
    inner, outer = regularity_gap(IntervalUnion([]), Fraction(1, 3))
    assert haar_v(inner) == 0
    assert is_open_union(outer)
    assert haar_v(outer) <= Fraction(1, 3)

def test_regularity_rejects_bad_eps():
    with pytest.raises(ValueError):
        regularity_gap(cyl(Interval(0, 1)), 0)

@given(cylinders(), st.fractions(min_value=Fraction(1, 50), max_value=2,
                                 max_denominator=64))
@settings(max_examples=200, deadline=None)
def test_regularity_gap_bounds(e, eps):
    inner, outer = regularity_gap(e, eps)
    assert is_closed_union(inner)
    assert is_open_union(outer)
    assert union_contains(e, inner)
    assert union_contains(outer, e)
    assert haar_v(e) - haar_v(inner) <= eps
    assert haar_v(outer) - haar_v(e) <= eps

def test_monotone_convergence():
    e = cyl(Interval(0, 1, False, False), Interval(2, 3, False, True))
    target = haar_v(e)
    prev_inner, prev_outer = None, None
    for k in range(1, 21):
        eps = Fraction(1, 2**k)
        inner, outer = regularity_gap(e, eps)
        vi, vo = haar_v(inner), haar_v(outer)
        assert vi <= target <= vo
        if prev_inner is not None:
            assert vi >= prev_inner
            assert vo <= prev_outer
        prev_inner, prev_outer = vi, vo
    assert target - prev_inner <= Fraction(1, 2**20)


# -- the counterexample certificate ------------------------------------------

def test_bk_positive_mass_example():
    cert = counterexample_bk(1, 10)
    assert cert.verdict == FINITENESS_VIOLATED
    assert len(cert.translates) == 11
    assert cert.translates[0] == 0
    assert verify_bk_certificate(cert)

def test_bk_fractional_mass():
    cert = counterexample_bk(Fraction(1, 3), 1)
    assert cert.verdict == FINITENESS_VIOLATED
    assert len(cert.translates) == 4
    assert len(cert.translates) * cert.input_mass > 1

def test_bk_zero_mass():
    cert = counterexample_bk(0, 10)
    assert cert.verdict == NONZERO_VIOLATED
    assert len(cert.grid_offsets) == (2 * GRID_WINDOW + 1) ** 2
    assert verify_bk_certificate(cert)

def test_bk_negative_mass():
    with pytest.raises(InputError, match=r"^hypothesized tile mass -1 is negative$"):
        counterexample_bk(-1, 10)
    with pytest.raises(ValueError):
        counterexample_bk(1, 0)

def test_bk_translates_are_disjoint_and_contained():
    cert = counterexample_bk(Fraction(7, 2), 1000)
    tiles = tile_rects(cert)
    for i in range(len(tiles)):
        assert 0 <= tiles[i][0] and tiles[i][1] <= 1
        for j in range(i + 1, len(tiles)):
            assert rects_disjoint(tiles[i], tiles[j])

def _tampered():
    """Certificates that differ from the true ones for c = 1 and c = 0
    (probe bound 10) in one field, each built by the constructor."""
    good = counterexample_bk(1, 10)
    assert (good.count, good.step) == (11, 2)
    one, ten, two = Fraction(1), Fraction(10), Fraction(2)
    offsets = counterexample_bk(0, 10).grid_offsets

    def zero_mass(grid):
        return BkCertificate(Fraction(0), ten, NONZERO_VIOLATED, grid_offsets=grid)

    return {
        # one tile fewer: total mass no longer exceeds the bound
        "dropped_tile": BkCertificate(one, ten, FINITENESS_VIOLATED, 10, two),
        # closed tiles that touch or overlap
        "touching_tiles": BkCertificate(one, ten, FINITENESS_VIOLATED, 11, one),
        "overlapping_tiles": BkCertificate(one, ten, FINITENESS_VIOLATED, 11, one / 2),
        # wrong verdict for the mass
        "zero_mass_finiteness": BkCertificate(Fraction(0), ten, FINITENESS_VIOLATED, 11, two),
        "positive_mass_nonzero": BkCertificate(one, ten, NONZERO_VIOLATED, grid_offsets=offsets),
        "incomplete_grid": zero_mass(offsets[:-1]),
        # one offset listed twice, another missing
        "duplicated_offset": zero_mass(offsets[:-1] + offsets[:1]),
        "unknown_verdict": BkCertificate(one, one, "SomethingElse"),
        # fields that pass a branch, under a verdict that names neither
        "unknown_verdict_positive_fields": BkCertificate(one, ten, "SomethingElse", 11, two),
        "lowercase_verdict_zero_fields": BkCertificate(
            Fraction(0), ten, NONZERO_VIOLATED.lower(), grid_offsets=offsets
        ),
    }

def test_tampered_certificates_rejected():
    for name, cert in _tampered().items():
        assert verify_bk_certificate(cert) is False, name

@pytest.mark.parametrize(
    "side", [Interval(0, Fraction(1, 2)), Interval(0, 1, True, False)], ids=["short", "half_open"]
)
def test_zero_branch_needs_a_covering_tile(monkeypatch, side):
    """c = 0 refutes the measure because the integer translates of the
    closed unit tile cover the plane.  A side shorter than the lattice step
    1, or one not closed, leaves gaps, and the zero branch must then fail;
    the true side still verifies."""
    zero = counterexample_bk(0, 10)
    assert verify_bk_certificate(zero)
    monkeypatch.setattr(plane, "UNIT_SIDE", side)
    assert verify_bk_certificate(zero) is False

def test_grid_offsets_compared_exactly():
    zero = counterexample_bk(0, 10)
    padded = BkCertificate(
        zero.input_mass, zero.probe_bound, zero.verdict,
        grid_offsets=zero.grid_offsets + zero.grid_offsets[:1],
    )
    # the same set of offsets, one listed twice
    assert literal_verify(padded)
    assert not verify_bk_certificate(padded)

def test_verifier_matches_literal_check():
    certs = [
        counterexample_bk(c, bound)
        for c in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 2))
        for bound in (Fraction(1), Fraction(10), Fraction(1000))
    ]
    for cert in certs:
        assert verify_bk_certificate(cert) and literal_verify(cert)
    for cert in _tampered().values():
        assert verify_bk_certificate(cert) == literal_verify(cert)

def test_certificate_is_count_and_step():
    cert = counterexample_bk(Fraction(3, 7), Fraction(10))
    assert (cert.count, cert.step) == (24, 2)
    assert cert.translates == tuple(2 * n for n in range(24))
    assert counterexample_bk(0, 10).translates == ()

def test_listing_cap(monkeypatch):
    monkeypatch.setattr(plane, "MAX_LISTED_TILES", 4)
    assert len(counterexample_bk(1, 3).translates) == 4
    over = counterexample_bk(1, 4)
    with pytest.raises(TooLarge, match="5 tiles exceeds the listing cap 4"):
        over.translates
    assert verify_bk_certificate(over)
