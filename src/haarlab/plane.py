"""The seminorm plane: R^2 with the topology of |x|, and its Haar measure.

Borel sets are represented on the sub-lattice of cylinders E x R where E
is a finite union of rational-endpoint intervals, and a cylinder is given
by its base E, an `IntervalUnion`; the Haar measure of a cylinder is the
Lebesgue length of its base, which is what the seminorm topology forces.
The module also produces the counterexample certificate for the
compact-generated measure attempt, whose tiles are vertical translates of
the unit square UNIT_SIDE x UNIT_SIDE listed by their offsets, and an
independent verifier for it.
"""

from fractions import Fraction
from functools import cached_property

from .errors import InputError, TooLarge
from .records import Record


class Interval(Record):
    """A rational interval with open/closed endpoint flags."""

    _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo, hi, lo_closed: bool = True, hi_closed: bool = True):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise InputError(f"empty interval {lo} > {hi}")
        if lo == hi and not (lo_closed and hi_closed):
            raise InputError("degenerate interval must be closed")
        self._assign(lo, hi, lo_closed, hi_closed)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def touches_or_overlaps(self, other: "Interval") -> bool:
        """Assuming self.lo <= other.lo: true if the union is one interval."""
        if self.hi > other.lo:
            return True
        return self.hi == other.lo and (self.hi_closed or other.lo_closed)


class IntervalUnion(Record):
    """A finite union of intervals in canonical (sorted, merged) form.  In
    the plane, the union E stands for the cylinder E x R."""

    _fields = ("intervals",)

    def __init__(self, intervals):
        ivs = sorted(intervals, key=lambda iv: (iv.lo, not iv.lo_closed))
        merged = []
        for iv in ivs:
            if merged and merged[-1].touches_or_overlaps(iv):
                last = merged.pop()
                if iv.hi > last.hi:
                    hi, hic = iv.hi, iv.hi_closed
                elif iv.hi < last.hi:
                    hi, hic = last.hi, last.hi_closed
                else:
                    hi, hic = last.hi, last.hi_closed or iv.hi_closed
                merged.append(Interval(last.lo, hi, last.lo_closed, hic))
            else:
                merged.append(iv)
        self._assign(tuple(merged))


def haar_v(e: IntervalUnion) -> Fraction:
    """Haar mass of the cylinder e x R: the Lebesgue length of e, whatever its endpoint flags."""
    return sum((iv.length for iv in e.intervals), Fraction(0))


def translate_v(e: IntervalUnion, a, b=0) -> IntervalUnion:
    """The base of (e x R) + (a, b); the second coordinate cannot affect the set."""
    a = Fraction(a)
    Fraction(b)  # validated but irrelevant: the base ignores y
    return IntervalUnion(
        Interval(iv.lo + a, iv.hi + a, iv.lo_closed, iv.hi_closed) for iv in e.intervals
    )


def regularity_gap(e: IntervalUnion, eps):
    """The bases of a closed compact inner cylinder and an open outer
    cylinder whose masses are within eps of e x R, obtained by rational
    endpoint nudges."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    m = len(e.intervals)
    if m == 0:
        return e, IntervalUnion([Interval(0, eps / 2, False, False)])
    delta = eps / (2 * m)
    inner_ivs = []
    for iv in e.intervals:
        lo = iv.lo if iv.lo_closed else iv.lo + delta
        hi = iv.hi if iv.hi_closed else iv.hi - delta
        if lo > hi:
            mid = (iv.lo + iv.hi) / 2
            lo = hi = mid
        inner_ivs.append(Interval(lo, hi, True, True))
    outer_ivs = [
        Interval(iv.lo - delta, iv.hi + delta, False, False)
        for iv in e.intervals
    ]
    return IntervalUnion(inner_ivs), IntervalUnion(outer_ivs)


# -- the counterexample for the compact-generated attempt --------------------


#: The side of the unit tile [0,1] x [0,1], whose vertical translates
#: generate the contradiction.
UNIT_SIDE = Interval(0, 1)

FINITENESS_VIOLATED = "FinitenessViolated"
NONZERO_VIOLATED = "NonzeroViolated"

#: Half-width of the finite grid window listed in zero-mass certificates.
GRID_WINDOW = 3
GRID_OFFSETS = tuple(
    (mm, nn)
    for mm in range(-GRID_WINDOW, GRID_WINDOW + 1)
    for nn in range(-GRID_WINDOW, GRID_WINDOW + 1)
)

#: Most tiles `BkCertificate.translates` lists; verification lists none.
MAX_LISTED_TILES = 1 << 17


class BkCertificate(Record):
    """A machine-checkable refutation of one hypothesized tile mass.

    For a positive mass c the witness is a stack of `count` vertical
    translates of the unit tile, `step` apart, inside [0,1] x R whose total
    mass exceeds the probe bound.  For c = 0 the witness is the grid of
    integer translates of the tile (a finite window is listed) whose
    subadditivity chain forces total mass zero against nonzeroness.
    """

    _fields = ("input_mass", "probe_bound", "verdict", "count", "step", "grid_offsets")

    def __init__(
        self,
        input_mass: Fraction,
        probe_bound: Fraction,
        verdict: str,
        count: int = 0,  # tiles, `step` apart: FinitenessViolated branch
        step: Fraction = Fraction(0),
        grid_offsets: tuple = (),  # (m, n) integer pairs, NonzeroViolated branch
    ):
        self._assign(input_mass, probe_bound, verdict, count, step, grid_offsets)

    @cached_property
    def translates(self) -> tuple:
        """The vertical offsets of the `count` tiles, for reports: tile n
        is UNIT_SIDE x (UNIT_SIDE + step * n).  Raises TooLarge past the
        cap."""
        if self.count > MAX_LISTED_TILES:
            raise TooLarge(
                f"{self.count} tiles exceeds the listing cap {MAX_LISTED_TILES}"
            )
        return tuple(self.step * n for n in range(self.count))


def counterexample_bk(c, probe_bound) -> BkCertificate:
    """The certificate refuting tile mass c: for c > 0, floor(probe_bound
    / c) + 1 tiles, 2 apart, whose total mass exceeds the bound; for c = 0,
    the grid window."""
    c = Fraction(c)
    probe_bound = Fraction(probe_bound)
    if c < 0:
        raise InputError(f"hypothesized tile mass {c} is negative")
    if probe_bound <= 0:
        raise InputError("probe bound must be positive")
    if c > 0:
        return BkCertificate(
            c, probe_bound, FINITENESS_VIOLATED, probe_bound // c + 1, Fraction(2)
        )
    return BkCertificate(c, probe_bound, NONZERO_VIOLATED, grid_offsets=GRID_OFFSETS)


def verify_bk_certificate(cert: BkCertificate) -> bool:
    """Independent arithmetic re-check of a certificate, in O(1): no tile
    is built."""
    c = cert.input_mass
    if cert.verdict == FINITENESS_VIOLATED:
        return (
            c > 0
            # closed tiles `step` apart are disjoint when step exceeds their
            # height; tiles that only touch still overlap
            and cert.step > UNIT_SIDE.length
            # every translate is vertical, so each lies in K = [0,1] x R
            and 0 <= UNIT_SIDE.lo
            and UNIT_SIDE.hi <= 1
            # total mass exceeds the probe bound
            and cert.count * c > cert.probe_bound
        )
    if cert.verdict == NONZERO_VIOLATED:
        # the window of integer translates of the closed unit tile covers
        # the square [-GRID_WINDOW, GRID_WINDOW + 1]^2; subadditivity then forces the mass of
        # every compact set to 0, contradicting nonzeroness
        return c == 0 and tuple(cert.grid_offsets) == GRID_OFFSETS
    return False
