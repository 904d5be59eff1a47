"""Exact-rational measures on finite topological groups.

A Borel set is a union of atoms (the N-cosets), so a measure is a tuple of
nonnegative rational atom masses.  Haar verification checks every axiom
literally over the finite lattice: invariance over all Borel sets and all
group elements, outer regularity as an infimum over open supersets, inner
regularity as a supremum over closed compact subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    InternalInconsistency,
    MeasureSpaceMismatch,
    NotHaar,
    NotMeasurable,
    TooLarge,
)
from .groups import FiniteTopGroup, QuotientData
from .records import Record
from .topology import PointFunction, bit_indices

MAX_ATOMS_CHECK = 16


class FiniteMeasure(Record):
    _fields = ("group_ref", "atom_mass")

    def __init__(self, group_ref: FiniteTopGroup, atom_mass):
        masses = tuple(Fraction(m) for m in atom_mass)
        if len(masses) != len(group_ref.atoms):
            raise MeasureSpaceMismatch(
                f"{len(masses)} masses for {len(group_ref.atoms)} atoms"
            )
        if any(m < 0 for m in masses):
            raise ValueError("atom masses must be nonnegative")
        self._assign(group_ref, masses)

    def total(self) -> Fraction:
        return sum(self.atom_mass, Fraction(0))

    def mass_of_atoms(self, atom_sel: int) -> Fraction:
        """Mass of the Borel set selected by an atom-index bitmask."""
        return sum(
            (self.atom_mass[i] for i in bit_indices(atom_sel)), Fraction(0)
        )

    def mass_of(self, point_mask: int) -> Fraction:
        """Mass of a Borel set given as a point mask (must be atom-aligned)."""
        sel = _atom_selection(self.group_ref, point_mask)
        return self.mass_of_atoms(sel)

    def scaled(self, a) -> "FiniteMeasure":
        a = Fraction(a)
        return FiniteMeasure(
            self.group_ref, tuple(m * a for m in self.atom_mass)
        )

    def is_zero(self) -> bool:
        return all(m == 0 for m in self.atom_mass)


def _atom_selection(g: FiniteTopGroup, point_mask: int) -> int:
    sel = g.image(point_mask & g.space.full)
    for i in bit_indices(sel):
        a = g.atoms[i]
        if a & ~point_mask:
            raise NotMeasurable(f"set {point_mask:#x} cuts atom {a:#x}")
    if g.preimage(sel) != point_mask:
        raise NotMeasurable(f"set {point_mask:#x} is not a union of atoms")
    return sel


class HaarReport(Record):
    _fields = (
        "side",
        "nonzero",
        "left_invariant",
        "right_invariant",
        "locally_finite",
        "outer_regular",
        "inner_regular_on_opens",
        "witnesses",
    )

    def __init__(
        self,
        side: str,
        nonzero: bool,
        left_invariant: bool,
        right_invariant: bool,
        locally_finite: bool,
        outer_regular: bool,
        inner_regular_on_opens: bool,
        witnesses: tuple = (),
    ):
        self._assign(
            side,
            nonzero,
            left_invariant,
            right_invariant,
            locally_finite,
            outer_regular,
            inner_regular_on_opens,
            witnesses,
        )

    @property
    def invariant_for_side(self) -> bool:
        return self.left_invariant if self.side == "left" else self.right_invariant

    @property
    def is_haar(self) -> bool:
        return (
            self.nonzero
            and self.invariant_for_side
            and self.locally_finite
            and self.outer_regular
            and self.inner_regular_on_opens
        )


def _atom_perm(g: FiniteTopGroup, elem: int, side: str):
    """Atom index permutation induced by translation by elem."""
    atoms = g.atoms
    perm = []
    for a in atoms:
        rep = next(bit_indices(a))
        moved = (
            g.group.mul(elem, rep) if side == "left" else g.group.mul(rep, elem)
        )
        perm.append(g.atom_of[moved])
    return tuple(perm)


def _int_weights(g: FiniteTopGroup, mu: FiniteMeasure):
    """The atom masses scaled to their common denominator, as exact ints.

    Scaling by one positive constant keeps every equality and order between
    set masses, so the sweeps compare ints instead of Fractions.
    """
    if mu.group_ref is not g and mu.group_ref != g:
        raise MeasureSpaceMismatch("measure lives on a different group")
    k = len(g.atoms)
    if k > MAX_ATOMS_CHECK:
        raise TooLarge(f"{k} atoms exceeds the exhaustive-check cap")
    den = math.lcm(*(m.denominator for m in mu.atom_mass))
    return [m.numerator * (den // m.denominator) for m in mu.atom_mass]


def _subset_sums(weights):
    """Masses of all 2^k atom selections: entry sel sums weights[i] over
    the bits i of sel."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _check_invariance(g, weights, masses, side, witnesses):
    """Every Borel set against its translate by every element.

    The translate of selection sel by elem selects perm[i] for each bit i of
    sel, so its mass is entry sel of the subset-sum table of the permuted
    weights.  Elements inducing one permutation share one table.
    """
    passed = set()
    for elem in range(g.group.order):
        perm = _atom_perm(g, elem, side)
        if perm in passed:
            continue
        moved = _subset_sums([weights[j] for j in perm])
        if moved == masses:
            passed.add(perm)
            continue
        sel = next(s for s, (a, b) in enumerate(zip(moved, masses)) if a != b)
        witnesses.append((side, sel, elem))
        return False
    return True


def _check_regularity(masses, witnesses):
    """Outer regularity (inf over open supersets) and inner regularity on
    opens (sup over closed compact subsets), over every selection.

    Opens at atom level are all selections (atoms are clopen); masses are
    monotone, so each scan stops as soon as the extremum matches the set's
    own mass.
    """
    full = len(masses) - 1
    outer = True
    for sel in range(full + 1):
        target = masses[sel]
        best = None
        sup = sel
        while True:
            if best is None or masses[sup] < best:
                best = masses[sup]
            if best == target:
                break
            if sup == full:
                break
            sup = (sup + 1) | sel
        if best != target:
            outer = False
            witnesses.append(("outer", sel, None))
            break

    inner = True
    for sel in range(full + 1):
        target = masses[sel]
        best = None
        sub = sel
        while True:
            if best is None or masses[sub] > best:
                best = masses[sub]
            if best == target:
                break
            if sub == 0:
                break
            sub = (sub - 1) & sel
        if best != target:
            inner = False
            witnesses.append(("inner", sel, None))
            break
    return outer, inner


def is_haar(g: FiniteTopGroup, mu: FiniteMeasure, side: str = "left") -> HaarReport:
    """Verify every Haar axiom exhaustively over the Borel lattice."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    weights = _int_weights(g, mu)
    masses = _subset_sums(weights)
    witnesses = []

    nonzero = any(m > 0 for m in mu.atom_mass)
    # Every atom mass is a finite rational, so every closed compact set
    # (a union of atoms) has finite mass.
    locally_finite = True

    left_inv = _check_invariance(g, weights, masses, "left", witnesses)
    right_inv = _check_invariance(g, weights, masses, "right", witnesses)
    outer, inner = _check_regularity(masses, witnesses)

    return HaarReport(
        side=side,
        nonzero=nonzero,
        left_invariant=left_inv,
        right_invariant=right_inv,
        locally_finite=locally_finite,
        outer_regular=outer,
        inner_regular_on_opens=inner,
        witnesses=tuple(witnesses),
    )


def is_radon(g: FiniteTopGroup, mu: FiniteMeasure) -> bool:
    """The Haar axioms minus invariance and nonzeroness.

    Local finiteness always holds, as every atom mass is a finite rational,
    so only the two regularity sweeps run.
    """
    return all(_check_regularity(_subset_sums(_int_weights(g, mu)), []))


def canonical_haar(g: FiniteTopGroup) -> FiniteMeasure:
    """Mass 1 per atom: the pullback of counting measure on the quotient."""
    return FiniteMeasure(g, (Fraction(1),) * len(g.atoms))


def haar_solution_space(g: FiniteTopGroup):
    """Solve the left-invariance constraints on atom masses exactly.

    Translation by any element permutes atoms, forcing equal masses along
    each orbit; the solution cone is spanned by the orbit indicators.
    Returns (dimension, basis measures).
    """
    k = len(g.atoms)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for elem in range(g.group.order):
        perm = _atom_perm(g, elem, "left")
        for i, j in enumerate(perm):
            union(i, j)
    roots = sorted({find(i) for i in range(k)})
    basis = []
    for r in roots:
        masses = tuple(
            Fraction(1) if find(i) == r else Fraction(0) for i in range(k)
        )
        basis.append(FiniteMeasure(g, masses))
    return len(roots), basis


def invert_measure(g: FiniteTopGroup, mu: FiniteMeasure) -> FiniteMeasure:
    """mu'(E) = mu(E^-1); inversion permutes atoms since N^-1 = N."""
    if mu.group_ref != g:
        raise MeasureSpaceMismatch("measure lives on a different group")
    atoms = g.atoms
    masses = []
    for a in atoms:
        inv_rep = g.group.inv(next(bit_indices(a)))
        masses.append(mu.atom_mass[g.atom_of[inv_rep]])
    return FiniteMeasure(g, tuple(masses))


def pushforward(q: QuotientData, mu: FiniteMeasure) -> FiniteMeasure:
    """(pi_* mu)(F) = mu(pi^-1(F)), per quotient atom."""
    if mu.group_ref != q.base:
        raise MeasureSpaceMismatch("measure does not live on the base group")
    base_atoms = q.base.atoms
    qk = len(q.quotient.atoms)
    masses = [Fraction(0)] * qk
    for i, a in enumerate(base_atoms):
        rep = next(bit_indices(a))
        qpoint = q.proj[rep]
        qatom = q.quotient.atom_of[qpoint]
        masses[qatom] += mu.atom_mass[i]
    return FiniteMeasure(q.quotient, tuple(masses))


def pullback(q: QuotientData, nu: FiniteMeasure) -> FiniteMeasure:
    """(pi^* nu)(E) = nu(pi(E)), per base atom."""
    if nu.group_ref != q.quotient:
        raise MeasureSpaceMismatch("measure does not live on the quotient")
    masses = []
    for a in q.base.atoms:
        rep = next(bit_indices(a))
        qatom = q.quotient.atom_of[q.proj[rep]]
        masses.append(nu.atom_mass[qatom])
    return FiniteMeasure(q.base, tuple(masses))


def integrate(g: FiniteTopGroup, f: PointFunction, mu: FiniteMeasure) -> Fraction:
    """Sum over atoms of f(atom) * mass(atom); f must be constant on atoms."""
    if mu.group_ref != g:
        raise MeasureSpaceMismatch("measure lives on a different group")
    if len(f.values) != g.group.order:
        raise MeasureSpaceMismatch("function defined on a different point set")
    acc = Fraction(0)
    for i, a in enumerate(g.atoms):
        vals = {f.values[x] for x in bit_indices(a)}
        if len(vals) != 1:
            raise NotMeasurable(f"function not constant on atom {a:#x}")
        acc += vals.pop() * mu.atom_mass[i]
    return acc


def fubini_check(
    g: FiniteTopGroup,
    h: FiniteTopGroup,
    f: PointFunction,
    mu: FiniteMeasure,
    lam: FiniteMeasure,
):
    """Both iterated integrals of f over g x h, computed independently.

    The point (x, y) of the product is indexed x * |H| + y.  Continuity on
    the product topology means constancy on product atoms A x B.
    """
    if mu.group_ref != g or lam.group_ref != h:
        raise MeasureSpaceMismatch("measures do not match the factor groups")
    oh = h.group.order
    if len(f.values) != g.group.order * oh:
        raise MeasureSpaceMismatch("function not defined on the product points")
    for a in g.atoms:
        for b in h.atoms:
            vals = {
                f.values[x * oh + y]
                for x in bit_indices(a)
                for y in bit_indices(b)
            }
            if len(vals) != 1:
                raise NotMeasurable(
                    f"function not constant on product atom {a:#x} x {b:#x}"
                )
    for tg, m in ((g, mu), (h, lam)):
        if not is_radon(tg, m):
            raise InternalInconsistency("factor measure is not Radon")
    # lhs: integrate over lam in y first, then mu in x
    lhs = Fraction(0)
    for i, a in enumerate(g.atoms):
        x = next(bit_indices(a))
        inner = Fraction(0)
        for j, b in enumerate(h.atoms):
            y = next(bit_indices(b))
            inner += f.values[x * oh + y] * lam.atom_mass[j]
        lhs += inner * mu.atom_mass[i]
    # rhs: integrate over mu in x first, then lam in y
    rhs = Fraction(0)
    for j, b in enumerate(h.atoms):
        y = next(bit_indices(b))
        inner = Fraction(0)
        for i, a in enumerate(g.atoms):
            x = next(bit_indices(a))
            inner += f.values[x * oh + y] * mu.atom_mass[i]
        rhs += inner * lam.atom_mass[j]
    return lhs, rhs


def riesz_check(g: FiniteTopGroup, mu1: FiniteMeasure, mu2: FiniteMeasure) -> bool:
    """True iff the two Radon measures integrate every atom indicator alike."""
    for m in (mu1, mu2):
        if m.group_ref != g:
            raise MeasureSpaceMismatch("measure lives on a different group")
    n = g.group.order
    for a in g.atoms:
        f = PointFunction.indicator(n, a)
        if integrate(g, f, mu1) != integrate(g, f, mu2):
            return False
    return True


class PositivityReport(Record):
    _fields = ("closed_compact_positive", "opens_positive", "integrals_positive")

    def __init__(
        self,
        closed_compact_positive: bool,
        opens_positive: bool,
        integrals_positive: bool,
    ):
        self._assign(closed_compact_positive, opens_positive, integrals_positive)

    @property
    def all_hold(self) -> bool:
        return (
            self.closed_compact_positive
            and self.opens_positive
            and self.integrals_positive
        )


def positivity_report(g: FiniteTopGroup, mu: FiniteMeasure) -> PositivityReport:
    """Positivity facts for a Haar measure: a heavy closed compact set,
    positive mass on nonempty opens, positive atom-indicator integrals.

    Mass is monotone, every closed set is a union of the closed atoms, and
    every nonempty open contains some minimal open U_x, so the first two
    facts are read off the atoms and the n minimal opens."""
    report = is_haar(g, mu)
    if not report.is_haar:
        raise NotHaar("positivity requires a Haar measure")
    closed_positive = any(mu.mass_of(a) > 0 for a in g.atoms)
    opens_positive = all(mu.mass_of(u) > 0 for u in g.space.min_open)
    integrals_positive = all(
        integrate(g, PointFunction.indicator(g.group.order, a), mu) > 0
        for a in g.atoms
    )
    return PositivityReport(
        closed_compact_positive=closed_positive,
        opens_positive=opens_positive,
        integrals_positive=integrals_positive,
    )
