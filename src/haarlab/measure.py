"""Exact-rational measures on finite topological groups.

A Borel set is a union of atoms (the N-cosets), so a measure is a tuple of
nonnegative rational atom masses.  Translation by a group element permutes
the atoms and mass is additive over them, so Haar verification compares
the mass of each atom with the masses of its translates.
Regularity holds for every such measure, as `is_haar` explains.
"""

import math
from fractions import Fraction

from .errors import InputError
from .groups import FiniteTopGroup, quotient
from .records import Record
from .topology import PointFunction, bit_indices, mask_of


class FiniteMeasure(Record):
    _fields = ("group_ref", "atom_mass")

    def __init__(self, group_ref: FiniteTopGroup, atom_mass):
        masses = tuple(Fraction(m) for m in atom_mass)
        if len(masses) != len(group_ref.atoms):
            raise InputError(f"{len(masses)} masses for {len(group_ref.atoms)} atoms")
        if any(m < 0 for m in masses):
            raise InputError("atom masses must be nonnegative")
        self._assign(group_ref, masses)

    def total(self) -> Fraction:
        return sum(self.atom_mass, Fraction(0))

    def scaled(self, a) -> "FiniteMeasure":
        a = Fraction(a)
        return FiniteMeasure(
            self.group_ref, tuple(m * a for m in self.atom_mass)
        )


class HaarReport(Record):
    _fields = ("side", "nonzero", "left_invariant", "right_invariant", "witnesses")

    def __init__(
        self,
        side: str,
        nonzero: bool,
        left_invariant: bool,
        right_invariant: bool,
        witnesses: tuple = (),
    ):
        self._assign(side, nonzero, left_invariant, right_invariant, witnesses)

    # Local finiteness and both regularity clauses hold for every measure on
    # a FiniteTopGroup (`is_haar`).
    locally_finite = outer_regular = inner_regular_on_opens = True

    @property
    def is_haar(self) -> bool:
        invariant = self.left_invariant if self.side == "left" else self.right_invariant
        return self.nonzero and invariant


def _check_measure(g: FiniteTopGroup, mu: FiniteMeasure):
    """mu lives on g."""
    if mu.group_ref is not g and mu.group_ref != g:
        raise InputError("measure lives on a different group")


def _int_weights(g: FiniteTopGroup, mu: FiniteMeasure):
    """The atom masses scaled to their common denominator, as exact ints.

    Scaling by one positive constant keeps every equality between masses,
    so the invariance check compares ints instead of Fractions.
    """
    _check_measure(g, mu)
    den = math.lcm(*(m.denominator for m in mu.atom_mass))
    return [m.numerator * (den // m.denominator) for m in mu.atom_mass]


def _check_invariance(g, weights, side):
    """The witness (side, selection, element) of the first translation on
    this side that moves some atom's mass, or None if none does.

    In G/N's table, quotient(g).group.table, an element of atom i moves
    atom j to atom table[i][j] on the left and to table[j][i] on the
    right: a permutation perm, row i or column i.
    Mass is additive over atoms, so every Borel set keeps its mass under
    the translation iff weights[perm[j]] == weights[j] for every j
    (Halmos, Measure Theory, 58; Folland, A Course in Abstract Harmonic
    Analysis, 2.2).  The witness is the singleton of the first failing
    atom j, which is also the first failing selection in the order
    0, 1, ..., 2^k - 1: a smaller selection only has bits below j, whose
    atoms all keep their mass.  The identity's row comes first and always
    passes, and the other atoms are in order of their smallest members, so
    reps[i] of the first failing atom is the smallest failing element.
    """
    table = quotient(g).group.table
    for i, rep in enumerate(g.reps):
        perm = table[i] if side == "left" else [row[i] for row in table]
        for j, moved in enumerate(perm):
            if weights[moved] != weights[j]:
                return (side, 1 << j, rep)
    return None


def is_haar(g: FiniteTopGroup, mu: FiniteMeasure, side: str = "left") -> HaarReport:
    """Verify every Haar axiom over the Borel lattice.

    Invariance of every Borel set under every element is checked atom by
    atom, at most k^2 comparisons a side for k atoms, as
    `_check_invariance` explains.  Local finiteness, outer regularity
    (mu(E) is the infimum of mu(U) over open U containing E) and inner
    regularity on opens (mu(U) is the supremum of mu(K) over closed compact
    K inside U) hold for every measure on a FiniteTopGroup, so they are
    constants of `HaarReport` and no sweep runs for them.  Every atom mass
    is a finite rational, so every closed compact set, a union of atoms,
    has finite mass.  The topology of g is the coset topology of its N, so
    U_x = xN = closure({x}) for every x (`FiniteTopGroup`): every atom is
    a minimal open and a point closure, so clopen.  Every Borel set, a
    union of atoms, is then open and closed, and compact as the space is
    finite: it is its own open superset and its own closed compact subset,
    and as masses are nonnegative (FiniteMeasure checks) it has the least
    mass among its supersets and the largest among its subsets.
    """
    if side not in ("left", "right"):
        raise InputError(f"side must be left or right, got {side!r}")
    weights = _int_weights(g, mu)
    left = _check_invariance(g, weights, "left")
    right = _check_invariance(g, weights, "right")
    return HaarReport(
        side=side,
        nonzero=any(m > 0 for m in mu.atom_mass),
        left_invariant=left is None,
        right_invariant=right is None,
        witnesses=tuple(w for w in (left, right) if w is not None),
    )


def canonical_haar(g: FiniteTopGroup) -> FiniteMeasure:
    """Mass 1 per atom: the pullback of counting measure on the quotient."""
    return FiniteMeasure(g, (Fraction(1),) * len(g.atoms))


def haar_solution_space(g: FiniteTopGroup):
    """Solve the left-invariance constraints on atom masses exactly.

    Translation by any element permutes atoms, forcing equal masses along
    each orbit; the solution cone is spanned by the orbit indicators.  Row
    i of G/N's table is the left translation by atom i, and these rows
    compose by the table itself (row i after row i' is row table[i][i']),
    so they form a group and the orbit of atom j is the set of entries in
    column j.  The basis is the distinct column sets, ordered by their
    smallest atom.  Returns (dimension, basis measures).
    """
    k = len(g.atoms)
    orbits = sorted({frozenset(col) for col in zip(*quotient(g).group.table)}, key=min)
    basis = [
        FiniteMeasure(g, tuple(Fraction(i in orbit) for i in range(k)))
        for orbit in orbits
    ]
    return len(orbits), basis


def pushforward(g: FiniteTopGroup, mu: FiniteMeasure) -> FiniteMeasure:
    """(pi_* mu)(F) = mu(pi^-1(F)) on G/N, per quotient atom.

    Atom i of G/N is its point i, and pi^-1 of point i is atom i of G
    (`groups.quotient`), so the masses carry over by index."""
    _check_measure(g, mu)
    return FiniteMeasure(quotient(g), mu.atom_mass)


def pullback(g: FiniteTopGroup, nu: FiniteMeasure) -> FiniteMeasure:
    """(pi^* nu)(E) = nu(pi(E)) on G, per base atom, for nu on G/N.

    Atom i of G projects to point i of G/N, which is its atom i
    (`groups.quotient`), so the masses carry over by index."""
    _check_measure(quotient(g), nu)
    return FiniteMeasure(g, nu.atom_mass)


def _cell_values(f: PointFunction, cells, noun: str):
    """The value of f on each cell, a point mask; InputError names the
    first cell f is not constant on, as the noun says ("atom")."""
    values = []
    for cell in cells:
        vals = {f.values[x] for x in bit_indices(cell)}
        if len(vals) != 1:
            raise InputError(f"function not constant on {noun} {cell:#x}")
        values.append(vals.pop())
    return values


def integrate(g: FiniteTopGroup, f: PointFunction, mu: FiniteMeasure) -> Fraction:
    """Sum over atoms of f(atom) * mass(atom); f must be constant on atoms."""
    _check_measure(g, mu)
    if len(f.values) != g.group.order:
        raise InputError("function defined on a different point set")
    values = _cell_values(f, g.atoms, "atom")
    return sum((v * m for v, m in zip(values, mu.atom_mass)), Fraction(0))


def product_cells(g: FiniteTopGroup, h: FiniteTopGroup):
    """The product atoms A x B of g x h as point masks, with atom pairs
    (i, j) in row-major order; the point (x, y) is indexed x * |H| + y."""
    oh = h.group.order
    return [
        mask_of(x * oh + y for x in bit_indices(a) for y in bit_indices(b))
        for a in g.atoms
        for b in h.atoms
    ]


def fubini_check(
    g: FiniteTopGroup,
    h: FiniteTopGroup,
    f: PointFunction,
    mu: FiniteMeasure,
    lam: FiniteMeasure,
):
    """Both iterated integrals of f over g x h, computed independently.

    Continuity on the product topology means constancy on the product
    atoms of `product_cells`.
    """
    _check_measure(g, mu)
    _check_measure(h, lam)
    if len(f.values) != g.group.order * h.group.order:
        raise InputError("function not defined on the product points")
    cell_values = _cell_values(f, product_cells(g, h), "product atom")
    k = len(h.atoms)
    values = [cell_values[i : i + k] for i in range(0, len(cell_values), k)]
    # lhs: integrate over lam in y first, then mu in x
    lhs = Fraction(0)
    for row, m in zip(values, mu.atom_mass):
        inner = Fraction(0)
        for v, w in zip(row, lam.atom_mass):
            inner += v * w
        lhs += inner * m
    # rhs: integrate over mu in x first, then lam in y
    rhs = Fraction(0)
    for j, w in enumerate(lam.atom_mass):
        inner = Fraction(0)
        for row, m in zip(values, mu.atom_mass):
            inner += row[j] * m
        rhs += inner * w
    return lhs, rhs


def riesz_check(g: FiniteTopGroup, mu1: FiniteMeasure, mu2: FiniteMeasure) -> bool:
    """True iff the two Radon measures integrate every atom indicator alike;
    `integrate` checks that both live on g at the first atom."""
    n = g.group.order
    for a in g.atoms:
        f = PointFunction.indicator(n, a)
        if integrate(g, f, mu1) != integrate(g, f, mu2):
            return False
    return True
