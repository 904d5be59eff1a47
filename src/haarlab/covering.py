"""Exact covering numbers (K:U) and the ratio-functional construction.

On a finite topological group every closed set and every open set is a
union of atoms (`FiniteTopGroup`), so both arguments of a covering number
are atom selections here (bit i selects atom i), and U is its own
interior.  The covering number (K:U) is the minimum number of left
translates of U needed to cover K.  `covering_number` finds it for one
pair, top down from K; `covering_table` gives the counts for every target
K at once for one neighbourhood U of the identity, bottom up.

The left translates of every nonempty union of atoms cover G, so no
search here can fail: for an atom i in the selection u and any atom j,
the row of `FiniteTopGroup.atom_table` for the atom j * i^-1 sends i to j
(Folland, A Course in Abstract Harmonic Analysis, 2.2).  A nonempty
target then needs at least one translate and at most k, the number of
distinct translates.

Both compute one recurrence: every cover of a nonempty K holds a
translate t containing K's lowest atom, and the rest of it covers K - t,
so (K:U) = 1 + min (K - t : U) over those t.
"""

from fractions import Fraction

from .errors import InputError, TooLarge
from .groups import FiniteTopGroup
from .measure import FiniteMeasure
from .topology import bit_indices, mask_of

#: `covering_table` lists all 2^k atom selections, and `covering_number`
#: may visit every subset of K when U's translates overlap, so both refuse
#: more atoms than this: the table always, the search for overlapping
#: translates only.
MAX_TABLE_ATOMS = 16


def _check_selections(g: FiniteTopGroup, k: int, u: int):
    """InputError for a selection with a bit past the atoms or an empty
    template u."""
    atoms = len(g.atoms)
    for sel in (k, u):
        if not 0 <= sel < 1 << atoms:
            raise InputError(f"selection {sel:#x} holds a bit past the {atoms} atoms")
    if u == 0:
        raise InputError("template 0x0 has empty interior")


def covering_number(g: FiniteTopGroup, k: int, u: int) -> int:
    """(K:U): the fewest left translates of the atoms selected by u whose
    union holds the atoms selected by k.

    The module's recurrence, evaluated from K down with one memo keyed by
    the uncovered remainder, each remainder computed once.  When U's
    distinct translates tile G/N, each atom lies in exactly one, so the
    remainders form a chain of at most |K| + 1.  Otherwise they are
    subsets of K, at most 2^|K| <= 2^16: more than MAX_TABLE_ATOMS atoms
    raise TooLarge before any remainder is visited.  The empty target
    needs zero translates by convention (the measure axioms force
    mu(empty) = 0 downstream).
    """
    _check_selections(g, k, u)
    translates = _translates(g, u)
    atoms = len(g.atoms)
    # the translates cover G/N (module docstring): they overlap iff their
    # sizes sum past the atom count
    if atoms > MAX_TABLE_ATOMS and sum(t.bit_count() for t in translates) > atoms:
        raise TooLarge(
            f"{atoms} atoms exceed the bound {MAX_TABLE_ATOMS} for overlapping translates"
        )
    cands = [t for t in translates if t & k]  # the rest hold no atom of K
    best = {0: 0}  # uncovered remainder -> (remainder : U)

    def count(rest):
        if rest not in best:
            low = rest & -rest
            best[rest] = 1 + min(count(rest & ~t) for t in cands if t & low)
        return best[rest]

    return count(k)


def _translates(g: FiniteTopGroup, sel: int) -> list:
    """The distinct left translates of the union of the atoms in sel, as
    sorted atom selections.  Every member of atom i carries atom j to
    atom_table[i][j], so there are at most k of them for k atoms."""
    return sorted({mask_of(row[j] for j in bit_indices(sel)) for row in g.atom_table})


def covering_table(g: FiniteTopGroup, u: int) -> tuple:
    """(K:U) for every union K of atoms, indexed by atom selection, for the
    union U of the atoms selected by u, a neighbourhood of the identity:
    u must hold atom 0, N.

    Entry sel equals covering_number(g, sel, u).  The table fills the
    module's recurrence by lowest atom, highest first: sel - t, for t
    holding sel's lowest atom, has a higher lowest atom, so it is already
    filled.  For k atoms, U has at most k distinct translates
    (`_translates`), so the work is O(k * 2^k); more than MAX_TABLE_ATOMS
    atoms raise TooLarge.
    """
    _check_selections(g, 0, u)
    if not u & 1:
        raise InputError(f"selection {u:#x} misses N, so it is no neighborhood of the identity")
    k = len(g.atoms)
    if k > MAX_TABLE_ATOMS:
        raise TooLarge(f"{k} atoms exceed the covering table bound {MAX_TABLE_ATOMS}")
    translates = _translates(g, u)
    best = [0] * (1 << k)
    for low in reversed(range(k)):
        bit = 1 << low
        rests = [~t for t in translates if t & bit]
        # the selections whose lowest atom is low
        for sel in range(bit, 1 << k, bit << 1):
            best[sel] = 1 + min(best[sel & r] for r in rests)
    return tuple(best)


def existence_via_covering(g: FiniteTopGroup, k0: int) -> FiniteMeasure:
    """The existence construction, landed exactly on the finite group.

    The neighborhood filter of the identity has minimum N, so the net of
    ratio functionals stabilizes at mu_N; extending from closed compact
    sets to atoms (each atom is closed compact) gives the measure.
    """
    sel = g.image(k0)
    if g.preimage(sel) != k0:  # closed iff equal to its closure, the atoms it meets
        raise InputError(f"reference set {k0:#x} is not closed")
    # a closed set is a union of atoms, so open: its own interior
    if k0 == 0:
        raise InputError(f"reference set {k0:#x} has empty interior")
    # N = U_e, selected by 1, is an open neighbourhood of the identity.
    # mu_N on each atom, with the reference count (K0:N) >= 1 found once
    den = covering_number(g, sel, 1)
    masses = tuple(
        Fraction(covering_number(g, 1 << i, 1), den) for i in range(len(g.atoms))
    )
    return FiniteMeasure(g, masses)
