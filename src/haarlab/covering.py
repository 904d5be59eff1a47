"""Exact covering numbers (K:S) and the ratio-functional construction.

The covering number is the minimum number of left translates of the
interior of S needed to cover K.  For a single problem it is computed
exactly by iterative deepening over candidate translates in ascending
element order, which also makes the reported optimal translate list the
lexicographically smallest one.  `covering_table` gives the counts for
every target K at once for one neighbourhood U.

The left translates of every nonempty union of atoms cover G, so no
search here can fail: for an atom i in the selection s and any atom j,
the row of `FiniteTopGroup.atom_table` for the atom j * i^-1 sends i to j
(Folland, A Course in Abstract Harmonic Analysis, 2.2).  A nonempty
target then needs at least one translate and at most k, the number of
distinct translates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyInterior, NotClosed, NotOpen
from .groups import FiniteTopGroup
from .measure import FiniteMeasure
from .records import Record
from .topology import bit_indices, mask_of


class CoveringProblem(Record):
    _fields = ("group", "k", "s")

    def __init__(self, group: FiniteTopGroup, k: int, s: int):
        # k: target point mask, closed compact
        # s: covering template point mask, nonempty interior
        space = group.space
        space.check_subset(k)
        space.check_subset(s)
        if not space.is_closed(k):
            raise NotClosed(f"target {k:#x} is not closed")
        if space.interior(s) == 0:
            raise EmptyInterior(f"template {s:#x} has empty interior")
        self._assign(group, k, s)


class CoveringSolution(Record):
    _fields = ("count", "translates")

    def __init__(self, count: int, translates: tuple):
        self._assign(count, translates)


def covering_number(p: CoveringProblem) -> CoveringSolution:
    """Minimal translate cover of p.k by copies of interior(p.s).

    The empty target needs zero translates by convention (the measure
    axioms force mu(empty) = 0 downstream).
    """
    if p.k == 0:
        return CoveringSolution(0, ())
    g = p.group
    # K is closed and interior(S) open, and U_x = xN (`FiniteTopGroup`), so
    # both are unions of atoms of |N| points each: the search runs on atom
    # selections, pruning alike
    target = g.selection(p.k)
    s_sel = g.selection(g.space.interior(p.s))
    # candidate translates meeting K, in ascending order of their elements;
    # together they cover K (module docstring)
    cands = [(m, x) for m, x in _translates(g, s_sel).items() if m & target]
    max_gain = max(bin(m & target).count("1") for m, _ in cands)

    def dfs(start, covered, depth):
        """Lex-first cover of target using exactly depth more candidates
        with indices >= start; returns a list of elements or None."""
        if covered & target == target:
            return []
        if depth == 0:
            return None
        missing = bin(target & ~covered).count("1")
        if missing > depth * max_gain:
            return None
        for idx in range(start, len(cands)):
            m, x = cands[idx]
            if m & target & ~covered == 0:
                continue
            rest = dfs(idx + 1, covered | m, depth - 1)
            if rest is not None:
                return [x] + rest
        return None

    # dfs finds covers of at most depth candidates and every smaller depth
    # failed, so a success has exactly depth elements; the candidates
    # together cover K, so some depth up to len(cands) succeeds
    depth = 1
    while (sol := dfs(0, 0, depth)) is None:
        depth += 1
    return CoveringSolution(depth, tuple(sol))


def _check_neighbourhood(g: FiniteTopGroup, u: int):
    if not g.space.is_open(u) or not u >> g.group.identity & 1:
        raise NotOpen(f"{u:#x} is not an open neighborhood of the identity")


def _translates(g: FiniteTopGroup, sel: int) -> dict:
    """Each distinct left translate of the union of the atoms in sel, as an
    atom selection, mapped to the smallest element giving it, in ascending
    order of that element.  Every member of atom i carries atom j to
    atom_table[i][j], and reps[i] is the smallest of them, so at most k
    translates are listed for k atoms."""
    out = {}
    for rep, row in sorted(zip(g.reps, g.atom_table)):
        out.setdefault(mask_of(row[j] for j in bit_indices(sel)), rep)
    return out


def _union_distances(translates, k: int) -> list:
    """Breadth-first search over unions of the given atom selections: entry
    sel is the fewest of them whose union is sel, or None if none is."""
    dist = [None] * (1 << k)
    dist[0] = 0
    frontier = [0]
    steps = 0
    while frontier:
        steps += 1
        reached = []
        for sel in frontier:
            for t in translates:
                nxt = sel | t
                if dist[nxt] is None:
                    dist[nxt] = steps
                    reached.append(nxt)
        frontier = reached
    return dist


def covering_table(g: FiniteTopGroup, u: int) -> tuple:
    """(K:U) for every union K of atoms, indexed by atom selection (bit i
    selects atom i), for an open neighbourhood U of the identity.

    Entry sel equals covering_number(CoveringProblem(g, g.preimage(sel),
    u)).count.  U is a union of atoms with at most k distinct translates
    (`_translates`).  A breadth-first search gives the fewest translates
    whose union is each selection; the fewest covering K is the least of
    these over the supersets of K, one superset-minimum pass over the 2^k
    selections.  Work is O(k * 2^k).
    """
    _check_neighbourhood(g, u)
    k = len(g.atoms)
    translates = _translates(g, g.selection(u))
    dist = _union_distances(translates, k)
    # no cover uses more than the k distinct translates
    best = [k + 1 if d is None else d for d in dist]
    for i in range(k):
        bit = 1 << i
        for sel in range(1 << k):
            if not sel & bit and best[sel | bit] < best[sel]:
                best[sel] = best[sel | bit]
    return tuple(best)


def existence_via_covering(g: FiniteTopGroup, k0: int) -> FiniteMeasure:
    """The existence construction, landed exactly on the finite group.

    The neighborhood filter of the identity has minimum N, so the net of
    ratio functionals stabilizes at mu_N; extending from closed compact
    sets to atoms (each atom is closed compact) gives the measure.
    """
    space = g.space
    space.check_subset(k0)
    if not space.is_closed(k0):
        raise NotClosed(f"reference set {k0:#x} is not closed")
    if space.interior(k0) == 0:
        raise EmptyInterior(f"reference set {k0:#x} has empty interior")
    # N = U_e is an open neighbourhood of the identity.  mu_N on each atom,
    # with the reference count (K0:N) >= 1 found once
    n_mask = g.atoms[0]
    den = covering_number(CoveringProblem(g, k0, n_mask)).count
    masses = tuple(
        Fraction(covering_number(CoveringProblem(g, atom, n_mask)).count, den)
        for atom in g.atoms
    )
    return FiniteMeasure(g, masses)

