import random
from fractions import Fraction

import pytest

from haarlab import (
    FiniteGroup,
    FiniteSpace,
    FiniteTopGroup,
    PointFunction,
    canonical_haar,
    cli,
    covering,
    covering_number,
    covering_table,
    cyclic,
    direct_product,
    existence_via_covering,
    fubini_check,
    identity_closure,
    is_haar,
    quotient,
    symmetric3,
)
from haarlab.errors import InputError, TooLarge
from haarlab.topology import bit_indices, mask_of

from conftest import (
    LARGE_INSTANCES,
    brute_force_covering_count,
    discrete_instance,
    z4_coset_instance,
)
from literal import closed_sets, literal_arc_cover, literal_set_product, opens


def count(tg, k, s):
    """(K:S) for the point masks k and s, through their atom selections."""
    return covering_number(tg, tg.selection(k), tg.selection(s))


# -- problem validation ------------------------------------------------------

def test_problem_validation():
    """Both functions refuse a selection with a bit past the atoms as
    malformed input, a typed InputError, and an empty template U for its
    empty interior; the checks run before the empty target's shortcut."""
    tg = z4_coset_instance()  # 2 atoms
    for k, u in ((0b100, 0b1), (0b1, 0b100), (-1, 0b1), (0b1, -1), (0, 0b111)):
        with pytest.raises(InputError, match="holds a bit past the 2 atoms"):
            covering_number(tg, k, u)
    for u in (0b101, -1):
        with pytest.raises(InputError, match="holds a bit past the 2 atoms"):
            covering_table(tg, u)
    for k in (0, 0b1, 0b11):
        with pytest.raises(InputError, match=r"^template 0x0 has empty interior$"):
            covering_number(tg, k, 0)
    with pytest.raises(InputError, match=r"^template 0x0 has empty interior$"):
        covering_table(tg, 0)


# -- covering_number examples ------------------------------------------------

def test_covering_examples():
    tg = z4_coset_instance()  # atoms {0, 2} and {1, 3}
    assert covering_number(tg, 0b01, 0b01) == 1
    assert covering_number(tg, 0, 0b01) == 0
    assert covering_number(tg, 0b11, 0b01) == 2
    assert covering_number(tg, 0b11, 0b11) == 1
    assert covering_number(tg, 0b10, 0b10) == 1

def test_covering_discrete_singleton_template():
    tg = discrete_instance(cyclic(5))
    assert covering_number(tg, 0b11111, 0b00001) == 5

def test_translates_really_cover():
    """`_translates` lists, sorted, exactly the distinct left translates of
    each nonempty open U, taken point by point with the group law, and
    those meeting a closed K cover it, as the search assumes."""
    for tg in instances_small():
        for s in opens(tg.space):
            if s == 0:
                continue
            translates = covering._translates(tg, tg.selection(s))
            literal = {tg.selection(tg.group.translate(x, s)) for x in range(tg.group.order)}
            assert translates == sorted(literal), (tg, s)
            for k in map(tg.selection, closed_sets(tg.space)):
                acc = 0
                for t in translates:
                    if t & k:
                        acc |= t
                assert k & ~acc == 0, (tg, s, k)


# -- brute-force oracle ------------------------------------------------------

def instances_small():
    out = [z4_coset_instance(), discrete_instance(cyclic(4))]
    s3 = symmetric3()
    a3 = s3.generated_subgroup([s3.mul(1, 2)])
    out.append(FiniteTopGroup(s3, a3))
    return out

def test_matches_brute_force_oracle():
    for tg in instances_small():
        for k in closed_sets(tg.space):
            for s in opens(tg.space):
                if tg.space.interior(s) == 0:
                    continue
                assert count(tg, k, s) == brute_force_covering_count(tg, k, s)


# -- covering-number properties ----------------------------------------------

def test_translation_invariance():
    for tg in instances_small():
        for k in closed_sets(tg.space):
            s = identity_closure(tg)
            base = count(tg, k, s)
            for g in range(tg.group.order):
                gk = tg.group.translate(g, k)
                assert count(tg, gk, s) == base

def test_subadditivity():
    for tg in instances_small():
        s = identity_closure(tg)
        closed = closed_sets(tg.space)
        for k1 in closed:
            for k2 in closed:
                c1 = count(tg, k1, s)
                c2 = count(tg, k2, s)
                cu = count(tg, k1 | k2, s)
                assert cu <= c1 + c2

def test_chain_bound():
    for tg in instances_small():
        u = identity_closure(tg)
        for k in closed_sets(tg.space):
            for v in opens(tg.space):
                if tg.space.interior(v) == 0 or not tg.space.is_closed(v):
                    continue
                ku = count(tg, k, u)
                kv = count(tg, k, v)
                vu = count(tg, v, u)
                assert ku <= kv * vu

def mu_u(tg, k, k0, u):
    """The ratio functional (K:U) / (K0:U) of the existence construction."""
    return Fraction(count(tg, k, u), count(tg, k0, u))

def test_range_bound():
    for tg in instances_small():
        u = identity_closure(tg)
        k0 = tg.space.full
        for k in closed_sets(tg.space):
            val = mu_u(tg, k, k0, u)
            bound = count(tg, k, k0)
            assert 0 <= val <= bound

def test_separated_additivity():
    for tg in instances_small():
        u = identity_closure(tg)
        k0 = tg.space.full
        u_inv = mask_of(tg.group.inverse[x] for x in bit_indices(u))
        closed = closed_sets(tg.space)
        for k1 in closed:
            for k2 in closed:
                if literal_set_product(tg.group, k1, u_inv) & literal_set_product(tg.group, k2, u_inv):
                    continue
                lhs = mu_u(tg, k1 | k2, k0, u)
                assert lhs == mu_u(tg, k1, k0, u) + mu_u(tg, k2, k0, u)


# -- mu_u --------------------------------------------------------------------

def test_mu_u_examples():
    tg = z4_coset_instance()
    n = 0b0101
    assert mu_u(tg, n, n, n) == 1
    assert mu_u(tg, 0b1111, n, n) == 2
    assert mu_u(tg, 0, n, n) == 0

def test_mu_u_rejects_bad_neighborhood():
    """The construction's callers keep the checks on U and K0."""
    tg = z4_coset_instance()
    with pytest.raises(
        InputError, match=r"^selection 0x2 misses N, so it is no neighborhood of the identity$"
    ):
        covering_table(tg, 0b10)  # the atom {1, 3}: open but misses the identity
    with pytest.raises(InputError, match=r"^reference set 0x0 has empty interior$"):
        existence_via_covering(tg, 0)  # closed, with empty interior


# -- existence construction --------------------------------------------------

def test_existence_examples():
    tg = z4_coset_instance()
    assert existence_via_covering(tg, 0b0101).atom_mass == (1, 1)
    half = Fraction(1, 2)
    assert existence_via_covering(tg, 0b1111).atom_mass == (half, half)
    triv = discrete_instance(cyclic(1))
    assert existence_via_covering(triv, 0b1).atom_mass == (Fraction(1),)

def test_existence_errors():
    """K0 is checked on the atoms, here of Z4 with N = {0, 2}: a set that
    cuts an atom is not closed, the empty set has empty interior, and a
    mask past the points is refused as any subset is."""
    tg = z4_coset_instance()
    for k0, text in (
        (0b0001, "reference set 0x1 is not closed"),  # cuts the atom {0, 2}
        (0, "reference set 0x0 has empty interior"),
        (0b10000, "subset 0x10 not valid for 4 points"),
        (-1, "subset -0x1 not valid for 4 points"),
    ):
        with pytest.raises(InputError) as info:
            existence_via_covering(tg, k0)
        assert str(info.value) == text, k0
    with pytest.raises(InputError, match=r"^reference set 0x0 has empty interior$"):
        existence_via_covering(discrete_instance(cyclic(2)), 0)

def test_existence_matches_canonical(corpus_instances):
    for tg in corpus_instances:
        n = identity_closure(tg)
        mu = existence_via_covering(tg, n)
        assert mu.atom_mass == canonical_haar(tg).atom_mass
        assert is_haar(tg, mu).is_haar


# -- one covering table per neighbourhood ------------------------------------

def test_covering_table_matches_search_and_brute_force(corpus_instances):
    """covering_table against covering_number and the brute-force oracle, for
    every closed K.  Up to 6 atoms (the full construct table) every open
    U around e is checked.  The larger instances are discrete, with up to
    2^11 such U; there U is G and two seeded random neighbourhoods (N = {e}
    alone would cost the oracle 4^k / 2 subsets)."""
    rng = random.Random(4127)
    for tg in corpus_instances:
        e = tg.group.identity
        if len(tg.atoms) <= 6:
            nbhds = [u for u in opens(tg.space) if u >> e & 1]
        else:
            nbhds = [tg.space.full] + [
                tg.space.smallest_open_superset(rng.randrange(1 << tg.group.order) | 1 << e)
                for _ in range(2)
            ]
        for u in nbhds:
            u_sel = tg.selection(u)
            table = covering_table(tg, u_sel)
            assert len(table) == 1 << len(tg.atoms)
            for k in closed_sets(tg.space):
                k_sel = tg.selection(k)
                got = table[k_sel]
                assert got == covering_number(tg, k_sel, u_sel), (tg.group.name, k, u)
                assert got == brute_force_covering_count(tg, k, u), (tg.group.name, k, u)

def test_covering_table_rejects_bad_neighborhood():
    tg = z4_coset_instance()
    with pytest.raises(
        InputError, match=r"^selection 0x2 misses N, so it is no neighborhood of the identity$"
    ):
        covering_table(tg, 0b10)  # the atom {1, 3}: open but misses the identity
    with pytest.raises(InputError):
        covering_table(tg, 0b100)  # no atom 2
    with pytest.raises(InputError, match=r"^template 0x0 has empty interior$"):
        covering_table(tg, 0)

def test_covering_table_atom_cap(monkeypatch):
    """Past MAX_TABLE_ATOMS = 16 atoms the table is refused before its
    2^k entries are allocated; at 16 it is built."""
    z16, z17 = cyclic(16), cyclic(17)
    table = covering_table(FiniteTopGroup(z16, 0b1), 0b1)
    assert len(table) == 1 << 16
    assert (table[0], table[0b1], table[0b11], table[-1]) == (0, 1, 2, 16)

    def no_search(*args):
        raise AssertionError("covering table allocated past the cap")

    monkeypatch.setattr(covering, "_translates", no_search)
    tg = FiniteTopGroup(z17, 0b1)
    with pytest.raises(TooLarge, match=r"^17 atoms exceed the covering table bound 16$"):
        covering_table(tg, 0b1)


# -- deep searches against independent references -----------------------------

@pytest.mark.parametrize("w", range(2, 11))
def test_deep_search_matches_arc_cover(w):
    """covering_number with U the arc of w atoms, neither N nor G, against
    the arc-greedy reference on discrete Z16, the atom cap, for 20 seeded
    K's per w.  Past the cap such a U has overlapping translates, so on
    discrete Z64 each earlier case is refused with TooLarge: three seeded
    16-point K's per w, for w = 6 four K's of 27 to 35 points, and for
    w = 2, 3, 4 four K's of 32 points."""
    z16 = FiniteTopGroup(cyclic(16), 0b1)
    rng = random.Random(1600 + w)
    for _ in range(20):
        k = rng.randrange(1 << 16)
        assert covering_number(z16, k, (1 << w) - 1) == literal_arc_cover(16, k, w), hex(k)
    tg = FiniteTopGroup(cyclic(64), 0b1)
    assert tg.atoms == tuple(1 << x for x in range(64))  # atom i is the point i
    rng = random.Random(3800 + w)
    cases = [mask_of(rng.sample(range(64), 16)) for _ in range(3)]
    cases += {
        2: [0x5569CF653A8B24A6],
        3: [0x231989BB9A663EB1],
        4: [0x1104FA73FB1179B4, 0x665A434E9D664BE2],
        6: [0x6BCEFAB3A3B48C4A, 0xC12776E46DD451B2, 0x1A004483B96BA5CB, 0x5DCC39D710F48BB9],
    }.get(w, [])
    for k in cases:
        with pytest.raises(
            TooLarge, match=r"^64 atoms exceed the bound 16 for overlapping translates$"
        ):
            covering_number(tg, k, (1 << w) - 1)

def test_covering_number_atom_cap():
    """At MAX_TABLE_ATOMS = 16 atoms an overlapping U is counted; past it,
    it is refused even for the empty K, so before the recurrence visits
    any remainder.  A U whose translates tile G/N, N or G, is counted
    past the cap."""
    z16 = FiniteTopGroup(cyclic(16), 0b1)
    assert covering_number(z16, (1 << 16) - 1, 0b111) == 6
    z17 = FiniteTopGroup(cyclic(17), 0b1)
    every = (1 << 17) - 1
    for k in (0, 0b1, every):
        with pytest.raises(
            TooLarge, match=r"^17 atoms exceed the bound 16 for overlapping translates$"
        ):
            covering_number(z17, k, 0b11)
    assert covering_number(z17, every, 0b1) == 17
    assert covering_number(z17, every, every) == 1

@pytest.mark.parametrize(
    "group",
    [cyclic(16), direct_product(cyclic(2), cyclic(8)), direct_product(cyclic(4), cyclic(4))],
    ids=["Z16", "Z2xZ8", "Z4xZ4"],
)
def test_search_matches_table_on_16_atoms(group):
    """covering_number against covering_table on the discrete groups of 16
    atoms: three seeded neighbourhoods U of e, 150 seeded targets each."""
    tg = FiniteTopGroup(group, 1 << group.identity)
    assert len(tg.atoms) == 16
    rng = random.Random(3816)
    for _ in range(3):
        u = rng.randrange(1 << 16) | 1
        table = covering_table(tg, u)
        for _ in range(150):
            k = rng.randrange(1 << 16)
            assert covering_number(tg, k, u) == table[k], (group.name, hex(u), hex(k))


def construct_input(tg):
    n_mask = identity_closure(tg)
    return {
        "group": {"order": tg.group.order, "table": [list(r) for r in tg.group.table]},
        "topology": {"normal_subgroup": list(bit_indices(n_mask))},
        "k0": list(bit_indices(n_mask)),
    }

def test_covering_work_is_bounded(corpus_instances, count_calls):
    """Counter bound: existence makes k + 1 covering searches, and construct
    up to 6 atoms reads exactly one table of 2^k entries per neighbourhood
    U, with no search inside the table.  Past 6 atoms construct's worst
    case, discrete Z64 with K0 = G, makes 3(k + 1) searches: k + 1 for
    existence and k + 1 for each of U = N and U = G, and reads no table."""
    searches = count_calls(covering, "covering_number")
    tables = count_calls(covering, "covering_table")
    for tg in corpus_instances:
        searches.clear()
        existence_via_covering(tg, identity_closure(tg))
        assert len(searches) == len(tg.atoms) + 1, tg.group.name

    z48 = cyclic(48)
    instances = [tg for tg in corpus_instances if len(tg.atoms) <= 6]
    instances.append(FiniteTopGroup(z48, z48.generated_subgroup([6])))
    opts = cli.Options()
    for tg in instances:
        k = len(tg.atoms)
        n_nbhds = sum(u >> tg.group.identity & 1 for u in opens(tg.space))
        searches.clear()
        tables.clear()
        results, ok = cli.cmd_construct(construct_input(tg), opts)
        assert ok and not results["table_truncated"]
        assert len(searches) == k + 1, tg.group.name  # all from existence
        assert len(tables) == n_nbhds, tg.group.name
        assert sum(len(call.result) for call in tables) == n_nbhds * 2**k, tg.group.name

    z64 = FiniteTopGroup(cyclic(64), 0b1)
    searches.clear()
    tables.clear()
    results, ok = cli.cmd_construct(dict(construct_input(z64), k0=list(range(64))), opts)
    assert ok and results["table_truncated"]
    assert (len(searches), len(tables)) == (3 * 65, 0)


@pytest.mark.parametrize("n,gen", [(48, 6), (12, 0)], ids=["Z48-N8", "Z12-discrete"])
def test_construct_checks_only_k0_on_points(count_calls, n, gen):
    """Counter bound: construct's covering runs on atom selections, so its
    only point-mask checks are those of the input k0: at most one call
    each of FiniteSpace.is_open and interior, with the full table (Z48/N8,
    6 atoms) and with the truncated one (discrete Z12)."""
    calls = {name: count_calls(FiniteSpace, name) for name in ("is_open", "interior")}
    group = cyclic(n)
    tg = FiniteTopGroup(group, group.generated_subgroup([gen]))
    opts = cli.Options()
    results, ok = cli.cmd_construct(construct_input(tg), opts)
    assert ok and results["table_truncated"] == (len(tg.atoms) > 6)
    assert len(tg.atoms) == {48: 6, 12: 12}[n]
    assert all(len(c) <= 1 for c in calls.values()), calls


def test_construct_truncated_table():
    """Past 6 atoms construct lists (K:U) only for K an atom or G and U = N
    or G, in that order, each count checked against the brute-force oracle."""
    opts = cli.Options()
    for n, k0 in ((8, [0]), (12, [0, 5])):
        tg = discrete_instance(cyclic(n))
        data = dict(construct_input(tg), k0=k0)
        results, ok = cli.cmd_construct(data, opts)
        assert ok and results["table_truncated"]
        full = tg.space.full
        cells = [(k, u) for k in (*tg.atoms, full) for u in (tg.atoms[0], full)]
        assert [(e["k"], e["u"]) for e in results["covering_table"]] == [
            (list(bit_indices(k)), list(bit_indices(u))) for k, u in cells
        ]
        for entry, (k, u) in zip(results["covering_table"], cells):
            assert entry["count"] == brute_force_covering_count(tg, k, u)
        # (atom:N) = 1 and (K0:N) = |K0|, so every atom weighs 1/|K0|
        assert results["measure"] == [f"1/{len(k0)}"] * n
        assert results["canonical_scalar"] == f"1/{len(k0)}"


def test_covering_reads_translates_off_the_atom_table(corpus_instances, monkeypatch):
    """Counter bound: once the partition is built, covering_number,
    covering_table and fubini_check translate no point set; every translate
    they use is a row of G/N's table, the atom table."""
    z48 = cyclic(48)
    instances = list(corpus_instances)
    instances.append(FiniteTopGroup(z48, z48.generated_subgroup([6])))
    z2 = discrete_instance(cyclic(2))
    for tg in [*instances, z2]:
        assert quotient(tg).group.table and tg.reps  # builds the partition, which translates N

    def no_translate(self, g, mask):
        raise AssertionError("a point set was translated")

    monkeypatch.setattr(FiniteGroup, "translate", no_translate)
    for tg in instances:
        every = (1 << len(tg.atoms)) - 1
        for u in (1, every):
            table = covering_table(tg, u)
            for k in (*(1 << i for i in range(len(tg.atoms))), every):
                assert covering_number(tg, k, u) == table[k]
        mu, lam = canonical_haar(tg), canonical_haar(z2)
        f = PointFunction((1,) * (2 * tg.group.order))
        assert fubini_check(tg, z2, f, mu, lam) == (len(tg.atoms) * 2,) * 2


def test_translates_of_every_nonempty_union_cover(corpus_instances):
    """The transitivity argument of the covering module, which lets the
    searches drop their coverability guards: the left translates of a
    nonempty union of atoms cover G, read off the atom table and,
    literally, from the group law on points.  Every nonempty selection up
    to 8 atoms, the singletons past that."""
    instances = list(corpus_instances)
    instances += [FiniteTopGroup(g, n) for g, n in LARGE_INSTANCES]
    for tg in instances:
        k = len(tg.atoms)
        every = (1 << k) - 1
        sels = range(1, every + 1) if k <= 8 else [1 << i for i in range(k)]
        for sel in sels:
            union = 0
            for t in covering._translates(tg, sel):
                union |= t
            assert union == every, (tg, sel)
            s = tg.preimage(sel)
            points = 0
            for x in range(tg.group.order):
                points |= tg.group.translate(x, s)
            assert points == tg.space.full, (tg, sel)
