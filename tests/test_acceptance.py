"""End-to-end acceptance suite: ten criteria, one printed verdict line each.

Every numeric check is an exact rational equality unless the criterion
itself states a bound (the runtime budget in criterion 1).
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from haarlab import (
    FiniteMeasure,
    Interval,
    IntervalUnion,
    PointFunction,
    canonical_haar,
    counterexample_bk,
    covering_number,
    enumerate_topologies,
    existence_via_covering,
    fubini_check,
    haar_solution_space,
    haar_v,
    identity_closure,
    is_haar,
    pullback,
    pushforward,
    quotient,
    regularity_gap,
    riesz_check,
    separate,
    split_compact,
    translate_v,
    urysohn_finite,
    verify_bk_certificate,
)
from haarlab.topology import TOPOLOGY_COUNTS, bit_indices

from conftest import brute_force_covering_count, random_fraction, src_env
from literal import closed_sets, opens


import pytest


@pytest.fixture
def verdict(request):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _verdict(number, ok, title):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {title}"
        with capman.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _verdict


def test_criterion_1_existence(corpus_instances, verdict):
    start = time.monotonic()
    ok = True
    for tg in corpus_instances:
        report = is_haar(tg, canonical_haar(tg))
        if not (report.is_haar and report.left_invariant and report.right_invariant):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    verdict(1, ok, f"canonical Haar passes both sides on every corpus instance ({elapsed:.2f}s)")


def test_criterion_2_uniqueness(corpus_instances, verdict):
    rng = random.Random(20260823)
    ok = True
    for tg in corpus_instances:
        dim, basis = haar_solution_space(tg)
        if dim != 1 or basis[0].atom_mass != canonical_haar(tg).atom_mass:
            ok = False
    mu_pool = corpus_instances
    for _ in range(100):
        tg = rng.choice(mu_pool)
        mu = canonical_haar(tg)
        a = random_fraction(rng, max_num=999) + Fraction(1, 1000)
        scaled = mu.scaled(a)
        recovered = scaled.total() / mu.total()
        if recovered != a or not is_haar(tg, scaled).is_haar:
            ok = False
            break
    verdict(2, ok, "solution space is 1-dimensional; 100 random scale factors recovered exactly")


def test_criterion_3_existence_construction(corpus_instances, verdict):
    ok = True
    for tg in corpus_instances:
        n = identity_closure(tg)
        if existence_via_covering(tg, n).atom_mass != canonical_haar(tg).atom_mass:
            ok = False
            break
    rng = random.Random(12)
    if ok:
        for tg in corpus_instances:
            if tg.group.order > 12:
                continue
            closed = closed_sets(tg.space)
            targets = set(tg.atoms) | {tg.space.full, 0}
            targets.update(rng.choice(closed) for _ in range(10))
            templates = {identity_closure(tg), tg.space.full}
            for k in sorted(targets):
                for s in sorted(templates):
                    count = covering_number(tg, tg.selection(k), tg.selection(s))
                    if count != brute_force_covering_count(tg, k, s):
                        ok = False
    verdict(3, ok, "covering construction equals canonical Haar; counts match brute-force oracle")


def test_criterion_4_quotient_correspondence(corpus_instances, verdict):
    rng = random.Random(51)
    ok = True
    for tg in corpus_instances:
        for scale in (Fraction(1), random_fraction(rng) + 1):
            mu = canonical_haar(tg).scaled(scale)
            if pullback(tg, pushforward(tg, mu)).atom_mass != mu.atom_mass:
                ok = False
            nu = canonical_haar(quotient(tg)).scaled(scale)
            if pushforward(tg, pullback(tg, nu)).atom_mass != nu.atom_mass:
                ok = False
            if not is_haar(tg, pullback(tg, nu)).is_haar:
                ok = False
    verdict(4, ok, "pushforward/pullback are exact mutual inverses and preserve the Haar property")


def test_criterion_5_lemma_suite(verdict):
    spaces = enumerate_topologies(4)
    ok = len(spaces) == TOPOLOGY_COUNTS[4] == 355
    for space in spaces:
        flags = space.separation_flags()
        four = (
            flags.locally_compact,
            flags.strongly_locally_compact,
            flags.base_compact_nbhds,
            flags.base_closed_compact_nbhds,
        )
        if not flags.regular:
            continue
        if len(set(four)) != 1:
            ok = False
        if not flags.normal:
            ok = False
        closed = closed_sets(space)
        for a in closed:
            for b in closed:
                if a & b:
                    continue
                u, v = separate(space, a, b)
                if not (space.is_open(u) and space.is_open(v)
                        and a & ~u == 0 and b & ~v == 0 and u & v == 0):
                    ok = False
        for k in closed:
            for u1 in opens(space):
                for u2 in opens(space):
                    if k & ~(u1 | u2):
                        continue
                    k1, k2 = split_compact(space, k, u1, u2)
                    if not (space.is_closed(k1) and space.is_closed(k2)
                            and k1 | k2 == k and k1 & ~u1 == 0 and k2 & ~u2 == 0):
                        ok = False
            for u in opens(space):
                if k & ~u:
                    continue
                g = urysohn_finite(space, k, u)
                if not g.is_continuous(space):
                    ok = False
    verdict(5, ok, "355 topologies on 4 points; separation/splitting lemmas hold on all regular ones")


def test_criterion_6_fubini(corpus_instances, verdict):
    rng = random.Random(36)
    pairs = [
        (g, h)
        for g, h in combinations(corpus_instances, 2)
        if g.group.order * h.group.order <= 36
    ]
    ok = bool(pairs)
    for g, h in pairs:
        mu, lam = canonical_haar(g), canonical_haar(h)
        oh = h.group.order
        for a in g.atoms:
            for b in h.atoms:
                vals = tuple(
                    Fraction((a >> x & 1) and (b >> y & 1))
                    for x in range(g.group.order)
                    for y in range(oh)
                )
                lhs, rhs = fubini_check(g, h, PointFunction(vals), mu, lam)
                if lhs != rhs:
                    ok = False
    for _ in range(50):
        g, h = rng.choice(pairs)
        oh = h.group.order
        vals = [None] * (g.group.order * oh)
        for a in g.atoms:
            for b in h.atoms:
                v = random_fraction(rng, nonneg=False)
                for x in bit_indices(a):
                    for y in bit_indices(b):
                        vals[x * oh + y] = v
        lhs, rhs = fubini_check(
            g, h, PointFunction(tuple(vals)), canonical_haar(g), canonical_haar(h)
        )
        if lhs != rhs:
            ok = False
    verdict(6, ok, "Fubini equality exact for atom indicators and 50 random continuous functions")


def test_criterion_7_counterexample(verdict):
    ok = True
    for c in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 2)):
        for bound in (Fraction(1), Fraction(10), Fraction(1000)):
            cert = counterexample_bk(c, bound)
            if not verify_bk_certificate(cert):
                ok = False
            if c == 1 and bound == 10 and len(cert.translates) != 11:
                ok = False
    verdict(7, ok, "all 12 certificates re-verify; c=1, bound=10 yields exactly 11 disjoint translates")


def test_criterion_8_plane(verdict):
    unit = IntervalUnion([Interval(0, 1)])
    ok = haar_v(unit) == 1
    rng = random.Random(409)
    e = IntervalUnion([Interval(0, 1, False, True), Interval(2, Fraction(5, 2))])
    for _ in range(100):
        a = random_fraction(rng, nonneg=False)
        b = random_fraction(rng, nonneg=False)
        if haar_v(translate_v(e, a, b)) != haar_v(e):
            ok = False
    target = haar_v(e)
    prev_in, prev_out = None, None
    for k in range(1, 21):
        eps = Fraction(1, 2**k)
        inner, outer = regularity_gap(e, eps)
        vi, vo = haar_v(inner), haar_v(outer)
        if not (vi <= target <= vo and target - vi <= eps and vo - target <= eps):
            ok = False
        if prev_in is not None and not (vi >= prev_in and vo <= prev_out):
            ok = False
        prev_in, prev_out = vi, vo
    verdict(8, ok, "unit cylinder mass 1; 100 exact shifts; monotone regularity down to eps=1/2^20")


def test_criterion_9_riesz(corpus_instances, verdict):
    rng = random.Random(307)
    ok = True
    for tg in corpus_instances:
        measures = [
            FiniteMeasure(tg, tuple(random_fraction(rng, max_num=5) for _ in tg.atoms))
            for _ in range(20)
        ]
        for m1 in measures:
            for m2 in measures:
                if riesz_check(tg, m1, m2) != (m1.atom_mass == m2.atom_mass):
                    ok = False
    verdict(9, ok, "riesz_check agrees with measure equality over 20 random Radon measures per instance")


def test_criterion_10_determinism(tmp_path, child, verdict):
    inputs = {
        "enumerate": {"group": {"family": "cyclic", "params": {"n": 4}}},
        "verify-haar": {
            "group": {"family": "cyclic", "params": {"n": 4}},
            "topology": {"normal_subgroup": [0, 2]},
            "measure": {"atom_masses": ["1/1", "1/1"]},
        },
        "construct": {
            "group": {"family": "symmetric3"},
            "topology": {"normal_subgroup": [0, 3, 4]},
            "k0": [0, 3, 4],
        },
    }
    ok = True
    for command, payload in inputs.items():
        reports = []
        for run_id, seed in enumerate(("0", "31337")):
            out_path = tmp_path / f"{command}-{run_id}.json"
            env = src_env(PYTHONHASHSEED=seed)
            if child(command, payload, "--output", str(out_path), env=env).returncode != 0:
                ok = False
            reports.append(out_path.read_bytes())
        if reports[0] != reports[1]:
            ok = False
    verdict(10, ok, "enumerate/verify/construct reports byte-identical across independent runs")
