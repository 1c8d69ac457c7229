"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete; tolerances are pinned in the assertions.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pohst.numbertheory import compare_bounds
from pohst.partition import (
    GoodPartition,
    PartitionBlock,
    build_good_partition,
    certificate_from_json,
    certificate_to_json,
    ideal_case_factorization,
    parity_counts,
    validate_partition,
)
from pohst.search import (
    enumerate_maximizers,
    maximize_f,
    sample_blockwise_domination,
    sample_domination,
    sweep_patterns,
)
from pohst.triangle import SignedTerm, TermIndex, eval_f, pohst_bound, term_indices


def _report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


@pytest.fixture(scope="module")
def certificates():
    """Every good partition for every sign pattern, n = 1..12."""
    out = []
    for n in range(1, 13):
        for pat in itertools.product((1, -1), repeat=n):
            out.append(build_good_partition(pat))
    return out


def test_criterion_1_exhaustive_partition_soundness():
    total = failures = 0
    n12_time = None
    for n in range(1, 13):
        report = sweep_patterns(n)
        total += report.patterns_checked
        failures += len(report.failures)
        if n == 12:
            n12_time = report.wall_time
    ok = failures == 0 and total == 2 ** 13 - 2 and n12_time < 60.0
    _report(1, ok, f"{total} patterns over n=1..12, {failures} failures, "
            f"n=12 sweep {n12_time:.2f}s (budget 60s)")


def test_criterion_2_maximization_reproduces_bound():
    worst_gap = 0.0
    slowest = 0.0
    for n in range(1, 11):
        t0 = time.perf_counter()
        res = maximize_f(n)
        elapsed = time.perf_counter() - t0
        worst_gap = max(worst_gap, abs(res.best_value - pohst_bound(n)))
        slowest = max(slowest, elapsed)
        assert elapsed < 300.0, f"n={n} took {elapsed:.1f}s"
    ok = worst_gap <= 1e-6
    _report(2, ok, f"max |best - 2^floor((n+1)/2)| = {worst_gap:.2e} over "
            f"n=1..10 (tol 1e-6), slowest run {slowest:.1f}s")


def test_criterion_3_maximizer_characterization():
    checked = 0
    for n in range(1, 17):
        rows = 1 << n
        masks = np.arange(rows, dtype=np.int64)
        X = np.empty((rows, n), dtype=np.int64)
        for b in range(n):
            X[:, b] = -((masks >> b) & 1)
        # integer arithmetic: every term is 0, 1, or 2, so f is exact
        f = np.ones(rows, dtype=np.int64)
        for i in range(n):
            p = np.ones(rows, dtype=np.int64)
            for j in range(i, n):
                p = p * X[:, j]
                f = f * (1 - p)
        bound = 2 ** ((n + 1) // 2)
        attain = masks[f == bound]
        assert int(f.max()) == bound
        assert np.all(f[f != bound] < bound)
        # independent adjacency filter: no two -1 adjacent, maximal count
        no_adjacent = (masks & (masks >> 1)) == 0
        full_count = np.bitwise_count(masks.astype(np.uint64)) == (n + 1) // 2
        expected = masks[no_adjacent & full_count]
        assert np.array_equal(np.sort(attain), np.sort(expected))
        assert len(attain) == (1 if n % 2 == 1 else n // 2 + 1)
        vectors = {tuple(-1 if (m >> b) & 1 else 0 for b in range(n))
                   for m in attain.tolist()}
        assert vectors == set(enumerate_maximizers(n))
        checked += rows
    _report(3, True, f"{checked} vectors over {{0,-1}}^n, n=1..16; attainers "
            "match the adjacency-filter enumeration exactly")


def test_criterion_4_domination_sampled():
    for n in range(1, 11):
        r = sample_domination(n, samples=100_000, seed=42)
        assert r, f"n={n}: {r.reason}"
        r = sample_blockwise_domination(n, samples=100_000, seed=42)
        assert r, f"n={n} blockwise: {r.reason}"
    _report(4, True, "10^5 seeded samples per n=1..10 dominated globally "
            "and block-wise (tol 1e-12)")


def test_criterion_5_parity_invariant():
    checked = 0
    for n in range(2, 15, 2):
        for pat in itertools.product((1, -1), repeat=n):
            if pat.count(-1) % 2 == 1:
                b_plus, b_minus = parity_counts(pat)
                assert b_plus == b_minus, (pat, b_plus, b_minus)
                checked += 1
    _report(5, True, f"b+ = b- on {checked} odd-negative patterns, even n=2..14")


def _terms_of(v):
    """All term values of one vector, via running products per row start."""
    n = len(v)
    out = {}
    for i in range(n):
        p = 1.0
        for j in range(i, n):
            p *= v[j]
            out[(i + 1, j + 1)] = 1.0 - p
    return out


def test_criterion_6_ideal_case_factorization():
    for n in range(1, 51):
        blocks = ideal_case_factorization(n)
        flat = [t for b in blocks for t in b]
        assert len(flat) == n * (n + 1) // 2
        assert set(flat) == set(term_indices(n))

    rng = np.random.default_rng(42)
    factorizations = {n: ideal_case_factorization(n) for n in range(1, 11)}
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        v = rng.uniform(-1.0, 0.0, size=n)
        terms = _terms_of(v)
        product = 1.0
        for b in factorizations[n]:
            for t in b:
                product *= terms[tuple(t)]
        fv = eval_f(v)
        scale = max(abs(product), abs(fv), 1e-15)
        worst = max(worst, abs(product - fv) / scale)
    ok = worst <= 1e-12
    _report(6, ok, f"exact cover n=1..50; product identity on 10^4 "
            f"all-nonpositive vectors, worst rel err {worst:.2e} (tol 1e-12)")


def _all_leq(lhs, rhs):
    tol = np.maximum(1e-15, 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs)))
    return bool(np.all(lhs <= rhs + tol))


def test_criterion_7_elementary_inequalities():
    rng = np.random.default_rng(42)
    N = 100_000
    ok = True

    # first suite: signed variables
    a = rng.uniform(-1.0, 1.0, N)
    b = rng.uniform(-1.0, 1.0, N)
    ok &= _all_leq(1 - a, np.full(N, 2.0))
    ok &= _all_leq((1 - a) * (1 - b) * (1 - a * b), np.full(N, 2.0))
    a = rng.uniform(0.0, 1.0, N)
    b = rng.uniform(-1.0, 0.0, N)
    c = rng.uniform(-1.0, 0.0, N)
    ok &= _all_leq((1 - a) * (1 - a * b), np.ones(N))
    ok &= _all_leq((1 - a) * (1 - a * b) * (1 - a * c) * (1 - a * b * c),
                   np.ones(N))

    # second suite: all variables in [0, 1]
    a = rng.uniform(0.0, 1.0, N)
    b = rng.uniform(0.0, 1.0, N)
    c = rng.uniform(0.0, 1.0, N)
    ok &= _all_leq(1 - a, 1 + a)
    ok &= _all_leq((1 - a) * (1 + a * b), (1 + a) * (1 - a * b))
    ok &= _all_leq((1 - a) * (1 + a * b) * (1 + a * c) * (1 - a * b * c),
                   (1 + a) * (1 - a * b) * (1 - a * c) * (1 + a * b * c))

    # equality cases of the triple product, exact
    g = lambda x, y: (1 - x) * (1 - y) * (1 - x * y)
    ok &= g(0.0, -1.0) == 2.0 and g(-1.0, 0.0) == 2.0
    _report(7, ok, "7 inequalities on 10^5 samples each (tol 1e-12); "
            "equality cases evaluate to exactly 2")


def test_criterion_8_regulator_bounds():
    res2 = compare_bounds(2, 1.0)
    hand = 2.0 * math.log(2.0) + 2.0
    ok = math.isclose(res2.remak, hand, rel_tol=1e-12)
    ok &= math.isclose(res2.improved, hand, rel_tol=1e-12)
    res3 = compare_bounds(3, 1.0)
    ok &= math.isclose(res3.improvement, 3 * math.log(3) - math.log(4),
                       rel_tol=1e-12)
    for m in range(2, 201):
        res = compare_bounds(m, 1.0)
        ok &= res.improved <= res.remak + 1e-12
        ok &= (res.improvement == 0.0) == (m == 2)
    _report(8, ok, "improved <= Remak for m=2..200 with equality only at m=2; "
            "hand values at m=2 and m=3 within 1e-12")


def _move_corner(idx, n):
    i, j = idx
    for ci, cj in ((i - 1, j), (i + 1, j), (i, j + 1), (i, j - 1)):
        if 1 <= ci <= cj <= n:
            return TermIndex(ci, cj)
    return None


def test_criterion_9_certificate_round_trip_and_mutations(certificates):
    mutations = 0
    for gp in certificates:
        text = certificate_to_json(gp)
        back = certificate_from_json(text)
        assert certificate_to_json(back) == text
        assert validate_partition(back), back.pattern

        for k, blk in enumerate(back.blocks):
            rest = back.blocks[:k] + back.blocks[k + 1:]
            # drop the block
            assert not validate_partition(
                GoodPartition(back.n, back.pattern, rest))
            # flip the sign of its first member
            m0 = blk.members[0]
            flipped = PartitionBlock(blk.kind, (SignedTerm(
                m0.index, -m0.sign),) + blk.members[1:], blk.provenance)
            assert not validate_partition(
                GoodPartition(back.n, back.pattern, rest + (flipped,)))
            mutations += 2
            # move one corner to a neighboring index
            target = _move_corner(m0.index, back.n)
            if target is None:
                continue  # n=1: nowhere to move inside the triangle
            moved = PartitionBlock(blk.kind, (SignedTerm(
                target, m0.sign),) + blk.members[1:], blk.provenance)
            assert not validate_partition(
                GoodPartition(back.n, back.pattern, rest + (moved,)))
            mutations += 1
    _report(9, True, f"{len(certificates)} certificates round-trip "
            f"byte-identically; all {mutations} single-block mutations rejected")
