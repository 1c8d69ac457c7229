"""Sweeps, maximizer enumeration, numeric maximization, and the seeded
domination sampler."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pohst.partition as partition
import pohst.search as search
from pohst.cli import main
from pohst.partition import (
    AuditState,
    BuildState,
    CheckResult,
    ConstructionFailure,
    GoodPartition,
    PartitionBlock,
    audit_build,
    block_products,
    build_good_partition,
    parity_counts,
    prec_key,
    validate_partition,
    validator_classes,
)
from pohst.search import (
    RNG_NAME,
    _sample_batches,
    enumerate_maximizers,
    eval_f_batch,
    maximize_f,
    pattern_from_index,
    sample_blockwise_domination,
    sample_domination,
    sweep_patterns,
    verify_pattern,
)
from pohst.triangle import (
    TermIndex,
    eval_f,
    eval_term,
    leq_with_tol,
    negate_abs,
    noncanonical_set,
    pohst_bound,
    prefix_classes,
)


def test_rng_is_named():
    assert RNG_NAME == "numpy-PCG64"


@pytest.mark.parametrize("n,idx,expected", [
    (3, 0, (1, 1, 1)),
    (3, 1, (-1, 1, 1)),
    (3, 6, (1, -1, -1)),
    (1, 1, (-1,)),
])
def test_pattern_from_index_frozen(n, idx, expected):
    assert pattern_from_index(n, idx) == expected


def test_pattern_from_index_is_a_bijection():
    pats = {pattern_from_index(4, idx) for idx in range(16)}
    assert len(pats) == 16


@pytest.mark.parametrize("pattern", [
    (1,), (-1,), (-1, 1), (-1, -1, 1, -1), (1,) * 8,
])
def test_verify_pattern_accepts(pattern):
    assert verify_pattern(pattern) is None


def test_sweep_patterns_small():
    for n in range(1, 9):
        report = sweep_patterns(n)
        assert report.n == n
        assert report.patterns_checked == 2 ** n
        assert report.failures == ()
        assert report.wall_time >= 0.0


def test_sweep_patterns_parallel_agrees():
    serial = sweep_patterns(9, jobs=1)
    parallel = sweep_patterns(9, jobs=2)
    assert serial.patterns_checked == parallel.patterns_checked == 512
    assert serial.failures == parallel.failures == ()


def test_sweep_patterns_caps_jobs_at_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(search, "get_context", no_pool)
    report = sweep_patterns(8, jobs=64)
    assert report.patterns_checked == 256 and report.failures == ()


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_patterns_rejects_jobs_below_one(monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(search, "get_context", no_pool)
    with pytest.raises(ValueError, match="jobs"):
        sweep_patterns(8, jobs=jobs)


@pytest.mark.parametrize("n", [0, 25])
def test_sweep_patterns_rejects_bad_n(n):
    with pytest.raises(ValueError):
        sweep_patterns(n)


def test_sweep_walk_leaves_match_per_pattern_build(monkeypatch):
    """Every leaf of the prefix-sharing walk, n <= 10, materializes the
    partition build_good_partition gives its pattern, trace included;
    the walk's audit verdict is audit_build's, and its validator verdict,
    every row's check_blocks (no leaf is pruned) plus the leaf's
    _leaf_valid, is validate_partition's on that partition, with r the
    validator's own classes of the pattern.  So does every leaf of the
    eight prefix subtrees that jobs=2 splits n=10 into."""
    seen = []
    leaf_ok = search._leaf_ok

    def record(n, idx, r, build, audit):
        gp = build.partition(pattern_from_index(n, idx))
        seen.append((n, idx, gp, bool(audit.final(gp.blocks)), list(r),
                     search._leaf_valid(r, gp.blocks, build.steps)))
        return leaf_ok(n, idx, r, build, audit)

    monkeypatch.setattr(search, "_leaf_ok", record)
    for n in range(1, 11):
        assert sweep_patterns(n).failures == ()
    for prefix in range(8):
        assert search._sweep_subtree((10, 3, prefix)) == []
    assert len(seen) == 2 ** 11 - 2 + 2 ** 10
    for n, idx, gp, audited, r, valid in seen:
        ref = build_good_partition(pattern_from_index(n, idx))
        assert gp == ref and repr(gp.trace) == repr(ref.trace)
        assert audited == bool(audit_build(ref))
        assert r == validator_classes(ref.pattern)
        assert valid == bool(validate_partition(gp))


def _listing_mutations(blocks, rng):
    """Copies of a leaf's listing: one seeded block dropped, listed twice,
    given a flipped sign or another kind, its first member swapped with
    the next block's, or its last member replaced by a member of the
    next block (a duplicate across blocks with |J| members listed)."""
    a = int(rng.integers(len(blocks)))
    b, rest = blocks[a], blocks[:a] + blocks[a + 1:]
    yield rest
    yield blocks + (b,)
    yield rest + (b._replace(signs=(-b.signs[0],) + b.signs[1:]),)
    yield rest + (b._replace(kind="doubleton" if b.kind != "doubleton" else "singleton"),)
    if len(blocks) > 1:
        c = blocks[(a + 1) % len(blocks)]
        others = tuple(x for x in blocks if x is not b and x is not c)
        yield others + (b._replace(members=(c.members[0],) + b.members[1:]),
                        c._replace(members=(b.members[0],) + c.members[1:]))
        yield others + (b._replace(members=b.members[:-1] + c.members[-1:],
                                   signs=b.signs[:-1] + c.signs[-1:]), c)


def test_leaf_validator_matches_validate_partition_on_mutated_listings(monkeypatch):
    """For every leaf of the walk with n <= 7 and seeded mutations of its
    listing (_listing_mutations), _leaf_valid, which skips the blocks
    its path checked at their rows, accepts exactly where
    validate_partition accepts; every verdict occurs."""
    rng = np.random.default_rng(24)
    verdicts = set()

    def compare(n, idx, r, build, audit):
        pattern = pattern_from_index(n, idx)
        blocks = build.partition(pattern).blocks
        for listing in _listing_mutations(blocks, rng) if blocks else [blocks]:
            valid = search._leaf_valid(r, listing, build.steps)
            assert valid == bool(validate_partition(GoodPartition(n, pattern, listing)))
            verdicts.add(valid)
        return True

    monkeypatch.setattr(search, "_leaf_ok", compare)
    for n in range(1, 8):
        assert sweep_patterns(n).failures == ()
    assert verdicts == {True, False}


_TARGET = pattern_from_index(8, 0b10110010)   # four negative signs


def _inject_construction_failure(monkeypatch):
    row = BuildState.row

    def failing(self, q, j):   # fails at row 3 below the prefix x = (-, +, -)
        if j == 3 and tuple(q[:4]) == (1, 1, -1, -1):
            raise ConstructionFailure(len(self.steps) + 1, TermIndex(1, 3), "injected",
                                      tuple(self.steps))
        row(self, q, j)

    monkeypatch.setattr(BuildState, "row", failing)


def _inject_dropped_step(monkeypatch):
    row = BuildState.row

    def dropping(self, q, j):   # row 4 below the prefix x_1 = + loses its last step
        row(self, q, j)
        if j == 4 and q[1] == -1 and self.steps and self.steps[-1].pair[1] == 4:
            self.steps.pop()

    monkeypatch.setattr(BuildState, "row", dropping)


def _inject_invalid_leaf(monkeypatch):
    # through check_blocks, which validate_partition, the sweep's rows and
    # its leaves share: it fails under all n + 1 of _TARGET's classes
    check, target = partition.check_blocks, validator_classes(_TARGET)

    def checking(blocks, r, seen):
        if list(r) == target:
            return CheckResult(False, "injected")
        return check(blocks, r, seen)

    monkeypatch.setattr(partition, "check_blocks", checking)
    monkeypatch.setattr(search, "check_blocks", checking)


def _inject_audit_rejection(monkeypatch):
    step = AuditState.step

    def rejecting(self, k, s, expected):   # every Case-2 step on (1, 4)
        r = step(self, k, s, expected)   # the replay state stays consistent
        if s.pair == (1, 4) and s.case == "case2":
            return CheckResult(False, f"step {k}: injected")
        return r

    monkeypatch.setattr(AuditState, "step", rejecting)


def _inject_final_mismatch(monkeypatch):
    final = AuditState.final
    blocks = build_good_partition(_TARGET).blocks

    def mismatch(self, bs):
        return CheckResult(False, "injected") if set(bs) == set(blocks) else final(self, bs)

    monkeypatch.setattr(AuditState, "final", mismatch)


def _inject_parity_mismatch(monkeypatch):
    flipped = pattern_from_index(8, 0b10110011)   # five negative signs

    def parity(pattern):
        return (0, 1) if tuple(pattern) == flipped else parity_counts(pattern)

    monkeypatch.setattr(search, "parity_counts", parity)


@pytest.mark.parametrize("inject", [
    _inject_construction_failure,
    _inject_dropped_step,
    _inject_invalid_leaf,
    _inject_audit_rejection,
    _inject_final_mismatch,
    _inject_parity_mismatch,
])
def test_sweep_failures_match_per_pattern_loop(monkeypatch, inject):
    """A failure anywhere in the walk reports exactly what verify_pattern
    reports pattern by pattern, serially and over the worker pool."""
    inject(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    n = 8
    patterns = [pattern_from_index(n, idx) for idx in range(2 ** n)]
    expected = tuple((p, r) for p in patterns if (r := verify_pattern(p)) is not None)
    assert 0 < len(expected) < 2 ** n
    for jobs in (1, 2):
        report = sweep_patterns(n, jobs=jobs)
        assert (report.patterns_checked, report.failures) == (2 ** n, expected)


def _one(change):
    """A maker (_inject_bad_block) that changes the last block row 8 creates."""
    return lambda state, q, created: ([created[-1]], change(created[-1])) if created else None


def _one_quadrupleton(change):
    """A maker that changes the last quadrupleton row 8 creates; its
    members are hdoub positive, hdoub negative, absorbed negative, corner."""
    def make(state, q, created):
        quads = [b for b in created if b.kind == "quadrupleton"]
        return ([quads[-1]], change(quads[-1])) if quads else None
    return make


def _canonical_member(state, q, created):
    """The last created block with its last member replaced by a pair of
    row 8 outside J."""
    outside = [i for i in range(1, 9) if q[i - 1] == q[8]]
    if not created or not outside:
        return None
    b = created[-1]
    return [b], b._replace(members=b.members[:-1] + (TermIndex(outside[0], 8),))


def _merged_doubletons(state, q, created):
    """The last two doubletons row 8 creates as one quadrupleton, when
    their members are not a rectangle."""
    doubletons = [b for b in created if b.kind == "doubleton"][-2:]
    if len(doubletons) < 2:
        return None
    d1, d2 = doubletons
    members = d1.members + d2.members
    if len({i for i, _ in members}) == len({j for _, j in members}) == 2:
        return None
    return doubletons, PartitionBlock("quadrupleton", members, d1.signs + d2.signs,
                                      d1.provenance)


def _misplaced_rectangle(state, q, created):
    """The first rectangle c0 < c1 <= r0 < r1 = 8 of J whose corner
    parities break the quadrupleton rule, as one block with true signs,
    in place of every block that holds a corner."""
    for c0, c1 in itertools.combinations(range(1, 9), 2):
        for r0 in range(c1, 8):
            quad = ((c1, r0), (c0, r0), (c1, 8), (c0, 8))
            if (all(q[c - 1] != q[row] for c, row in quad)
                    and ((c1 + r0) % 2 or (c0 + 8) % 2 or not (c0 + r0) % 2)):
                old = list({id(state.owner[t]): state.owner[t] for t in quad}.values())
                return old, PartitionBlock(
                    "quadrupleton", tuple(TermIndex(*t) for t in quad),
                    tuple(1 if (c + row) % 2 == 0 else -1 for c, row in quad), "case2-op2")
    return None


#: (reason prefix, maker): a maker reads the state after row 8, the prefix
#: classes and the blocks row 8 created, and returns the blocks to take
#: out of the partition and the bad block in their place (None: none).
_BAD_BLOCKS = [
    ("bad-kind: 'triple'", _one(lambda b: b._replace(kind="triple"))),
    ("bad-signs", _one(lambda b: b._replace(signs=b.signs[:-1]))),
    ("bad-index", _one(lambda b: b._replace(
        members=b.members[:-1] + (TermIndex(b.members[-1][0], 9),)))),
    ("not-noncanonical", _canonical_member),
    ("sign-mismatch", _one(lambda b: b._replace(signs=(-b.signs[0],) + b.signs[1:]))),
    ("duplicate-member", _one(lambda b: b._replace(
        members=b.members[:1] * len(b.members), signs=b.signs[:1] * len(b.signs)))),
    ("bad-singleton", _one(lambda b: PartitionBlock(
        "singleton", b.members[1:2], b.signs[1:2], b.provenance))),
    ("bad-doubleton: must pair one + with one -", _one_quadrupleton(
        lambda b: PartitionBlock("doubleton", b.members[::3], (1, 1), b.provenance))),
    ("bad-doubleton: negative must sit left in the row or above in the column",
     _one_quadrupleton(lambda b: PartitionBlock(
         "doubleton", (b.members[3], b.members[1]), (1, -1), b.provenance))),
    ("bad-quadrupleton: not a rectangle", _merged_doubletons),
    ("bad-quadrupleton: corner", _misplaced_rectangle),
    ("incomplete-cover", _one(lambda b: None)),
]


def _inject_bad_block(monkeypatch, make):
    """Row 8 of every build ends with make's bad block in the partition:
    owner maps each member of the blocks taken out to it (drops them when
    it is None), and the first step that created one of them creates it
    instead, so the row's check_blocks reads it."""
    row = BuildState.row

    def injecting(self, q, j):
        k0 = len(self.steps)
        row(self, q, j)
        made = make(self, q, [s.created for s in self.steps[k0:]]) if j == 8 else None
        if made is None:
            return
        old, bad = made
        for block in old:
            for t in block.members:
                if bad is None:
                    del self.owner[t]
                else:
                    self.owner[t] = bad
        for k, s in enumerate(self.steps):
            if bad is not None and any(s.created is block for block in old):
                self.steps[k] = s._replace(created=bad)
                break

    monkeypatch.setattr(BuildState, "row", injecting)


@pytest.mark.parametrize("reason,make", _BAD_BLOCKS, ids=[r for r, _ in _BAD_BLOCKS])
def test_sweep_reports_each_injected_bad_block(monkeypatch, reason, make):
    """A bad block put into row 8 of the build, one per validator reason:
    verify_pattern rejects the patterns it reaches with that reason, and
    the sweep, which checks blocks row by row and at its leaves, reports
    exactly those, serially and over the worker pool."""
    _inject_bad_block(monkeypatch, make)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    n = 8
    patterns = [pattern_from_index(n, idx) for idx in range(2 ** n)]
    expected = tuple((p, r) for p in patterns if (r := verify_pattern(p)) is not None)
    assert 0 < len(expected) < 2 ** n
    assert all(r.startswith(f"invalid-partition: {reason}") for _, r in expected)
    for jobs in (1, 2):
        report = sweep_patterns(n, jobs=jobs)
        assert (report.patterns_checked, report.failures) == (2 ** n, expected)


# ---------------------------------------------------------------------------
# maximizers


def _bitmask_maximizers(n):
    """Independent enumeration: mask bits mark -1 positions."""
    k = (n + 1) // 2
    out = []
    for mask in range(1 << n):
        if mask & (mask >> 1):
            continue
        if bin(mask).count("1") != k:
            continue
        out.append(tuple(-1 if (mask >> b) & 1 else 0 for b in range(n)))
    return set(out)


@pytest.mark.parametrize("n,expected", [
    (1, [(-1,)]),
    (3, [(-1, 0, -1)]),
    (4, [(-1, 0, -1, 0), (-1, 0, 0, -1), (0, -1, 0, -1)]),
])
def test_enumerate_maximizers_frozen(n, expected):
    assert sorted(enumerate_maximizers(n)) == sorted(expected)


def test_enumerate_maximizers_counts():
    for n in range(1, 13):
        count = len(enumerate_maximizers(n))
        assert count == (1 if n % 2 == 1 else n // 2 + 1)


def test_enumerate_maximizers_matches_bitmask():
    for n in range(1, 11):
        assert set(enumerate_maximizers(n)) == _bitmask_maximizers(n)


def test_enumerated_maximizers_attain_bound_exactly():
    for n in range(1, 11):
        for v in enumerate_maximizers(n):
            assert eval_f(v) == pohst_bound(n)


def test_enumerate_maximizers_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_maximizers(0)


# ---------------------------------------------------------------------------
# numeric maximization


def test_eval_f_batch_matches_scalar():
    rng = np.random.default_rng(23)
    for n in (1, 3, 6):
        X = rng.uniform(-1.0, 1.0, size=(40, n))
        X[::3, n // 2] = 0.0
        X[1, :] = 0.0
        batch = eval_f_batch(X)
        for row, expected in zip(X, batch):
            assert eval_f(row) == expected


def test_eval_f_batch_matches_scalar_across_row_slices():
    """A batch that ends in a partial row slice, with zero entries, gives
    the scalar results exactly."""
    rows = 2 * search._BATCH_ROWS + 123
    X = np.random.default_rng(31).uniform(-1.0, 1.0, size=(rows, 4))
    X[::7, 1] = 0.0
    X[-1, :] = 0.0
    batch = eval_f_batch(X)
    assert batch.shape == (rows,)
    assert batch.tolist() == [eval_f(row) for row in X]


def test_eval_f_batch_accepts_single_row():
    assert eval_f_batch(np.array([-1.0, 0.0, -1.0])).tolist() == [4.0]


@pytest.mark.parametrize("row", [[2.0, 3.0], [math.nan, 0.5], [0.5, -math.inf], [-1.5], []])
def test_eval_f_batch_refuses_what_eval_f_refuses(row):
    with pytest.raises(ValueError):
        eval_f(row)
    with pytest.raises(ValueError):
        eval_f_batch([row])
    with pytest.raises(ValueError):
        eval_f_batch([[0.0] * len(row), row])


def test_eval_f_batch_refuses_arrays_of_batches():
    with pytest.raises(ValueError, match="2-d"):
        eval_f_batch(np.zeros((2, 2, 2)))


def test_eval_f_batch_accepts_the_closed_cube_and_no_rows():
    assert eval_f_batch([[-1.0, 1.0], [1.0, -1.0]]).tolist() == [0.0, 0.0]
    assert eval_f_batch(np.empty((0, 3))).shape == (0,)


def test_eval_f_batch_peak_memory():
    """The result is built in place: besides it, one row slice's
    transposed copy, the slice's values, its running product and its
    term are alive at once, about two row-sized arrays in all."""
    X = np.random.default_rng(29).uniform(-1.0, 1.0, size=(200_000, 7))
    row_bytes = 200_000 * 8
    tracemalloc.start()
    try:
        eval_f_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * row_bytes


@pytest.mark.parametrize("n,expected", [(1, 2.0), (2, 2.0), (3, 4.0)])
def test_maximize_frozen(n, expected):
    res = maximize_f(n)
    assert math.isclose(res.best_value, expected, rel_tol=1e-9)
    assert res.bound == expected
    assert res.evaluations > 0


def test_maximize_result_invariants():
    for n in range(1, 7):
        res = maximize_f(n)
        assert res.best_value <= res.bound + 1e-9
        assert all(-1.0 <= c <= 1.0 for c in res.best_point)
        # refined point sits within one grid step of a true maximizer
        near = min(max(abs(a - b) for a, b in zip(res.best_point, m))
                   for m in enumerate_maximizers(n))
        assert near <= 0.25 + 1e-12


def test_maximize_multistart_branch():
    res = maximize_f(9)
    assert math.isclose(res.best_value, pohst_bound(9), rel_tol=1e-6)
    assert "multistart" in res.method


def test_maximize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        maximize_f(0)
    with pytest.raises(ValueError):
        maximize_f(3, grid_step=0.3)
    for step in (0.0, -0.5, math.nan, math.inf, -math.inf, 5e-324):
        with pytest.raises(ValueError, match="grid_step"):
            maximize_f(3, grid_step=step)
    for step in (0.0, math.nan, math.inf, -0.5, 0.3):   # n > 8 does not read it
        with pytest.raises(ValueError, match="grid_step"):
            maximize_f(9, grid_step=step)


#: SHA-256 of repr(maximize_f(*args)), recorded before the ascents were
#: polished in lockstep and the lattice filled by slices; (8,), (6, 2/3)
#: and (5, 0.4) were recorded before the grid screen extended prefixes,
#: and (10,) before the multistart path screened by prefix extension;
#: (11,) and (3, 2/349), whose 350 points per axis outnumber the
#: prefixes of the last level, before the screen pruned prefixes.
#: n = 8 has five tied maximizers, and the grids of steps 2/3 and 0.4
#: hold no 0, so their maximum sits where the screen's values and
#: eval_f_batch's differ in the last bits.
MAXIMIZE_DIGESTS = {
    (1,): "2225e50533aa79687bd1d597be977728e6e84db6ebd0a8dd756c5fb07e987a15",
    (2,): "7453ae18f0c9c6426f21ca8239c671e051d77b224b40b757d5c4efe085f1f723",
    (3,): "996911ec8ee990aaae6d0c2859ce5228cb3140fee18d9daac53aa2ee9cc0f279",
    (4,): "523a92944279826a81fa98c4b2ae848ff66c9ad498be44a96bc27d04b612410f",
    (5,): "c8c7a7bc06b40a8c4b6f65647ee04339abf7f6524599a197030e89469b68ed45",
    (6,): "a1f9dd0f382a52228ee1699bea5d0caaa1e2bc951724d1c601a318da60812d5e",
    (7,): "03a1a198dc8aba2864d0536b8ad2caa7772e1fd3742ce075e689af4e985aa11c",
    (8,): "22b54a4e4ae96f41ce589d3fc272fd9dbac331e81bfba3b5e3d219ded7d2b6f7",
    (9,): "3a72bbe90804ba85bbe82ddde22d5d6a3b9f13a82a9bb3b1e1767bb67e435789",
    (10,): "11b8238fc700036cb7409b005b775768da0e7607fe4e4b3ec9a39ec0f6405e4a",
    (4, 0.5): "ec99bd98020ad1c84ddd99da3b51823e60f34c84debd4d7b7dbdbc69a214d109",
    (4, 0.125): "3684548c0b5875f5598bda10a3dd14795bb17142d616e22f896681cd1cd03b0f",
    (6, 2 / 3): "5daf08f1d293e3cf6ea2b16ca28047dc3269b3eb0bcd8497c3c3ace417c85553",
    (5, 0.4): "a4cb1cf099a598b4595b2d5c5b080def2e118e1d4708ccc633b7d3bd0f5c61d3",
    (11,): "7865b98d132ddcbb10e5672bce581bb232dfb7c5f9946308848e4762ab979cad",
    (3, 2 / 349): "56760ee88a3c6893d58d0a8241399f8b4cb63b62287ed496b7fd7029c650a9ea",
}


def test_maximize_results_pinned():
    """Value, point, evaluation count and method, bit for bit, on both
    paths and for non-default grid steps."""
    got = {args: hashlib.sha256(repr(maximize_f(*args)).encode()).hexdigest()
           for args in MAXIMIZE_DIGESTS}
    assert got == MAXIMIZE_DIGESTS


def _dispatched_cpu_features() -> list[str]:
    """The CPU features above its baseline that numpy dispatches to here,
    under whatever names this numpy release uses for them."""
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):   # numpy without the dicts mode
        return []


@pytest.mark.skipif(not _dispatched_cpu_features(),
                    reason="numpy dispatches no CPU feature above its baseline here")
def test_maximize_does_not_depend_on_simd_dispatch():
    """The screen breaks ties between equal values by lattice index, not
    by a sort whose order among equal keys numpy leaves open, so
    maximize_f(10) keeps its result when numpy falls back to its
    baseline kernels."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_dispatched_cpu_features()),
               PYTHONPATH=str(Path(search.__file__).parents[1]))
    code = ("import hashlib; from pohst.search import maximize_f; "
            "print(hashlib.sha256(repr(maximize_f(10)).encode()).hexdigest())")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "11b8238fc700036cb7409b005b775768da0e7607fe4e4b3ec9a39ec0f6405e4a")


#: SHA-256 of every ascent's (x, value, evals) in
#: test_polish_together_matches_one_by_one, recorded with a generator per
#: start, before the ascent became one array-form loop.
POLISH_DIGEST = "9b693642fd6fb638b9a62ea642d28c906ba5abff3ad498859982c76e1118b4d8"


def test_polish_together_matches_one_by_one(monkeypatch):
    """Random, lattice and +-1-clipped starts, n = 1 starts (an (S, 1)
    array), two identical starts and n = 9 starts give the same ascents
    whether polished together or one at a time, both through the probe
    kernel, and the ascents that POLISH_DIGEST recorded.  Each returned
    value is _eval_f_probe's at the row's end, bit for bit, and never
    below the start's."""
    rng = np.random.default_rng(5)
    points = [rng.uniform(-1.0, 1.0, size=5) for _ in range(6)]
    points += [np.array(p, dtype=float) for p in
               ([-1, 0, -1, 0, -1], [0, -1, 0, -1, 0], [0.5, -0.5, 0, 1, -1])]
    points += [np.clip(rng.uniform(-1.5, 1.5, size=5), -1.0, 1.0) for _ in range(4)]
    twin = rng.uniform(-1.0, 1.0, size=5)
    groups = [points,
              [np.array([t]) for t in (-1.0, -0.6, 0.0, 0.3, 1.0)],
              [twin, twin.copy()],
              [rng.uniform(-1.0, 1.0, size=9) for _ in range(3)]]
    digest = hashlib.sha256()
    for group in groups:
        for radius, rounds in ((0.5, 2), (0.25, 1)):
            monkeypatch.setattr(search, "_POLISH_ROUNDS", rounds)
            X = np.array(group)
            values = search._polish(X, radius)
            assert values.tobytes() == search._eval_f_probe(X).tobytes()
            evals = rounds * X.shape[1] * 52
            for x0, x, v in zip(group, X, values):
                x1 = x0[None, :].copy()
                [v1] = search._polish(x1, radius)
                assert np.array_equal(x, x1[0]) and v == v1
                assert v >= eval_f(x0)
                digest.update(repr((x.tolist(), float(v), evals)).encode())
    assert digest.hexdigest() == POLISH_DIGEST


@pytest.mark.parametrize("n,m,rows", [
    (1, 11, 4),     # more points than rows: the points are sliced
    (2, 9, 10),     # a prefix's children split over chunks
    (3, 5, 7),
    (4, 3, 100),    # several prefixes extended together
    (5, 2, 1),
    (3, 6, 216),    # the whole lattice in one chunk
])
def test_grid_values_match_eval_f_batch(monkeypatch, n, m, rows):
    """With the band's edge at -inf and keep beyond the lattice, the
    screen's walk drops nothing: it visits points^n once, in mixed-radix
    order, forming its last-level values in chunks of at most rows =
    _SCREEN_ROWS, each within the rounding of a product of n(n+1)/2
    terms of eval_f_batch's value at the same point."""
    monkeypatch.setattr(search, "_SCREEN_ROWS", rows)
    chunks = _last_level_values(monkeypatch)
    points = np.linspace(-1.0, 1.0, m)
    idx, got, floor = search._screen(points, n, m ** n + 1, -np.inf)
    assert floor == -np.inf
    assert all(1 <= c <= rows for c in chunks) and sum(chunks) == m ** n
    assert np.array_equal(idx, np.arange(m ** n))
    ref = eval_f_batch(np.array(list(itertools.product(points, repeat=n))))
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= n * (n + 1) * 2.0 ** -53 * ref)


def _last_level_values(monkeypatch):
    """A list that gets the number of values of each last-level _extend
    call, the only calls that keep no runs."""
    counts = []
    extend = search._extend

    def spy(f, runs, pts, keep_runs):
        out = extend(f, runs, pts, keep_runs)
        if not keep_runs:
            counts.append(len(out[0]))
        return out

    monkeypatch.setattr(search, "_extend", spy)
    return counts


@pytest.mark.parametrize("step", [0.5, 0.4, 2 / 3, 1.0])
def test_reach_bounds_every_completion(step):
    """For n <= 5, at every prefix of every length k, _reach, slack
    included, is at least the screen value of each completion of the
    prefix by d = n - k coordinates.  Negative control: without the
    2^(d(d+1)/2) bound on the terms within the suffix, some prefix's
    completion exceeds it."""
    points = search._axis_points(step)
    m = len(points)
    short = False
    for n in range(1, 6):
        vals = search._screen(points, n, m ** n + 1, -np.inf)[1]
        f, runs = np.ones(1), np.empty((0, 1))
        for k in range(n + 1):
            d = n - k
            best = vals.reshape(m ** k, m ** d).max(axis=1)
            reach = search._reach(f, runs, d)
            assert np.all(reach >= best), (n, k)
            short |= bool(np.any(reach / 2.0 ** (d * (d + 1) // 2) < best))
            if d:
                f, runs = search._extend(f, runs, points, True)
    assert short


@pytest.mark.parametrize("points,n,keep,formed", [
    (np.linspace(-1.0, 1.0, 9), 7, 1, 96_840),     # the n = 7 grid: 9^7 = 4,782,969
    (np.linspace(-1.0, 1.0, 5), 9, 32, 50_873),    # the n = 9 coarse lattice: 5^9 = 1,953,125
    (np.linspace(-1.0, 1.0, 9), 8, 1, 799_173),    # the n = 8 grid: 9^8 = 43,046,721
])
def test_grid_top_prunes_the_last_level(monkeypatch, points, n, keep, formed):
    """The branch-and-bound screen forms few of the lattice's values, the
    seed's walk over the 3-point sub-axis included: the counts recorded
    when the prune came in, so a change that stops it pruning fails."""
    counts = _last_level_values(monkeypatch)
    search._grid_top(points, n, keep)
    assert sum(counts) == formed


@pytest.mark.parametrize("n", range(1, 13))
def test_probe_kernel_equals_eval_f_batch(n):
    """The ascent's probe kernel gives eval_f_batch's bits and eval_f's,
    on rows holding 0, -0.0 and +-1 entries as well as interior ones,
    and on a lone row (S = 1), which is how a lone start is polished."""
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, 1.0, -1.0])
    for S in (1, 2, 3, 96):
        X = rng.uniform(-1.0, 1.0, size=(S, n))
        hit = rng.random((S, n)) < 0.4
        X[hit] = rng.choice(special, size=int(hit.sum()))
        # a maximizer for odd n, then a row of signed zeros and ones
        X[:2] = [np.resize([-1.0, 0.0], n), np.resize([-0.0, 1.0, -1.0], n)][:S]
        probe = search._eval_f_probe(X).tobytes()
        assert probe == search.eval_f_batch(X).tobytes()
        assert probe == np.array([eval_f(x) for x in X]).tobytes()


def _reference_top(points, n, keep):
    """The first keep points of points^n by (-eval_f_batch, mixed-radix
    index), as (values, points), from eval_f_batch over the whole
    lattice, built with np.indices and evaluated in slices."""
    digits = np.indices((len(points),) * n, dtype=np.int8).reshape(n, -1)
    rows = 1 << 16
    ref = np.concatenate([eval_f_batch(points[digits[:, s:s + rows]].T)
                          for s in range(0, digits.shape[1], rows)])
    order = np.lexsort((np.arange(len(ref)), -ref))[:keep]
    return ref[order], points[digits[:, order]].T


def _assert_top(points, n, keep):
    X = search._grid_top(points, n, keep)
    values = eval_f_batch(X)
    ref_values, ref_X = _reference_top(points, n, keep)
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(X, ref_X)


@pytest.mark.parametrize("n,step", [
    (1, 2.0), (4, 2.0), (3, 1.0), (5, 1.0), (4, 2 / 3), (5, 0.4),
    (3, 2 / 7), (4, 0.25), (2, 2 / 9), (2, 0.02),
])
def test_grid_best_is_first_maximum_of_eval_f_batch(n, step):
    """With keep = 1 the grid screen picks the point and value that
    eval_f_batch over the whole lattice gives, ties (the all-zero grid of
    step 2 among them) going to the first in mixed-radix order."""
    _assert_top(search._axis_points(step), n, 1)


def test_grid_top_matches_eval_f_batch_on_the_multistart_lattice():
    """The multistart screen: the 32 best points of the 0.5-step lattice
    at n = 9, in the order of (-eval_f_batch, mixed-radix index); the
    cut falls inside a run of points tied at 16.875."""
    _assert_top(np.linspace(-1.0, 1.0, 5), 9, 32)


def test_grid_top_reevaluates_few_candidates(monkeypatch):
    """The kept set is pruned as the band rises: the multistart screen of
    n = 9 hands eval_f_batch 44 of its 5^9 points, not the 2^16 points
    of its first chunk, where x_1 = x_2 = -1 and every value is 0."""
    rows = []
    kernel = search.eval_f_batch

    def counting(X):
        rows.append(len(X))
        return kernel(X)

    monkeypatch.setattr(search, "eval_f_batch", counting)
    search._grid_top(np.linspace(-1.0, 1.0, 5), 9, 32)
    assert rows == [44]


@pytest.mark.parametrize("n,step,keep", [
    (4, 2.0, 5),    # every value is 0: the first five points
    (17, 2.0, 5),   # ... across two screen chunks
    (3, 1.0, 100),  # more than the 27 points: all of them, ranked
    (2, 2.0, 4),    # exactly the lattice
    (6, 1.0, 2),    # four tied maxima, cut inside the tie
    (5, 0.5, 7),    # cut inside six points tied at 4.5
])
def test_grid_top_breaks_ties_by_index(n, step, keep):
    _assert_top(search._axis_points(step), n, keep)


def _no_screen(monkeypatch):
    """Make every lattice screen fail the moment it starts."""
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice screen was started")

    for name in ("_screen", "_grid_top"):
        monkeypatch.setattr(search, name, no_lattice)


def test_maximize_rejects_large_lattice_before_screening(monkeypatch, capsys):
    _no_screen(monkeypatch)
    with pytest.raises(ValueError, match="grid_step 0.001 at n=8"):
        maximize_f(8, grid_step=0.001)
    assert main(["maximize", "--n", "8", "--grid-step", "0.001"]) == 2
    assert "9^8" in capsys.readouterr().err
    assert len(search._axis_points(0.25)) == 9   # the default n=8 grid: 9^8 points
    with pytest.raises(ValueError, match="11\\^8"):
        maximize_f(8, grid_step=0.2)


def test_maximize_rejects_large_n_before_screening(monkeypatch, capsys):
    _no_screen(monkeypatch)
    with pytest.raises(ValueError, match="between 1 and 12"):
        maximize_f(13)
    assert main(["maximize", "--n", "13"]) == 2
    assert "between 1 and 12" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# domination sampling


def test_sample_domination_accepts_and_is_deterministic():
    a = sample_domination(4, samples=5_000, seed=42)
    b = sample_domination(4, samples=5_000, seed=42)
    assert a and b and a == b


def test_sample_domination_reports_the_first_failing_sample(monkeypatch):
    """With batches of 100 and the bound planted at the largest mirror
    value of the first batch, the failure names the first sample past it
    whose value or mirror fails, by stream index and vector, with the
    values a per-sample eval_f loop over the same stream gives."""
    n, samples, seed = 3, 1_000, 9
    monkeypatch.setattr(search, "_SAMPLE_BATCH", 100)
    stream = [x.copy() for _, X in _sample_batches(n, samples, seed) for x in X]
    fv = [eval_f(x) for x in stream]
    fm = [eval_f(-np.abs(x)) for x in stream]
    bound = max(fm[:100])
    monkeypatch.setattr(search, "pohst_bound", lambda n: bound)
    bad = next(k for k in range(samples)
               if not (leq_with_tol(fv[k], fm[k]) and leq_with_tol(fm[k], bound)))
    assert bad >= 100
    r = sample_domination(n, samples, seed)
    assert not r and r.witness == (bad, tuple(stream[bad]))
    assert r.reason == (f"domination failed at sample {bad}: f={fv[bad]}, "
                        f"mirror={fm[bad]}, bound={bound}")


def test_sample_domination_tolerance_decides_what_the_exact_compare_refuses(monkeypatch):
    """With the bound planted just below the stream's largest mirror
    value, within leq_with_tol's tolerance, the exact compare that runs
    first fails on that sample's batch; the call is still accepted, as
    leq_with_tol decides every batch the exact compare does not pass."""
    n, samples, seed = 3, 1_000, 9
    monkeypatch.setattr(search, "_SAMPLE_BATCH", 100)
    fm = max(eval_f_batch(-np.abs(X)).max() for _, X in _sample_batches(n, samples, seed))
    bound = fm * (1.0 - 1e-13)
    assert bound < fm and leq_with_tol(fm, bound)
    monkeypatch.setattr(search, "pohst_bound", lambda n: bound)
    assert sample_domination(n, samples, seed)


def _reference_stream(n, samples, seed):
    """The documented stream: batches of 20 000 rows drawn with
    rng.uniform(-1, 1), zero entries redrawn the same way."""
    rng = np.random.default_rng(seed)
    for offset in range(0, samples, 20_000):
        X = rng.uniform(-1.0, 1.0, size=(min(20_000, samples - offset), n))
        while (X == 0.0).any():
            X[X == 0.0] = rng.uniform(-1.0, 1.0, size=int((X == 0.0).sum()))
        yield offset, X


@pytest.mark.parametrize("n,samples,seed", [
    (10, 40_001, 1),   # a last batch of one row
    (3, 45_001, 7),    # a partial last batch
    (1, 500, 3),
    (24, 60_000, 5),
    (2, 20_000, 0),
])
def test_sample_batches_pin_the_uniform_stream(n, samples, seed):
    """_sample_batches yields the reference stream's bytes, with or
    without a buffer.  Given one, every batch is a view of it, valid only
    until the next batch, so each is read as it comes."""
    buf = np.empty((min(search._SAMPLE_BATCH, samples), n))
    got = []
    for (offset, X), (own_offset, own) in zip(_sample_batches(n, samples, seed, buf),
                                              _sample_batches(n, samples, seed)):
        assert np.shares_memory(X, buf) and not np.shares_memory(own, buf)
        got.append((offset, X.tobytes(), own_offset, own.tobytes()))
    assert got == [(offset, X.tobytes(), offset, X.tobytes())
                   for offset, X in _reference_stream(n, samples, seed)]


def test_sample_batches_redraw_zero_entries(monkeypatch):
    """A generator whose random writes an exact 0.5 makes every entry
    -1 + 2 * 0.5 = 0.0: each batch is redrawn with uniform(-1, 1), in
    C order, and holds no zero."""
    real = np.random.default_rng

    class Halves:
        def __init__(self, seed):
            self.rng = real(seed)

        def random(self, out):
            out.fill(0.5)

        def uniform(self, low, high, size):
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(search.np.random, "default_rng", Halves)
    ref = real(3)
    for _, X in _sample_batches(2, 25_000, 3):
        assert X.all()
        assert X.tobytes() == ref.uniform(-1.0, 1.0, X.size).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_sample_domination_kernel_equals_eval_f_batch(monkeypatch, n):
    """The one kernel pass over a batch and its mirror, side by side in
    one work array, gives eval_f_batch's bits on the batch and on
    -|batch|."""
    batches, values = [], []
    stream, kernel = search._sample_batches, search._f_into

    def kept(*args):
        for offset, X in stream(*args):
            batches.append(X.copy())
            yield offset, X

    def spy(VT, f, p, t):
        kernel(VT, f, p, t)
        values.append(f.copy())

    monkeypatch.setattr(search, "_sample_batches", kept)
    monkeypatch.setattr(search, "_f_into", spy)
    assert sample_domination(n, 3_001, n)
    monkeypatch.undo()
    [X], [f] = batches, values
    assert f.tobytes() == (search.eval_f_batch(X).tobytes()
                           + search.eval_f_batch(-np.abs(X)).tobytes())


def test_sample_domination_memory_does_not_grow_with_samples():
    """The batch buffer, the work array and the kernel's scratch are
    allocated once per call: 200 000 samples of n = 24 peak at most one
    batch's worth above 40 000."""
    peaks = []
    for samples in (40_000, 200_000):
        tracemalloc.start()
        try:
            assert sample_domination(24, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + search._SAMPLE_BATCH * 24 * 8


def test_sample_blockwise_domination_accepts():
    assert sample_blockwise_domination(4, samples=2_000, seed=42)
    assert sample_blockwise_domination(1, samples=500, seed=7)


def _singletons(pattern):
    J = noncanonical_set(pattern)
    members = sorted(J.members, key=prec_key)
    blocks = tuple(PartitionBlock("singleton", (m,), ((-1) ** (m.i + m.j),), "initial")
                   for m in members)
    return GoodPartition(len(pattern), tuple(pattern), blocks)


def _first_block_failure(n, samples, seed, partition=_singletons):
    """Reference witness: per batch, patterns in ascending index, blocks
    in order, rows in order; terms from eval_term."""
    for offset, X in _sample_batches(n, samples, seed):
        for idx in range(2 ** n):
            rows = [r for r, x in enumerate(X)
                    if pattern_from_index(n, idx) == tuple(np.where(x > 0, 1, -1))]
            for b in partition(pattern_from_index(n, idx)).blocks:
                for r in rows:
                    lhs = math.prod(eval_term(X[r], t) for t in b.members)
                    rhs = math.prod(eval_term(negate_abs(X[r]), t) for t in b.members)
                    if not leq_with_tol(lhs, rhs):
                        return b.members, offset + r, tuple(X[r])
    return None


def _materialize(monkeypatch, partition=None):
    """Patch the sampler's one seam from a partition to its member table,
    which the walk's leaves and the fallback both call: with partition,
    each pattern's partition is partition(pattern) instead; returns the
    list of patterns materialized, in call order."""
    built, table = [], search._member_table

    def member_table(n, gp):
        built.append(gp.pattern)
        return table(n, gp if partition is None else partition(gp.pattern))

    monkeypatch.setattr(search, "_member_table", member_table)
    return built


def test_sample_blockwise_domination_reports_failing_block(monkeypatch):
    _materialize(monkeypatch, _singletons)
    r = sample_blockwise_domination(3, samples=400, seed=42)
    block, sample, vec = _first_block_failure(3, 400, 42)
    assert not r
    assert r.reason == f"block {[tuple(t) for t in block]} failed domination at sample {sample}"
    assert r.witness == (sample, vec)


@pytest.mark.parametrize("planted,chunk_rows,pattern", [
    ({6}, 4, 6),      # pattern 6 first fails at row 8, in the third chunk
    ({1, 2}, 4, 1),   # pattern 2 fails at row 0, pattern 1 only at row 7
    ({1, 2}, 1, 1),
])
def test_sample_blockwise_domination_planted_failure_matches_reference(
        monkeypatch, planted, chunk_rows, pattern):
    """Singletons planted on some patterns of n=3, good partitions on the
    rest, rows checked in chunks of chunk_rows: the report is the
    reference's, the lowest failing pattern of the batch, even when a
    higher one fails at an earlier row or in an earlier chunk; each new
    pattern is materialized once."""
    def partition(pat):
        idx = sum(1 << b for b, s in enumerate(pat) if s < 0)
        return _singletons(pat) if idx in planted else build_good_partition(pat)

    built = _materialize(monkeypatch, partition)
    monkeypatch.setattr(search, "_GATHER_ELEMENTS", (3 * 3 + 1) * chunk_rows)
    r = sample_blockwise_domination(3, samples=400, seed=42)
    block, sample, vec = _first_block_failure(3, 400, 42, partition)
    assert not r
    assert r.reason == f"block {[tuple(t) for t in block]} failed domination at sample {sample}"
    assert r.witness == (sample, vec)
    assert pattern_from_index(3, pattern) == tuple(np.where(np.array(vec) > 0, 1, -1))
    assert sorted(built) == sorted(pattern_from_index(3, idx) for idx in range(8))


def test_sample_blockwise_domination_tolerance_decides_what_the_exact_compare_refuses(
        monkeypatch):
    """With every sample's block products planted at (1 + 1e-13) times its
    mirror's, the exact compare that runs first fails on every chunk; the
    call is still accepted, as leq_with_tol decides every chunk the exact
    compare does not pass."""
    products = search._gathered_block_products
    planted = []

    def spy(X, cols):
        P = products(X, cols)
        P[0] = P[1] * (1.0 + 1e-13)
        planted.append(bool(np.any(P[0] > P[1])))
        return P

    monkeypatch.setattr(search, "_gathered_block_products", spy)
    assert sample_blockwise_domination(4, samples=2_000, seed=42)
    assert planted and all(planted)

def test_sample_blockwise_domination_builds_each_pattern_once(monkeypatch):
    built = _materialize(monkeypatch)
    assert sample_blockwise_domination(3, samples=45_000, seed=42)   # three batches
    assert sorted(built) == sorted(pattern_from_index(3, idx) for idx in range(8))


def test_sample_blockwise_domination_cache_is_bounded(monkeypatch):
    """With _CACHED_PATTERNS lowered to 5, every batch of n=3 after the
    first finds all 8 patterns built and starts from none: each batch
    materializes the 8 patterns again, each once, and the verdict is
    unchanged.  A batch never starts with more than the bound built."""
    sizes = []
    tables = search._pattern_tables

    def spy(n, keys, cache):
        sizes.append(len(cache))
        return tables(n, keys, cache)

    built = _materialize(monkeypatch)
    monkeypatch.setattr(search, "_pattern_tables", spy)
    monkeypatch.setattr(search, "_CACHED_PATTERNS", 5)
    assert sample_blockwise_domination(3, samples=45_000, seed=42)   # three batches
    assert sizes == [0, 0, 0]
    every = sorted(pattern_from_index(3, idx) for idx in range(8))
    assert [sorted(built[b:b + 8]) for b in (0, 8, 16)] == [every] * 3
    assert len(built) == 24


def _reference_tables(n, keys):
    """The stacked member tables of keys from per-pattern
    build_good_partition, each member's row of the term array counted
    out over the n x n grid of pairs (i, j), row-major, and every pad
    the row after the grid."""
    rows = {t: r for r, t in enumerate(itertools.product(range(1, n + 1), repeat=2))}
    gps = [build_good_partition(pattern_from_index(n, key)) for key in keys]
    ref = np.full((len(keys), max(len(gp.blocks) for gp in gps), 4), len(rows))
    for u, gp in enumerate(gps):
        for b, block in enumerate(gp.blocks):
            ref[u, b, :len(block.members)] = [rows[tuple(t)] for t in block.members]
    return ref


@pytest.mark.parametrize("n,count", [(n, None) for n in range(1, 9)]
                         + [(12, 300), (16, 300), (24, 200)])
def test_pattern_tables_walk_matches_per_pattern_build(n, count):
    """The walk over all patterns (count None) or over a seeded random
    subset gives the tables that per-pattern builds give, and so does a
    second call on another set, with the cache warm."""
    rng = np.random.default_rng(n)
    keys = list(range(2 ** n)) if count is None else \
        sorted(set(rng.integers(0, 2 ** n, size=count).tolist()))
    cache = {}
    assert np.array_equal(search._pattern_tables(n, keys, cache), _reference_tables(n, keys))
    assert sorted(cache) == keys
    more = sorted(set(keys[::2] + rng.integers(0, 2 ** n, size=20).tolist()))
    assert np.array_equal(search._pattern_tables(n, more, cache), _reference_tables(n, more))


def _inject_prefix_failures(monkeypatch, failing):
    """BuildState.row raises at row j below each prefix x_1..x_j of
    failing, a map from (j, prefix index) to a pair, with a reason
    naming both."""
    row = BuildState.row
    classes = {prefix_classes(pattern_from_index(j, idx)): (j, idx, pair)
               for (j, idx), pair in failing.items()}

    def failing_row(self, q, j):
        hit = classes.get(tuple(q[:j + 1]))
        if hit is not None:
            raise ConstructionFailure(len(self.steps) + 1, TermIndex(*hit[2]),
                                      f"injected at row {hit[0]} below {hit[1]}",
                                      tuple(self.steps))
        row(self, q, j)

    monkeypatch.setattr(BuildState, "row", failing_row)


def test_sweep_subtree_reruns_a_failing_prefix_row(monkeypatch):
    """A row failing at depth 2, below the prefix x = (-, +), fails a
    prefix row of the (10, 3, prefix) subtrees under it: each returns
    the per-pattern loop's failures, and every other subtree none."""
    _inject_prefix_failures(monkeypatch, {(2, 0b01): (1, 2)})
    for prefix in range(8):
        expected = [(idx, reason) for idx in range(prefix, 2 ** 10, 8)
                    if (reason := verify_pattern(pattern_from_index(10, idx))) is not None]
        assert search._sweep_subtree((10, 3, prefix)) == expected
        assert len(expected) == (128 if prefix & 0b11 == 0b01 else 0)


def _plant_failing_leaf(monkeypatch, n, planted):
    """_leaf_ok fails at the one leaf planted of n, and verify_pattern,
    counting its calls in the list it returns, gives that pattern the
    reason "planted" and every other pattern None."""
    calls = []
    leaf_ok, bad = search._leaf_ok, pattern_from_index(n, planted)

    def leaf(m, idx, r, build, audit):
        return (m, idx) != (n, planted) and leaf_ok(m, idx, r, build, audit)

    def verify(pattern):
        calls.append(pattern)
        return "planted" if tuple(pattern) == bad else None

    monkeypatch.setattr(search, "_leaf_ok", leaf)
    monkeypatch.setattr(search, "verify_pattern", verify)
    return calls


def test_failing_leaf_reruns_the_whole_sweep(monkeypatch):
    """One failing leaf ends the serial walk of n = 8, and all 256
    patterns go through verify_pattern, once each; the report is the
    per-pattern loop's, the planted pattern alone."""
    planted = 0b10110010
    calls = _plant_failing_leaf(monkeypatch, 8, planted)
    report = sweep_patterns(8)
    assert report.failures == ((pattern_from_index(8, planted), "planted"),)
    assert sorted(calls) == sorted(pattern_from_index(8, idx) for idx in range(256))


def test_failing_leaf_reruns_its_task_only(monkeypatch):
    """Of the 8 (10, 3, prefix) tasks, the one that holds the failing
    leaf re-runs its 128 patterns through verify_pattern and reports the
    leaf; the other seven call it never.  Each task runs in this process,
    where the spy can count, as it cannot in pool workers."""
    planted = 0b1011001101   # low bits 101: task 5
    calls = _plant_failing_leaf(monkeypatch, 10, planted)
    for prefix in range(8):
        del calls[:]
        found = search._sweep_subtree((10, 3, prefix))
        if prefix == 0b101:
            assert found == [(planted, "planted")]
            assert sorted(calls) == sorted(pattern_from_index(10, idx)
                                           for idx in range(prefix, 2 ** 10, 8))
        else:
            assert (found, calls) == ([], [])


def _record_walk(monkeypatch):
    """Spies on the walk: the list returned gets ("row", verdict) for
    every _apply_row call and ("leaf", index) for every sweep leaf."""
    events = []
    apply_row, leaf_ok = search._apply_row, search._leaf_ok

    def row(build, audit, q, r, j):
        ok = apply_row(build, audit, q, r, j)
        events.append(("row", ok))
        return ok

    def leaf(n, idx, r, build, audit):
        events.append(("leaf", idx))
        return leaf_ok(n, idx, r, build, audit)

    monkeypatch.setattr(search, "_apply_row", row)
    monkeypatch.setattr(search, "_leaf_ok", leaf)
    return events


def test_first_failing_row_ends_the_walk(monkeypatch):
    """A row failing at depth 3 below x = (+, -, +) ends the walk: the
    sweep sees no row and no leaf after it, the 64 leaves below
    x = (+, +) before it, and still reports the per-pattern loop's
    failures; _pattern_tables applies no row after it and raises."""
    _inject_prefix_failures(monkeypatch, {(3, 0b010): (1, 3)})
    patterns = [pattern_from_index(8, idx) for idx in range(2 ** 8)]
    expected = tuple((p, r) for p in patterns if (r := verify_pattern(p)) is not None)
    assert len(expected) == 32
    events = _record_walk(monkeypatch)
    assert sweep_patterns(8).failures == expected
    assert events.index(("row", False)) == len(events) - 1
    assert sum(kind == "leaf" for kind, _ in events) == 64
    del events[:]
    with pytest.raises(ConstructionFailure):
        search._pattern_tables(8, list(range(2 ** 8)), {})
    assert events.index(("row", False)) == len(events) - 1


@pytest.mark.parametrize("failing", [
    {(3, 0b110): (1, 3), (2, 0b11): (2, 2)},   # the walk meets 6 first; 3 is lowest
    {(4, 0b1010): (3, 4), (5, 0b10010): (1, 5), (2, 0b01): (1, 2)},
    {(1, 0b1): (1, 1)},
    {(6, 0b100101): (5, 6)},
])
def test_sample_blockwise_domination_failure_order(monkeypatch, failing):
    """With ConstructionFailure injected below some prefixes, the sampler
    raises what building the first batch's patterns one by one, in
    ascending index, raises first: equal step, pair, reason and trace."""
    _inject_prefix_failures(monkeypatch, failing)
    n, samples, seed = 6, 2_000, 5
    X = next(_sample_batches(n, samples, seed))[1]
    expected = None
    for key in np.unique((X < 0) @ (1 << np.arange(n))).tolist():
        try:
            build_good_partition(pattern_from_index(n, key))
        except ConstructionFailure as e:
            expected = e
            break
    assert expected is not None
    with pytest.raises(ConstructionFailure) as info:
        sample_blockwise_domination(n, samples, seed)
    got = info.value
    assert (got.step, got.pair, got.reason, repr(got.trace)) == \
        (expected.step, expected.pair, expected.reason, repr(expected.trace))


def test_gathered_block_products_equal_block_products():
    """Every block product of every pattern with n <= 8, for the samples
    and their mirrors, is == block_products'; padding blocks read 1.0."""
    for n in range(1, 9):
        X = next(_sample_batches(n, 20_000, 17))[1]
        bits = 1 << np.arange(n)
        keys, inverse = np.unique((X < 0) @ bits, return_inverse=True)
        assert len(keys) == 2 ** n
        tables = search._pattern_tables(n, keys.tolist(), {})
        for V in (X, -np.abs(X)):
            P = search._gathered_block_products(V, tables[inverse])
            for key in keys.tolist():
                rows = np.flatnonzero(inverse == key)
                members = [b.members for b in
                           build_good_partition(pattern_from_index(n, key)).blocks]
                for b, ref in enumerate(block_products(V[rows].T, members)):
                    assert np.array_equal(P[rows, b], ref), (n, key, b)
                assert (P[rows, len(members):] == 1.0).all()


def test_sample_blockwise_domination_memory_is_bounded():
    """Row chunks of _GATHER_ELEMENTS term-matrix entries keep the term
    matrices, member tables and gathers of n=10 small."""
    tracemalloc.start()
    try:
        assert sample_blockwise_domination(10, 25_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000


def test_sampling_rejects_large_n_before_sampling(monkeypatch, capsys):
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(search, "_sample_batches", no_samples)
    for call in (sample_domination, sample_blockwise_domination):
        for n in (25, 100_000_000):
            with pytest.raises(ValueError, match="n <= 24"):
                call(n, 1)
    assert main(["sample", "--n", "25", "--samples", "1"]) == 2
    assert "n <= 24" in capsys.readouterr().err


def test_sampling_names_a_refused_seed(monkeypatch, capsys):
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(search, "_sample_batches", no_samples)
    for call in (sample_domination, sample_blockwise_domination):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            call(3, 10, -1)
    assert main(["sample", "--n", "3", "--samples", "10", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("call", [
    lambda: sample_domination(0, 10),
    lambda: sample_domination(3, 0),
    lambda: sample_blockwise_domination(0, 10),
])
def test_sampling_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
