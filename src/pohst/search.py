"""Search campaigns: exhaustive sign-pattern sweeps, maximizer
enumeration, numeric maximization of f_n, and seeded domination
sampling.

The sweep is the heart of the verification: for every one of the 2^n
sign patterns it builds a good partition, validates it independently,
audits every intermediate construction state, and (for even n with an
odd number of negative signs) checks the border parity identity.
Row j of the build and of the audit reads only x_1..x_j, so patterns
that share a prefix share its rows.  One depth-first walk (_walk) serves
every consumer of builds: it walks the trie of the prefixes of a set of
pattern indices and applies each row once per trie node, not once per
pattern, and its leaves come in trie order, ascending bit-reversed
index.  The sweep walks all 2^n patterns, never listing them, and
carries the audit and the validator with the build.  The validator is
split as validate_partition composes it: each node runs check_blocks on
the blocks its row creates, with the validator's own classes r_0..r_j,
which the walk sets from the pattern bits, so a block that 2^(n-j)
patterns share is checked once.  Each leaf lists its partition, runs
check_blocks only on the listed blocks that are not its path's checked
step.created objects (the surviving initial singletons), counts the
cover, ends the audit and checks parity.  Any failure below a node is
re-run through verify_pattern, the one-pattern reference.  With
jobs > 1 the tree is split by prefix into 2^k subtrees, 2^k >= 4 jobs.

Numeric maximization reproduces the bound 2^floor((n+1)/2) without
assuming it: a lattice search over the cube followed by per-coordinate
golden-section ascent.  One screen serves both paths: the grid of n <= 8
for its best point, the coarse lattice of larger n for its 32 best.  It
walks the lattice by prefix extension: in mixed-radix order a point's
value is its prefix's value times the terms whose runs end at its last
coordinate, and the runs ending there are its prefix's times that
coordinate, so a point costs O(n), not O(n^2).  The screen multiplies
the same terms as eval_f_batch in another order, so the points within a
relative 2e-12 of its keep-th largest value, the band, are re-evaluated
with eval_f_batch, and the chosen points are the ones eval_f_batch alone
would give, ties going to the lower lattice index.  The walk is a branch
and bound: no completion of a prefix x_1..x_k with value f_k and runs
r_i = x_i..x_k exceeds f_k (prod_i (1 + |r_i|))^d 2^(d(d+1)/2),
d = n - k, since each cross term is at most 1 + |r_i| and each term
within the suffix at most 2, so a prefix whose bound lies below the
band's edge, which only rises, is dropped with all its completions.  A
first walk over the 3-point sub-axis of the ends and the middle,
{-1, 0, 1} on grids of an even number of intervals, starts the edge near
its final height; only a few percent of the last level's prefixes are
then extended.  A node extends at most _SCREEN_ROWS = 2^17 values at
once.  Every ascent makes the same number of probes, so the starts are
polished together as the rows of one array, a lone start too: the
screen's points, then any random starts, ascended in place.  The ascent
evaluates the starts and each golden step's probes with _terms, the one
term kernel of this module, in O(n) numpy calls per step, a coordinate's
four bracket points in one call, and returns each row's value; the best
is the first row with the largest.  The known maximizers are 0/-1
vectors, which every grid with an even number of intervals contains, so
the interesting assertion is that nothing anywhere else climbs higher.

Domination sampling checks a seeded stream of samples against the mirror
-|v|, globally and block by block.  Both samplers draw every batch of
the stream into one buffer, reused from batch to batch.  The global
check copies each batch, transposed, and its mirror side by side into
one work array, also reused, and evaluates both with one pass of
_f_into, the in-place kernel under eval_f_batch, which multiplies
running_terms' terms in running_terms' order and allocates nothing;
sample and mirror get eval_f_batch's bits.  Both checks run an exact
a <= b first and leq_with_tol only where it fails: the tolerance only
widens the compare.  The block-wise check forms the terms of a row chunk
once with _terms.  Each pattern's partition becomes a small table of its
blocks' term rows, padded with the 1.0 row to four members, and every
block product of the chunk is one gather from the term array.  The
tables of a batch's new patterns come from the same walk over just those
patterns, with the build alone; where a row fails, the patterns below it
are rebuilt one by one in ascending index, so the failure raised is the
one a per-pattern loop meets first.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence

import numpy as np

from .partition import (
    AuditState,
    BuildState,
    BuildStep,
    CheckResult,
    ConstructionFailure,
    GoodPartition,
    PartitionBlock,
    audit_build,
    build_good_partition,
    check_blocks,
    covers_by_count,
    parity_counts,
    validate_partition,
    validator_classes,
)
from .triangle import as_sign_pattern, leq_with_tol, pohst_bound, prefix_classes

#: PRNG used for every sampling campaign, recorded in reports.
RNG_NAME = "numpy-PCG64"

_COARSE_STEP = 0.5
_SCREEN_KEEP = 32
_POLISH_ROUNDS = 3
_RANDOM_STARTS = 64
_MULTISTART_SEED = 42
#: Most lattice points a grid search may screen: the default n=8 grid.
_LATTICE_CAP = 9 ** 8
#: Rows per slice of eval_f_batch: a slice's contiguous columns, running
#: product and term stay in cache (2^14 rows hold 128 KiB per column).
_BATCH_ROWS = 16_384
#: Samples per batch of the sampling stream.
_SAMPLE_BATCH = 20_000
#: Points per chunk of the lattice screen of maximize_f.  At 2^17 > 9^5
#: the n = 8 grid's upper nodes hold two prefixes, not one, and its walk
#: makes 1,586 _extend calls, not 2,962; 2^18 forms more values of n = 9.
_SCREEN_ROWS = 1 << 17
#: Relative rounding allowance of the lattice screen: eval_f_batch
#: re-evaluates the points within twice it of the screen's keep-th
#: largest value.
_CONFIRM_REL = 1e-12
#: Elements of a term array (_terms) per row chunk of the block-wise
#: sampler, so that its term arrays and gathers keep their size as n grows.
_GATHER_ELEMENTS = 1 << 16
#: Most patterns the block-wise sampler keeps built across batches, all
#: of them for n <= 14.
_CACHED_PATTERNS = 1 << 14
#: Largest n of a sweep or a sampling campaign.
_MAX_N = 24


@dataclass(frozen=True)
class SweepReport:
    n: int
    patterns_checked: int
    failures: tuple[tuple[tuple[int, ...], str], ...]
    wall_time: float


@dataclass(frozen=True)
class MaximizeResult:
    n: int
    best_value: float
    best_point: tuple[float, ...]
    bound: float
    method: str
    evaluations: int


def pattern_from_index(n: int, idx: int) -> tuple[int, ...]:
    """Deterministic pattern numbering: bit b of idx set means x_{b+1} < 0."""
    return tuple(-1 if (idx >> b) & 1 else 1 for b in range(n))


def verify_pattern(pattern: Sequence[int]) -> str | None:
    """Full verification of one sign pattern; None when everything holds.

    Builds the good partition, validates it against the shape
    definition, audits every intermediate state of the construction,
    and checks border parity when it applies.
    """
    pat = as_sign_pattern(pattern)
    try:
        gp = build_good_partition(pat)
    except ConstructionFailure as e:
        return f"construction-failure: {e}"
    r = validate_partition(gp)
    if not r:
        return f"invalid-partition: {r.reason}"
    r = audit_build(gp)
    if not r:
        return f"audit: {r.reason}"
    return _parity_mismatch(pat)


def _parity_mismatch(pat: tuple[int, ...]) -> str | None:
    """The parity reason of a pattern whose border counts differ where
    they must agree (even n and an odd number of -1), else None."""
    if len(pat) % 2 or pat.count(-1) % 2 == 0:
        return None
    b_plus, b_minus = parity_counts(pat)
    return None if b_plus == b_minus else f"parity: b+={b_plus} b-={b_minus}"


def _verify_leaves(n: int, depth: int, idx: int) -> list[tuple[int, str]]:
    """verify_pattern on every leaf below the node (depth, idx)."""
    found = []
    for high in range(2 ** (n - depth)):
        leaf = idx | high << depth
        reason = verify_pattern(pattern_from_index(n, leaf))
        if reason is not None:
            found.append((leaf, reason))
    return found


def _apply_row(build: BuildState, audit: AuditState | None, q: list[int], r: list[int],
               j: int) -> bool:
    """Row j of the build and, unless audit is None, the validator's
    check_blocks on the blocks the row's steps create, with r_0..r_j, so
    members in rows <= j, and one seen set for the row, and row j of the
    audit; False when any of them fails."""
    k0 = len(build.steps)
    try:
        build.row(q, j)
    except ConstructionFailure:
        return False
    if audit is None:
        return True
    steps = build.steps
    if check_blocks([s.created for s in steps[k0:]], r[:j + 1], set()) is not None:
        return False
    return bool(audit.row(q, j, steps, k0))


def _leaf_valid(r: list[int], blocks: tuple[PartitionBlock, ...],
                steps: list[BuildStep]) -> bool:
    """validate_partition's verdict on the listed blocks of a leaf whose
    path checked the created block of every step in steps at its row:
    check_blocks on the listed blocks that are none of those objects
    (the initial singletons that survive), then the cover by count."""
    checked = {id(s.created) for s in steps}
    return (check_blocks([b for b in blocks if id(b) not in checked], r, set()) is None
            and covers_by_count(blocks, r))


def _leaf_ok(n: int, idx: int, r: list[int], build: BuildState, audit: AuditState) -> bool:
    """The leaf's share of the validator (_leaf_valid), the audit's
    final-state check and border parity on the materialized partition of
    a leaf; a failing leaf re-runs verify_pattern for its reason."""
    pat = pattern_from_index(n, idx)
    blocks = build.partition(pat).blocks
    if not _leaf_valid(r, blocks, build.steps) or not audit.final(blocks):
        return False
    return _parity_mismatch(pat) is None


def _walk(n: int, j: int, idx: int, q: list[int], r: list[int], build: BuildState,
          audit: AuditState | None, keys: list[int] | None,
          leaf: Callable[[int, list[int], BuildState, AuditState | None], None],
          pruned: Callable[[int, int, list[int] | None], None]) -> None:
    """Walk the trie of the pattern indices keys, all of them when keys
    is None, below the node whose states hold rows 1..j of the patterns
    with low bits idx: each child applies its row (_apply_row) and
    descends, or calls pruned(depth, index, keys below) where the row
    fails.  Each leaf calls leaf(index, r, build, audit), in trie order,
    which is ascending bit-reversed index.  A child works on a copy of
    the node's states unless it is the node's last.  q holds the
    builder's prefix classes and r the validator's, both set from the
    bits of the index before row j + 1 reads them."""
    if j == n:
        leaf(idx, r, build, audit)
        return
    children = [(0, None), (1, None)] if keys is None else \
        [(bit, sub) for bit in (0, 1) if (sub := [k for k in keys if k >> j & 1 == bit])]
    for c, (bit, sub) in enumerate(children):
        b, a = build, audit
        if c < len(children) - 1:
            b, a = build.copy(), None if audit is None else audit.copy()
        q[j + 1] = q[j] if bit else -q[j]   # q_{j+1} = -q_j x_{j+1}
        r[j + 1] = -r[j] * (-1 if bit else 1)   # r_{j+1} = -r_j x_{j+1}
        child = idx | bit << j
        if _apply_row(b, a, q, r, j + 1):
            _walk(n, j + 1, child, q, r, b, a, sub, leaf, pruned)
        else:
            pruned(j + 1, child, sub)


def _sweep_subtree(args: tuple[int, int, int]) -> list[tuple[int, str]]:
    """Failures (pattern index, reason) among the patterns whose low k
    bits are prefix."""
    n, k, prefix = args
    pattern = pattern_from_index(n, prefix)
    # Entries above k are overwritten by _walk before they are read.
    q, r = list(prefix_classes(pattern)), validator_classes(pattern)
    build, audit = BuildState(n), AuditState()
    for j in range(1, k + 1):
        if not _apply_row(build, audit, q, r, j):
            return _verify_leaves(n, k, prefix)
    found: list[tuple[int, str]] = []

    def leaf(idx: int, r: list[int], build: BuildState, audit: AuditState | None) -> None:
        if not _leaf_ok(n, idx, r, build, audit):
            found.extend(_verify_leaves(n, n, idx))

    def pruned(depth: int, idx: int, _: None) -> None:
        found.extend(_verify_leaves(n, depth, idx))

    _walk(n, k, prefix, q, r, build, audit, None, leaf, pruned)
    return found


def sweep_patterns(n: int, jobs: int = 1) -> SweepReport:
    """Verify all 2^n sign patterns; failures are collected, not raised.

    Walks the pattern tree depth first: the node for x_1..x_j applies
    row j of the build to a copy of its parent's states, checks the
    blocks the row creates with the validator's check_blocks and applies
    row j of the audit; each leaf finishes the validator on its
    materialized partition (_leaf_valid), ends the audit and checks
    border parity.  Whatever fails below a node is
    re-run through verify_pattern, pattern by pattern, so the report is
    the per-pattern loop's.  With jobs > 1 the tree is split by prefix
    into 2^k subtrees, 2^k >= 4 jobs, over a pool of worker processes.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must be between 1 and {_MAX_N}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    jobs = min(jobs, os.cpu_count() or 1)  # the report does not depend on jobs
    total = 2 ** n
    t0 = time.perf_counter()
    if jobs <= 1 or total < 256:
        found = _sweep_subtree((n, 0, 0))
    else:
        k = min(n, (4 * jobs - 1).bit_length())
        tasks = [(n, k, prefix) for prefix in range(2 ** k)]
        with get_context("fork").Pool(jobs) as pool:
            found = [f for part in pool.map(_sweep_subtree, tasks) for f in part]
    found.sort()
    failures = tuple((pattern_from_index(n, idx), reason) for idx, reason in found)
    return SweepReport(n, total, failures, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Maximizers


def enumerate_maximizers(n: int) -> list[tuple[int, ...]]:
    """All 0/-1 vectors with ceil(n/2) entries -1, no two adjacent.

    These are exactly the maximizers of f_n on [-1,1]^n; there is one
    for odd n and n/2 + 1 for even n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = (n + 1) // 2
    out = []
    for pos in itertools.combinations(range(n), k):
        if all(b - a >= 2 for a, b in zip(pos, pos[1:])):
            v = [0] * n
            for p in pos:
                v[p] = -1
            out.append(tuple(v))
    return out


def eval_f_batch(X: np.ndarray) -> np.ndarray:
    """Vectorized f_n over the rows of X, the numeric twin of eval_f:
    _f_into over cache-sized row slices, each transposed into one work
    array allocated per call.  X is one vector or a 2-d array of them;
    like eval_f, it refuses rows without entries and entries outside
    [-1, 1], NaN included."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X must be a vector or a 2-d array of vectors, each non-empty")
    m, n = X.shape
    rows = min(m, _BATCH_ROWS)
    f, VT, p, t = np.empty(m), np.empty((n, rows)), np.empty(rows), np.empty(rows)
    for s in range(0, m, _BATCH_ROWS):
        k = min(_BATCH_ROWS, m - s)
        block = X[s:s + k]
        # min and max propagate NaN, make no temporary, and leave the
        # slice in cache for the copy
        if not (block.min() >= -1.0 and block.max() <= 1.0):
            raise ValueError("entries of X must lie in [-1, 1]")
        np.copyto(VT[:, :k], block.T)
        _f_into(VT[:, :k], f[s:s + k], p[:k], t[:k])
    return f


def _f_into(VT: np.ndarray, f: np.ndarray, p: np.ndarray, t: np.ndarray) -> None:
    """f_n of every column of VT, whose row k holds x_{k+1} of each
    column, written into f, with running_terms' terms in running_terms'
    order; p and t are scratch of f's length, VT's rows contiguous.

    Each run starts as VT[i] itself, which 1.0 * x_i equals bit for bit:
    its first extension x_i * x_{i+1} goes into p, and later ones extend p
    in place; each term is 1 - run in t.  f starts as the first term,
    which 1.0 times it equals, and multiplies every later one in place.
    So f holds the bits of eval_f on every column, and nothing is
    allocated."""
    np.subtract(1.0, VT[0], out=f)
    for i in range(len(VT)):
        if i:
            np.subtract(1.0, VT[i], out=t)
            f *= t
        run = VT[i]
        for j in range(i + 1, len(VT)):
            np.multiply(run, VT[j], out=p)
            run = p
            np.subtract(1.0, p, out=t)
            f *= t


def _axis_points(grid_step: float) -> np.ndarray:
    """The points of the grid of step grid_step on [-1, 1], once the step
    is known to lie in [2/_LATTICE_CAP, 2] and to divide 2."""
    if not 2.0 / _LATTICE_CAP <= grid_step <= 2.0:   # also NaN and infinities
        raise ValueError(f"grid_step must lie in [2/{_LATTICE_CAP}, 2], got {grid_step}")
    k = round(2.0 / grid_step)
    if abs(k * grid_step - 2.0) > 1e-12:
        raise ValueError("grid_step must divide the interval length 2 evenly")
    return np.linspace(-1.0, 1.0, k + 1)


def _extend(f: np.ndarray, runs: np.ndarray, pts: np.ndarray,
            keep_runs: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Extend each of P prefixes x_1..x_k by each of pts: the values
    f_{k+1}, prefix-major, and with keep_runs the new runs, else None.

    f[p] is f_k at prefix p and runs[i, p] its run product x_{i+1}..x_k.
    Each run is multiplied by the new coordinate x_{k+1}, which also
    starts a run of its own, and f_{k+1} = f_k * prod_i (1 - x_i..x_{k+1}).
    Every run product is formed as in running_terms, so each term has
    running_terms' bits; only the order in which f multiplies them
    differs.  The work is laid out with the longer of the two axes last,
    where numpy's inner loop runs, and transposed at the end.  Prefixes
    are the longer below the first two levels while m^2 fits in a chunk;
    points at the root and, past m = 256, on the last level."""
    by_point = len(f) > len(pts)
    if by_point:
        x, f, runs = pts[:, None], f[None, :], runs[:, None, :]
    else:
        x, f, runs = pts[None, :], f[:, None], runs[:, :, None]
    vals = f * (1.0 - x)
    term = np.empty(vals.shape)
    new = np.empty((len(runs) + 1,) + vals.shape) if keep_runs else None
    for i, r in enumerate(runs):
        run = new[i] if keep_runs else term
        np.multiply(r, x, out=run)
        np.subtract(1.0, run, out=term)
        vals *= term
    if keep_runs:
        new[-1] = x
        new = (new.transpose(0, 2, 1) if by_point else new).reshape(len(new), -1)
    return (vals.T if by_point else vals).ravel(), new


def _reach(f: np.ndarray, runs: np.ndarray, d: int) -> np.ndarray:
    """For each prefix x_1..x_k, f[p] its screen value f_k and runs[i, p]
    its run x_{i+1}..x_k, a bound, slack included, on the screen value of
    every completion by d more coordinates:
    f_k (prod_i (1 + |r_i|))^d 2^(d(d+1)/2) (1 + 2 _CONFIRM_REL).

    Completing the prefix multiplies f_k by d k cross terms
    1 - r_i x_{k+1}..x_j, each at most 1 + |r_i| as |x| <= 1, and by the
    d(d+1)/2 terms within the suffix, each at most 2.  Every factor is
    >= 0 and the screen rounds the runs, terms and products monotonically,
    so its value exceeds the exact product of these bounds by at most
    about n^2 roundings, as this one falls short of it, far inside the
    slack."""
    acc, t = np.ones(len(f)), np.empty(len(f))
    for r in runs:
        np.abs(r, out=t)
        t += 1.0
        acc *= t
    np.power(acc, d, out=acc)
    acc *= f
    acc *= 2.0 ** (d * (d + 1) // 2) * (1.0 + 2 * _CONFIRM_REL)
    return acc


def _screen(points: np.ndarray, n: int, keep: int,
            floor: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The band of the lattice points^n: the mixed-radix indices,
    ascending, and the screen values of every point whose value is at
    least floor, the band's lower edge, when the walk reaches it; and the
    edge at the end.  The edge starts at floor and rises to the running
    keep-th largest value less 2 _CONFIRM_REL of it, dropping the points
    below it; with fewer than keep points it stays where it starts.

    A branch-and-bound walk of the prefix tree.  Each node extends its
    prefixes by one coordinate (_extend), which costs O(n) per point
    where running_terms costs O(n^2), step points at a time, step the
    most points whose subtrees, under all its prefixes, fit in one chunk
    of _SCREEN_ROWS values, and at least one: all m points where the
    whole level fits, else one prefix.  Before it extends them, a node
    drops every prefix that _reach puts below the edge: the edge only
    rises, so no completion of it could ever enter the band.  Each node
    carries one int64 mixed-radix index per prefix, and a leaf forms the
    indices of its hits only.  With floor at -inf and keep beyond the
    lattice, nothing is dropped and the walk visits every point, in
    mixed-radix order, in chunks of at most _SCREEN_ROWS values."""
    m, rows = len(points), _SCREEN_ROWS
    idx = np.empty(0, dtype=np.int64)
    val = np.empty(0)

    def walk(f: np.ndarray, runs: np.ndarray, ids: np.ndarray, k: int) -> None:
        nonlocal floor, idx, val
        d = n - k
        ok = _reach(f, runs, d) >= floor
        if not ok.all():
            f, runs, ids = f[ok], runs[:, ok], ids[ok]
            if not len(f):
                return
        step = max(1, rows // (len(f) * m ** (d - 1)))
        for c in range(0, m, step):
            pts = points[c:c + step]
            if d > 1:
                walk(*_extend(f, runs, pts, True),
                     (ids[:, None] * m + np.arange(c, c + len(pts))).ravel(), k + 1)
                continue
            vals = _extend(f, runs, pts, False)[0]
            if vals.max() < floor:
                continue
            hit = np.flatnonzero(vals >= floor)
            idx = np.concatenate((idx, ids[hit // len(pts)] * m + c + hit % len(pts)))
            val = np.concatenate((val, vals[hit]))
            if len(val) >= keep:
                kth = np.partition(val, len(val) - keep)[len(val) - keep]
                if kth - 2 * _CONFIRM_REL * kth > floor:
                    floor = kth - 2 * _CONFIRM_REL * kth
                    band = val >= floor
                    idx, val = idx[band], val[band]

    walk(np.ones(1), np.empty((0, 1)), np.zeros(1, dtype=np.int64), 0)
    return idx, val, floor


def _grid_top(points: np.ndarray, n: int, keep: int) -> np.ndarray:
    """The keep points of points^n at which eval_f_batch is largest, as
    the rows of one array, best first, ties going to the first in
    mixed-radix order; all of points^n when it holds fewer.

    The screen (_screen) forms the same terms as eval_f_batch, bit for
    bit, and multiplies them in another order, so both lie within about
    n^2 2^-53 of the exact product of those terms: relatively, as f >= 0,
    and far inside _CONFIRM_REL.  Moving every value by at most that much
    moves each order statistic by at most as much, so each of
    eval_f_batch's top keep points has a screen value within
    2 _CONFIRM_REL of the screen's keep-th largest, the band's final
    edge, and is kept.  The edge starts at the final edge of the 3-point
    sub-axis {points[0], points[m // 2], points[-1]}, when m > 3: a
    point's screen value does not depend on the lattice it lies in, and a
    subset's keep-th largest value cannot exceed the whole lattice's, so
    this only lets the walk drop more prefixes sooner; the band at the
    end, every point within the final edge, is the same.  eval_f_batch
    re-evaluates the band, decoded from its mixed-radix indices by
    np.unravel_index, and it is ranked by (-value, index)."""
    m = len(points)
    floor = -np.inf if m <= 3 else _screen(points[[0, m // 2, -1]], n, keep, -np.inf)[2]
    idx = _screen(points, n, keep, floor)[0]
    X = points[np.column_stack(np.unravel_index(idx, (m,) * n))]
    return X[np.lexsort((idx, -eval_f_batch(X)))[:keep]]


def _terms(X: np.ndarray) -> np.ndarray:
    """The terms of the S rows of X as an (n^2 + 1, S) array: row
    (i - 1) n + j - 1 holds the term (i, j) with running_terms' bits,
    every other row, the last included, exactly 1.0.  It starts zeroed;
    its diagonal d holds the runs x_i..x_{i+d}, each its run on diagonal
    d - 1 times x_{i+d}, as running_terms extends a run, so O(n) numpy
    calls form what running_terms forms in O(n^2)."""
    S, n = X.shape
    XT = X.T
    P = np.zeros((n * n + 1, S))
    P[::n + 1] = XT   # n (n + 1) > n^2: the n entries of diagonal 0
    for d in range(1, n):
        np.multiply(P[d - 1::n + 1][:n - d], XT[d:], out=P[d::n + 1][:n - d])
    np.subtract(1.0, P, out=P)
    return P


def _eval_f_probe(X: np.ndarray) -> np.ndarray:
    """eval_f_batch on a few rows, bit for bit: the ascent's probe kernel.
    _terms lists running_terms' terms in order, and the 1.0s multiply
    exactly; at n^2 entries a row, it loses beyond some thousands of rows."""
    return np.multiply.reduce(_terms(X), axis=0)


def _polish(X: np.ndarray, radius: float) -> np.ndarray:
    """Per-coordinate golden-section ascent, _POLISH_ROUNDS passes over
    the coordinates, from each row of the (S, n) array X, which it
    ascends in place; never descends.  Returns each row's value at its
    end, which is eval_f_batch's value there, bit for bit.

    Each coordinate probes the two ends of its bracket, two golden points
    and 48 golden steps, so every ascent makes _POLISH_ROUNDS * n * 52
    probes and only the branch of a step differs between rows.  The
    starts' values and each probe evaluate every row with _eval_f_probe,
    which gives eval_f_batch's bits, and a row keeps its value until a
    probe of a point beats it.  The four bracket points lo, hi, c and d
    are one _eval_f_probe call on a stack of 4 S rows."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    value = _eval_f_probe(X)
    n = X.shape[1]

    def f(k: int, t: np.ndarray) -> np.ndarray:
        X[:, k] = t
        return _eval_f_probe(X)

    for _ in range(_POLISH_ROUNDS):
        for k in range(n):
            x_k = X[:, k].copy()
            lo = np.maximum(-1.0, x_k - radius)
            hi = np.minimum(1.0, x_k + radius)
            w = inv * (hi - lo)
            a, b, c, d = lo, hi, hi - w, lo + w
            Y = np.tile(X, (4, 1))
            Y[:, k] = np.concatenate((lo, hi, c, d))
            g_lo, g_hi, gc, gd = _eval_f_probe(Y).reshape(4, -1)
            for _ in range(48):
                m = gc > gd
                a, b = np.where(m, a, c), np.where(m, d, b)
                w = inv * (b - a)
                c, d = np.where(m, b - w, d), np.where(m, c, a + w)
                v = f(k, np.where(m, c, d))
                gc, gd = np.where(m, v, gd), np.where(m, gc, v)
            for t, v in ((lo, g_lo), (hi, g_hi), (c, gc), (d, gd)):
                up = v > value   # the first strict improvement wins
                x_k, value = np.where(up, t, x_k), np.where(up, v, value)
            X[:, k] = x_k
    return value


def maximize_f(n: int, grid_step: float = 0.25) -> MaximizeResult:
    """Numerically maximize f_n over [-1,1]^n.

    Both paths screen a lattice with _grid_top and polish its best
    points with _polish's golden-section ascent.  n <= 8: the exhaustive
    grid at grid_step, which may hold at most _LATTICE_CAP = 9^8 points,
    and its first point where eval_f_batch is largest, the one start.
    Larger n: the _SCREEN_KEEP best points of the coarse 0.5-step
    lattice, best first and ties by lattice index, then _RANDOM_STARTS
    seeded random points.  The best is the first start with the largest
    value after the ascent.  The screen's branch and bound forms the
    values of only the lattice points whose prefixes could still reach
    its band, and it drops only points that could never enter it, so the
    points it returns are those of a screen of every point (_grid_top).
    evaluations counts each lattice point once, whether its value was
    formed or ruled out by a prefix's bound, and each random start once,
    plus the ascents' probes.  The coarse lattice has 5^n points, so n
    is capped at 12.  A grid_step outside [2/9^8, 2] or not dividing 2 is
    refused for every n, before any screen.
    """
    if not 1 <= n <= 12:
        raise ValueError("n must be between 1 and 12")
    axis = _axis_points(grid_step)
    if n <= 8:
        if len(axis) ** n > _LATTICE_CAP:
            raise ValueError(f"grid_step {grid_step} at n={n} asks for {len(axis)}^{n} "
                             f"lattice points, more than {_LATTICE_CAP} (9^8)")
        points, keep, radius = axis, 1, grid_step
        method = f"grid(step={grid_step})+golden-ascent(rounds={_POLISH_ROUNDS})"
    else:
        points, keep, radius = _axis_points(_COARSE_STEP), _SCREEN_KEEP, _COARSE_STEP
        method = (f"coarse-screen(step={_COARSE_STEP},keep={_SCREEN_KEEP})"
                  f"+multistart({_RANDOM_STARTS})+golden-ascent(rounds={_POLISH_ROUNDS})")
    X = _grid_top(points, n, keep)
    evaluations = len(points) ** n
    if n > 8:
        rng = np.random.default_rng(_MULTISTART_SEED)
        X = np.concatenate((X, rng.uniform(-1.0, 1.0, size=(_RANDOM_STARTS, n))))
        evaluations += _RANDOM_STARTS
    values = _polish(X, radius)
    best = int(np.argmax(values))   # the first start with the largest value
    return MaximizeResult(n, float(values[best]), tuple(float(c) for c in X[best]),
                          pohst_bound(n), method,
                          evaluations + _POLISH_ROUNDS * n * 52 * len(X))


# ---------------------------------------------------------------------------
# Domination sampling


def _sample_batches(n: int, samples: int, seed: int,
                    out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Uniform samples of [-1,1]^n without zero entries, in batches of
    _SAMPLE_BATCH.

    Yields (offset, X), X of shape (m, n) with m = min(_SAMPLE_BATCH,
    samples left).  Each batch is drawn as numpy's uniform(-1, 1),
    -1 + 2d for d from random(), bit for bit, and its zero entries are
    redrawn with uniform(-1, 1) until none is left.  The stream depends
    only on (n, samples, seed), so independent consumers see identical
    vectors.  Given out, an array of shape (min(_SAMPLE_BATCH, samples),
    n), every batch is drawn into it, and X is a view of out, valid until
    the next batch is drawn; without it, each X is an array of its own.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < samples:
        m = min(_SAMPLE_BATCH, samples - produced)
        X = np.empty((m, n)) if out is None else out[:m]
        rng.random(out=X)
        X *= 2.0
        X -= 1.0
        while True:
            zero = X == 0.0
            if not zero.any():
                break
            X[zero] = rng.uniform(-1.0, 1.0, size=int(zero.sum()))
        yield produced, X
        produced += m


def _check_sampling(n: int, samples: int, seed: int) -> None:
    """Refuse a sampling campaign before it draws a sample: n is capped
    as in sweep_patterns, whose 2^n patterns bound the partitions that
    the block-wise sampler may build, and the seed must be one that
    numpy's generator takes."""
    if not 1 <= n <= _MAX_N or samples < 1:
        raise ValueError(f"need 1 <= n <= {_MAX_N} and samples >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")


def sample_domination(n: int, samples: int = 100_000, seed: int = 42) -> CheckResult:
    """Seeded random check of f(v) <= f(-|v|) <= 2^floor((n+1)/2).

    Deterministic given (n, samples, seed).  On failure the witness is
    (sample index, vector).  Each batch is drawn into one reused buffer
    and copied, transposed, into one reused work array, its mirror (one
    copysign pass) beside it; one _f_into pass over the array's columns
    gives eval_f_batch's bits on the batch and on -|batch|.  A batch that the
    exact compares pass is accepted: leq_with_tol adds a tolerance of at
    least ABS_TOL > 0, so it would pass it too; it decides the rest.
    """
    _check_sampling(n, samples, seed)
    bound = pohst_bound(n)
    rows = min(_SAMPLE_BATCH, samples)
    buf, W = np.empty((rows, n)), np.empty((n, 2 * rows))
    f, p, t = np.empty(2 * rows), np.empty(2 * rows), np.empty(2 * rows)
    for offset, X in _sample_batches(n, samples, seed, buf):
        m = len(X)
        V, M = W[:, :m], W[:, m:2 * m]   # the batch's columns, then its mirror's
        np.copyto(V, X.T)
        np.copysign(V, -1.0, out=M)
        _f_into(W[:, :2 * m], f[:2 * m], p[:2 * m], t[:2 * m])
        fv, fm = f[:m], f[m:2 * m]
        if (fv <= fm).all() and (fm <= bound).all():
            continue
        ok = leq_with_tol(fv, fm) & leq_with_tol(fm, bound)
        if not ok.all():
            bad = int(np.argmin(ok))
            return CheckResult(
                False, f"domination failed at sample {offset + bad}: "
                f"f={fv[bad]}, mirror={fm[bad]}, bound={bound}",
                (offset + bad, tuple(X[bad])))
    return CheckResult(True)


def _member_table(n: int, gp: GoodPartition) -> np.ndarray:
    """Row b holds the rows in _terms of the members of block b of gp, in
    member order, padded with the 1.0 row n^2 to four."""
    rows = []
    for block in gp.blocks:
        rows += [(i - 1) * n + j - 1 for i, j in block.members]
        rows += [n * n] * (4 - len(block.members))
    return np.array(rows, dtype=np.intp).reshape(-1, 4)


def _pattern_tables(n: int, keys: Sequence[int], cache: dict[int, np.ndarray]) -> np.ndarray:
    """The member tables (_member_table) of the patterns keys, stacked to
    shape (len(keys), most blocks, 4); the rows past a pattern's last
    block name the 1.0 row of _terms.

    cache maps a pattern index to its table.  The patterns missing from
    it are built by one walk of the trie of their prefixes (_walk), each
    row once per trie node, and each leaf's partition becomes its table.
    Where a row raises ConstructionFailure, the patterns below that node
    are built with build_good_partition in ascending index, so the
    lowest of them raises what a per-pattern loop would raise first."""
    failed: list[int] = []

    def leaf(idx: int, _r: list[int], build: BuildState, _: None) -> None:
        cache[idx] = _member_table(n, build.partition(pattern_from_index(n, idx)))

    def pruned(depth: int, idx: int, below: list[int]) -> None:
        failed.extend(below)

    new = [key for key in keys if key not in cache]
    # q_0 = r_0 = 1; _walk sets q_j and r_j before row j reads them.
    _walk(n, 0, 0, [1] * (n + 1), [1] * (n + 1), BuildState(n), None, new, leaf, pruned)
    for key in sorted(failed):
        cache[key] = _member_table(n, build_good_partition(pattern_from_index(n, key)))
    tables = [cache[key] for key in keys]
    stacked = np.full((len(tables), max(len(t) for t in tables), 4), n * n, dtype=np.intp)
    for u, table in enumerate(tables):
        stacked[u, :len(table)] = table
    return stacked


def _gathered_block_products(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row r, column b: the product of block b's terms at X[r] in member
    order, where cols[r] is the member table of row r's pattern.  X may
    also be a stack of such samples that share the tables, a chunk and
    its mirror: the flat indices cols[r] m + r into the (n^2 + 1, m)
    term array of _terms are formed once for all of them.  The 1.0 row
    pads every block to four members, so each product is bit-identical
    to block_products'."""
    m, blocks, _ = cols.shape
    n = X.shape[-1]
    flat = cols.reshape(m, 4 * blocks) * m + np.arange(m)[:, None]
    P = np.empty(X.shape[:-1] + (blocks,))
    for V, a in zip(X.reshape(-1, m, n), P.reshape(-1, m, blocks)):
        g = _terms(V).take(flat).reshape(m, blocks, 4)
        np.multiply(g[:, :, 0], g[:, :, 1], out=a)
        a *= g[:, :, 2]
        a *= g[:, :, 3]
    return P


def sample_blockwise_domination(n: int, samples: int = 100_000,
                                seed: int = 42) -> CheckResult:
    """Block-level domination on the same sample stream as
    sample_domination: for every sample, every block of the certificate
    of its sign pattern dominates under the mirror vector.

    Each batch first builds the partitions of its new patterns, with
    one walk of the trie of their prefixes (_pattern_tables), and keeps
    only their member tables; the walk's leaves come in trie order.  A
    ConstructionFailure in the walk sends the patterns below the failing
    node to build_good_partition in ascending pattern_from_index index,
    so the batch raises what building its new patterns one by one in
    ascending index raises first, before any of its domination
    verdicts.  A batch that finds more than _CACHED_PATTERNS patterns
    built starts from none, so memory does not grow with samples.  The
    batch's rows are then checked in chunks of _GATHER_ELEMENTS //
    (n^2 + 1) rows: one term array (_terms) per chunk for the sample and
    one for its mirror, and every block product gathered from it.  A
    failure names the lowest failing pattern index of the first failing
    batch, its first failing block in block order, whose members are
    read back from its table, and that block's first failing row.
    """
    _check_sampling(n, samples, seed)
    chunk = max(1, _GATHER_ELEMENTS // (n * n + 1))
    cache: dict[int, np.ndarray] = {}
    bits = 1 << np.arange(n, dtype=np.int64)
    buf = np.empty((min(_SAMPLE_BATCH, samples), n))
    for offset, X in _sample_batches(n, samples, seed, buf):
        if len(cache) > _CACHED_PATTERNS:
            cache.clear()
        keys, inverse = np.unique((X < 0) @ bits, return_inverse=True)
        stacked = _pattern_tables(n, keys.tolist(), cache)
        first = None   # (pattern slot, block, row) of the batch's first failure
        for s in range(0, len(X), chunk):
            C, cols = X[s:s + chunk], stacked[inverse[s:s + chunk]]
            P = _gathered_block_products(np.stack((C, np.copysign(C, -1.0))), cols)
            if (P[0] <= P[1]).all():
                continue
            ok = leq_with_tol(P[0], P[1])
            rows, blocks = np.nonzero(~ok)
            if len(rows):
                slots = inverse[s + rows]
                k = np.lexsort((rows, blocks, slots))[0]
                found = (int(slots[k]), int(blocks[k]), s + int(rows[k]))
                first = found if first is None else min(first, found)
        if first is not None:
            slot, block, row = first
            members = [(i + 1, j + 1) for i, j in
                       (divmod(int(c), n) for c in stacked[slot, block] if c != n * n)]
            return CheckResult(
                False, f"block {members} failed domination at sample {offset + row}",
                (offset + row, tuple(X[row])))
    return CheckResult(True)
