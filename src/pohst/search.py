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
carries the audit with the build; the validator and the parity check
run on each leaf's materialized partition.  Any failure below a node is
re-run through verify_pattern, the one-pattern reference.  With
jobs > 1 the tree is split by prefix into 2^k subtrees, 2^k >= 4 jobs.

Numeric maximization reproduces the bound 2^floor((n+1)/2) without
assuming it: a lattice search over the cube followed by per-coordinate
golden-section ascent.  One screen serves both paths: the grid of
n <= 8 for its best point, the coarse lattice of larger n for its 32
best.  It walks the lattice by prefix extension: in mixed-radix order a
point's value is its prefix's value times the terms whose runs end at
its last coordinate, and the runs ending there are its prefix's times
that coordinate, so a point costs O(n), not O(n^2).  The screen
multiplies the same terms as eval_f_batch in another order, so the
points within a relative 2e-12 of its keep-th largest value are
re-evaluated with eval_f_batch, and the chosen points and values are
the ones eval_f_batch alone would give, ties going to the lower lattice
index.  Every ascent makes the same number of probes, so the starts are
polished together as the rows of one array, and each golden step
evaluates one probe per start with a kernel of O(n) numpy calls.
The known maximizers are 0/-1 vectors, which every grid with an even
number of intervals contains, so the interesting assertion is that
nothing anywhere else climbs higher.

Domination sampling checks a seeded stream of samples against the
mirror -|v|, globally and block by block.  The block-wise check forms
the terms of a row chunk once, as a matrix with one column per term in
running_terms order and a column of ones.  Each pattern's partition
becomes a small table of its blocks' term columns, padded with the ones
column to four members, and every block product of the chunk is one
gather from the matrix.  The tables of a batch's new patterns come from
the same walk over just those patterns, with the build alone; where a
row fails, the patterns below it are rebuilt one by one in ascending
index, so the failure raised is the one a per-pattern loop meets first.
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
    CheckResult,
    ConstructionFailure,
    GoodPartition,
    audit_build,
    build_good_partition,
    parity_counts,
    validate_partition,
)
from .triangle import (as_sign_pattern, eval_f, leq_with_tol, pohst_bound, prefix_classes,
                       running_terms)

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
#: Points per chunk of the lattice screen of maximize_f.
_SCREEN_ROWS = 1 << 16
#: Relative rounding allowance of the lattice screen: eval_f_batch
#: re-evaluates the points within twice it of the screen's keep-th
#: largest value.
_CONFIRM_REL = 1e-12
#: Elements of a term matrix per row chunk of the block-wise sampler, so
#: that its term matrices and gathers keep their size as n grows.
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
    n = len(pat)
    if n % 2 == 0 and pat.count(-1) % 2 == 1:
        b_plus, b_minus = parity_counts(pat)
        if b_plus != b_minus:
            return f"parity: b+={b_plus} b-={b_minus}"
    return None


def _verify_leaves(n: int, depth: int, idx: int) -> list[tuple[int, str]]:
    """verify_pattern on every leaf below the node (depth, idx)."""
    found = []
    for high in range(2 ** (n - depth)):
        leaf = idx | high << depth
        reason = verify_pattern(pattern_from_index(n, leaf))
        if reason is not None:
            found.append((leaf, reason))
    return found


def _apply_row(build: BuildState, audit: AuditState | None, q: list[int], j: int) -> bool:
    """Row j of the build and, unless audit is None, of the audit; False
    when either fails."""
    k0 = len(build.steps)
    try:
        build.row(q, j)
    except ConstructionFailure:
        return False
    return audit is None or bool(audit.row(q, j, build.steps, k0))


def _leaf_ok(n: int, idx: int, build: BuildState, audit: AuditState) -> bool:
    """validate_partition, the audit's final-state check and border
    parity on the materialized partition of a leaf.  Its blocks stay
    unsorted, since neither verdict depends on block order; a failing
    leaf re-runs verify_pattern, whose reason reads the sorted blocks."""
    pat = pattern_from_index(n, idx)
    gp = build.partition(pat, ordered=False)
    if not validate_partition(gp) or not audit.final(gp.blocks):
        return False
    if n % 2 == 0 and pat.count(-1) % 2 == 1:
        b_plus, b_minus = parity_counts(pat)
        return b_plus == b_minus
    return True


def _walk(n: int, j: int, idx: int, q: list[int], build: BuildState,
          audit: AuditState | None, keys: list[int] | None,
          leaf: Callable[[int, BuildState, AuditState | None], None],
          pruned: Callable[[int, int, list[int] | None], None]) -> None:
    """Walk the trie of the pattern indices keys, all of them when keys
    is None, below the node whose states hold rows 1..j of the patterns
    with low bits idx: each child applies its row (_apply_row) and
    descends, or calls pruned(depth, index, keys below) where the row
    fails.  Each leaf calls leaf(index, build, audit), in trie order,
    which is ascending bit-reversed index.  A child works on a copy of
    the node's states unless it is the node's last."""
    if j == n:
        leaf(idx, build, audit)
        return
    children = [(0, None), (1, None)] if keys is None else \
        [(bit, sub) for bit in (0, 1) if (sub := [k for k in keys if k >> j & 1 == bit])]
    for c, (bit, sub) in enumerate(children):
        b, a = build, audit
        if c < len(children) - 1:
            b, a = build.copy(), None if audit is None else audit.copy()
        q[j + 1] = q[j] if bit else -q[j]   # q_{j+1} = -q_j x_{j+1}
        child = idx | bit << j
        if _apply_row(b, a, q, j + 1):
            _walk(n, j + 1, child, q, b, a, sub, leaf, pruned)
        else:
            pruned(j + 1, child, sub)


def _sweep_subtree(args: tuple[int, int, int]) -> list[tuple[int, str]]:
    """Failures (pattern index, reason) among the patterns whose low k
    bits are prefix."""
    n, k, prefix = args
    # Entries above k are overwritten by _walk before they are read.
    q = list(prefix_classes(pattern_from_index(n, prefix)))
    build, audit = BuildState(n), AuditState()
    for j in range(1, k + 1):
        if not _apply_row(build, audit, q, j):
            return _verify_leaves(n, k, prefix)
    found: list[tuple[int, str]] = []

    def leaf(idx: int, build: BuildState, audit: AuditState | None) -> None:
        if not _leaf_ok(n, idx, build, audit):
            found.extend(_verify_leaves(n, n, idx))

    def pruned(depth: int, idx: int, _: None) -> None:
        found.extend(_verify_leaves(n, depth, idx))

    _walk(n, k, prefix, q, build, audit, None, leaf, pruned)
    return found


def sweep_patterns(n: int, jobs: int = 1) -> SweepReport:
    """Verify all 2^n sign patterns; failures are collected, not raised.

    Walks the pattern tree depth first: the node for x_1..x_j applies
    row j of the build and of the audit to a copy of its parent's
    states, and each leaf validates its materialized partition, ends the
    audit and checks border parity.  Whatever fails below a node is
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
    """Vectorized f_n over the rows of X, in cache-sized row slices; the
    numeric twin of eval_f.  X is one vector or a 2-d array of them;
    like eval_f, it refuses rows without entries and entries outside
    [-1, 1], NaN included."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X must be a vector or a 2-d array of vectors, each non-empty")
    f = np.empty(len(X))
    for s in range(0, len(X), _BATCH_ROWS):
        rows = X[s:s + _BATCH_ROWS]
        # min and max propagate NaN, make no temporary, and leave the
        # slice in cache for the kernel
        if not (rows.min() >= -1.0 and rows.max() <= 1.0):
            raise ValueError("entries of X must lie in [-1, 1]")
        f[s:s + _BATCH_ROWS] = _eval_f_batch(rows)
    return f


def _eval_f_batch(X: np.ndarray) -> np.ndarray:
    """eval_f_batch without its input checks, for 2-d float arrays whose
    entries are known to lie in [-1, 1]."""
    f = np.ones(len(X))
    for s in range(0, len(X), _BATCH_ROWS):
        out = f[s:s + _BATCH_ROWS]   # a view: terms multiply into f in place
        for _, _, t in running_terms(np.ascontiguousarray(X[s:s + _BATCH_ROWS].T)):
            out *= t
    return f


def _grid_intervals(grid_step: float) -> int:
    """The number of grid intervals on [-1, 1], once the step is known to
    lie in [2/_LATTICE_CAP, 2] and to divide 2."""
    if not 2.0 / _LATTICE_CAP <= grid_step <= 2.0:   # also NaN and infinities
        raise ValueError(f"grid_step must lie in [2/{_LATTICE_CAP}, 2], got {grid_step}")
    k = round(2.0 / grid_step)
    if abs(k * grid_step - 2.0) > 1e-12:
        raise ValueError("grid_step must divide the interval length 2 evenly")
    return k


def _axis_points(grid_step: float, n: int) -> np.ndarray:
    """The grid's points on [-1, 1], once the step is known to divide 2
    and the lattice, their n-th power, to hold at most _LATTICE_CAP points."""
    k = _grid_intervals(grid_step)
    if (k + 1) ** n > _LATTICE_CAP:
        raise ValueError(f"grid_step {grid_step} at n={n} asks for {k + 1}^{n} "
                         f"lattice points, more than {_LATTICE_CAP} (9^8)")
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
    where numpy's inner loop runs, and transposed at the end."""
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


def _grid_values(points: np.ndarray, n: int,
                 rows: int = _SCREEN_ROWS) -> Iterator[np.ndarray]:
    """Screen values of f_n over points^n in mixed-radix order, as
    consecutive chunks of at most rows values.

    A walk of the prefix tree: each node extends its parent's prefixes
    by one coordinate (_extend), which costs O(n) per point where
    running_terms costs O(n^2).  Nodes whose subtrees fit in one chunk
    are extended together, larger ones one prefix and a slice of points
    at a time, so no level holds more than rows prefixes."""
    m = len(points)

    def walk(f: np.ndarray, runs: np.ndarray, k: int) -> Iterator[np.ndarray]:
        if k == n:
            yield f
            return
        below = m ** (n - k - 1)   # lattice points under each child
        if len(f) * m * below <= rows:
            yield from walk(*_extend(f, runs, points, k + 1 < n), k + 1)
            return
        step = max(1, rows // below)   # here f holds one prefix
        for c in range(0, m, step):
            yield from walk(*_extend(f, runs, points[c:c + step], k + 1 < n), k + 1)

    yield from walk(np.ones(1), np.empty((0, 1)), 0)


def _grid_top(points: np.ndarray, n: int, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The keep points of points^n at which eval_f_batch is largest, as
    (values, points), best first, ties going to the first in
    mixed-radix order; all of points^n when it holds fewer.

    The screen (_grid_values) forms the same terms as eval_f_batch, bit
    for bit, and multiplies them in another order, so both lie within
    about n^2 2^-53 of the exact product of those terms: relatively, as
    f >= 0, and far inside _CONFIRM_REL.  Moving every value by at most
    that much moves each order statistic by at most as much, so each of
    eval_f_batch's top keep points has a screen value within
    2 _CONFIRM_REL of the screen's keep-th largest.  The screen keeps
    every point within that band of the running keep-th largest value,
    which only rises, and prunes the kept set whenever it does; a chunk
    below the band costs one max pass.  eval_f_batch re-evaluates the
    candidates, which are ranked by (-value, index)."""
    floor = -np.inf                     # the band's lower edge
    idx = np.empty(0, dtype=np.int64)   # candidates, ascending
    val = np.empty(0)                   # and their screen values
    start = 0
    for vals in _grid_values(points, n):
        if vals.max() >= floor:
            hit = np.flatnonzero(vals >= floor)
            idx = np.concatenate((idx, start + hit))
            val = np.concatenate((val, vals[hit]))
            if len(val) >= keep:
                kth = np.partition(val, len(val) - keep)[len(val) - keep]
                if kth - 2 * _CONFIRM_REL * kth > floor:
                    floor = kth - 2 * _CONFIRM_REL * kth
                    band = val >= floor
                    idx, val = idx[band], val[band]
        start += len(vals)
    m = len(points)
    X = np.empty((len(idx), n))
    rest = idx
    for c in range(n - 1, -1, -1):
        rest, digit = np.divmod(rest, m)
        X[:, c] = points[digit]
    ref = _eval_f_batch(X)
    order = np.lexsort((idx, -ref))[:keep]
    return ref[order], X[order]


def _eval_f_probe(X: np.ndarray) -> np.ndarray:
    """_eval_f_batch for a few rows, bit for bit, in O(n) numpy calls
    where running_terms makes O(n^2): the kernel of the ascent's probes.

    P, an (n, n, S) array viewed as (n^2, S), starts zeroed; its
    diagonal d holds the runs x_i..x_{i+d}, each its run on diagonal
    d - 1 times x_{i+d}, as running_terms extends a run.  One
    subtraction from 1 turns the runs into terms and the unused entries
    into exactly 1.0, and multiplying by 1.0 is exact, so the product
    over P's flattened (i, j) axis multiplies running_terms' terms in
    running_terms' order.  Each row costs n^2 entries, so the kernel
    loses to _eval_f_batch beyond some thousands of rows."""
    S, n = X.shape
    XT = X.T
    P = np.zeros((n * n, S))
    P[::n + 1] = XT
    for d in range(1, n):
        np.multiply(P[d - 1::n + 1][:n - d], XT[d:], out=P[d::n + 1][:n - d])
    np.subtract(1.0, P, out=P)
    return np.multiply.reduce(P, axis=0)


def _polish(starts: Sequence[tuple[float, np.ndarray]], radius: float,
            rounds: int) -> list[tuple[np.ndarray, float, int]]:
    """Per-coordinate golden-section ascent from every (value, point)
    start; never descends.  Returns (x, value, evals) per start, in start
    order.

    Each coordinate probes the two ends of its bracket, two golden points
    and 48 golden steps, so every ascent makes rounds * n * 52 probes and
    only the branch of a step differs between starts.  The starts are
    the rows of one array, and each probe evaluates every row: with
    _eval_f_probe, or with eval_f for a lone start; both give
    eval_f_batch's bits at less cost."""
    if not starts:
        return []
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    X = np.array([x for _, x in starts], dtype=float)
    value = np.array([v for v, _ in starts], dtype=float)
    S, n = X.shape

    def f(k: int, t: np.ndarray) -> np.ndarray:
        X[:, k] = t
        return _eval_f_probe(X) if S > 1 else np.array([eval_f(X[0])])

    for _ in range(rounds):
        for k in range(n):
            x_k = X[:, k].copy()
            lo = np.maximum(-1.0, x_k - radius)
            hi = np.minimum(1.0, x_k + radius)
            g_lo, g_hi = f(k, lo), f(k, hi)
            a, b = lo, hi
            w = inv * (b - a)
            c, d = b - w, a + w
            gc, gd = f(k, c), f(k, d)
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
    evals = rounds * n * 52
    return [(x, float(v), evals) for x, v in zip(X, value)]


def maximize_f(n: int, grid_step: float = 0.25) -> MaximizeResult:
    """Numerically maximize f_n over [-1,1]^n.

    Both paths screen a lattice with _grid_top and polish its best
    points with _polish's golden-section ascent.  n <= 8: the exhaustive
    grid at grid_step, which may hold at most _LATTICE_CAP = 9^8 points,
    and its first point where eval_f_batch is largest, the one start.
    Larger n: the _SCREEN_KEEP best points of the coarse 0.5-step
    lattice, best first and ties by lattice index, then _RANDOM_STARTS
    seeded random points.  The best is the first strict improvement in
    start order, and evaluations counts each lattice point once.  The
    coarse lattice has 5^n points, so n is capped at 12.  A grid_step
    outside [2/9^8, 2] or not dividing 2 is refused for every n, before
    any screen.
    """
    if not 1 <= n <= 12:
        raise ValueError("n must be between 1 and 12")
    _grid_intervals(grid_step)
    if n <= 8:
        points, keep, radius = _axis_points(grid_step, n), 1, grid_step
        method = f"grid(step={grid_step})+golden-ascent(rounds={_POLISH_ROUNDS})"
    else:
        points = np.linspace(-1.0, 1.0, round(2.0 / _COARSE_STEP) + 1)
        keep, radius = _SCREEN_KEEP, _COARSE_STEP
        method = (f"coarse-screen(step={_COARSE_STEP},keep={_SCREEN_KEEP})"
                  f"+multistart({_RANDOM_STARTS})+golden-ascent(rounds={_POLISH_ROUNDS})")
    vals, X = _grid_top(points, n, keep)
    evaluations = len(points) ** n
    if n > 8:
        rng = np.random.default_rng(_MULTISTART_SEED)
        R = rng.uniform(-1.0, 1.0, size=(_RANDOM_STARTS, n))
        vals, X = np.concatenate((vals, _eval_f_batch(R))), np.concatenate((X, R))
        evaluations += _RANDOM_STARTS
    starts = [(float(v), x) for v, x in zip(vals, X)]

    best_x, best_v = None, -np.inf
    for x, v, used in _polish(starts, radius, _POLISH_ROUNDS):
        evaluations += used
        if v > best_v:
            best_v, best_x = v, x
    assert best_x is not None
    return MaximizeResult(n, best_v, tuple(float(c) for c in best_x), pohst_bound(n),
                          method, evaluations)


# ---------------------------------------------------------------------------
# Domination sampling


def _sample_batches(n: int, samples: int, seed: int,
                    batch: int = 20_000) -> Iterator[tuple[int, np.ndarray]]:
    """Uniform samples of [-1,1]^n without zero entries, in batches.

    Yields (offset, X).  The stream depends only on (n, samples, seed),
    so independent consumers see identical vectors.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < samples:
        m = min(batch, samples - produced)
        X = rng.uniform(-1.0, 1.0, size=(m, n))
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
    (sample index, vector).
    """
    _check_sampling(n, samples, seed)
    bound = pohst_bound(n)
    for offset, X in _sample_batches(n, samples, seed):
        fv = _eval_f_batch(X)
        fm = _eval_f_batch(-np.abs(X))
        ok = leq_with_tol(fv, fm) & leq_with_tol(fm, bound)
        if not ok.all():
            bad = int(np.argmin(ok))
            return CheckResult(
                False, f"domination failed at sample {offset + bad}: "
                f"f={fv[bad]}, mirror={fm[bad]}, bound={bound}",
                (offset + bad, tuple(X[bad])))
    return CheckResult(True)


def _term_column(n: int, i: int, j: int) -> int:
    """The column of the term (i, j) in running_terms order."""
    return (i - 1) * n - (i - 1) * (i - 2) // 2 + j - i


def _term_matrix(X: np.ndarray) -> np.ndarray:
    """The terms of every row of X, one column each in running_terms
    order, then a column of ones."""
    n = X.shape[1]
    T = np.empty((len(X), n * (n + 1) // 2 + 1))
    T[:, -1] = 1.0
    for k, (_, _, t) in enumerate(running_terms(np.ascontiguousarray(X.T))):
        T[:, k] = t
    return T


def _column_term(n: int, c: int) -> tuple[int, int]:
    """The term (i, j) whose column in running_terms order is c: the
    inverse of _term_column."""
    i = 1
    while c > n - i:   # row i holds the n - i + 1 columns of (i, i..n)
        c -= n - i + 1
        i += 1
    return i, i + c


def _member_table(n: int, gp: GoodPartition) -> np.ndarray:
    """Row b holds the term columns of the members of block b of gp, in
    member order, padded with the ones column to four."""
    table = np.full((len(gp.blocks), 4), n * (n + 1) // 2, dtype=np.intp)
    for b, block in enumerate(gp.blocks):
        table[b, :len(block.members)] = [_term_column(n, i, j) for i, j in block.members]
    return table


def _pattern_tables(n: int, keys: Sequence[int], cache: dict[int, np.ndarray]) -> np.ndarray:
    """The member tables (_member_table) of the patterns keys, stacked to
    shape (len(keys), most blocks, 4); the rows past a pattern's last
    block name the ones column.

    cache maps a pattern index to its table.  The patterns missing from
    it are built by one walk of the trie of their prefixes (_walk), each
    row once per trie node, and each leaf's partition becomes its table.
    Where a row raises ConstructionFailure, the patterns below that node
    are built with build_good_partition in ascending index, so the
    lowest of them raises what a per-pattern loop would raise first."""
    failed: list[int] = []

    def leaf(idx: int, build: BuildState, _: None) -> None:
        cache[idx] = _member_table(n, build.partition(pattern_from_index(n, idx)))

    def pruned(depth: int, idx: int, below: list[int]) -> None:
        failed.extend(below)

    new = [key for key in keys if key not in cache]
    # q_0 = 1; _walk sets q_j before row j reads it.
    _walk(n, 0, 0, [1] * (n + 1), BuildState(n), None, new, leaf, pruned)
    for key in sorted(failed):
        cache[key] = _member_table(n, build_good_partition(pattern_from_index(n, key)))
    tables = [cache[key] for key in keys]
    ones = n * (n + 1) // 2
    stacked = np.full((len(tables), max(len(t) for t in tables), 4), ones, dtype=np.intp)
    for u, table in enumerate(tables):
        stacked[u, :len(table)] = table
    return stacked


def _gathered_block_products(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row r, column b: the product of block b's terms at X[r] in member
    order, where cols[r] is the member table of row r's pattern.  X may
    also be a stack of such samples that share the tables, a chunk and
    its mirror: the flat indices cols[r] + r * width into a term matrix
    are formed once for all of them.  The ones column pads every block
    to four members, so each product is bit-identical to
    block_products'."""
    m, blocks, _ = cols.shape
    n = X.shape[-1]
    width = n * (n + 1) // 2 + 1   # the term matrix's columns
    flat = cols.reshape(m, 4 * blocks) + (np.arange(m) * width)[:, None]
    P = np.empty(X.shape[:-1] + (blocks,))
    for V, a in zip(X.reshape(-1, m, n), P.reshape(-1, m, blocks)):
        g = _term_matrix(V).take(flat).reshape(m, blocks, 4)
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
    batch's rows are then checked in chunks of
    _GATHER_ELEMENTS // (n(n+1)/2) rows: one term matrix per chunk for
    the sample and one for its mirror, and every block product gathered
    from it.  A failure names the lowest
    failing pattern index of the first failing batch, its first failing
    block in block order, whose members are read back from its table
    (_column_term), and that block's first failing row.
    """
    _check_sampling(n, samples, seed)
    chunk = max(1, _GATHER_ELEMENTS // (n * (n + 1) // 2))
    cache: dict[int, np.ndarray] = {}
    bits = 1 << np.arange(n, dtype=np.int64)
    for offset, X in _sample_batches(n, samples, seed):
        if len(cache) > _CACHED_PATTERNS:
            cache.clear()
        keys, inverse = np.unique((X < 0) @ bits, return_inverse=True)
        stacked = _pattern_tables(n, keys.tolist(), cache)
        first = None   # (pattern slot, block, row) of the batch's first failure
        for s in range(0, len(X), chunk):
            C, cols = X[s:s + chunk], stacked[inverse[s:s + chunk]]
            P = _gathered_block_products(np.stack((C, -np.abs(C))), cols)
            ok = leq_with_tol(P[0], P[1])
            rows, blocks = np.nonzero(~ok)
            if len(rows):
                slots = inverse[s + rows]
                k = np.lexsort((rows, blocks, slots))[0]
                found = (int(slots[k]), int(blocks[k]), s + int(rows[k]))
                first = found if first is None else min(first, found)
        if first is not None:
            slot, block, row = first
            ones = n * (n + 1) // 2
            members = [_column_term(n, int(c)) for c in stacked[slot, block] if c != ones]
            return CheckResult(
                False, f"block {members} failed domination at sample {offset + row}",
                (offset + row, tuple(X[row])))
    return CheckResult(True)
