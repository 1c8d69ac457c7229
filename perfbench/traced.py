"""The traced run: per-layer metrics from spans recorded around calls
into pohst.triangle, pohst.partition, pohst.search and pohst.cli.

Spans are recorded from this file only; the program is not changed.
For each workload the run alternates untraced and traced passes over
the same inputs as the timed run, so that the machine's speed drift
falls on both alike, and reports the difference of their wall times as
the tracing overhead.  Where a layer is called
inside another public function, the benchmark replays that function's
steps in the same order and times each call on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from pohst.cli import main as cli_main
from pohst.partition import (
    ConstructionFailure,
    audit_build,
    build_good_partition,
    certificate_from_json,
    certificate_to_json,
    parity_counts,
    validate_partition,
)
from pohst.search import eval_f_batch, pattern_from_index, sweep_patterns
from pohst.triangle import as_sign_pattern, eval_f, noncanonical_set

import inputs
from inputs import CertOp, NumericSizes
from speed import SpeedProbe
from timed import (
    Outcome,
    check_sweep,
    expected_check,
    guarded,
    numeric_calls,
    numeric_ok,
    round_trip,
    set_up,
)

#: Untraced sweeps and traced replays alternate this many times.
SWEEP_REPEATS = 3

STEP_KINDS = ("case1", "case2-op1", "case2-op2", "case3-op1", "case3-op2")
BLOCK_KINDS = ("singleton", "doubleton", "quadrupleton")
SWEEP_STAGES = ("partition.build_good_partition", "partition.validate_partition",
                "partition.audit_build", "partition.parity_counts")
CERT_LIBRARY = ("partition.build_good_partition", "partition.certificate_to_json",
                "partition.certificate_from_json", "partition.validate_partition")


class Tracer:
    """Spans kept in memory as [name, op, parent, start, end]; the parent
    is the index of the enclosing span, and op identifies the operation
    (a pattern index, a stream position or a numeric call)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: object) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        rec = [name, op, parent, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def call(self, name: str, op: object, fn: Callable, *args):
        with self.span(name, op):
            return fn(*args)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def total(self, name: str, ops: Callable[[object], bool] = lambda op: True
              ) -> tuple[float, int]:
        """Summed self time and call count of the spans called name."""
        own = self.self_times()
        time = 0.0
        calls = 0
        for k, (span_name, op, _, _, _) in enumerate(self.spans):
            if span_name == name and ops(op):
                time += own[k]
                calls += 1
        return time, calls

    def per_op(self, names: tuple[str, ...]) -> dict[object, float]:
        """Summed duration of the named spans, by operation."""
        out: dict[object, float] = {}
        for name, op, _, start, end in self.spans:
            if name in names:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def write(self, fh, workload: str) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        for k, (name, op, parent, start, end) in enumerate(self.spans):
            fh.write(json.dumps({"workload": workload, "id": k, "name": name,
                                 "op": op, "parent": parent,
                                 "start": start - origin, "end": end - origin}))
            fh.write("\n")


def mean(time: float, calls: int, scale: float) -> float:
    return scale * time / calls if calls else 0.0


# ---------------------------------------------------------------------------
# sweep


def replay_verify(tr: Tracer, op: int, pattern) -> tuple[str | None, object]:
    """verify_pattern's steps, in its order, each in its own span."""
    pat = as_sign_pattern(pattern)
    try:
        gp = tr.call("partition.build_good_partition", op, build_good_partition, pat)
    except ConstructionFailure as e:
        return f"construction-failure: {e}", None
    r = tr.call("partition.validate_partition", op, validate_partition, gp)
    if not r:
        return f"invalid-partition: {r.reason}", gp
    r = tr.call("partition.audit_build", op, audit_build, gp)
    if not r:
        return f"audit: {r.reason}", gp
    if len(pat) % 2 == 0 and pat.count(-1) % 2 == 1:
        b_plus, b_minus = tr.call("partition.parity_counts", op, parity_counts, pat)
        if b_plus != b_minus:
            return f"parity: b+={b_plus} b-={b_minus}", gp
    return None, gp


def trace_sweep(out: Outcome, tr: Tracer, n: int = inputs.SWEEP_N) -> dict[str, float]:
    """Alternate untraced sweeps (jobs=1 and jobs=2) with traced replays."""
    total = 2 ** n
    walls = {1: 0.0, 2: 0.0}
    traced_wall = 0.0
    steps: Counter = Counter()
    blocks: Counter = Counter()
    for rep in range(SWEEP_REPEATS):
        for jobs in (1, 2):
            t = perf_counter()
            report = sweep_patterns(n, jobs=jobs)
            walls[jobs] += perf_counter() - t
            check_sweep(out, report, n, jobs)
        t = perf_counter()
        for idx in range(total):
            op = rep * total + idx
            with tr.span("sweep.pattern", op):
                reason, gp = replay_verify(tr, op, pattern_from_index(n, idx))
            out.attempted += 1
            if reason is not None:
                out.fail(f"traced sweep pattern {idx}: {reason}")
            if rep == 0 and gp is not None:
                steps.update(s.case if s.case == "case1" else f"{s.case}-op{s.operation}"
                             for s in gp.trace)
                blocks.update(b.kind for b in gp.blocks)
        traced_wall += perf_counter() - t
    out.info["sweep.patterns_per_s_jobs2"] = SWEEP_REPEATS * total / walls[2]

    members = 0
    for idx in range(total):
        members += len(tr.call("triangle.noncanonical_set", idx, noncanonical_set,
                               pattern_from_index(n, idx)).members)

    stage = {name: tr.total(name) for name in SWEEP_STAGES}
    m = {
        "triangle.noncanonical_set.us_per_call": mean(*tr.total("triangle.noncanonical_set"), 1e6),
        "triangle.noncanonical_set.members_per_pattern": members / total,
        "partition.build_good_partition.us_per_pattern":
            mean(*stage["partition.build_good_partition"], 1e6),
        "partition.audit_build.us_per_pattern": mean(*stage["partition.audit_build"], 1e6),
        "partition.validate_partition.us_per_pattern":
            mean(*stage["partition.validate_partition"], 1e6),
        "partition.parity_counts.us_per_pattern": mean(*stage["partition.parity_counts"], 1e6),
        "search.sweep.stage_coverage": sum(t for t, _ in stage.values()) / walls[1],
        "search.sweep.jobs2_speedup": walls[1] / walls[2],
        "sweep.trace_overhead_s": (traced_wall - walls[1]) / SWEEP_REPEATS,
    }
    for kind in STEP_KINDS:
        m[f"partition.trace.steps_per_pattern.{kind}"] = steps[kind] / total
    for kind in BLOCK_KINDS:
        m[f"partition.blocks.{kind}"] = blocks[kind]
    return m


# ---------------------------------------------------------------------------
# certify


def traced_round_trip(tr: Tracer, k: int, op: CertOp, path: Path) -> tuple[bool, str, str]:
    """round_trip with spans; returns (verdict ok, written text, checked text)."""
    with tr.span("certify.round_trip", k):
        rc = tr.call("cli.certify", k, cli_main,
                     ["certify", f"--pattern={op.pattern_arg}", "--out", str(path)])
        written = checked = path.read_text(encoding="utf-8")
        if op.tamper is not None:
            checked = tr.call("bench.tamper", k, inputs.tamper, written, op.tamper)[0]
            path.write_text(checked, encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc2 = tr.call("cli.check", k, cli_main, ["check", str(path), "--format", "json"])
    return rc == 0 and expected_check(op, rc2, json.loads(buf.getvalue())), written, checked


def trace_certify(out: Outcome, tr: Tracer, seed: int, workdir: Path,
                  stream: list[CertOp] | None = None) -> dict[str, float]:
    """Each round trip untraced and traced, in alternating order, then the
    library calls behind it replayed one by one."""
    if stream is None:
        stream = inputs.certify_stream(seed)
    path = workdir / "cert.json"
    walls = {False: 0.0, True: 0.0}
    written: list[str] = []
    checked: list[str] = []
    for k, op in enumerate(stream):
        for traced in ((True, False) if k % 2 else (False, True)):
            out.attempted += 1
            t = perf_counter()
            if traced:
                ok, text, sent = traced_round_trip(tr, k, op, path)
                written.append(text)
                checked.append(sent)
            else:
                ok = round_trip(op, path, hashlib.sha256())[0]
            walls[traced] += perf_counter() - t
            if not ok:
                out.fail(f"certify op {k} (traced={traced}): wrong verdict")

    for k, op in enumerate(stream):
        with tr.span("certify.replay", k):
            gp = tr.call("partition.build_good_partition", k, build_good_partition,
                         op.pattern)
            text = tr.call("partition.certificate_to_json", k, certificate_to_json, gp)
            parsed = tr.call("partition.certificate_from_json", k, certificate_from_json,
                             checked[k])
            verdict = tr.call("partition.validate_partition", k, validate_partition, parsed)
        out.attempted += 1
        if text != written[k] or bool(verdict) != (op.tamper is None):
            out.fail(f"replayed certify op {k} disagrees with the command line")

    def clean(k: int) -> bool:
        return stream[k].tamper is None

    cli = tr.per_op(("cli.certify", "cli.check"))
    library = tr.per_op(CERT_LIBRARY)
    ops = len(stream)
    untampered = [len(written[k].encode()) for k in range(ops) if clean(k)]
    return {
        "partition.build_good_partition.ms_per_cert":
            mean(*tr.total("partition.build_good_partition"), 1e3),
        "partition.certificate_to_json.ms_per_cert":
            mean(*tr.total("partition.certificate_to_json"), 1e3),
        "partition.certificate_from_json.ms_per_cert":
            mean(*tr.total("partition.certificate_from_json"), 1e3),
        "partition.validate_partition.accept_ms_per_cert":
            mean(*tr.total("partition.validate_partition", clean), 1e3),
        "partition.validate_partition.reject_ms_per_cert":
            mean(*tr.total("partition.validate_partition", lambda k: not clean(k)), 1e3),
        "partition.certificate.bytes_per_cert": sum(untampered) / len(untampered),
        "cli.overhead_ms_per_cert":
            1e3 * sum(cli[k] - library[k] for k in range(ops)) / ops,
        "certify.trace_overhead_s": walls[True] - walls[False],
    }


# ---------------------------------------------------------------------------
# numeric


def trace_numeric(out: Outcome, tr: Tracer, seed: int,
                  sizes: NumericSizes = inputs.NUMERIC) -> dict[str, float]:
    """Each numeric call untraced and traced, in alternating order, then
    the kernels behind them replayed one by one."""
    walls = {False: 0.0, True: 0.0}
    results = {}
    for k, (name, fn, args) in enumerate(numeric_calls(seed, sizes)):
        for traced in ((True, False) if k % 2 else (False, True)):
            out.attempted += 1
            t = perf_counter()
            if traced:
                results[name] = tr.call(f"search.{fn.__name__}", name, fn, *args)
                ok = numeric_ok(results[name])
            else:
                ok = guarded(out, f"numeric {name}", lambda: numeric_ok(fn(*args)))
            walls[traced] += perf_counter() - t
            if traced and not ok:
                out.fail(f"traced numeric {name}: wrong verdict")
    grid, multi = results["grid"], results["multistart"]

    rows7 = 0
    for X in inputs.lattice_rows(sizes.grid_n):
        tr.call("search.eval_f_batch", "grid", eval_f_batch, X)
        rows7 += len(X)
    rows10 = 0
    for X in inputs.sample_rows(sizes.sample_n, sizes.sample_rows, seed):
        tr.call("search.eval_f_batch", "sample", eval_f_batch, X)
        tr.call("search.eval_f_batch", "sample", eval_f_batch, -np.abs(X))
        rows10 += 2 * len(X)
    vectors = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(sizes.eval_f_calls, sizes.multistart_n))
    for v in vectors:
        tr.call("triangle.eval_f", "multistart", eval_f, v)

    patterns = set()
    for X in inputs.sample_rows(sizes.sample_n, sizes.blockwise_rows, seed):
        patterns.update(map(tuple, np.unique(np.where(X > 0, 1, -1), axis=0).tolist()))
    for pat in sorted(patterns):
        tr.call("partition.build_good_partition", "blockwise", build_good_partition, pat)
    blockwise_wall = tr.total("search.sample_blockwise_domination")[0]

    return {
        "triangle.eval_f.us_per_call": mean(*tr.total("triangle.eval_f"), 1e6),
        "search.eval_f_batch.ns_per_row_n7":
            1e9 * tr.total("search.eval_f_batch", lambda op: op == "grid")[0] / rows7,
        "search.eval_f_batch.ns_per_row_n10":
            1e9 * tr.total("search.eval_f_batch", lambda op: op == "sample")[0] / rows10,
        "search.maximize_f.evaluations_grid": grid.evaluations,
        "search.maximize_f.evaluations_multistart": multi.evaluations,
        "search.blockwise.build_share":
            tr.total("partition.build_good_partition")[0] / blockwise_wall,
        "search.blockwise.distinct_patterns": len(patterns),
        "numeric.trace_overhead_s": walls[True] - walls[False],
    }


def run_traced(seed: int, workdir: Path, spans_path: Path) -> tuple[Outcome, dict[str, float]]:
    """Trace all three workloads, since every traced run reports every
    per-layer metric; spans are written to spans_path at the end."""
    out = Outcome()
    tracers = {name: Tracer() for name in ("sweep", "certify", "numeric")}
    for name in tracers:
        set_up(name, seed, workdir)
    metrics: dict[str, float] = {}
    probe = SpeedProbe()
    for name, trace in (("sweep", lambda tr: trace_sweep(out, tr)),
                        ("certify", lambda tr: trace_certify(out, tr, seed, workdir)),
                        ("numeric", lambda tr: trace_numeric(out, tr, seed))):
        t = perf_counter()
        metrics.update(trace(tracers[name]))
        probe.sample(perf_counter() - t)
    out.info["slowdown"] = probe.slowdown()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, tr in tracers.items():
            tr.write(fh, name)
    return out, metrics
