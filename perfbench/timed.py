"""Untraced timed runs of the three workloads, with their correctness gates.

Each workload repeats a fixed unit of work (one sweep, one pass over the
certificate stream, one round of the four numeric calls) until the next
unit would end after the run length.  The gated ops_per_s is the
workload's operations over its summed operation times, scaled by the
speed reference (speed.py) sampled in between; the workload's named
figures are plain wall-clock medians.  Every operation is checked; a
wrong verdict, a wrong exit code, an exception or a gate mismatch
counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from pohst.cli import main as cli_main
from pohst.search import (
    MaximizeResult,
    maximize_f,
    sample_blockwise_domination,
    sample_domination,
    sweep_patterns,
)
from pohst.triangle import pohst_bound

import inputs
from inputs import CertOp, NumericSizes
from speed import SpeedProbe

#: maximize_f must land within this distance below the bound.
MAXIMIZE_GAP = 1e-9

DIGESTS_FILE = Path(__file__).with_name("cert_digests.json")


@dataclass
class Outcome:
    """What one workload run attempted, how much failed, and what it measured.

    metrics are the end-to-end metrics every workload reports; report
    holds the workload's own named figures as name -> (value, unit), and
    info the raw figures and sample counts behind them.
    """

    attempted: int = 0
    failed: int = 0
    gates: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.gates.append(reason)

    @property
    def correct(self) -> bool:
        return not self.gates

    def rate(self, ops: int, seconds: float, probe: SpeedProbe) -> None:
        """Set ops_per_s from ops done in seconds of operation time."""
        slowdown = probe.slowdown()
        self.metrics["ops_per_s"] = ops / seconds * slowdown
        self.info.update(raw_ops_per_s=ops / seconds, slowdown=slowdown)


def repeat(seconds: float, min_units: int, unit: Callable[[], None]) -> None:
    """Run unit until the next one would overrun seconds, at least min_units times."""
    t0 = perf_counter()
    times: list[float] = []
    while True:
        t = perf_counter()
        unit()
        times.append(perf_counter() - t)
        if (len(times) >= min_units
                and perf_counter() - t0 + statistics.median(times) > seconds):
            return


def guarded(out: Outcome, what: str, fn: Callable[[], bool]) -> bool:
    """Run one operation; an exception or a False verdict counts as failed."""
    try:
        ok = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        out.fail(what)
    return ok


# ---------------------------------------------------------------------------
# sweep


def check_sweep(out: Outcome, report, n: int, jobs: int) -> None:
    total = 2 ** n
    out.attempted += total
    if report.patterns_checked != total or report.failures:
        out.fail(f"sweep n={n} jobs={jobs}: {report.patterns_checked} checked, "
                 f"{len(report.failures)} failures",
                 len(report.failures) + abs(total - report.patterns_checked))


def run_sweep(seed: int, seconds: float, n: int = inputs.SWEEP_N) -> Outcome:
    """Repeated sweep_patterns(n) in one process (jobs=1).

    The inputs are all 2^n patterns whatever the seed.  The jobs=2
    sweep is measured by the traced run only: on a shared two-core
    machine its time follows the neighbours more than the program.
    """
    out = Outcome()
    probe = SpeedProbe()
    times: list[float] = []

    def unit() -> None:
        t = perf_counter()
        report = sweep_patterns(n, jobs=1)
        times.append(perf_counter() - t)
        probe.sample(times[-1])
        check_sweep(out, report, n, 1)

    repeat(seconds, 3, unit)
    out.rate(2 ** n * len(times), sum(times), probe)
    out.report["sweep.patterns_per_s"] = (2 ** n / statistics.median(times), "1/s")
    out.info["sweeps"] = len(times)
    return out


# ---------------------------------------------------------------------------
# certify


def recorded_digest(seed: int) -> str | None:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(str(seed))


def certify_once(op: CertOp, path: Path) -> tuple[int, float]:
    """pohst certify --pattern=... --out path; returns (exit code, seconds)."""
    t = perf_counter()
    rc = cli_main(["certify", f"--pattern={op.pattern_arg}", "--out", str(path)])
    return rc, perf_counter() - t


def check_once(path: Path) -> tuple[int, dict, float]:
    """pohst check path --format json; returns (exit code, payload, seconds)."""
    buf = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["check", str(path), "--format", "json"])
    dt = perf_counter() - t
    return rc, json.loads(buf.getvalue()), dt


def expected_check(op: CertOp, rc: int, payload: dict) -> bool:
    """Untampered certificates are accepted (exit 0), tampered ones rejected (exit 1)."""
    if op.tamper is None:
        return rc == 0 and payload["ok"] is True
    return rc == 1 and payload["ok"] is False


def round_trip(op: CertOp, path: Path, digest) -> tuple[bool, float, float]:
    """certify -> (tamper) -> check; returns (verdict ok, certify s, check s).

    The bytes of an untampered certificate go into digest.
    """
    rc, t_certify = certify_once(op, path)
    if rc != 0:
        return False, t_certify, 0.0
    if op.tamper is None:
        digest.update(path.read_bytes())
    else:
        text, _ = inputs.tamper(path.read_text(encoding="utf-8"), op.tamper)
        path.write_text(text, encoding="utf-8")
    rc, payload, t_check = check_once(path)
    return expected_check(op, rc, payload), t_certify, t_check


def run_certify(seed: int, seconds: float, workdir: Path,
                stream: list[CertOp] | None = None) -> Outcome:
    """One closed-loop client: passes over the seeded certificate stream."""
    out = Outcome()
    probe = SpeedProbe()
    if stream is None:
        stream = inputs.certify_stream(seed)
    path = workdir / "cert.json"
    certify_s: list[float] = []
    check_s: list[float] = []
    digests: list[str] = []

    def unit() -> None:
        digest = hashlib.sha256()
        for k, op in enumerate(stream):
            out.attempted += 1
            times = []

            def one() -> bool:
                ok, tc, tk = round_trip(op, path, digest)
                times.extend((tc, tk))
                return ok

            if guarded(out, f"certify op {k} (n={len(op.pattern)})", one):
                certify_s.append(times[0])
                check_s.append(times[1])
                probe.sample(times[0] + times[1])
        digests.append(digest.hexdigest())

    repeat(seconds, 2, unit)
    want = recorded_digest(seed)
    if want is not None and digests[0] != want:
        out.fail(f"certificate bytes differ from the recorded digest for seed {seed}")
    if len(set(digests)) != 1:
        out.fail("certificate bytes differ between passes over the same stream")

    busy = sum(certify_s) + sum(check_s)
    out.rate(len(certify_s), busy, probe)
    out.report["certify.certs_per_s"] = (len(certify_s) / busy, "1/s")
    for name, samples in (("certify", certify_s), ("check", check_s)):
        ms = [1000.0 * s for s in samples]
        out.report[f"certify.{name}_p50_ms"] = (statistics.median(ms), "ms")
        out.report[f"certify.{name}_p95_ms"] = (
            statistics.quantiles(ms, n=20, method="inclusive")[18], "ms")
    out.info.update(round_trips=len(certify_s), digest_checked=want is not None)
    return out


# ---------------------------------------------------------------------------
# numeric


def numeric_calls(seed: int, sizes: NumericSizes) -> list[tuple[str, Callable, tuple]]:
    """The four numeric acceptance calls as (name, function, arguments)."""
    return [
        ("grid", maximize_f, (sizes.grid_n,)),
        ("multistart", maximize_f, (sizes.multistart_n,)),
        ("sample", sample_domination, (sizes.sample_n, sizes.sample_rows, seed)),
        ("blockwise", sample_blockwise_domination,
         (sizes.sample_n, sizes.blockwise_rows, seed)),
    ]


def numeric_ok(result) -> bool:
    """maximize_f lands within MAXIMIZE_GAP below pohst_bound(n), never
    above; a sampler returns ok."""
    if isinstance(result, MaximizeResult):
        return 0.0 <= pohst_bound(result.n) - result.best_value <= MAXIMIZE_GAP
    return result.ok


def run_numeric(seed: int, seconds: float,
                sizes: NumericSizes = inputs.NUMERIC) -> Outcome:
    """Rounds of maximize_f (grid and multistart paths) and both samplers."""
    out = Outcome()
    probe = SpeedProbe()
    calls = numeric_calls(seed, sizes)
    times: dict[str, list[float]] = {name: [] for name, _, _ in calls}

    def unit() -> None:
        for name, fn, args in calls:
            out.attempted += 1
            t = perf_counter()
            guarded(out, f"numeric {name}", lambda: numeric_ok(fn(*args)))
            times[name].append(perf_counter() - t)
            probe.sample(times[name][-1])

    repeat(seconds, 2, unit)
    out.rate(sum(map(len, times.values())), sum(map(sum, times.values())), probe)
    med = {name: statistics.median(ts) for name, ts in times.items()}
    out.report["numeric.maximize_grid_s"] = (med["grid"], "s")
    out.report["numeric.maximize_multistart_s"] = (med["multistart"], "s")
    out.report["numeric.sample_rows_per_s"] = (sizes.sample_rows / med["sample"], "1/s")
    out.report["numeric.blockwise_rows_per_s"] = (
        sizes.blockwise_rows / med["blockwise"], "1/s")
    out.info["rounds"] = len(times["grid"])
    return out


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, workdir: Path) -> None:
    """Generate the workload's inputs and make one small warm-up call."""
    if workload == "sweep":
        sweep_patterns(6)
    elif workload == "certify":
        op = inputs.certify_stream(seed)[0]
        round_trip(op, workdir / "warm-up.json", hashlib.sha256())
    else:
        maximize_f(4)
        sample_domination(inputs.NUMERIC.sample_n, 1000, seed)


RUNNERS = {
    "sweep": lambda seed, seconds, workdir: run_sweep(seed, seconds),
    "certify": run_certify,
    "numeric": lambda seed, seconds, workdir: run_numeric(seed, seconds),
}
