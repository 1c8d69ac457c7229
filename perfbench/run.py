"""pohst benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload sweep|certify|numeric \
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 times the workload with tracing off and prints the end-to-end
metrics; --trace 1 replays all three workloads with spans around every
layer call and prints the per-layer metrics.  Lines before the last
carry the workload's named figures and the environment record.  The
exit code is 0 only when every correctness gate held.  See RATIONALE.md
for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep", "certify", "numeric")

#: Fresh interpreters started to time set-up; setup_s is their median
#: wall time.  (Process start and imports do not track the speed
#: reference, so setup_s is not scaled by it.)
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "triangle.noncanonical_set.us_per_call": "us",
    "triangle.noncanonical_set.members_per_pattern": "count",
    "triangle.eval_f.us_per_call": "us",
    "partition.build_good_partition.us_per_pattern": "us",
    "partition.build_good_partition.ms_per_cert": "ms",
    "partition.audit_build.us_per_pattern": "us",
    "partition.validate_partition.us_per_pattern": "us",
    "partition.validate_partition.accept_ms_per_cert": "ms",
    "partition.validate_partition.reject_ms_per_cert": "ms",
    "partition.parity_counts.us_per_pattern": "us",
    "partition.certificate_to_json.ms_per_cert": "ms",
    "partition.certificate_from_json.ms_per_cert": "ms",
    "partition.trace.steps_per_pattern.case1": "count",
    "partition.trace.steps_per_pattern.case2-op1": "count",
    "partition.trace.steps_per_pattern.case2-op2": "count",
    "partition.trace.steps_per_pattern.case3-op1": "count",
    "partition.trace.steps_per_pattern.case3-op2": "count",
    "partition.blocks.singleton": "count",
    "partition.blocks.doubleton": "count",
    "partition.blocks.quadrupleton": "count",
    "partition.certificate.bytes_per_cert": "bytes",
    "search.eval_f_batch.ns_per_row_n7": "ns",
    "search.eval_f_batch.ns_per_row_n10": "ns",
    "search.maximize_f.evaluations_grid": "count",
    "search.maximize_f.evaluations_multistart": "count",
    "search.blockwise.build_share": "ratio",
    "search.blockwise.distinct_patterns": "count",
    "search.sweep.stage_coverage": "ratio",
    "search.sweep.jobs2_speedup": "ratio",
    "cli.overhead_ms_per_cert": "ms",
    "sweep.trace_overhead_s": "s",
    "certify.trace_overhead_s": "s",
    "numeric.trace_overhead_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (import, inputs, warm-up call) and exit")
    return p.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t = perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(perf_counter() - t)
    return statistics.median(times)


def emit(declared: dict[str, str], values: dict[str, float], outcome,
         report: dict[str, tuple[float, str]], env: dict, result_path: Path) -> None:
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                           "are not the declared ones")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    for name, (value, unit) in report.items():
        print(f"{name:50s} {value:16.6f} {unit}")
    for reason in outcome.gates[:20]:
        print(f"GATE FAILED: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({**result, "report": {k: v for k, (v, _) in report.items()},
                   "info": outcome.info, "gates": outcome.gates, "env": env},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pohst" / "__init__.py").is_file():
        print(f"error: no pohst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import timed
    import traced

    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        timed.set_up(args.workload, args.seed, OUT)
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome, values = traced.run_traced(args.seed, OUT, OUT / f"spans-{tag}.jsonl")
        report = {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
        declared = PER_LAYER
    else:
        setup = setup_seconds(args.workload, args.seed)
        timed.set_up(args.workload, args.seed, OUT)
        outcome = timed.RUNNERS[args.workload](args.seed, args.seconds, OUT)
        values = dict(outcome.metrics, setup_s=setup,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
        report = {"setup_s": (setup, "s"), "peak_rss_mb": (values["peak_rss_mb"], "MB"),
                  "ops_failed": (share, "share"), **outcome.report}
        declared = END_TO_END
    for scratch in ("cert.json", "warm-up.json"):
        (OUT / scratch).unlink(missing_ok=True)
    emit(declared, values, outcome, report, environment(args.seed),
         OUT / f"result-{tag}.json")
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
