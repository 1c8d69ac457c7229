"""The metric names the benchmark prints are the declared ones.

BENCHMARK.json declares the names every run prints in its JSON line;
the workloads' own figures keep the names later changes refer to.
"""

import json
from pathlib import Path

import inputs
import run
import timed
import traced

ROOT = Path(__file__).resolve().parents[2]

NAMED_FIGURES = {
    "sweep": {"sweep.patterns_per_s"},
    "certify": {"certify.certs_per_s", "certify.certify_p50_ms", "certify.certify_p95_ms",
                "certify.check_p50_ms", "certify.check_p95_ms"},
    "numeric": {"numeric.maximize_grid_s", "numeric.maximize_multistart_s",
                "numeric.sample_rows_per_s", "numeric.blockwise_rows_per_s"},
}
COMMON_FIGURES = {"setup_s", "peak_rss_mb", "ops_failed"}

SMALL_NUMERIC = inputs.NumericSizes(grid_n=3, multistart_n=3, sample_n=4,
                                    sample_rows=30_000, blockwise_rows=2_000,
                                    eval_f_calls=50)


#: A seed with no recorded digest: a shortened stream cannot match one.
SEED = 10_001


def small_stream():
    stream = inputs.certify_stream(SEED)
    return stream[:3] + [next(op for op in stream if op.tamper is not None)]


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_benchmark_json_declares_the_printed_metrics():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


def test_benchmark_json_workloads():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert tuple(names) == run.WORKLOADS


def test_timed_runs_report_the_named_figures(tmp_path):
    outcomes = {
        "sweep": timed.run_sweep(SEED, 0.0, n=4),
        "certify": timed.run_certify(SEED, 0.0, tmp_path, small_stream()),
        "numeric": timed.run_numeric(SEED, 0.0, SMALL_NUMERIC),
    }
    for workload, out in outcomes.items():
        assert out.correct, out.gates
        assert set(out.report) == NAMED_FIGURES[workload]
        assert set(out.metrics) | {"setup_s", "peak_rss_mb"} == set(run.END_TO_END)
    assert len(COMMON_FIGURES | set().union(*NAMED_FIGURES.values())) == 13


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = timed.Outcome()
    metrics = {}
    metrics.update(traced.trace_sweep(out, traced.Tracer(), n=4))
    metrics.update(traced.trace_certify(out, traced.Tracer(), SEED, tmp_path, small_stream()))
    metrics.update(traced.trace_numeric(out, traced.Tracer(), SEED, SMALL_NUMERIC))
    assert out.correct, out.gates
    assert set(metrics) == set(run.PER_LAYER)
    assert "sweep.patterns_per_s_jobs2" in out.info
