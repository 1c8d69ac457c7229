"""tools/bench_pairs.py: the summary it writes for alternating pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(ops, rss, setup, attempted=10, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_of_synthetic_pairs():
    parent = [(10.0, 40.0, 1.0), (11.0, 40.0, 1.0), (12.0, 40.0, 1.0), (13.0, 40.0, 1.0)]
    change = [(12.0, 41.0, 2.0), (12.0, 39.0, 2.0), (14.0, 40.0, 2.0), (15.0, 45.0, 2.0)]
    runs = [{"pair": k + 1, "parent": _result(*p), "change": _result(*c, failed=k == 3)}
            for k, (p, c) in enumerate(zip(parent, change))]
    s = bench_pairs.summarize(runs, END_TO_END)
    assert s["pairs"] == 4 and not s["all_correct"]
    assert s["attempted"] == {"parent": 40, "change": 40}
    assert s["failed"] == {"parent": 0, "change": 1}

    ops = s["ops_per_s"]   # higher is better
    assert ops["parent"] == pytest.approx({"median": 11.5, "q1": 10.75, "q3": 12.25})
    assert ops["change"] == pytest.approx({"median": 13.0, "q1": 12.0, "q3": 14.25})
    assert ops["change_better_in_pairs"] == 4
    assert ops["median_change_rel"] == pytest.approx(1.5 / 11.5)
    assert ops["worse_by"] == pytest.approx(-1.5 / 11.5)
    assert ops["parent_iqr_rel"] == pytest.approx(1.5 / 11.5)
    assert ops["bound"] == 0.25 and ops["within_bound"]

    rss = s["peak_rss_mb"]   # lower is better; only the 39 MB pair wins
    assert rss["change_better_in_pairs"] == 1 and rss["parent_iqr_rel"] == 0
    assert rss["worse_by"] == pytest.approx(0.5 / 40) and rss["within_bound"]

    setup = s["setup_s"]   # twice the parent's: outside its 0.25 bound
    assert setup["change_better_in_pairs"] == 0
    assert setup["worse_by"] == pytest.approx(1.0) and not setup["within_bound"]


def test_summary_of_one_pair():
    s = bench_pairs.summarize([{"parent": _result(4.0, 50.0, 0.3),
                                "change": _result(3.0, 50.0, 0.3)}], END_TO_END)
    assert s["ops_per_s"]["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert s["ops_per_s"]["worse_by"] == pytest.approx(0.25)
    assert s["ops_per_s"]["within_bound"] and s["all_correct"]
