"""tools/bench_pairs.py: the summary it writes for alternating pairs, and
main end to end."""

import importlib.util
import json
import subprocess
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


def test_summary_marks_each_metric_resolved_or_unresolved():
    """A parent IQR of 2/3 of its median is wider than every bound: a
    metric is resolved then only where every change run is better than
    every parent run, here ops_per_s (higher) and setup_s (lower).  With
    a parent IQR of 0 every metric is resolved, the worse ones too."""
    parent = [(10.0, 20.0, 1.0), (10.0, 20.0, 1.0), (20.0, 40.0, 2.0), (20.0, 40.0, 2.0)]
    change = [(21.0, 30.0, 0.9), (22.0, 30.0, 0.5), (23.0, 30.0, 0.8), (24.0, 30.0, 0.7)]
    runs = [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]
    s = bench_pairs.summarize(runs, END_TO_END)
    for name in ("ops_per_s", "peak_rss_mb", "setup_s"):
        assert s[name]["parent_iqr_rel"] == pytest.approx(2 / 3)
    assert s["ops_per_s"]["resolved"] and s["setup_s"]["resolved"]
    rss = s["peak_rss_mb"]   # 30 MB is better than two parent runs, not all four
    assert rss["within_bound"] and not rss["resolved"]
    # a parent spread within the bound resolves a metric either way
    one = bench_pairs.summarize([{"parent": _result(4.0, 50.0, 0.3),
                                  "change": _result(3.0, 50.0, 0.3)}], END_TO_END)
    assert all(one[name]["resolved"] for name in ("ops_per_s", "peak_rss_mb", "setup_s"))


def _pairs(parent_ops, change_ops):
    return [{"parent": _result(p, 50.0, 0.3), "change": _result(c, 50.0, 0.3)}
            for p, c in zip(parent_ops, change_ops)]


def test_summary_marks_a_gain_by_pairs_won_and_median_beyond_the_iqr():
    """ops_per_s is a gain only where the change wins at least nine of
    ten pairs, a tie counting for neither side, and its median beats the
    parent's by more than the parent's relative IQR: here 10 / 100
    (q1 95, q3 105).  Each case sits on one side of one condition."""
    parent = [90.0, 95.0, 95.0, 95.0, 100.0, 100.0, 105.0, 105.0, 105.0, 110.0]
    assert bench_pairs.quartiles(parent) == {"median": 100.0, "q1": 95.0, "q3": 105.0}

    def ops(change):
        return bench_pairs.summarize(_pairs(parent, change), END_TO_END)["ops_per_s"]

    wide = [p + 20.0 for p in parent]            # 10 of 10 won, median +20 %
    assert ops(wide)["change_better_in_pairs"] == 10 and ops(wide)["gain"]
    nine = wide[:9] + [parent[9]]                # 9 won, one tie: still 9 of 10
    assert ops(nine)["change_better_in_pairs"] == 9 and ops(nine)["gain"]
    eight = wide[:8] + [parent[8], parent[9]]    # 8 won, two ties
    assert ops(eight)["change_better_in_pairs"] == 8 and not ops(eight)["gain"]
    narrow = [p + 9.0 for p in parent]           # 10 of 10 won, median +9 % < 10 %
    assert ops(narrow)["change_better_in_pairs"] == 10 and not ops(narrow)["gain"]
    beyond = [p + 11.0 for p in parent]          # median +11 % > 10 %
    assert ops(beyond)["gain"]
    # lower is better for setup_s: a change that halves it is a gain
    halved = bench_pairs.summarize(
        [{"parent": _result(1.0, 50.0, p / 100), "change": _result(1.0, 50.0, p / 200)}
         for p in parent], END_TO_END)
    assert halved["setup_s"]["gain"] and not halved["ops_per_s"]["gain"]


def test_summary_of_one_pair():
    s = bench_pairs.summarize([{"parent": _result(4.0, 50.0, 0.3),
                                "change": _result(3.0, 50.0, 0.3)}], END_TO_END)
    assert s["ops_per_s"]["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert s["ops_per_s"]["worse_by"] == pytest.approx(0.25)
    assert s["ops_per_s"]["within_bound"] and s["all_correct"]


def _figures(grid_s, rows_per_s):
    return [f"{'setup_s':50s} {0.3:16.6f} s",
            f"{'numeric.maximize_grid_s':50s} {grid_s:16.6f} s",
            f"{'numeric.sample_rows_per_s':50s} {rows_per_s:16.6f} 1/s",
            "GATE FAILED: 3 bad",
            'env {"nproc": 2, "seed": 1}']


def test_summary_lists_median_figures_per_side():
    """Each named figure gets its median on each side; gate and env lines
    are no figures, and a run without figures lists none."""
    grid = [(0.09, 0.05), (0.10, 0.06), (0.08, 0.04)]
    runs = [{"parent": _result(4.5, 50.0, 0.3), "change": _result(5.0, 50.0, 0.3),
             "parent_figures": _figures(p, 1e6), "change_figures": _figures(c, 2e6)}
            for p, c in grid]
    runs.append({"parent": _result(4.5, 50.0, 0.3), "change": _result(5.0, 50.0, 0.3),
                 "parent_figures": [], "change_figures": _figures(0.07, 3e6)})
    figures = bench_pairs.summarize(runs, END_TO_END)["figures"]
    assert list(figures) == ["numeric.maximize_grid_s", "numeric.sample_rows_per_s",
                             "setup_s"]
    assert figures["numeric.maximize_grid_s"] == pytest.approx(
        {"parent": 0.09, "change": 0.055})
    assert figures["numeric.sample_rows_per_s"] == pytest.approx(
        {"parent": 1e6, "change": 2e6})
    assert bench_pairs.summarize(runs[:1], END_TO_END)["figures"]["setup_s"] == {
        "parent": 0.3, "change": 0.3}
    assert bench_pairs.summarize([{"parent": _result(4.0, 50.0, 0.3),
                                   "change": _result(3.0, 50.0, 0.3)}],
                                 END_TO_END)["figures"] == {}


@pytest.mark.parametrize("stdout", ["", "setup_s 0.3 s\nnot json"],
                         ids=["nothing", "not-json"])
def test_run_names_a_run_without_a_result_line(tmp_path, stdout):
    """A run.py that prints nothing, or a last line that is not JSON,
    raises RuntimeError naming the checkout, the exit code and stderr."""
    runner = tmp_path / bench_pairs.RUNNER
    runner.parent.mkdir()
    runner.write_text("import sys\n"
                      f"print({stdout!r})\n"
                      "print('broken run', file=sys.stderr)\n"
                      "sys.exit(3)\n")
    with pytest.raises(RuntimeError) as info:
        bench_pairs._run(tmp_path, "sweep", 1, 1.0)
    message = str(info.value)
    assert message.startswith(f"{tmp_path}: run.py exited 3 ")
    assert message.endswith("broken run\n")


def test_run_pairs_alternates_and_records_both_sides(monkeypatch, capsys):
    """Pair p runs the parent first when p is odd, the change first when
    it is even; each record holds the pair, the side that ran first, and
    each side's result, figures and exit code."""
    calls = []

    def run(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        return (_result(4.0 if side == "parent" else 5.0, 50.0, 0.3), [f"fig {side}"],
                len(calls))

    monkeypatch.setattr(bench_pairs, "_run", run)
    runs = bench_pairs.run_pairs(Path("parent"), Path("change"), "sweep", 3, 1, 2.0)
    assert calls == [(side, "sweep", 1, 2.0) for side in
                     ("parent", "change", "change", "parent", "parent", "change")]
    assert [(r["pair"], r["first"]) for r in runs] == [(1, "parent"), (2, "change"),
                                                       (3, "parent")]
    for r in runs:
        assert set(r) == {"pair", "first", "parent", "change", "parent_figures",
                          "change_figures", "parent_exit", "change_exit"}
        for side, ops in (("parent", 4.0), ("change", 5.0)):
            assert r[side]["metrics"]["ops_per_s"]["value"] == ops
            assert r[f"{side}_figures"] == [f"fig {side}"]
    assert [(r["parent_exit"], r["change_exit"]) for r in runs] == [(1, 2), (4, 3), (5, 6)]
    assert "sweep pair 3: parent 4.000  change 5.000" in capsys.readouterr().err


STUB_RUNNER = '''import json
from pathlib import Path

ops = float((Path(__file__).resolve().parents[1] / "src" / "value.txt").read_text())
print(f"stub.ops_per_s {ops} 1/s")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "ops_per_s": {"value": ops, "unit": "1/s"},
    "peak_rss_mb": {"value": 40.0, "unit": "MB"},
    "setup_s": {"value": 0.2, "unit": "s"}}}))
'''


def test_main_benchmarks_two_commits_in_clones(tmp_path, monkeypatch, capsys):
    """main runs --parent (HEAD~1) and HEAD, each in a clone of its
    commit, and names both full shas; the stub's ops_per_s comes from
    src/, 1.0 at the parent and 2.0 at HEAD.  It leaves no worktree, and
    with src/ edited and not committed it exits 2 and writes no file."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (repo / bench_pairs.RUNNER).write_text(STUB_RUNNER)

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                               "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    shas = []
    for value in ("1.0", "2.0"):
        (repo / "src" / "value.txt").write_text(value + "\n")
        git("add", "-A")
        git("commit", "-q", "-m", f"value {value}")
        shas.append(git("rev-parse", "HEAD"))
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    argv = ["--label", "stub", "--workload", "sweep", "--pairs", "2", "--seconds", "1"]

    assert bench_pairs.main(argv) == 0
    record = json.loads((repo / "BENCH_stub.json").read_text())
    assert [record["parent_sha"], record["change_sha"]] == shas
    assert [(r["parent"]["metrics"]["ops_per_s"]["value"],
             r["change"]["metrics"]["ops_per_s"]["value"])
            for r in record["runs"]["sweep"]] == [(1.0, 2.0), (1.0, 2.0)]
    assert record["summary"]["sweep"]["figures"] == {
        "stub.ops_per_s": {"parent": 1.0, "change": 2.0}}
    assert len(git("worktree", "list").splitlines()) == 1

    (repo / "BENCH_stub.json").unlink()
    (repo / "src" / "value.txt").write_text("3.0\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert info.value.code == 2
    assert "src/value.txt" in capsys.readouterr().err
    assert list(repo.glob("BENCH_*.json")) == []
