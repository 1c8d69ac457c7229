"""Alternating parent/change pairs of perfbench runs, written as one BENCH file.

    python3 tools/bench_pairs.py --label pr18_certify --workload certify \
        [--workload sweep ...] [--pairs 10] [--seconds 30] [--seed 1] \
        [--parent HEAD~1] [--what TEXT]

Both sides are clones of commits: --parent and HEAD are cloned into one
temporary directory and perfbench/run.py runs in each, so src/ and
perfbench/ must be committed first; with uncommitted changes there the
command names them and exits 2.  Pair p runs the parent first when p is
odd and the change first when p is even.  Each run is the JSON line
run.py prints last; the lines before it are kept as *_figures.  The file
BENCH_<label>.json at the repo root holds parent_sha, change_sha, env,
runs and a summary per workload: for every end-to-end metric of
BENCHMARK.json, median/q1/q3 of each side, the pairs the change won, the
parent's relative IQR, whether the change stays within the metric's
bound, whether that is resolved: the parent's spread is within the
bound, or every change run beats every parent run, and whether the
change is a gain: it won at least nine tenths of the pairs and its
median beats the parent's by more than the parent's relative IQR.  The
summary's "figures" holds each side's median of every named figure, the
`name value unit` lines among *_figures (numeric.maximize_grid_s, say),
so the file shows which call moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("perfbench") / "run.py"
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, as QUARTILES computes them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload summary of pairs runs[k] = {"parent": result, "change":
    result, ...}, each result the JSON line of one run.py call.

    worse_by is the change's relative loss against the parent median,
    negative for a gain, in the direction end_to_end[...]["better"]
    names; within_bound holds when it does not exceed the metric's bound.
    resolved holds when the parent's relative IQR is within the bound, or
    every change run is better than every parent run; an unresolved
    metric's spread is too wide to tell whether it stayed within bound.
    gain holds when the change is better in at least nine tenths of the
    pairs (a tie counts for neither side) and its median is better than
    the parent's, relative to it, by more than the parent's relative IQR.
    """
    sides = ("parent", "change")
    out: dict = {
        "pairs": len(runs),
        "all_correct": all(r[s]["correct"] for r in runs for s in sides),
        "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
        "failed": {s: sum(r[s]["failed"] for r in runs) for s in sides},
    }
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in sides}
        stats = {s: quartiles(values[s]) for s in sides}
        parent = stats["parent"]["median"]
        rel = (stats["change"]["median"] - parent) / parent
        worse_by = -rel if higher else rel
        iqr_rel = (stats["parent"]["q3"] - stats["parent"]["q1"]) / parent
        clear_win = (min(values["change"]) > max(values["parent"]) if higher
                     else max(values["change"]) < min(values["parent"]))
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            **stats,
            "change_better_in_pairs": wins,
            "median_change_rel": rel,
            "parent_iqr_rel": iqr_rel,
            "worse_by": worse_by,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "resolved": iqr_rel <= metric["bound"] or clear_win,
            "gain": 10 * wins >= 9 * len(runs) and -worse_by > iqr_rel,
        }
    out["figures"] = figure_medians(runs)
    return out


def figure_medians(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Name -> side -> median of the figure over the pairs whose
    *_figures list it as a `name value unit` line; a run without
    *_figures lists none."""
    found: dict[str, dict[str, list[float]]] = {}
    for r in runs:
        for side in ("parent", "change"):
            for line in r.get(f"{side}_figures", ()):
                parts = line.split()
                if len(parts) != 3:
                    continue
                try:
                    value = float(parts[1])
                except ValueError:
                    continue
                found.setdefault(parts[0], {}).setdefault(side, []).append(value)
    return {name: {side: statistics.median(v) for side, v in sides.items()}
            for name, sides in sorted(found.items())}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int]:
    """One run.py call in checkout: its result line, the lines before it,
    and its exit code.  RuntimeError, naming checkout, the exit code and
    stderr, when run.py printed nothing or a last line that is not JSON."""
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1], proc.returncode
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} without a JSON "
                           f"result line:\n{proc.stderr}") from None


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float) -> list[dict]:
    """pairs alternating parent/change runs of one workload."""
    runs = []
    for p in range(1, pairs + 1):
        order = ("parent", "change") if p % 2 else ("change", "parent")
        record: dict = {"pair": p, "first": order[0]}
        for side in order:
            result, figures, code = _run(parent if side == "parent" else change,
                                         workload, seed, seconds)
            record.update({side: result, f"{side}_figures": figures, f"{side}_exit": code})
        runs.append(record)
        print(f"{workload} pair {p}: " + "  ".join(
            f"{s} {record[s]['metrics']['ops_per_s']['value']:.3f}"
            for s in ("parent", "change")), file=sys.stderr)
    return runs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--parent", default="HEAD~1", help="git revision of the parent side")
    p.add_argument("--what", default="", help="one line on what the change is")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    uncommitted = _git("status", "--porcelain", "--", "src", "perfbench")
    if uncommitted:
        p.exit(2, f"commit src/ and perfbench/ first, both sides run in clones of "
                  f"commits:\n{uncommitted}\n")

    import numpy

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    out: dict = {
        "what": args.what + " Parent and change each ran in a git clone of its commit. "
                "Pair p ran the parent first when p is odd and the change "
                "first when p is even. Each run is the JSON line run.py prints last; "
                "runs.*.*_figures holds the lines before it.",
        "command": f"python3 {RUNNER} --workload {{{','.join(args.workload)}}} "
                   f"--seconds {args.seconds:g} --seed {args.seed}",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__},
        "quartiles": QUARTILES,
    }
    with tempfile.TemporaryDirectory() as tmp:
        for side, sha in shas.items():
            _git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), f"{tmp}/{side}")
            _git("-C", f"{tmp}/{side}", "checkout", "--quiet", "--detach", sha)
        out["runs"] = {w: run_pairs(Path(tmp, "parent"), Path(tmp, "change"), w,
                                    args.pairs, args.seed, args.seconds)
                       for w in args.workload}
    out["summary"] = {w: summarize(r, end_to_end) for w, r in out["runs"].items()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for w, s in out["summary"].items():
        print(f"{w}: " + "  ".join(
            f"{m['name']} {s[m['name']]['parent']['median']:.4g} -> "
            f"{s[m['name']]['change']['median']:.4g} "
            f"({s[m['name']]['change_better_in_pairs']}/{s['pairs']}, "
            f"{'resolved' if s[m['name']]['resolved'] else 'unresolved'}, "
            f"{'gain' if s[m['name']]['gain'] else 'no gain'})"
            for m in end_to_end))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
