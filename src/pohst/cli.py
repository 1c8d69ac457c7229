"""Command line front end.

Subcommands: verify (exhaustive pattern sweep for one n), certify
(emit the validated certificate of one pattern), check (re-validate a
stored certificate), maximize (numeric maximization of f_n), sample
(seeded domination sampling), bound (regulator-discriminant bounds).

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
JSON output is canonical (sorted keys, two-space indent), so identical
run configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys

from .numbertheory import compare_bounds
from .partition import (
    CertificateFormatError,
    ConstructionFailure,
    _collector_paused,
    build_good_partition,
    canonical_json,
    certificate_from_json,
    certificate_to_json,
    validate_partition,
)
from .search import RNG_NAME, maximize_f, sample_domination, sweep_patterns

_BOUND_SLACK = 1e-9


def _parse_pattern(text: str) -> tuple[int, ...]:
    tokens = [t.strip() for t in text.split(",")]
    mapping = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}
    try:
        return tuple(mapping[t] for t in tokens)
    except KeyError:
        raise ValueError(f"pattern must be comma-separated +/- tokens, got {text!r}")


def _csv_table(payload: dict) -> str:
    scalars = {k: v for k, v in payload.items()
               if isinstance(v, (str, int, float, bool)) or v is None}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(scalars.keys())
    writer.writerow("" if v is None else v for v in scalars.values())
    return buf.getvalue()


def _write(body: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(body)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as e:
            raise ValueError(f"cannot write output: {e}")


def _emit(payload: dict, text_lines: list[str], args: argparse.Namespace) -> None:
    if args.format == "json":
        body = canonical_json(payload)
    elif args.format == "csv":
        body = _csv_table(payload)
    else:
        body = "".join(line + "\n" for line in text_lines)
    _write(body, args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    report = sweep_patterns(args.n, jobs=args.jobs)
    ok = not report.failures
    payload = {
        "command": "verify",
        "n": report.n,
        "patterns_checked": report.patterns_checked,
        "failures": [{"pattern": list(p), "reason": r} for p, r in report.failures],
        "ok": ok,
    }
    lines = [f"n={report.n}: {report.patterns_checked} patterns verified, "
             f"{len(report.failures)} failures ({report.wall_time:.2f} s)"]
    lines += [f"  {list(p)}: {r}" for p, r in report.failures[:10]]
    _emit(payload, lines, args)
    return 0 if ok else 1


# certify and check free their records by reference counting before
# they return, so the collector stays off until then: a pass started by
# the validator's or the emitter's allocations would scan every record.
@_collector_paused
def _cmd_certify(args: argparse.Namespace) -> int:
    pattern = _parse_pattern(args.pattern)
    try:
        gp = build_good_partition(pattern)
    except ConstructionFailure as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return 1
    result = validate_partition(gp)   # the factory re-checks what it writes
    if not result:
        print(f"certificate rejected: {result.reason}", file=sys.stderr)
        return 1
    _write(certificate_to_json(gp), args.out)
    return 0


@_collector_paused
def _cmd_check(args: argparse.Namespace) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read certificate: {e}")
    try:
        gp = certificate_from_json(text)
    except CertificateFormatError as e:
        raise ValueError(f"malformed certificate: {e}")
    result = validate_partition(gp)
    payload = {
        "command": "check",
        "certificate": args.certificate,
        "n": gp.n,
        "pattern": list(gp.pattern),
        "blocks": len(gp.blocks),
        "ok": result.ok,
        "reason": result.reason,
    }
    verdict = "valid" if result.ok else f"INVALID: {result.reason}"
    lines = [f"{args.certificate}: {verdict}"]
    _emit(payload, lines, args)
    return 0 if result.ok else 1


def _cmd_maximize(args: argparse.Namespace) -> int:
    res = maximize_f(args.n, grid_step=args.grid_step)
    ok = res.best_value <= res.bound + _BOUND_SLACK
    payload = {
        "command": "maximize",
        "n": res.n,
        "grid_step": args.grid_step,
        "best_value": res.best_value,
        "best_point": list(res.best_point),
        "bound": res.bound,
        "gap": res.bound - res.best_value,
        "method": res.method,
        "evaluations": res.evaluations,
        "ok": ok,
    }
    lines = [f"n={res.n}: max f = {res.best_value:.12g} vs bound {res.bound:.12g} "
             f"(gap {res.bound - res.best_value:.3g}, {res.evaluations} evaluations)",
             f"  at {[round(c, 6) for c in res.best_point]}",
             f"  method: {res.method}"]
    if not ok:
        lines.append("  BOUND EXCEEDED")
    _emit(payload, lines, args)
    return 0 if ok else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    result = sample_domination(args.n, args.samples, args.seed)
    payload = {
        "command": "sample",
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "rng": RNG_NAME,
        "ok": result.ok,
        "reason": result.reason,
    }
    verdict = "all dominated" if result.ok else f"FAILED: {result.reason}"
    lines = [f"n={args.n}: {args.samples} samples (seed {args.seed}, {RNG_NAME}): "
             f"{verdict}"]
    _emit(payload, lines, args)
    return 0 if result.ok else 1


def _cmd_bound(args: argparse.Namespace) -> int:
    res = compare_bounds(args.m, args.R, args.gamma)
    payload = {
        "command": "bound",
        "m": res.m,
        "regulator": res.regulator,
        "hermite_value": res.hermite_value,
        "hermite_source": res.hermite_source,
        "remak": res.remak,
        "improved": res.improved,
        "improvement": res.improvement,
    }
    lines = [f"m={res.m}, R={res.regulator}: remak {res.remak:.12g}, "
             f"improved {res.improved:.12g} (gain {res.improvement:.12g})",
             f"  gamma_{res.m - 1} = {res.hermite_value:.12g} ({res.hermite_source})"]
    _emit(payload, lines, args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="pohst",
        description="Certified verification of Pohst's product inequality "
                    "and the improved regulator-discriminant bound.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text", help="output format (default text)")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("verify", help="exhaustively verify all sign patterns for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="build, validate and emit the "
                                       "good-partition certificate of a pattern")
    p.add_argument("--pattern", required=True,
                   help="comma-separated +/- tokens, e.g. -,+,-")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check", help="validate a stored certificate")
    p.add_argument("certificate", help="path to a certificate JSON file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("maximize", help="numerically maximize f_n over the cube")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-step", type=float, default=0.25, dest="grid_step")
    common(p)
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("sample", help="seeded random domination check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bound", help="Remak vs improved regulator-discriminant bound")
    p.add_argument("--m", type=int, required=True, help="field degree, >= 2")
    p.add_argument("--R", type=float, required=True, help="regulator, > 0")
    p.add_argument("--gamma", type=float, default=None,
                   help="override gamma_{m-1} (default: table or estimate)")
    common(p)
    p.set_defaults(func=_cmd_bound)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse reads a value like "-,+" as a flag; fold "--pattern -,+"
    # into "--pattern=-,+" so leading-minus sign patterns parse.
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--pattern" and i + 1 < len(argv):
            out.append(f"--pattern={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
