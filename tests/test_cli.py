"""Command-line contract: exit codes, canonical JSON, round trips."""

import dataclasses
import gc
import json
import runpy
import sys

import pytest

import pohst.cli as cli
import pohst.search as search
from pohst.cli import main
from pohst.partition import (
    MAX_BUILD_N,
    BuildState,
    ConstructionFailure,
    build_good_partition,
    certificate_to_json,
    validate_partition,
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_text(capsys):
    rc, out, _ = run(capsys, ["verify", "--n", "4"])
    assert rc == 0
    assert "16 patterns verified, 0 failures" in out


def test_verify_json_is_byte_identical(capsys):
    rc1, out1, _ = run(capsys, ["verify", "--n", "5", "--format", "json"])
    rc2, out2, _ = run(capsys, ["verify", "--n", "5", "--format", "json"])
    rc3, out3, _ = run(capsys, ["verify", "--n", "5", "--format", "json",
                                "--jobs", "2"])
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2 == out3
    payload = json.loads(out1)
    assert payload["ok"] is True and payload["patterns_checked"] == 32
    assert "wall_time" not in payload  # timing would break byte identity
    assert "jobs" not in payload  # the result does not depend on it


def test_verify_csv(capsys):
    rc, out, _ = run(capsys, ["verify", "--n", "3", "--format", "csv"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert "patterns_checked" in header and "8" in row


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["verify", "--n", "3", "--format", "json",
                              "--out", str(target)])
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


def test_out_to_unwritable_path_is_usage_error(capsys, tmp_path, monkeypatch):
    """An --out in a missing directory, naming a directory, or empty,
    exits 2 before the sweep or the build starts, and creates nothing."""
    started = []
    monkeypatch.setattr(cli, "sweep_patterns", lambda *a, **k: started.append(a))
    monkeypatch.setattr(cli, "build_good_partition", lambda *a: started.append(a))
    target = tmp_path / "missing" / "report.json"
    for out in (target, tmp_path, ""):
        rc, _, err = run(capsys, ["verify", "--n", "3", "--out", str(out)])
        assert rc == 2 and "cannot write" in err
        rc, _, err = run(capsys, ["certify", "--pattern", "-,+", "--out", str(out)])
        assert rc == 2 and "cannot write" in err
    assert started == [] and list(tmp_path.iterdir()) == []


def test_out_that_open_refuses_is_usage_error(capsys, tmp_path):
    """A name too long for the file system passes the checks before the
    work; the write's own error then exits 2."""
    rc, _, err = run(capsys, ["verify", "--n", "3", "--out", str(tmp_path / ("x" * 300))])
    assert rc == 2 and "cannot write output" in err and "too long" in err


def test_check_out_to_its_own_certificate(capsys, tmp_path):
    """check reads the certificate before --out, naming the same file,
    is written: the report replaces it."""
    cert = tmp_path / "cert.json"
    run(capsys, ["certify", "--pattern", "-,+", "--out", str(cert)])
    rc, out, _ = run(capsys, ["check", str(cert), "--out", str(cert)])
    assert (rc, out) == (0, "")
    assert cert.read_text() == f"{cert}: valid\n"


def test_verify_rejects_bad_n(capsys):
    rc, _, err = run(capsys, ["verify", "--n", "0"])
    assert rc == 2 and "error:" in err


def test_certify_check_round_trip(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, _ = run(capsys, ["certify", "--pattern", "-,+", "--out", str(cert)])
    assert rc == 0
    assert cert.read_text() == certificate_to_json(build_good_partition((-1, 1)))
    rc, out, _ = run(capsys, ["check", str(cert)])
    assert rc == 0 and "valid" in out


def test_certify_stdout(capsys):
    rc, out, _ = run(capsys, ["certify", "--pattern", "-,-,+,-"])
    assert rc == 0
    assert out == certificate_to_json(build_good_partition((-1, -1, 1, -1)))


def test_certify_validates_before_writing(capsys, tmp_path, monkeypatch):
    """A built partition that fails validation is reported on stderr,
    exits 1 and writes no file."""
    good = build_good_partition((-1, 1))
    broken = dataclasses.replace(good, blocks=good.blocks[1:])   # drop a block
    monkeypatch.setattr(cli, "build_good_partition", lambda pattern: broken)
    cert = tmp_path / "cert.json"
    rc, out, err = run(capsys, ["certify", "--pattern", "-,+", "--out", str(cert)])
    assert rc == 1 and out == ""
    assert not cert.exists()
    reason = validate_partition(broken).reason
    assert reason.startswith("incomplete-cover")
    assert err == f"certificate rejected: {reason}\n"


def test_certify_rejects_bad_pattern(capsys):
    rc, _, err = run(capsys, ["certify", "--pattern", "-,q"])
    assert rc == 2 and "tokens" in err


def test_certify_refuses_a_pattern_past_the_build_cap(capsys, monkeypatch):
    """A pattern longer than MAX_BUILD_N exits 2 before any row is built;
    one of exactly MAX_BUILD_N entries gets as far as its first row."""
    class RowStarted(Exception):
        pass

    def row(self, q, j):
        raise RowStarted

    monkeypatch.setattr(BuildState, "row", row)
    rc, out, err = run(capsys, ["certify", "--pattern", ",".join("-" * (MAX_BUILD_N + 1))])
    assert (rc, out) == (2, "")
    assert err == (f"error: pattern has {MAX_BUILD_N + 1} entries, a build accepts "
                   f"at most {MAX_BUILD_N}\n")
    with pytest.raises(RowStarted):
        build_good_partition((-1,) * MAX_BUILD_N)


def test_check_rejects_mutated_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, ["certify", "--pattern", "-,+", "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["blocks"] = []  # drop the only block
    cert.write_text(json.dumps(payload))
    rc, out, _ = run(capsys, ["check", str(cert)])
    assert rc == 1 and "INVALID" in out


def test_certify_and_check_validate_with_the_collector_paused(capsys, tmp_path,
                                                              monkeypatch):
    """certify and check run under one collector pause, so the validator
    and the emitter start no pass over the records; main leaves the
    collector on or off as it found it on every exit, and verify runs
    with it as found."""
    good, bad, broken = (tmp_path / name for name in ("good.json", "bad.json",
                                                      "broken.json"))
    good.write_text(certificate_to_json(build_good_partition((-1, 1))))
    bad.write_text(json.dumps(dict(json.loads(good.read_text()), blocks=[])))
    broken.write_text("{not json")
    seen = []

    def spy(gp):
        seen.append(gc.isenabled())
        return validate_partition(gp)

    def failing_row(self, q, j):
        raise ConstructionFailure(1, (1, j), "injected", ())

    sweep = cli.sweep_patterns

    def watched_sweep(n, jobs):
        seen.append(gc.isenabled())
        return sweep(n, jobs=jobs)

    monkeypatch.setattr(cli, "validate_partition", spy)
    monkeypatch.setattr(cli, "sweep_patterns", watched_sweep)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            for argv, want in ((["certify", "--pattern", "-,+"], 0),
                               (["check", str(good)], 0),
                               (["check", str(bad)], 1),
                               (["check", str(broken)], 2)):
                assert run(capsys, argv)[0] == want, argv
                assert gc.isenabled() is enabled, argv
            assert seen == [False, False, False]
            with monkeypatch.context() as m:
                m.setattr(BuildState, "row", failing_row)
                rc, _, err = run(capsys, ["certify", "--pattern", "-,+"])
            assert rc == 1 and "injected" in err
            assert gc.isenabled() is enabled
            assert run(capsys, ["verify", "--n", "3"])[0] == 0
            assert gc.isenabled() is enabled
            assert seen == [False, False, False, enabled]
    finally:
        (gc.enable if was else gc.disable)()


def test_check_rejects_malformed_json(capsys, tmp_path):
    cert = tmp_path / "broken.json"
    cert.write_text("{not json")
    rc, _, err = run(capsys, ["check", str(cert)])
    assert rc == 2 and "malformed" in err


def test_check_rejects_deeply_nested_json(capsys, tmp_path):
    cert = tmp_path / "nested.json"
    cert.write_text("[" * 200_000)
    rc, _, err = run(capsys, ["check", str(cert)])
    assert rc == 2 and "malformed certificate" in err


def test_check_rejects_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["check", str(tmp_path / "nope.json")])
    assert rc == 2 and "cannot read" in err


def test_check_rejects_non_utf8_file(capsys, tmp_path):
    cert = tmp_path / "latin1.json"
    cert.write_bytes(b'{"n": 1, "kind": "\xff"}')
    rc, _, err = run(capsys, ["check", str(cert)])
    assert rc == 2 and "cannot read certificate" in err


def test_check_rejects_oversized_integer(capsys, tmp_path):
    cert = tmp_path / "long.json"
    run(capsys, ["certify", "--pattern", "+", "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["blocks"][0]["members"][0][0] = 123456789
    # 5000 digits: past CPython's 4300-digit limit for int parsing.
    cert.write_text(json.dumps(payload).replace("123456789", "9" * 5000))
    rc, _, err = run(capsys, ["check", str(cert)])
    assert rc == 2 and "malformed certificate" in err


def test_maximize_json(capsys):
    rc, out, _ = run(capsys, ["maximize", "--n", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["bound"] == 4.0
    assert abs(payload["best_value"] - 4.0) <= 1e-6
    assert payload["ok"] is True


def test_maximize_text_shows_gap(capsys):
    rc, out, _ = run(capsys, ["maximize", "--n", "2"])
    assert rc == 0 and "bound 2" in out and "gap" in out


def test_maximize_reports_a_bound_exceeded(capsys, monkeypatch):
    """With the bound planted below the maximum, maximize prints BOUND
    EXCEEDED and exits 1, a failed verification."""
    monkeypatch.setattr(search, "pohst_bound", lambda n: 1.0)
    rc, out, _ = run(capsys, ["maximize", "--n", "2"])
    assert rc == 1 and "vs bound 1 " in out and "BOUND EXCEEDED" in out


def test_maximize_rejects_bad_grid(capsys):
    for n in ("2", "9"):
        for step in ("0.3", "0", "-0.5", "nan", "inf"):
            rc, _, err = run(capsys, ["maximize", "--n", n, "--grid-step", step])
            assert rc == 2 and "grid_step" in err, (n, step)


def test_sample(capsys):
    rc, out, _ = run(capsys, ["sample", "--n", "3", "--samples", "2000"])
    assert rc == 0 and "all dominated" in out and "seed 42" in out


def test_sample_json_is_deterministic(capsys):
    args = ["sample", "--n", "2", "--samples", "1000", "--format", "json"]
    rc1, out1, _ = run(capsys, args)
    rc2, out2, _ = run(capsys, args)
    assert rc1 == rc2 == 0 and out1 == out2
    assert json.loads(out1)["rng"] == "numpy-PCG64"


def test_bound_text(capsys):
    rc, out, _ = run(capsys, ["bound", "--m", "2", "--R", "1"])
    assert rc == 0
    assert "remak 3.38629436112" in out and "gain 0" in out


def test_bound_json(capsys):
    rc, out, _ = run(capsys, ["bound", "--m", "3", "--R", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["improvement"] - 1.9095425048844386) < 1e-12
    assert payload["hermite_source"] == "exact-table"


def test_bound_user_gamma(capsys):
    rc, out, _ = run(capsys, ["bound", "--m", "10", "--R", "1", "--gamma", "1.5",
                              "--format", "json"])
    assert rc == 0 and json.loads(out)["hermite_source"] == "user"


def test_bound_rejects_bad_inputs(capsys):
    assert run(capsys, ["bound", "--m", "1", "--R", "1"])[0] == 2
    assert run(capsys, ["bound", "--m", "2", "--R", "-1"])[0] == 2
    for bad in (["--R", "inf"], ["--R", "1", "--gamma", "inf"], ["--R", "1e308"]):
        rc, out, err = run(capsys, ["bound", "--m", "6", *bad, "--format", "json"])
        assert rc == 2 and out == "" and err.startswith("error: ")


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["verify"])[0] == 2
    for argv in (["verify", "--n", "0"], ["verify", "--n", "25"],
                 ["verify", "--n", "3", "--jobs", "0"],
                 ["verify", "--n", "3", "--jobs", "-1"],
                 ["maximize", "--n", "0"], ["sample", "--n", "0"],
                 ["sample", "--n", "2", "--samples", "0"]):
        rc, _, err = run(capsys, argv)
        assert rc == 2 and "error:" in err, argv


def test_main_shares_one_parser(capsys, tmp_path):
    """main() builds its parser once per process: certify, check and a
    usage error through the shared parser exit and print as they do
    through a freshly built one."""
    cert = tmp_path / "cert.json"
    cert.write_text(certificate_to_json(build_good_partition((-1, -1, 1, -1))))
    calls = (["certify", "--pattern", "-,-,+,-"], ["check", str(cert), "--format", "json"],
             ["check"])
    shared = [run(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 2]
    assert cli.build_parser() is cli.build_parser()


def test_main_reads_sys_argv_and_runs_as_a_script(capsys, monkeypatch):
    """main() without arguments parses sys.argv[1:], and the module run
    as __main__ exits with main's code after printing the same report.
    pohst.cli leaves sys.modules meanwhile, so runpy runs a fresh copy of
    it without warning that the module was imported already."""
    monkeypatch.setattr(sys, "argv", ["pohst", "verify", "--n", "3"])
    assert main() == 0
    out = capsys.readouterr().out
    assert "8 patterns verified, 0 failures" in out
    monkeypatch.delitem(sys.modules, "pohst.cli")
    with pytest.raises(SystemExit) as done:
        runpy.run_module("pohst.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == out


def test_help_exits_cleanly(capsys):
    assert run(capsys, ["--help"])[0] == 0
