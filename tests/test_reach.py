"""tools/reach.py: its line accounting on a small throwaway module."""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''"""A throwaway module."""


def pick(x):
    if x > 0:
        return "positive"
    return "other"


def never():
    return 1
'''


def test_unreached_lines_of_a_small_module(tmp_path):
    """The executable lines are the module's docstring and defs and the
    function bodies; imported under the tracer, with pick(1) run here and
    never() in a thread started meanwhile, only pick's last line did not
    run.  A file nothing runs lists every executable line."""
    path = tmp_path / "throwaway.py"
    path.write_text(SOURCE)
    idle = tmp_path / "idle.py"
    idle.write_text(SOURCE)
    assert reach.executable_lines(path) == {1, 4, 5, 6, 7, 10, 11}
    tracer = reach.LineTracer([path, idle])
    with tracer:
        spec = importlib.util.spec_from_file_location("throwaway", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.pick(1) == "positive"
        worker = threading.Thread(target=module.never)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert reach.unreached(tracer) == {path.resolve(): [7],
                                       idle.resolve(): [1, 4, 5, 6, 7, 10, 11]}


@pytest.mark.parametrize("calls,code,exit_code", [
    ((1, 0), 0, 0),   # pytest passed and every line ran
    ((1,), 0, 1),     # pytest passed, but pick's last line is listed
    ((1,), 1, 1),     # pytest failed: its code
    ((1, 0), 5, 5),   # no tests collected: its code, though no line is listed
])
def test_main_fails_when_a_line_is_listed(tmp_path, monkeypatch, capsys,
                                          calls, code, exit_code):
    """main exits 1 when pytest passed but a line of the package did not
    run, and with pytest's exit code otherwise.  The package is the
    throwaway module, and pytest.main is a stub that imports it, calls
    pick on each of calls and never(), and returns code."""
    package = tmp_path / "src" / "pohst"
    package.mkdir(parents=True)
    path = package / "throwaway.py"
    path.write_text(SOURCE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)

    def run_tests(args):
        spec = importlib.util.spec_from_file_location("throwaway", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for x in calls:
            module.pick(x)
        module.never()
        return code

    monkeypatch.setattr(pytest, "main", run_tests)
    assert reach.main([]) == exit_code
    lines = capsys.readouterr().out.splitlines()
    listed = [] if 0 in calls else ['src/pohst/throwaway.py:7: return "other"']
    assert lines[:-1] == listed
    assert lines[-1].startswith(f"{len(listed)} of 7 executable lines of src/pohst not run")
