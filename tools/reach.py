"""Lines of src/pohst that no test runs, found by a stdlib-only line tracer.

    python3 tools/reach.py [pytest arguments ...]

Runs pytest in this process, from the repo root, with sys.settrace and
threading.settrace set, then prints each line of src/pohst that the
compiled code marks executable (the line of some bytecode instruction)
and that no test ran, as path:line: text, and a count.  Processes the
tests start are not traced: the forked workers of sweep_patterns with
jobs > 1 and the scripts started as subprocesses (the demos, the
maximize_f run on numpy's baseline kernels), so a line only they run is
listed.  The suite runs several times slower under the tracer, so this
is a gate to run by hand, not a test: it exits 1 when pytest passed but
some line is listed, so that it passes only when the tests run every
line of src/pohst, and with pytest's exit code otherwise.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pohst"


def executable_lines(path: Path) -> set[int]:
    """The lines of the instructions of path's compiled code, the code
    objects nested in it included."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineTracer:
    """While entered, records in hit[path] each line run in the files
    paths, in this thread and in threads started meanwhile; on exit the
    trace functions set before it are back.  A frame of another file
    gets no local trace function, so it runs at near full speed."""

    def __init__(self, paths: list[Path]):
        self.hit: dict[Path, set[int]] = {p.resolve(): set() for p in paths}
        self._by_name: dict[str, set[int] | None] = {}

    def _lines(self, name: str) -> set[int] | None:
        if name not in self._by_name:
            self._by_name[name] = self.hit.get(Path(name).resolve())
        return self._by_name[name]

    def _call(self, frame, event, arg):
        lines = self._lines(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def __enter__(self) -> LineTracer:
        self._prior = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._prior[0])
        threading.settrace(self._prior[1])


def unreached(tracer: LineTracer) -> dict[Path, list[int]]:
    """Per traced file, its executable lines that did not run, ascending."""
    return {p: sorted(executable_lines(p) - hit) for p, hit in tracer.hit.items()}


def main(argv: list[str] | None = None) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(sorted(PACKAGE.glob("*.py")))
    with tracer:
        code = pytest.main(["-q", *(sys.argv[1:] if argv is None else argv)])
    missed = unreached(tracer)
    for path, lines in missed.items():
        text = path.read_text().splitlines()
        for n in lines:
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    total = sum(map(len, missed.values()))
    executable = sum(len(executable_lines(p)) for p in missed)
    print(f"{total} of {executable} executable lines of src/pohst not run by the tests. "
          "Not traced: forked sweep workers (--jobs) and subprocesses (demos).")
    return int(code) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main())
