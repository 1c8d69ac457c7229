"""tools/reach.py: its line accounting on a small throwaway module."""

import importlib.util
import threading
from pathlib import Path

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
