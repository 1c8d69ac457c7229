"""Machine-speed reference for timing on a shared machine.

On a small VM that shares its cores, the speed of the same code drifts
by 10-25 % over tens of seconds with the neighbours' load, so two runs
of an unchanged program can differ more than any bound worth having.
The benchmark therefore interleaves a fixed pure-Python reference loop
with the workload (a fixed share of the workload's time) and scales its
rates by how slow the reference ran in the same run.  The reference
uses no pohst code, so only the program's own cost moves the scaled
rate.  Over 30-second windows of repeated sweeps, the scaled rate
spread 3 % between windows where the raw rate spread 18 %.
"""

from __future__ import annotations

from time import perf_counter

#: Time of one reference_work() call at the nominal speed; scaled rates
#: read as if the machine ran the reference loop this fast.
REFERENCE_SECONDS = 0.010

#: One reference call per this much workload time.
PERIOD = 0.25


def reference_work() -> int:
    """Fixed interpreter work in the style of the program's hot paths:
    tuples, dict updates, small sorts and list appends."""
    table: dict[tuple[int, int], int] = {}
    rows = []
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        rows.append(sorted((key, (i % 5, 2), (3, i % 11))))
    return len(rows) + len(table)


class SpeedProbe:
    """Samples the reference at a fixed share of the workload's time."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._owed = PERIOD  # the first sample() always runs the reference

    def sample(self, work_seconds: float) -> None:
        """Account work_seconds of workload time; run the reference once
        per PERIOD of it."""
        self._owed += work_seconds
        while self._owed >= PERIOD:
            self._owed -= PERIOD
            t = perf_counter()
            reference_work()
            self.seconds += perf_counter() - t
            self.calls += 1

    def slowdown(self) -> float:
        """Mean reference time over its nominal time; 1.0 at nominal speed."""
        return self.seconds / self.calls / REFERENCE_SECONDS
