"""Seeded inputs of the three workloads, and the certificate tamperer.

Everything the program receives is made here from the workload seed:
the same seed gives the same sweep size, the same certificate stream
(patterns, sizes and tamper plans) and the same sampling seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Workload seed of a run that names none.
DEFAULT_SEED = 1

#: sweep: every one of the 2^SWEEP_N sign patterns.  Even, so that the
#: border parity check runs; small enough for many sweeps in one run.
SWEEP_N = 10

#: certify: each size in CERT_SIZES appears CERT_COPIES times in the
#: stream, in seeded order, so every seed sees the same size mix.
CERT_SIZES = range(24, 97)
CERT_COPIES = 3
#: One certificate in TAMPER_EVERY is tampered before it is checked.
TAMPER_EVERY = 8
TAMPER_KINDS = ("flip-sign", "drop-member", "move-corner")


@dataclass(frozen=True)
class NumericSizes:
    """numeric: maximize_f on the grid path (n <= 8) and the multistart
    path (n > 8), then both samplers on one seeded stream."""

    grid_n: int = 7
    multistart_n: int = 9
    sample_n: int = 10
    sample_rows: int = 2_000_000
    blockwise_rows: int = 25_000
    #: scalar eval_f calls timed one by one in the traced run
    eval_f_calls: int = 20_000


NUMERIC = NumericSizes()


@dataclass(frozen=True)
class Tamper:
    """How to break one certificate: the kind, which block and member
    (as fractions of the available count) and, for move-corner, the
    column shift."""

    kind: str
    u_block: float
    u_member: float
    shift: int


@dataclass(frozen=True)
class CertOp:
    pattern: tuple[int, ...]
    tamper: Tamper | None

    @property
    def pattern_arg(self) -> str:
        return ",".join("+" if s > 0 else "-" for s in self.pattern)


def certify_stream(seed: int) -> list[CertOp]:
    """The closed-loop client's stream: CERT_COPIES x len(CERT_SIZES)
    random patterns, one in TAMPER_EVERY marked for tampering."""
    rng = np.random.default_rng(seed)
    sizes = np.repeat(np.array(CERT_SIZES), CERT_COPIES)
    rng.shuffle(sizes)
    patterns = [tuple(int(s) for s in rng.choice((-1, 1), size=int(n)))
                for n in sizes]
    marked = rng.choice(len(patterns), size=len(patterns) // TAMPER_EVERY,
                        replace=False)
    plans: dict[int, Tamper] = {}
    for k in sorted(int(m) for m in marked):
        plans[k] = Tamper(TAMPER_KINDS[int(rng.integers(len(TAMPER_KINDS)))],
                          float(rng.random()), float(rng.random()),
                          int(rng.choice((-1, 1))))
    return [CertOp(p, plans.get(k)) for k, p in enumerate(patterns)]


def tamper(text: str, plan: Tamper) -> tuple[str, str]:
    """Apply plan to certificate JSON; returns (new text, kind applied).

    move-corner shifts the column of one rectangle corner, which leaves
    the triangle, duplicates a corner or breaks the rectangle.  A
    certificate without a rectangle gets flip-sign instead.
    """
    data = json.loads(text)
    blocks = data["blocks"]
    if not blocks:
        raise ValueError("certificate has no blocks to tamper with")
    kind = plan.kind
    quads = [b for b in blocks if len(b["members"]) == 4]
    if kind == "move-corner" and not quads:
        kind = "flip-sign"
    pool = quads if kind == "move-corner" else blocks
    block = pool[int(plan.u_block * len(pool))]
    m = int(plan.u_member * len(block["members"]))
    if kind == "flip-sign":
        block["signs"][m] = -block["signs"][m]
    elif kind == "drop-member":
        del block["members"][m]
        del block["signs"][m]
    else:
        block["members"][m][0] += plan.shift
    return json.dumps(data, sort_keys=True, indent=2) + "\n", kind


def sample_rows(n: int, samples: int, seed: int,
                batch: int = 20_000):
    """Uniform rows of [-1,1]^n without zero entries, in batches, drawn
    the way the sampling campaigns document their stream: one
    default_rng(seed), batches of 20 000, zeros redrawn."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < samples:
        m = min(batch, samples - produced)
        X = rng.uniform(-1.0, 1.0, size=(m, n))
        zero = X == 0.0
        while zero.any():
            X[zero] = rng.uniform(-1.0, 1.0, size=int(zero.sum()))
            zero = X == 0.0
        yield X
        produced += m


def lattice_rows(n: int, step: float = 0.25, batch: int = 500_000):
    """The grid points^n that maximize_f screens for n <= 8, in batches."""
    k = round(2.0 / step)
    points = np.linspace(-1.0, 1.0, k + 1)
    m = len(points)
    total = m ** n
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        X = np.empty((len(idx), n))
        for c in range(n - 1, -1, -1):
            X[:, c] = points[idx % m]
            idx //= m
        yield X
