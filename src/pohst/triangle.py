"""Triangular term lattice underlying the product f_n(v).

For a vector v = (x_1, ..., x_n) with every |x_k| <= 1 define

    f_n(v) = prod_{1 <= i <= j <= n} (1 - x_i x_{i+1} ... x_j).

Each factor 1 - prod_{k=i}^{j} x_k is a *term*, addressed by the index
pair (i, j).  The terms form a triangle: row j holds the terms whose
run ends at x_j.  Pohst's inequality states f_n(v) <= 2^floor((n+1)/2).

All the combinatorics downstream depends on v only through its sign
pattern.  A term is *canonical* when it agrees, up to the expected sign,
with the corresponding term of the mirrored vector -|v|; concretely the
term (i, j) is non-canonical exactly when its product sign equals
(-1)^(i+j).  The non-canonical index set J is what the good-partition
construction has to cover.

Every such sign fact follows from one prefix identity.  Put
q_k = (-1)^k x_1 ... x_k in signs, with q_0 = +1 (prefix_classes).  The
product sign of (i, j) is x_i ... x_j = (-1)^(i+j+1) q_{i-1} q_j, so
(i, j) is non-canonical exactly when q_{i-1} != q_j, its sign is then
(-1)^(i+j), and |J| = |A| |B| for the two classes A, B of q_0..q_n.

Indices are 1-based throughout the public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Relative tolerance for floating comparisons of term products.
REL_TOL = 1e-12
#: Absolute floor so comparisons near zero do not demand the impossible.
ABS_TOL = 1e-15


class TermIndex(NamedTuple):
    """1-based address (i, j) of the term 1 - x_i ... x_j, i <= j."""

    i: int
    j: int


@dataclass(frozen=True)
class SignedTerm:
    """A term index together with its product sign under a sign pattern."""

    index: TermIndex
    sign: int


@dataclass(frozen=True)
class NonCanonicalSet:
    """The non-canonical terms of one sign pattern.

    Every member has sign +1 when i + j is even and -1 when i + j is
    odd; that redundancy is kept explicit because certificates store
    the signs and the validator re-derives them.
    """

    n: int
    members: frozenset[SignedTerm]

    @cached_property
    def signs(self) -> dict[TermIndex, int]:
        return {m.index: m.sign for m in self.members}

    def __contains__(self, t: TermIndex) -> bool:
        return tuple(t) in self.signs

    def sign_of(self, t: TermIndex) -> int | None:
        """Sign of a member index, or None when t is canonical."""
        return self.signs.get(tuple(t))

    @cached_property
    def positives(self) -> tuple[TermIndex, ...]:
        return tuple(sorted(t for t, s in self.signs.items() if s > 0))

    @cached_property
    def negatives(self) -> tuple[TermIndex, ...]:
        return tuple(sorted(t for t, s in self.signs.items() if s < 0))


def as_vector(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return v as a 1-d float array with entries in [-1, 1]."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("vector must be a non-empty 1-d sequence")
    if not np.all(np.abs(arr) <= 1.0):
        raise ValueError("vector entries must lie in [-1, 1]")
    return arr


def as_sign_pattern(p: Sequence[int]) -> tuple[int, ...]:
    """Validate and return p as a tuple of +1/-1 entries."""
    pat = tuple(int(s) for s in p)
    if not pat:
        raise ValueError("sign pattern must be non-empty")
    if any(s not in (-1, 1) for s in pat):
        raise ValueError("sign pattern entries must be +1 or -1")
    return pat


def sign_pattern_of(v: Sequence[float] | np.ndarray) -> tuple[int, ...]:
    """Sign pattern of a vector without zero entries."""
    arr = as_vector(v)
    if np.any(arr == 0.0):
        raise ValueError("vector has a zero entry; split_at_zeros first")
    return tuple(1 if x > 0 else -1 for x in arr)


def _check_index(t: TermIndex, n: int) -> TermIndex:
    i, j = t
    if not (1 <= i <= j <= n):
        raise IndexError(f"term index {(i, j)} outside triangle of size {n}")
    return TermIndex(i, j)


def eval_term(v: Sequence[float] | np.ndarray, t: TermIndex) -> float:
    """Evaluate the single term 1 - x_i ... x_j."""
    arr = as_vector(v)
    i, j = _check_index(TermIndex(*t), len(arr))
    p = 1.0
    for k in range(i - 1, j):
        p *= arr[k]
    return 1.0 - p


def eval_f(v: Sequence[float] | np.ndarray) -> float:
    """Evaluate f_n(v) with one running product per row start.

    O(n^2) multiplications; no prefix-quotient shortcuts, so zero
    entries are handled exactly.
    """
    arr = as_vector(v)
    n = len(arr)
    f = 1.0
    for i in range(n):
        p = 1.0
        for k in range(i, n):
            p *= arr[k]
            f *= 1.0 - p
    return f


def negate_abs(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """The mirrored vector -|v| = (-|x_1|, ..., -|x_n|)."""
    return -np.abs(as_vector(v))


def prefix_classes(pattern: Sequence[int]) -> tuple[int, ...]:
    """The classes q_0..q_n, q_k = (-1)^k x_1 ... x_k, of a sign pattern."""
    q = [1]
    for s in as_sign_pattern(pattern):
        q.append(-q[-1] * s)
    return tuple(q)


def product_sign(pattern: Sequence[int], t: TermIndex) -> int:
    """Product of the pattern signs over the run i..j."""
    q = prefix_classes(pattern)
    i, j = _check_index(TermIndex(*t), len(q) - 1)
    return q[i - 1] * q[j] * (1 if (i + j) % 2 else -1)


def noncanonical_set(pattern: Sequence[int]) -> NonCanonicalSet:
    """All non-canonical term indices of a sign pattern, with signs.

    The all-negative pattern has an empty set: every q_k is then +1.
    """
    q = prefix_classes(pattern)
    n = len(q) - 1
    members = frozenset(
        SignedTerm(TermIndex(i, j), 1 if (i + j) % 2 == 0 else -1)
        for j in range(1, n + 1) for i in range(1, j + 1) if q[i - 1] != q[j])
    return NonCanonicalSet(n, members)


def split_at_zeros(v: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    """Maximal zero-free segments of v, in order.

    f_n(v) factors exactly over the segments: every term whose run
    crosses a zero evaluates to 1.
    """
    arr = as_vector(v)
    segments: list[np.ndarray] = []
    start = None
    for k, x in enumerate(arr):
        if x == 0.0:
            if start is not None:
                segments.append(arr[start:k].copy())
                start = None
        elif start is None:
            start = k
    if start is not None:
        segments.append(arr[start:].copy())
    return segments


def pohst_bound(n: int) -> float:
    """The right-hand side 2^floor((n+1)/2) of Pohst's inequality."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(2 ** ((n + 1) // 2))


def leq_with_tol(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """a <= b up to mixed relative/absolute tolerance."""
    return a <= b + max(abs_, rel * max(abs(a), abs(b)))


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """|a - b| within mixed relative/absolute tolerance."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def term_indices(n: int) -> Iterable[TermIndex]:
    """All term indices of the size-n triangle, row by row."""
    for j in range(1, n + 1):
        for i in range(j, 0, -1):
            yield TermIndex(i, j)
