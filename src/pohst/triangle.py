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

running_terms forms the run products x_i ... x_j from which eval_f and
block_products take every value they return.  Two numeric kernels form
the same products and terms, bit for bit: search._f_into, under
eval_f_batch and sample_domination, in running_terms' order, and
search._terms, under the ascent's probes and the block-wise sampler's
gather, as one array of all the terms of a few rows.  The lattice
screen of search.maximize_f forms the same products by prefix
extension, but only to choose the points that eval_f_batch then
evaluates.

Indices are 1-based throughout the public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

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
class NonCanonicalSet:
    """The non-canonical terms of one sign pattern.

    Every member (i, j) has sign (-1)^(i+j), so no sign is stored here:
    signs are stored only where a certificate claims them
    (PartitionBlock.signs), and the validator re-derives them.  signs
    maps each member to that sign, for display; the builder and the
    checkers split a row by sign from the prefix classes instead.
    """

    n: int
    members: frozenset[TermIndex]

    @cached_property
    def signs(self) -> dict[TermIndex, int]:
        return {t: 1 if (t[0] + t[1]) % 2 == 0 else -1 for t in self.members}

    def __contains__(self, t: TermIndex) -> bool:
        return tuple(t) in self.members


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
    """Validate and return p as a tuple of +1/-1 entries.  Entries are
    read with operator.index, as list indexing reads them: numpy integers
    pass, while None or a float, 1.0 included, is not an entry."""
    entries = map(index, p)   # a p that is not iterable raises TypeError here
    try:
        pat = tuple(entries)
    except TypeError:
        raise ValueError("sign pattern entries must be +1 or -1") from None
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
    return 1.0 - math.prod(arr[i - 1:j].tolist())


def running_terms(cols: Sequence) -> Iterator[tuple[int, int, float | np.ndarray]]:
    """Yield (i, j, 1 - x_i ... x_j), i outer, j inner; cols[k] is x_{k+1},
    a float or a batch column.  One running product per run start and no
    prefix-quotient shortcut, so zero entries are handled exactly.

    A run's product starts as the fresh 1.0 * x_i and is then updated in
    place, so a batch column is never written and no product array is
    allocated per term; each yielded term is a fresh 1 - p."""
    n = len(cols)
    for i in range(n):
        p = 1.0 * cols[i]
        yield i + 1, i + 1, 1.0 - p
        for j in range(i + 1, n):
            p *= cols[j]
            yield i + 1, j + 1, 1.0 - p


def eval_f(v: Sequence[float] | np.ndarray) -> float:
    """Evaluate f_n(v) as the product of its terms, in running_terms order."""
    return math.prod(t for _, _, t in running_terms(as_vector(v).tolist()))


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
    """All non-canonical term indices of a sign pattern.

    The all-negative pattern has an empty set: every q_k is then +1.
    """
    q = prefix_classes(pattern)
    n = len(q) - 1
    return NonCanonicalSet(n, frozenset(
        TermIndex(i, j) for j in range(1, n + 1) for i in range(1, j + 1)
        if q[i - 1] != q[j]))


def split_at_zeros(v: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    """Maximal zero-free segments of v, in order.

    f_n(v) factors exactly over the segments: every term whose run
    crosses a zero evaluates to 1.
    """
    arr = as_vector(v)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], arr != 0.0, [0]))))
    return [arr[a:b].copy() for a, b in zip(edges[::2], edges[1::2])]


def pohst_bound(n: int) -> float:
    """The right-hand side 2^floor((n+1)/2) of Pohst's inequality."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(2 ** ((n + 1) // 2))


def leq_with_tol(a: float | np.ndarray, b: float | np.ndarray) -> bool | np.ndarray:
    """a <= b up to REL_TOL relative or ABS_TOL absolute, elementwise."""
    return a <= b + np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(a), np.abs(b)))


def close(a: float, b: float) -> bool:
    """|a - b| within REL_TOL relative or ABS_TOL absolute."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def term_indices(n: int) -> Iterable[TermIndex]:
    """All term indices of the size-n triangle, row by row."""
    for j in range(1, n + 1):
        for i in range(j, 0, -1):
            yield TermIndex(i, j)
