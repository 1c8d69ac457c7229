"""Regulator-discriminant bounds for number fields of degree m.

Remak's inequality bounds log|disc| of a degree-m field by m log m
plus a term built from the regulator and the Hermite constant
gamma_{m-1}.  Pohst's inequality sharpens the combinatorial estimate
behind the additive part to floor(m/2) log 4, which is exactly what
the good-partition machinery certifies.  Natural logarithms throughout.

Hermite constants are known exactly for dimensions 1..8 and 24; other
dimensions fall back to Blichfeldt's upper estimate
gamma_d <= (2/pi) * Gamma(2 + d/2)^(2/d), flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Exact values gamma_d for the dimensions where they are known.
HERMITE_EXACT: dict[int, float] = {
    1: 1.0,
    2: (4.0 / 3.0) ** 0.5,
    3: 2.0 ** (1.0 / 3.0),
    4: 2.0 ** 0.5,
    5: 8.0 ** 0.2,
    6: (64.0 / 3.0) ** (1.0 / 6.0),
    7: 64.0 ** (1.0 / 7.0),
    8: 2.0,
    24: 4.0,
}


@dataclass(frozen=True)
class BoundResult:
    m: int
    regulator: float
    remak: float
    improved: float
    improvement: float
    hermite_value: float
    hermite_source: str


def hermite_constant(d: int) -> tuple[float, str]:
    """gamma_d with its source, exact where known.

    Returns (value, source) with source "exact-table" for d in 1..8 or
    24 and "upper-estimate" otherwise; the estimate uses lgamma so it
    stays finite for any dimension.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d in HERMITE_EXACT:
        return HERMITE_EXACT[d], "exact-table"
    value = (2.0 / math.pi) * math.exp(math.lgamma(2.0 + d / 2.0) * 2.0 / d)
    return value, "upper-estimate"


def _resolve(m: int, regulator: float,
             hermite: float | None) -> tuple[float, str]:
    if not isinstance(m, int) or m < 2:
        raise ValueError("degree m must be an integer >= 2")
    if not regulator > 0:
        raise ValueError("regulator must be positive")
    if hermite is not None:
        if not hermite > 0:
            raise ValueError("hermite constant must be positive")
        return float(hermite), "user"
    return hermite_constant(m - 1)


def _regulator_term(m: int, regulator: float, gamma: float) -> float:
    return math.sqrt(gamma * (m ** 3 - m) / 3.0) * (
        math.sqrt(m) * regulator) ** (1.0 / (m - 1))


def remak_bound(m: int, regulator: float, hermite: float | None = None) -> float:
    """Remak's upper bound on log|disc|:

    m log m + sqrt(gamma_{m-1} (m^3 - m)/3) * (sqrt(m) R)^(1/(m-1)).
    """
    gamma, _ = _resolve(m, regulator, hermite)
    return m * math.log(m) + _regulator_term(m, regulator, gamma)


def improved_bound(m: int, regulator: float, hermite: float | None = None) -> float:
    """The sharpened bound: floor(m/2) log 4 replaces m log m."""
    gamma, _ = _resolve(m, regulator, hermite)
    return (m // 2) * math.log(4.0) + _regulator_term(m, regulator, gamma)


def compare_bounds(m: int, regulator: float,
                   hermite: float | None = None) -> BoundResult:
    """Both bounds side by side.  The improvement m log m - floor(m/2) log 4
    is independent of the regulator, nonnegative for m >= 2, and zero
    exactly at m = 2."""
    gamma, source = _resolve(m, regulator, hermite)
    term = _regulator_term(m, regulator, gamma)
    remak = m * math.log(m) + term
    improved = (m // 2) * math.log(4.0) + term
    return BoundResult(m, regulator, remak, improved, remak - improved,
                       gamma, source)
