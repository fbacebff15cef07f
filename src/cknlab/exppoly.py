"""Exponential polynomials: finite sums  sum_j c_j r^(g_j) exp(-b r^q).

Every closed-form radial profile in this package (the extremal families,
the variational basis functions, their derivatives) lives in this class,
which is closed under differentiation, pointwise products (rates add)
and dilation, and whose weighted moments

    integral_0^inf  poly(r) r^p dr

reduce termwise to :func:`cknlab.special.weighted_exp_integral`.  That is
what makes the dual closed-form/quadrature energy paths cheap.

Real (non-integer) powers are allowed; evaluation is only ever requested
at r > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .errors import DivergentIntegralError, DomainError, RangeOverflowError
from .special import weighted_exp_integral

__all__ = ["ExpPoly", "evaluate"]

# Powers/coefficients closer than this are merged/dropped when building.
_MERGE_TOL = 1e-12


def _normalize(terms: Iterable[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    merged: Dict[float, float] = {}
    for g, c in terms:
        g = float(g)
        c = float(c)
        if c == 0.0:
            continue
        # A finite key equal to g absorbs it: no earlier key is within
        # tolerance of it, or it would have absorbed the key itself.  (An
        # infinite power matches no key in the scan, as inf - inf is nan.)
        if g in merged and math.isfinite(g):
            merged[g] += c
            continue
        # Merge powers that are equal up to rounding of exponent arithmetic.
        for key in merged:
            if abs(key - g) <= _MERGE_TOL * max(1.0, abs(key)):
                merged[key] += c
                break
        else:
            merged[g] = c
    return tuple(sorted((g, c) for g, c in merged.items() if c != 0.0))


@dataclass(frozen=True)
class ExpPoly:
    """sum_j c_j r^(g_j) * exp(-rate * r^(decay_power)).

    ``terms`` holds (power, coefficient) pairs; an empty tuple is the
    zero function.  ``rate`` = 0 means no exponential factor (then
    ``decay_power`` is irrelevant but kept for algebra).
    """

    terms: Tuple[Tuple[float, float], ...]
    rate: float = 0.0
    decay_power: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalize(self.terms))
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise DomainError(f"rate must be finite and >= 0, got {self.rate!r}")
        if not (math.isfinite(self.decay_power) and self.decay_power > 0.0):
            raise DomainError(f"decay_power must be finite and > 0, got {self.decay_power!r}")

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_power(self) -> float:
        if not self.terms:
            return math.inf
        return self.terms[0][0]

    # -- evaluation ------------------------------------------------------

    def __call__(self, r) -> np.ndarray:
        return evaluate((self,), r)[0]

    # -- algebra ---------------------------------------------------------

    def derivative(self) -> "ExpPoly":
        new = []
        for g, c in self.terms:
            if g != 0.0:
                new.append((g - 1.0, c * g))
            if self.rate != 0.0:
                new.append((g + self.decay_power - 1.0,
                            -c * self.rate * self.decay_power))
        if new and not any(c for _, c in new):
            raise RangeOverflowError(
                "every coefficient c g and -c rate q of the derivative underflows "
                f"double-precision range (the largest |c| is "
                f"{max(abs(c) for _, c in self.terms)!r}, rate {self.rate!r}, "
                f"q {self.decay_power!r})")
        return ExpPoly(tuple(new), self.rate, self.decay_power)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if self.rate != 0.0 and other.rate != 0.0 and self.decay_power != other.decay_power:
            raise DomainError(
                "cannot multiply exponential polynomials with different decay powers "
                f"({self.decay_power} vs {other.decay_power})"
            )
        dp = self.decay_power if self.rate != 0.0 else other.decay_power
        new = [(g1 + g2, c1 * c2) for g1, c1 in self.terms for g2, c2 in other.terms]
        if new and not any(c for _, c in new):
            # Building would drop every term: a zero polynomial for a
            # product of two nonzero ones.
            raise RangeOverflowError(
                "every coefficient of the product underflows double-precision range "
                f"(the largest factors are {max(abs(c) for _, c in self.terms)!r} and "
                f"{max(abs(c) for _, c in other.terms)!r})")
        return ExpPoly(tuple(new), self.rate + other.rate, dp)

    def scaled(self, s: float) -> "ExpPoly":
        return ExpPoly(tuple((g, c * s) for g, c in self.terms), self.rate, self.decay_power)

    def dilated(self, lam: float) -> "ExpPoly":
        """The profile r -> self(lam * r)."""
        if not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"dilation factor must be finite and > 0, got {lam!r}")
        new = tuple((g, c * lam**g) for g, c in self.terms)
        return ExpPoly(new, self.rate * lam**self.decay_power, self.decay_power)

    # -- moments ---------------------------------------------------------

    def moment(self, p: float) -> float:
        """integral_0^inf self(r) r^p dr (requires rate > 0 and every
        term power to satisfy g + p > -1).

        Raises RangeOverflowError if a coefficient is not finite: the
        product of two polynomials with coefficients past about 1e154 has
        coefficients that overflow to inf.
        """
        if self.is_zero:
            return 0.0
        if self.rate == 0.0:
            raise DivergentIntegralError(
                "moment of a pure polynomial (rate = 0) diverges at infinity"
            )
        p = float(p)
        if self.min_power + p <= -1.0:
            raise DivergentIntegralError(
                f"moment diverges at the origin: minimum combined exponent "
                f"{self.min_power + p} <= -1"
            )
        if not all(math.isfinite(c) for _, c in self.terms):
            raise RangeOverflowError(
                "a coefficient of the moment's integrand exceeds double-precision range")
        return math.fsum(
            c * weighted_exp_integral(g + p, self.rate, self.decay_power)
            for g, c in self.terms
        )


def evaluate(polys: Iterable[ExpPoly], r) -> List[np.ndarray]:
    """The values at r > 0 of exponential polynomials, each term as
    c exp(g log r - rate r^q) and a g = 0 term as c exp(-rate r^q).

    log r, and rate r^q for each distinct (rate, q), are computed once
    for all of them.  Where r^g would overflow against an underflowing
    exponential the exponent is -inf, so the value is 0, not inf * 0.
    """
    r = np.asarray(r, dtype=float)
    values = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        log_r = np.log(r)
        decays: Dict[Tuple[float, float], np.ndarray] = {}
        for poly in polys:
            key = (poly.rate, poly.decay_power)
            if key not in decays:
                decays[key] = poly.rate * np.power(r, poly.decay_power) if poly.rate else 0.0
            decay = decays[key]
            acc = np.zeros_like(log_r)
            for g, c in poly.terms:
                acc += c * np.exp(g * log_r - decay if g else -decay)
            values.append(acc)
    return values
