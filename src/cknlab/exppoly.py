"""Exponential polynomials: finite sums  sum_j c_j r^(g_j) exp(-b r^q).

Every radial profile in this package (the extremal families, the
variational basis functions, their derivatives) lives in this class,
which is closed under differentiation, pointwise products (rates add)
and dilation.  The decay power q takes either sign: q > 0 decays at
infinity, q < 0 at the origin (the flat-origin "thmC-2" profiles).  Its
weighted moments

    integral_0^inf  poly(r) r^p dr

are sums over ladders: terms whose powers g0 + m q differ by whole steps
of q, from the power g0 that leads where the decay does not reach (the
lowest, at the origin, for q > 0; the highest, at infinity, for q < 0).
Since Gamma(s + 1) = s Gamma(s), the moments of a ladder's terms are
W(g0 + p) (s0)_m b^(-m), s0 = (g0 + p + 1)/q, which converge when
s0 > 0, with W :func:`cknlab.special.weighted_exp_integral` and (s0)_m
the rising factorial, so a ladder takes one Gamma factor times a
rising-factorial sum.  The square of a one-ladder polynomial is again
one ladder, whose coefficients are the autoconvolution of the
polynomial's: ``square_moments`` gives its moments without building the
product.  A
sum whose rounding could reach ``_LADDER_RTOL`` of its value (one that
cancels) is redone exactly.  That is what makes the dual
closed-form/quadrature energy paths cheap.

Real (non-integer) powers are allowed; evaluation is only ever requested
at r > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergentIntegralError, DomainError, RangeOverflowError
from .special import weighted_exp_integral

__all__ = ["ExpPoly", "evaluate"]

# A power this close to another, or to a ladder's rung, relative to the
# larger of 1 and the powers' size, is the same power: that is the
# rounding of the exponent arithmetic that made it (at most 4 units of
# 2^-53 on the extremal and coefficient profiles and their squares at 310
# weights), not a power of its own, whose moment the other's would get
# wrong.  Building merges such powers, and a ladder takes such a term on
# its rung.
_RUNG_TOL = 2.0**-49
# A ladder takes terms up to this many steps q from its first power; a
# term further on starts a ladder of its own, so that the rising factorial
# takes few steps.
_MAX_RUNG = 64
# A float ladder sum whose rounding bound exceeds this, relative to its
# value, is redone exactly.  The energies of a profile are checked against
# quadrature at 1e-9 and the golden corpus compares them at 1e-10, so a sum
# that could be wrong in its eleventh digit is one that cancels; sums that
# do not cancel stay well below it (at most 5e-12 on the benchmark's
# profiles) and stay in floats.
_LADDER_RTOL = 1e-11
_UNIT_ROUNDOFF = 2.0**-53


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
            if abs(key - g) <= _RUNG_TOL * max(1.0, abs(key)):
                merged[key] += c
                break
        else:
            merged[g] = c
    return tuple(sorted((g, c) for g, c in merged.items() if c != 0.0))


def _check_coefficients(terms: Sequence[Tuple[float, float]], what: str) -> None:
    """Raise if a coefficient of ``what``, computed from finite ones, has
    overflowed."""
    for _, c in terms:
        if not math.isfinite(c):
            raise RangeOverflowError(
                f"a coefficient of {what} exceeds double-precision range")


def _check_product_powers(terms1, terms2) -> None:
    """Raise if a power of the product of two term lists overflows.  Terms
    ascend in power, so the extreme sums are those of the ends."""
    if terms1 and terms2:
        for g1, g2 in ((terms1[0][0], terms2[0][0]), (terms1[-1][0], terms2[-1][0])):
            if not math.isfinite(g1 + g2):
                raise RangeOverflowError(
                    f"the power {g1!r} + {g2!r} of the product exceeds double-precision range")


def _ladders(terms: Tuple[Tuple[float, float], ...], q: float) -> List[Tuple[float, List[float]]]:
    """Terms in ascending power grouped into ladders: (g0, [c_0, c_1, ...])
    with c_m the coefficient of r^(g0 + m q), g0 the ladder's first power,
    its lowest for q > 0 and its highest for q < 0.  The first ladder
    starts at the power that leads where the decay does not reach.  A
    power within rounding (``_RUNG_TOL``) of a rung is taken to be on it."""
    ladders: List[Tuple[float, List[float]]] = []
    for g, c in (terms if q > 0.0 else reversed(terms)):
        for base, coefs in ladders:
            steps = (g - base) / q
            if steps <= _MAX_RUNG + 0.5:
                m = round(steps)
                if abs(g - (base + m * q)) <= _RUNG_TOL * max(1.0, abs(g), abs(base)):
                    coefs.extend([0.0] * (m + 1 - len(coefs)))
                    coefs[m] += c
                    break
        else:
            ladders.append((g, [c]))
    return ladders


def _autoconvolution(coefs: List[float]) -> Tuple[List[float], List[float]]:
    """h[m] = sum_(i+j=m) c_i c_j in floats, and the sums of the products'
    magnitudes, which bound |h[m]| and its rounding."""
    n = len(coefs)
    h, mag = [0.0] * (2 * n - 1), [0.0] * (2 * n - 1)
    for i, c in enumerate(coefs):
        if c:
            t = c * c
            h[2 * i] += t
            mag[2 * i] += abs(t)
            twice = 2.0 * c
            for j in range(i + 1, n):
                t = twice * coefs[j]
                h[i + j] += t
                mag[i + j] += abs(t)
    return h, mag


def _exact_rungs(coefs: List[float], window: Optional[Tuple[int, int]]) -> Tuple[List[int], int]:
    """The rung coefficients exactly, as integers over one common
    denominator: those of ``coefs``, or for a ``window`` (lead, count) rungs
    lead to lead + count - 1 of their autoconvolution."""
    ratios = [c.as_integer_ratio() for c in coefs]
    den = max(d for _, d in ratios)  # powers of two, so each one divides den
    ints = [n * (den // d) for n, d in ratios]
    if window is None:
        return ints, den
    lead, count = window
    last = len(ints) - 1
    square = [sum(ints[i] * ints[m - i] for i in range(max(0, m - last), min(m, last) + 1))
              for m in range(lead, lead + count)]
    return square, den * den


def _exact_ladder_sum(ints: List[int], den: int, s0: float, rate: float) -> float:
    """sum_m (ints[m] / den) (s0)_m rate^(-m), rounded once.  In integers,
    from the exact dyadic values of the floats s0 and rate, by Horner's rule
    from the top rung: h_0 + x_0 (h_1 + x_1 (h_2 + ...)), x_m = (s0 + m)/rate."""
    s_num, s_den = s0.as_integer_ratio()
    r_num, r_den = rate.as_integer_ratio()
    step = s_den * r_num  # the denominator of every x_m
    top = len(ints) - 1
    num = 0
    for m in range(top, -1, -1):
        num = ints[m] * step ** (top - m) + (s_num + m * s_den) * r_den * num
    try:
        return num / (den * step**top)  # int / int: correctly rounded
    except OverflowError:
        raise RangeOverflowError(
            "the exact sum of a moment's ladder exceeds double-precision range") from None


# One ladder of a moment's integrand: (g0, h, mag, slack, coefs, window) for
# sum_m h[m] r^(g0 + m q) in floats, |h[m]| <= mag[m], the rounding of each
# h[m] at most slack * 2^-53 mag[m], and the exact h from ``_exact_rungs(coefs,
# window)``.
_Ladder = Tuple[float, List[float], List[float], int, List[float], Optional[Tuple[int, int]]]


def _ladder_moment(ladder: _Ladder, p: float, rate: float, q: float) -> float:
    """integral_0^inf sum_m h[m] r^(g0 + m q) exp(-rate r^q) r^p dr
    = W(g0 + p) sum_m h[m] (s0)_m rate^(-m), s0 = (g0 + p + 1)/q.

    The sum is taken in floats, with f_m = (s0)_m rate^(-m) by its
    recurrence (three roundings a step), and redone exactly when its
    rounding bound exceeds ``_LADDER_RTOL`` of its value.  That bound is
    2 (slack + 4 M) 2^-53 sum_m mag[m] f_m over M rungs: to first order in
    2^-53, each term is off by slack roundings of mag[m] from h[m], and by
    at most 3 M roundings of f_m, one of the product and M of the additions
    of its share; the factor 2 covers the higher orders and the rounding of
    the bound itself.
    """
    base, h, mag, slack, coefs, window = ladder
    low = base + p
    w0 = weighted_exp_integral(low, rate, q)
    s0 = (low + 1.0) / q
    total, size = h[0], mag[0]
    f = 1.0
    for m in range(len(h) - 1):
        f = f * (s0 + m) / rate
        total += h[m + 1] * f
        size += mag[m + 1] * f
    if not math.isfinite(size):  # a coefficient is not finite, or a term overflows
        raise RangeOverflowError(
            "a coefficient or term of the moment's integrand exceeds double-precision range")
    if 2.0 * (slack + 4 * len(h)) * _UNIT_ROUNDOFF * size > _LADDER_RTOL * abs(total):
        total = _exact_ladder_sum(*_exact_rungs(coefs, window), s0, rate)
    value = w0 * total
    if not math.isfinite(value):
        raise RangeOverflowError(
            f"the moment of weight r^{p!r} exceeds double-precision range")
    return value


@dataclass(frozen=True)
class ExpPoly:
    """sum_j c_j r^(g_j) * exp(-rate * r^(decay_power)).

    ``terms`` holds (power, coefficient) pairs, given finite; an empty
    tuple is the zero function.  ``decay_power`` q is finite and nonzero:
    the factor decays at infinity for q > 0 and at the origin for q < 0.
    ``rate`` = 0 means no exponential factor (then q is irrelevant but
    kept for algebra).
    """

    terms: Tuple[Tuple[float, float], ...]
    rate: float = 0.0
    decay_power: float = 1.0

    def __post_init__(self) -> None:
        raw = self.terms
        object.__setattr__(self, "terms", _normalize(raw))
        for g, c in self.terms:
            if not math.isfinite(g):
                raise DomainError(f"term powers must be finite, got {g!r}")
            if not math.isfinite(c):
                # A nan or inf given is bad input; a sum of finite
                # coefficients beyond range is left to the moments.
                for _, given in raw:
                    if not math.isfinite(given):
                        raise DomainError(f"term coefficients must be finite, got {given!r}")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise DomainError(f"rate must be finite and >= 0, got {self.rate!r}")
        if not (math.isfinite(self.decay_power) and self.decay_power != 0.0):
            raise DomainError(f"decay_power must be finite and nonzero, got {self.decay_power!r}")

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_power(self) -> float:
        """The power that leads where the decay does not reach: the lowest
        (at the origin) for q > 0, the highest (at infinity) for q < 0;
        +inf or -inf there for the zero polynomial."""
        if not self.terms:
            return math.copysign(math.inf, self.decay_power)
        return self.terms[0 if self.decay_power > 0.0 else -1][0]

    # -- evaluation ------------------------------------------------------

    def __call__(self, r) -> np.ndarray:
        return evaluate((self,), r)[0]

    # -- algebra ---------------------------------------------------------

    def derivative(self) -> "ExpPoly":
        if self.rate != 0.0 and self.terms:
            # The power g + q - 1 of the decay's term is extreme at the
            # highest g for q > 0 and at the lowest for q < 0.
            end = self.terms[-1 if self.decay_power > 0.0 else 0][0]
            if not math.isfinite(end + self.decay_power - 1.0):
                raise RangeOverflowError(
                    f"the power {end!r} + q - 1 of the derivative exceeds "
                    f"double-precision range (q {self.decay_power!r})")
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
        _check_coefficients(new, "the derivative")
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
        _check_product_powers(self.terms, other.terms)
        new = [(g1 + g2, c1 * c2) for g1, c1 in self.terms for g2, c2 in other.terms]
        _check_coefficients(new, "the product")
        rate = self.rate + other.rate
        if not math.isfinite(rate):
            raise RangeOverflowError(
                f"the rate {self.rate!r} + {other.rate!r} of the product exceeds "
                "double-precision range")
        if new and not any(c for _, c in new):
            # Building would drop every term: a zero polynomial for a
            # product of two nonzero ones.
            raise RangeOverflowError(
                "every coefficient of the product underflows double-precision range "
                f"(the largest factors are {max(abs(c) for _, c in self.terms)!r} and "
                f"{max(abs(c) for _, c in other.terms)!r})")
        return ExpPoly(tuple(new), rate, dp)

    def scaled(self, s: float) -> "ExpPoly":
        if not math.isfinite(s):
            raise DomainError(f"scale factor must be finite, got {s!r}")
        new = tuple((g, c * s) for g, c in self.terms)
        _check_coefficients(new, "the scaled polynomial")
        return ExpPoly(new, self.rate, self.decay_power)

    def dilated(self, lam: float) -> "ExpPoly":
        """The profile r -> self(lam * r).

        Raises RangeOverflowError where a power lam^g of a term, its
        coefficient c lam^g or the dilated rate leaves double-precision
        range, a rate that underflows to zero included: that profile would
        silently lose its decay.
        """
        if not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"dilation factor must be finite and > 0, got {lam!r}")
        try:
            new = tuple((g, c * lam**g) for g, c in self.terms)
            rate = self.rate * lam**self.decay_power
        except OverflowError:
            raise RangeOverflowError(
                f"a power lam^g or lam^q of the dilation factor lam = {lam!r} exceeds "
                "double-precision range") from None
        if not math.isfinite(rate) or (self.rate != 0.0 and rate == 0.0):
            raise RangeOverflowError(
                f"the rate {self.rate!r} dilated by {lam!r} (q {self.decay_power!r}) leaves "
                "double-precision range")
        _check_coefficients(new, "the dilated polynomial")
        return ExpPoly(new, rate, self.decay_power)

    # -- moments ---------------------------------------------------------

    def moment(self, p: float) -> float:
        """integral_0^inf self(r) r^p dr (requires rate > 0 and
        (g + p + 1)/q > 0 for every term power g), one ladder at a time
        (see the module docstring).

        Raises RangeOverflowError where a coefficient (a sum of finite
        ones on one power), a term of a ladder's sum or the moment itself
        exceeds double-precision range.
        """
        if self.is_zero:
            return 0.0
        self._check_rate()
        p = float(p)
        self._check_end(self.lead_power + p)
        return math.fsum(
            _ladder_moment((base, coefs, [abs(c) for c in coefs], 0, coefs, None),
                           p, self.rate, self.decay_power)
            for base, coefs in _ladders(self.terms, self.decay_power))

    def square_moments(self, powers: Sequence[float]) -> List[float]:
        """[integral_0^inf self(r)^2 r^p dr for p in powers], in order.

        On one ladder, the square's coefficients are the autoconvolution of
        self's and each moment takes one Gamma factor (see the module
        docstring); otherwise the square is built as ``self * self``.  The
        errors are those of ``(self * self).moment(p)``.
        """
        ladders = _ladders(self.terms, self.decay_power)
        if len(ladders) != 1:
            square = self * self
            return [square.moment(p) for p in powers]
        _check_product_powers(self.terms, self.terms)
        (base, coefs), = ladders
        h, mag = _autoconvolution(coefs)
        lead, count = 0, len(h)
        if not (h[0] and h[-1]):  # rungs whose every product underflows
            nonzero = [m for m, t in enumerate(h) if t]
            if not nonzero:
                # The product would drop every term: a zero polynomial for
                # the square of a nonzero one.
                largest = max(abs(c) for c in coefs)
                raise RangeOverflowError(
                    "every coefficient of the product underflows double-precision range "
                    f"(the largest factors are {largest!r} and {largest!r})")
            lead, count = nonzero[0], nonzero[-1] + 1 - nonzero[0]
            h, mag = h[lead:lead + count], mag[lead:lead + count]
        self._check_rate()
        low = base + base + lead * self.decay_power
        # Each h[m] sums at most len(coefs) products, one rounding each.
        ladder = (low, h, mag, len(coefs), coefs, (lead, count))
        rate = 2.0 * self.rate
        moments = []
        for p in powers:
            p = float(p)
            self._check_end(low + p)
            moments.append(_ladder_moment(ladder, p, rate, self.decay_power))
        return moments

    def _check_rate(self) -> None:
        if self.rate == 0.0:
            raise DivergentIntegralError(
                "moment of a pure polynomial (rate = 0) diverges at infinity"
            )

    def _check_end(self, lead: float) -> None:
        """A moment whose combined exponent ``lead`` leads where the decay
        does not reach converges there."""
        if self.decay_power > 0.0 and lead <= -1.0:
            raise DivergentIntegralError(
                f"moment diverges at the origin: minimum combined exponent {lead} <= -1"
            )
        if self.decay_power < 0.0 and lead >= -1.0:
            raise DivergentIntegralError(
                f"moment diverges at infinity: maximum combined exponent {lead} >= -1"
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
