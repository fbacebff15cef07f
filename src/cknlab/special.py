"""Gamma-family special functions used by the closed-form energy integrals.

Everything downstream (exponential-polynomial moments, closed-form Gram
matrices, the sharp-constant checks) reduces to integrals of the form

    integral_0^inf  r^p exp(-c r^q) dr  =  Gamma((p+1)/q) / (q c^((p+1)/q)),

so this module provides ``gamma``, ``log_gamma`` and that weighted
exponential moment with careful domain and overflow handling.  It also
holds the regularised incomplete Gamma functions P(g, x) and Q(g, x),
which give the profiles of the ``thmC-1``/``thmC-2`` families in closed
form.

``gamma`` uses the Lanczos approximation (g = 7, 9 coefficients) rather
than ``math.gamma`` so the kernel is self-contained and testable against
independent oracles; arguments above ~12 are range-reduced through the
recurrence Gamma(t) = (t-1) Gamma(t-1), which keeps the power/exponential
rounding error flat (~1e-14 relative) across the whole double range
instead of degrading near the overflow edge.
"""

from __future__ import annotations

import math
import sys
from typing import Tuple

import numpy as np

from .errors import DivergentIntegralError, DomainError, NonConvergenceError, RangeOverflowError

__all__ = [
    "gamma",
    "log_gamma",
    "weighted_exp_integral",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "GAMMA_OVERFLOW_EDGE",
]

# Lanczos g = 7, n = 9 coefficient set (standard double-precision choice).
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_P = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# gamma(t) exceeds the largest double just above this argument.
GAMMA_OVERFLOW_EDGE = 171.61
_LOG_DBL_MAX = math.log(sys.float_info.max)
# Upper end of the direct-evaluation window; larger arguments are
# range-reduced so the t^(z+1/2) power never carries a huge exponent.
_DIRECT_CAP = 12.0
# Incomplete Gamma: relative size of the last series term or continued-
# fraction step at convergence, the iteration cap, and Lentz's guard
# against a zero denominator.
_INC_EPS = 2.0**-53
_INC_MAX_ITERATIONS = 10_000
_LENTZ_TINY = 1e-300


def _lanczos_series(z: float) -> float:
    """Partial-fraction series A_g(z) for z >= -0.5 (argument convention:
    caller passes z = t - 1)."""
    acc = _LANCZOS_C0
    for i, p in enumerate(_LANCZOS_P):
        acc += p / (z + i + 1.0)
    return acc


def _gamma_direct(t: float) -> float:
    # Core Lanczos formula, reliable for 0.5 <= t <= _DIRECT_CAP.
    z = t - 1.0
    base = z + 7.5
    series = _lanczos_series(z)
    return math.sqrt(2.0 * math.pi) * base ** (z + 0.5) * math.exp(-base) * series


def gamma(t: float) -> float:
    """Gamma function on the positive half line.

    Parameters
    ----------
    t : float
        Argument; must be finite and > 0.

    Returns
    -------
    float
        Gamma(t), always finite.

    Raises
    ------
    DomainError
        If ``t`` is not a finite positive number.
    RangeOverflowError
        If the exact value exceeds double range (t above ~171.61).
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"gamma requires a finite argument > 0, got {t!r}")
    if t > GAMMA_OVERFLOW_EDGE and log_gamma(t) > _LOG_DBL_MAX:
        raise RangeOverflowError(
            f"gamma({t!r}) exceeds double-precision range "
            f"(argument above ~{GAMMA_OVERFLOW_EDGE})"
        )
    if t < 0.5:
        # Reflection; sin(pi t) > 0 on (0, 1/2).
        value = math.pi / (math.sin(math.pi * t) * _gamma_direct(1.0 - t))
    elif t <= _DIRECT_CAP:
        value = _gamma_direct(t)
    else:
        # Recurrence down to s in (_DIRECT_CAP - 1, _DIRECT_CAP]:
        # Gamma(t) = Gamma(s) * s (s+1) ... (t-1).
        steps = math.ceil(t - _DIRECT_CAP)
        s = t - steps
        prod = 1.0
        for j in range(steps):
            prod *= s + j
        value = _gamma_direct(s) * prod
    if not math.isfinite(value):
        raise RangeOverflowError(f"gamma({t!r}) exceeds double-precision range")
    return value


def log_gamma(t: float) -> float:
    """Natural log of gamma(t) for finite t > 0.

    Never overflows in the useful range; used for the log-space branch of
    :func:`weighted_exp_integral` and the overflow pre-check of
    :func:`gamma`.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"log_gamma requires a finite argument > 0, got {t!r}")
    if t < 0.5:
        return math.log(math.pi) - math.log(math.sin(math.pi * t)) - log_gamma(1.0 - t)
    z = t - 1.0
    base = z + 7.5
    return (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * math.log(base)
        - base
        + math.log(_lanczos_series(z))
    )


def weighted_exp_integral(p: float, c: float, q: float) -> float:
    """Closed form of  integral_0^inf  r^p exp(-c r^q) dr.

    Equals Gamma((p+1)/q) / (q * c^((p+1)/q)).

    Parameters
    ----------
    p : float
        Power weight exponent; must satisfy p > -1 (else the integral
        diverges at the origin).
    c : float
        Exponential rate, c > 0.
    q : float
        Exponential power, q > 0.

    Raises
    ------
    DivergentIntegralError
        If p <= -1, c <= 0 or q <= 0.
    RangeOverflowError
        If the value exceeds double range.  Underflow to 0.0 is allowed.
    """
    p, c, q = float(p), float(c), float(q)
    for name, val in (("p", p), ("c", c), ("q", q)):
        if not math.isfinite(val):
            raise DomainError(f"weighted_exp_integral argument {name}={val!r} is not finite")
    if p <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent p={p} <= -1: integral diverges at the origin"
        )
    if c <= 0.0:
        raise DivergentIntegralError(f"decay rate c={c} <= 0: integral diverges at infinity")
    if q <= 0.0:
        raise DivergentIntegralError(f"decay power q={q} <= 0: integrand does not decay")

    s = (p + 1.0) / q
    scale = s * math.log(c)
    if s <= 171.0 and abs(scale) <= 600.0:
        return gamma(s) / (q * c**s)
    # Log-space branch for extreme magnitudes.
    lg = log_gamma(s) - scale - math.log(q)
    if lg > _LOG_DBL_MAX:
        raise RangeOverflowError(
            f"weighted_exp_integral(p={p}, c={c}, q={q}) exceeds double-precision range"
        )
    if lg < -745.0:
        return 0.0
    return math.exp(lg)


def _incomplete_gamma(g: float, x) -> Tuple[np.ndarray, np.ndarray]:
    """P(g, x) and Q(g, x) = 1 - P(g, x), elementwise over ``x``.

    Both carry the prefactor x^g e^(-x) / Gamma(g), taken in log space.
    Below x = g + 1 the power series
    P = prefactor * sum_n x^n / (g (g+1) ... (g+n)) gives P; above it the
    continued fraction Q = prefactor / (x+1-g - 1(1-g)/(x+3-g - 2(2-g)/...)),
    evaluated by the modified Lentz method, gives Q.  The other one is
    its complement.
    """
    g = float(g)
    if not (math.isfinite(g) and g > 0.0):
        raise DomainError(f"incomplete Gamma requires a finite order g > 0, got {g!r}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if np.any(np.isnan(flat)) or np.any(flat < 0.0):
        raise DomainError("incomplete Gamma requires arguments x >= 0")
    p = np.where(flat > 0.0, 1.0, 0.0)  # P(g, 0) = 0, P(g, inf) = 1
    q = 1.0 - p
    live = np.flatnonzero((flat > 0.0) & np.isfinite(flat))
    xl = flat[live]
    with np.errstate(under="ignore"):
        prefactor = np.exp(g * np.log(xl) - xl - log_gamma(g))

    series = xl < g + 1.0
    xs = xl[series]
    term = np.full(xs.shape, 1.0 / g)
    total = term.copy()
    for n in range(1, _INC_MAX_ITERATIONS + 1):
        if np.all(term <= _INC_EPS * total):
            break
        term = term * (xs / (g + n))
        total += term
    else:
        raise NonConvergenceError(
            f"incomplete Gamma series for g={g} did not converge in "
            f"{_INC_MAX_ITERATIONS} terms"
        )
    p_series = prefactor[series] * total

    xf = xl[~series]
    b = xf + 1.0 - g
    c = np.full(xf.shape, 1.0 / _LENTZ_TINY)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(xf.shape, dtype=bool)
    for i in range(1, _INC_MAX_ITERATIONS + 1):
        if np.all(done):
            break
        an = -i * (i - g)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _LENTZ_TINY, _LENTZ_TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _LENTZ_TINY, _LENTZ_TINY, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) <= _INC_EPS
    else:
        raise NonConvergenceError(
            f"incomplete Gamma continued fraction for g={g} did not converge in "
            f"{_INC_MAX_ITERATIONS} steps"
        )
    q_fraction = prefactor[~series] * h

    p[live[series]], q[live[series]] = p_series, 1.0 - p_series
    p[live[~series]], q[live[~series]] = 1.0 - q_fraction, q_fraction
    return p.reshape(x.shape), q.reshape(x.shape)


def regularized_gamma_p(g: float, x) -> np.ndarray:
    """Regularised lower incomplete Gamma P(g, x) = gamma(g, x) / Gamma(g)
    for an order g > 0 and arguments 0 <= x <= inf.

    Raises
    ------
    DomainError
        If g is not a finite positive number or some x is negative or nan.
    NonConvergenceError
        If the series or the continued fraction does not converge.
    """
    return _incomplete_gamma(g, x)[0]


def regularized_gamma_q(g: float, x) -> np.ndarray:
    """Regularised upper incomplete Gamma Q(g, x) = Gamma(g, x) / Gamma(g)
    = 1 - P(g, x); the same domain and errors as :func:`regularized_gamma_p`."""
    return _incomplete_gamma(g, x)[1]
