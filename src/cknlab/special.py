"""Gamma-family special functions used by the closed-form energy integrals.

Everything downstream (exponential-polynomial moments, closed-form Gram
matrices, the sharp-constant checks) reduces to integrals of the form

    integral_0^inf  r^p exp(-c r^q) dr  =  Gamma((p+1)/q) / (|q| c^((p+1)/q)),

so this module provides ``gamma``, ``log_gamma`` and that weighted
exponential moment with careful domain and overflow handling.  It also
holds the regularised incomplete Gamma functions P(g, x) and Q(g, x),
which give the profiles of the ``thmC-1``/``thmC-2`` families in closed
form.

``gamma`` and ``log_gamma`` are ``math.gamma`` and ``math.lgamma`` on the
positive half line, with this package's errors in place of ``ValueError``
and ``OverflowError``.
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
]

_LOG_DBL_MAX = math.log(sys.float_info.max)
# Incomplete Gamma: relative size of the last series term or continued-
# fraction step at convergence, the iteration cap, and Lentz's guard
# against a zero denominator.
_INC_EPS = 2.0**-53
_INC_MAX_ITERATIONS = 10_000
_LENTZ_TINY = 1e-300


def _positive(name: str, t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"{name} requires a finite argument > 0, got {t!r}")
    return t


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
        If the exact value exceeds double range (t above ~171.62).
    """
    t = _positive("gamma", t)
    try:
        return math.gamma(t)
    except OverflowError:
        raise RangeOverflowError(f"gamma({t!r}) exceeds double-precision range") from None


def log_gamma(t: float) -> float:
    """Natural log of gamma(t) for finite t > 0; never overflows.

    Used for the log-space branch of :func:`weighted_exp_integral` and
    the prefactor of the incomplete Gamma functions.
    """
    return math.lgamma(_positive("log_gamma", t))


def weighted_exp_integral(p: float, c: float, q: float) -> float:
    """Closed form of  integral_0^inf  r^p exp(-c r^q) dr.

    Equals Gamma((p+1)/q) / (|q| * c^((p+1)/q)), for a decay power q of
    either sign: q > 0 decays at infinity and needs p > -1 for the
    origin, q < 0 decays at the origin and needs p < -1 for infinity, so
    that (p+1)/q > 0 either way.

    Parameters
    ----------
    p : float
        Power weight exponent; p > -1 when q > 0, p < -1 when q < 0.
    c : float
        Exponential rate, c > 0.
    q : float
        Exponential power, finite and nonzero.

    Raises
    ------
    DivergentIntegralError
        If (p+1)/q <= 0, c <= 0 or q = 0.
    RangeOverflowError
        If the value exceeds double range.  Underflow to 0.0 is allowed.
    """
    p, c, q = float(p), float(c), float(q)
    for name, val in (("p", p), ("c", c), ("q", q)):
        if not math.isfinite(val):
            raise DomainError(f"weighted_exp_integral argument {name}={val!r} is not finite")
    if q > 0.0 and p <= -1.0:
        raise DivergentIntegralError(
            f"weight exponent p={p} <= -1: integral diverges at the origin"
        )
    if q < 0.0 and p >= -1.0:
        raise DivergentIntegralError(
            f"weight exponent p={p} >= -1 with decay power q={q} < 0: integral diverges "
            "at infinity"
        )
    if c <= 0.0:
        raise DivergentIntegralError(f"decay rate c={c} <= 0: integral diverges at infinity")
    if q == 0.0:
        raise DivergentIntegralError(f"decay power q={q} is zero: integrand does not decay")

    s = (p + 1.0) / q
    scale = s * math.log(c)
    if s <= 171.0 and abs(scale) <= 600.0:
        return gamma(s) / (abs(q) * c**s)
    # Log-space branch for extreme magnitudes.
    lg = log_gamma(s) - scale - math.log(abs(q))
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
