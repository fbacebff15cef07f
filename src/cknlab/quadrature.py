"""Adaptive double-exponential quadrature on the half line.

The integrals this package needs all look like

    integral_0^inf  f(r) * r^p  dr,

with p > -1, or any p where f vanishes fast enough at the origin.
``f`` is smooth on (0, inf), may behave like a power at the origin
and decays (usually like exp(-c r^q)) at infinity.  The half line is cut
at a ``split_point`` a:

* (0, a]   tanh-sinh transform  r = a * sigmoid(pi * sinh t), which
  resolves algebraic endpoint behaviour at 0 to full precision;
* [a, inf) exp-sinh transform   r = a + s * exp(kappa * sinh t).  With a
  decay hint (c, q) and weight r^p, kappa = (pi/2)/q and the scale
  s = max(c^(-1/q), ((p+1)/(c q))^(1/q)) puts the node t = 0 at the peak
  of r^(p+1) exp(-c r^q) (in log r), so the transformed integrand is well
  centred however slow or fast the tail decays and however far out a
  large weight pushes its mass.

Both halves share one trapezoid step h in the transformed variable; each
refinement level halves h and reuses previous samples, so the cost of
level m is the same as all previous levels combined.  Convergence is
declared when successive refinements of the *sum* agree to ``rel_tol``.

A product integrand is given as rows: a callable returning one row per
function (a 1-D array is one row), whose integral is the Gram matrix
integral_0^inf f(r) f(r)^T r^p dr of all pairwise products, from one
refinement loop that evaluates every row once on each level's new
nodes.  An energy integral |v|^2 r^p is the 1 x 1 case.  Each row is
multiplied by sqrt(w r^p) before the product, so rows may take any
finite weight exponent: rows that vanish at the origin absorb a weight
at or below -1.  A row weight at or below -0.9 is centred in the tail
transform as weight 0, the peak of the rows' own mass.

Weights that underflow to zero are masked before the integrand is
evaluated: at extreme nodes the integrand itself may overflow double
range even though its weighted contribution is exactly negligible, and
evaluating it there would poison the sum with inf * 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import (
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    NonFiniteSampleError,
)

__all__ = [
    "QuadratureSpec",
    "IntegrandHandle",
    "QuadratureResult",
    "integrate",
]

# Truncation of the trapezoid in the transformed variable.  Weights
# underflow well inside +-9.2 for every transform used here; nodes beyond
# underflow are masked, so a generous fixed cap is safe.
_T_CAP = 9.2
_H0 = 1.0
_EPS = float(np.finfo(float).eps)
# Row weights at or below this edge are centred as weight 0.
_FOLD_EDGE = -0.9


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and refinement budget for :func:`integrate`.

    Attributes
    ----------
    rel_tol : float
        Relative tolerance on the integral; must lie in (1e-15, 1e-3).
    max_level : int
        Deepest refinement level (step h = 2^-level); in [4, 16].
    split_point : float
        Where the half line is cut between the two transforms; > 0.
    """

    rel_tol: float = 1e-12
    max_level: int = 12
    split_point: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.rel_tol, float) and 1e-15 < self.rel_tol < 1e-3):
            raise DomainError(
                f"rel_tol must be a float in (1e-15, 1e-3), got {self.rel_tol!r}"
            )
        if not (isinstance(self.max_level, int) and 4 <= self.max_level <= 16):
            raise DomainError(
                f"max_level must be an int in [4, 16], got {self.max_level!r}"
            )
        if not (
            isinstance(self.split_point, (int, float))
            and math.isfinite(self.split_point)
            and self.split_point > 0
        ):
            raise DomainError(f"split_point must be finite and > 0, got {self.split_point!r}")


@dataclass(frozen=True)
class IntegrandHandle:
    """A weighted half-line integrand: f(r) r^weight_exponent, or the Gram
    matrix of rows under that weight.

    Attributes
    ----------
    evaluator : callable or None
        Vectorised f: accepts a float ndarray of radii (all > 0), returns
        an ndarray of the same shape.
    weight_exponent : float
        The power p of the explicit r^p weight: > -1 for an evaluator,
        any finite value for rows, which must then vanish fast enough at
        the origin for their products to converge.
    decay_hint : (c, q) or None
        Optional tail scale: the integrand decays roughly like
        exp(-c r^q).  Used only to centre the tail transform; wrong hints
        cost accuracy per level, not correctness.
    rows : callable or None
        Alternative to ``evaluator`` for products (energies |v'|^2, Gram
        products phi_j phi_l): returns a table of shape (rows, n), one
        row per function, or a 1-D array for one function.  The integral
        is the (rows, rows) matrix of all pairwise products of rows, each
        entry converged to ``rel_tol`` relative to its absolute mass (the
        integral of |f_i f_j| r^p).  Every row is multiplied by
        sqrt(w r^p) first, which cannot overflow for convergent integrals
        even where f alone, or r^p, would exceed double range near a
        singular endpoint.  A weight at or below -0.9 is centred in the
        tail transform as weight 0.  Exactly one of ``evaluator``/``rows``
        must be given.
    """

    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    weight_exponent: float = 0.0
    decay_hint: Optional[Tuple[float, float]] = None
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if (self.evaluator is None) == (self.rows is None):
            raise DomainError("exactly one of evaluator/rows must be provided")
        if not callable(self.evaluator if self.rows is None else self.rows):
            raise DomainError("evaluator/rows must be callable")
        p = self.weight_exponent
        if not (isinstance(p, (int, float)) and math.isfinite(p)
                and (self.rows is not None or p > -1.0)):
            raise DivergentIntegralError(
                f"weight_exponent must be finite (and > -1 for an evaluator), got {p!r}"
            )
        if self.decay_hint is not None:
            c, q = self.decay_hint
            if not (math.isfinite(c) and c > 0 and math.isfinite(q) and q > 0):
                raise DomainError(f"decay_hint must be (c > 0, q > 0), got {self.decay_hint!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged integral value with its refinement error estimate (both
    (rows, rows) arrays for a rows integrand)."""

    value: Union[float, np.ndarray]
    err_est: Union[float, np.ndarray]
    levels_used: int
    nodes_used: int


@lru_cache(maxsize=64)
def _grid(level: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, sinh t, cosh t) for the nodes new at this level.

    Level 0 is the full coarse grid at step _H0; level m >= 1 holds the
    odd multiples of h = _H0 / 2^m (the nodes not already present).
    """
    if level == 0:
        j = np.arange(-int(_T_CAP / _H0), int(_T_CAP / _H0) + 1)
        t = j * _H0
    else:
        h = _H0 / 2.0**level
        j_max = int(_T_CAP / h)
        j = np.arange(-j_max, j_max + 1)
        t = j[j % 2 != 0] * h
    return t, np.sinh(t), np.cosh(t)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Stable logistic: never overflows, underflows to 0/1 gracefully.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class _HalfMap:
    """One transformed half of the integration range: produces (r, w)
    node/weight arrays for a level grid."""

    def __init__(self, kind: str, a: float, scale: float, kappa: float):
        self.kind = kind
        self.a = a
        self.scale = scale
        self.kappa = kappa

    def nodes(self, level: int) -> Tuple[np.ndarray, np.ndarray]:
        _, sinh_t, cosh_t = _grid(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.kind == "tanh-sinh":
                u2 = math.pi * sinh_t  # 2 * (pi/2) sinh t
                sig = _sigmoid(u2)
                omega = _sigmoid(-u2)
                r = self.a * sig
                w = self.a * math.pi * cosh_t * sig * omega
            else:  # exp-sinh
                g = self.scale * np.exp(self.kappa * sinh_t)
                r = self.a + g
                w = self.kappa * cosh_t * g
        return r, w


def _build_maps(handle: IntegrandHandle, a: float) -> Tuple[_HalfMap, _HalfMap]:
    if handle.decay_hint is not None:
        c, q = handle.decay_hint
        p = handle.weight_exponent
        if handle.rows is not None and p <= _FOLD_EDGE:
            p = 0.0
        peak = (p + 1.0) / (c * q)
        scale = max(c ** (-1.0 / q), peak ** (1.0 / q))
        kappa = 0.5 * math.pi / q
    else:
        scale = 1.0
        kappa = 0.5 * math.pi
    return (
        _HalfMap("tanh-sinh", a, 1.0, 0.0),
        _HalfMap("exp-sinh", a, scale, kappa),
    )


def _rescue_overflow(
    term: np.ndarray,
    factors: Tuple[np.ndarray, ...],
    r: np.ndarray,
    w: np.ndarray,
    p: float,
    share: float = 1.0,
) -> np.ndarray:
    """Recompute non-finite products of finite parts in log space.

    ``term`` is the product of ``factors`` with ``share`` times the
    weight w r^p (all broadcast along the node axis).  A tiny (denormal)
    integrand value times a huge transformed weight overflows or turns
    into nan even though the true product is negligible; log arithmetic
    settles each such node.  Genuinely divergent nodes stay non-finite
    and are reported by the caller.
    """
    bad = ~np.isfinite(term)
    if not np.any(bad):
        return term
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        rb = np.broadcast_to(r, term.shape)[bad]
        wb = np.broadcast_to(w, term.shape)[bad]
        log_mag = share * (np.log(wb) + p * np.log(rb))
        sign = np.ones(int(np.count_nonzero(bad)))
        for f in factors:
            fb = f[bad]
            log_mag = log_mag + np.log(np.abs(fb))
            sign = sign * np.sign(fb)
        out = term.copy()
        out[bad] = sign * np.exp(log_mag)
    return out


def _row_values(fn: Callable, r: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(r), dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != r.size:
        raise DomainError(
            "rows must return an array matching their input "
            "or a table with one row per function"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = np.broadcast_to(r, vals.shape)[bad][0]
        raise NonFiniteSampleError(f"integrand row returned a non-finite value at r={at!r}")
    return np.atleast_2d(vals)


def _level_sum(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    level: int,
) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray], int]:
    """Weighted integrand sum over the nodes new at this level.

    Returns the signed sum, the sum of magnitudes (the rounding floor of
    any cancellation), and the number of nodes evaluated.  Both sums are
    (rows, rows) matrices for a rows integrand.
    """
    p = float(handle.weight_exponent)
    total = 0.0
    abs_total = 0.0
    n_eval = 0
    for m in maps:
        r, w = m.nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            keep = np.isfinite(r) & (r > 0.0) & np.isfinite(w) & (w > 0.0)
            r = r[keep]
            w = w[keep]
            if r.size == 0:
                continue
            wp = w * np.power(r, p)
            live = wp != 0.0
            r = r[live]
            w = w[live]
            wp = wp[live]
            if r.size == 0:
                continue
            if handle.rows is not None:
                rows = _row_values(handle.rows, r)
                g = np.where(rows == 0.0, 0.0, rows * np.sqrt(wp))
                g = _rescue_overflow(g, (rows,), r, w, p, share=0.5)
                term = g @ g.T
                mag = np.abs(g) @ np.abs(g).T
            else:
                f = np.asarray(handle.evaluator(r), dtype=float)
                if f.shape != r.shape:
                    raise DomainError(
                        "evaluator must return an array of the same shape as its input"
                    )
                bad = ~np.isfinite(f)
                if np.any(bad):
                    raise NonFiniteSampleError(
                        f"integrand returned a non-finite value at r={r[bad][0]!r}"
                    )
                term = np.where(f == 0.0, 0.0, f * wp)
                term = _rescue_overflow(term, (f,), r, w, p)
        if not np.all(np.isfinite(term)):
            if term.ndim == 2:
                raise NonFiniteSampleError(
                    f"weighted Gram table overflowed on nodes r in [{r[0]!r}, {r[-1]!r}]"
                )
            idx = int(np.flatnonzero(~np.isfinite(term))[0])
            raise NonFiniteSampleError(
                f"weighted integrand overflowed at r={r[idx]!r} (weight={wp[idx]!r})"
            )
        if term.ndim == 2:
            total = total + term
            abs_total = abs_total + mag
        else:
            total += float(np.sum(term))
            abs_total += float(np.sum(np.abs(term)))
        n_eval += int(r.size)
    return total, abs_total, n_eval


def _refine(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    spec: QuadratureSpec,
) -> QuadratureResult:
    s0, a0, n = _level_sum(handle, maps, 0)
    value = _H0 * s0
    mass = _H0 * a0
    prev = value
    prev_err = math.inf
    for level in range(1, spec.max_level + 1):
        h = _H0 / 2.0**level
        s, a, n_new = _level_sum(handle, maps, level)
        n += n_new
        value = 0.5 * prev + h * s
        mass = 0.5 * mass + h * a
        err = abs(value - prev)
        scale = np.maximum(abs(value), 1e-300)
        if np.ndim(value) == 2:
            # Off-diagonal Gram entries may cancel to nearly nothing; each
            # is converged relative to its absolute mass instead.
            scale = np.maximum(scale, mass)
        # The sampled mass bounds what summation rounding allows: for
        # cancellation-dominated integrals the achievable error floor is
        # eps * mass, not eps * |value|.
        floor = _EPS * np.maximum(scale, mass)
        if np.all((err <= spec.rel_tol * scale) | (err <= 16.0 * floor)):
            return QuadratureResult(value, err, level, n)
        if np.all(err >= prev_err) and np.all(prev_err <= 1e3 * floor):
            # Refinement hit the rounding floor: report the best level.
            return QuadratureResult(prev, prev_err, level - 1, n)
        prev, prev_err = value, err
    raise NonConvergenceError(
        f"quadrature did not reach rel_tol={spec.rel_tol} within "
        f"max_level={spec.max_level} (last error {float(np.max(err)):.3e})",
        value=value,
        err_est=err,
    )


def integrate(handle: IntegrandHandle, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate f(r) r^p over (0, inf) to relative tolerance.

    Parameters
    ----------
    handle : IntegrandHandle
        The weighted integrand.
    spec : QuadratureSpec
        Tolerance, level budget and split point.

    Returns
    -------
    QuadratureResult
        value, err_est (last refinement difference; an upper estimate of
        the truncation error for integrands in the double-exponential
        convergence class), levels and node count.  value and err_est are
        (rows, rows) arrays for a rows integrand.

    Raises
    ------
    NonConvergenceError
        If max_level is exhausted; carries the partial value/err_est.
    NonFiniteSampleError
        If the integrand returns nan/inf at a contributing node.
    """
    maps = _build_maps(handle, float(spec.split_point))
    return _refine(handle, maps, spec)

