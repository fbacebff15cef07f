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
  large weight pushes its mass.  A caller that knows better where the
  mass ends gives the scale itself (``IntegrandHandle.tail_scale``).

Both halves share one trapezoid step h in the transformed variable; each
refinement level halves h and reuses previous samples, so the cost of
level m is the same as all previous levels combined.  Convergence is
declared when successive refinements of the *sum* agree to ``rel_tol``.
The new nodes of a level, from both halves, are evaluated together, and
rows in batches of at most 256 nodes, which bounds the memory a wide
stack of tables takes.

A product integrand is given as rows: a callable returning a stack of
T tables, one per weight exponent (p_1, ..., p_T), each with one row
per function, whose integral is one Gram matrix per table, table i
weighted by r^p_i: integral_0^inf f(r) f(r)^T r^p_i dr of all pairwise
products of its rows.  A single exponent p is the stack (p,), whose
one table the callable may also return as a 2-D table (or a 1-D array
for one function).  An energy integral |v|^2 r^p is a 1 x 1 table.
All tables share one node ladder and one refinement loop, which
evaluates the callable once on each batch of new nodes, so the parts of
one form triple share their nodes and whatever the tables have in
common.  Each row is multiplied by sqrt(w r^p) before the
product, so rows may take any finite weight exponent: rows that vanish
at the origin absorb a weight at or below -1.  A row weight at or below
-0.9 is centred in the tail transform as weight 0, the peak of the rows'
own mass, and a stack is centred on its largest weight, whose mass lies
farthest out.

Weights that underflow to zero are masked before the integrand is
evaluated: at extreme nodes the integrand itself may overflow double
range even though its weighted contribution is exactly negligible, and
evaluating it there would poison the sum with inf * 0.  In a stack a
node is evaluated when any table's weight is alive there, and a table
ignores whatever it returns at nodes where its own weight underflows.
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
# Most nodes at which one call of the rows is evaluated.
_BATCH_NODES = 256


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
    matrices of rows under one weight or a stack of weights.

    Attributes
    ----------
    evaluator : callable or None
        Vectorised f: accepts a float ndarray of radii (all > 0), returns
        an ndarray of the same shape.
    weight_exponent : float or tuple of floats
        The power p of the explicit r^p weight: > -1 for an evaluator,
        any finite value for rows, which must then vanish fast enough at
        the origin for their products to converge.  For ``rows`` a
        non-empty tuple (p_1, ..., p_T) weights a stack of T tables; a
        single p is the stack (p,).
    decay_hint : (c, q) or None
        Optional tail scale: the integrand decays roughly like
        exp(-c r^q).  Used only to centre the tail transform; wrong hints
        cost accuracy per level, not correctness.
    tail_scale : float or None
        Optional scale s of the tail transform r = a + s exp(kappa sinh t),
        for a caller that knows where its integrand's mass ends (such as
        the turning point of an oscillating row); it replaces the scale
        derived from the decay hint and the weights, and kappa still
        follows the hint.
    rows : callable or None
        Alternative to ``evaluator`` for products (energies |v'|^2, Gram
        products phi_j phi_l): returns an array of shape (T, rows, n),
        one table per weight exponent and one row per function, table i
        to be weighted by r^p_i; for T = 1 a table of shape (rows, n),
        or a 1-D array for one function, will do.  The integral of a table is the (rows, rows) matrix of all
        pairwise products of its rows, each entry converged to
        ``rel_tol`` relative to its absolute mass (the integral of
        |f_i f_j| r^p).  Every row is multiplied by sqrt(w r^p) first,
        which cannot overflow for convergent integrals even where f
        alone, or r^p, would exceed double range near a singular
        endpoint.  Values a table returns where its own weight underflows
        to zero are ignored, even if not finite.  A weight at or below
        -0.9 is centred in the tail transform as weight 0.  Exactly one
        of ``evaluator``/``rows`` must be given.
    """

    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    weight_exponent: Union[float, Tuple[float, ...]] = 0.0
    decay_hint: Optional[Tuple[float, float]] = None
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail_scale: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.evaluator is None) == (self.rows is None):
            raise DomainError("exactly one of evaluator/rows must be provided")
        if not callable(self.evaluator if self.rows is None else self.rows):
            raise DomainError("evaluator/rows must be callable")
        stack = self.weight_exponent
        if isinstance(stack, tuple):
            if self.rows is None or not stack:
                raise DomainError("a stack of weight exponents needs rows and at least "
                                  "one exponent")
        else:
            stack = (stack,)
        for p in stack:
            if not (isinstance(p, (int, float)) and math.isfinite(p)
                    and (self.rows is not None or p > -1.0)):
                raise DivergentIntegralError(
                    f"weight_exponent must be finite (and > -1 for an evaluator), got {p!r}"
                )
        if self.decay_hint is not None:
            c, q = self.decay_hint
            if not (math.isfinite(c) and c > 0 and math.isfinite(q) and q > 0):
                raise DomainError(f"decay_hint must be (c > 0, q > 0), got {self.decay_hint!r}")
        if self.tail_scale is not None and not (math.isfinite(self.tail_scale)
                                                and self.tail_scale > 0):
            raise DomainError(f"tail_scale must be finite and > 0, got {self.tail_scale!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged integral value with its refinement error estimate (both
    (T, rows, rows) arrays for a rows integrand with T weight exponents)."""

    value: Union[float, np.ndarray]
    err_est: Union[float, np.ndarray]
    levels_used: int
    nodes_used: int


@lru_cache(maxsize=64)
def _grid(level: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sinh t, cosh t) for the nodes new at this level, and the tanh-sinh
    nodes sigmoid(pi sinh t) and weights on (0, 1], which a split point a
    scales by a.

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
    sinh_t, cosh_t = np.sinh(t), np.cosh(t)
    u2 = math.pi * sinh_t  # 2 * (pi/2) sinh t
    sig = _sigmoid(u2)
    return sinh_t, cosh_t, sig, math.pi * cosh_t * sig * _sigmoid(-u2)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Stable logistic: never overflows, underflows to 0/1 gracefully.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class _HalfMap:
    """One transformed half of the integration range: produces the finite
    (r, w) node/weight arrays with positive weight for a level grid."""

    def __init__(self, kind: str, a: float, scale: float, kappa: float):
        self.kind = kind
        self.a = a
        self.scale = scale
        self.kappa = kappa

    def nodes(self, level: int) -> Tuple[np.ndarray, np.ndarray]:
        sinh_t, cosh_t, unit_r, unit_w = _grid(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.kind == "tanh-sinh":
                r = self.a * unit_r
                w = self.a * unit_w
            else:  # exp-sinh
                g = self.scale * np.exp(self.kappa * sinh_t)
                r = self.a + g
                w = self.kappa * cosh_t * g
            keep = np.isfinite(r) & (r > 0.0) & np.isfinite(w) & (w > 0.0)
        return r[keep], w[keep]


def _exponents(handle: IntegrandHandle) -> np.ndarray:
    """The weight exponents as a 1-D array, one per table."""
    return np.atleast_1d(np.asarray(handle.weight_exponent, dtype=float))


def _build_maps(handle: IntegrandHandle, a: float) -> Tuple[_HalfMap, _HalfMap]:
    if handle.decay_hint is not None:
        c, q = handle.decay_hint
        p = _exponents(handle)
        if handle.rows is not None:
            p = np.where(p <= _FOLD_EDGE, 0.0, p)
        peak = (float(np.max(p)) + 1.0) / (c * q)
        scale = max(c ** (-1.0 / q), peak ** (1.0 / q))
        kappa = 0.5 * math.pi / q
    else:
        scale = 1.0
        kappa = 0.5 * math.pi
    if handle.tail_scale is not None:
        scale = handle.tail_scale
    return (
        _HalfMap("tanh-sinh", a, 1.0, 0.0),
        _HalfMap("exp-sinh", a, scale, kappa),
    )


def _level_nodes(maps: Tuple[_HalfMap, ...], level: int) -> Tuple[np.ndarray, np.ndarray]:
    """The finite nodes with positive weight new at this level, both halves
    together."""
    r, w = zip(*(m.nodes(level) for m in maps))
    return np.concatenate(r), np.concatenate(w)


def _rescue_overflow(
    term: np.ndarray,
    values: np.ndarray,
    r: np.ndarray,
    w: np.ndarray,
    p: Union[float, np.ndarray],
    share: float = 1.0,
) -> np.ndarray:
    """Recompute non-finite products of finite parts in log space.

    ``term`` is ``values`` times ``share`` times the weight w r^p (all
    broadcast to its shape along the node axis).  A tiny (denormal)
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
        pb = np.broadcast_to(p, term.shape)[bad]
        fb = values[bad]
        out = term.copy()
        out[bad] = np.sign(fb) * np.exp(share * (np.log(wb) + pb * np.log(rb))
                                        + np.log(np.abs(fb)))
    return out


def _row_tables(handle: IntegrandHandle, r: np.ndarray, tables: int) -> np.ndarray:
    """The rows at r as a (tables, rows, len(r)) array; a 1-D or 2-D
    return is one table."""
    vals = np.asarray(handle.rows(r), dtype=float)
    if vals.ndim in (1, 2):
        vals = np.atleast_2d(vals)[None]
    if vals.ndim != 3 or vals.shape[0] != tables or vals.shape[-1] != r.size:
        raise DomainError(
            "rows must return an array matching their input, a table with one "
            "row per function, or one such table per weight exponent"
        )
    return vals


def _weighted_rows(
    vals: np.ndarray, r: np.ndarray, w: np.ndarray, wp: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Each table's rows times sqrt(w r^p_i), zero where that weight is.

    ``wp`` holds w r^p_i, one row per table.  A value that is not finite
    where its table's weight is alive raises NonFiniteSampleError.
    """
    live = (wp != 0.0)[:, None, :]
    bad = live & ~np.isfinite(vals)
    if np.any(bad):
        at = np.broadcast_to(r, vals.shape)[bad][0]
        raise NonFiniteSampleError(f"integrand row returned a non-finite value at r={at!r}")
    g = np.where(live & (vals != 0.0), vals * np.sqrt(wp)[:, None, :], 0.0)
    return _rescue_overflow(g, vals, r, w, p[:, None, None], share=0.5)


def _level_sum(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    level: int,
) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray], int]:
    """Weighted integrand sum over the nodes new at this level.

    Returns the signed sum, the sum of magnitudes (the rounding floor of
    any cancellation), and the number of nodes evaluated.  Both sums are
    Gram matrices, one per table, for a rows integrand, whose rows are
    evaluated _BATCH_NODES nodes at a time.
    """
    p = _exponents(handle)
    r, w = _level_nodes(maps, level)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        wp = w * np.power(r, p[:, None])
        live = np.any(wp != 0.0, axis=0)
        r, w, wp = r[live], w[live], wp[:, live]
        if handle.rows is None:
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
            term = np.where(f == 0.0, 0.0, f * wp[0])
            term = _rescue_overflow(term, f, r, w, p[0])
            if not np.all(np.isfinite(term)):
                idx = int(np.flatnonzero(~np.isfinite(term))[0])
                raise NonFiniteSampleError(
                    f"weighted integrand overflowed at r={r[idx]!r} (weight={wp[0, idx]!r})"
                )
            return float(np.sum(term)), float(np.sum(np.abs(term))), int(r.size)
        total = abs_total = 0.0
        for start in range(0, r.size, _BATCH_NODES):
            batch = slice(start, start + _BATCH_NODES)
            vals = _row_tables(handle, r[batch], p.size)
            g = _weighted_rows(vals, r[batch], w[batch], wp[:, batch], p)
            term = g @ g.transpose(0, 2, 1)
            if not np.all(np.isfinite(term)):
                raise NonFiniteSampleError(
                    "weighted Gram table overflowed on nodes r in "
                    f"[{r[batch].min()!r}, {r[batch].max()!r}]"
                )
            total = total + term
            g = np.abs(g)
            abs_total = abs_total + g @ g.transpose(0, 2, 1)
    return total, abs_total, int(r.size)


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
        if np.ndim(value) >= 2:
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
        (T, rows, rows) arrays for a rows integrand with T weight
        exponents (T = 1 for a single one); the level is the deepest any
        entry of any table needs.

    Raises
    ------
    NonConvergenceError
        If max_level is exhausted; carries the partial value/err_est.
    NonFiniteSampleError
        If the integrand returns nan/inf at a contributing node.
    """
    maps = _build_maps(handle, float(spec.split_point))
    return _refine(handle, maps, spec)
