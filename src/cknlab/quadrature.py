"""Adaptive double-exponential quadrature on the half line.

The integrals this package needs are energies of rows,

    integral_0^inf  f(r)^2 r^p  dr,

one per weight exponent p of a stack (p_1, ..., p_T): the integrand is a
callable returning T rows, row i weighted by r^p_i.
The rows are smooth on (0, inf), may behave like a power at the origin
and decay (usually like exp(-c r^q)) at infinity.  The half line is cut
at r = 1:

* (0, 1]   tanh-sinh transform  r = sigmoid(pi * sinh t), which resolves
  algebraic endpoint behaviour at 0 to full precision;
* [1, inf) exp-sinh transform   r = 1 + s * exp(kappa * sinh t).  With a
  decay hint (c, q) and weight r^p, kappa = (pi/2)/q and the scale
  s = max(c^(-1/q), ((p+1)/(c q))^(1/q)) puts the node t = 0 at the peak
  of r^(p+1) exp(-c r^q) (in log r), so the transformed integrand is well
  centred however slow or fast the tail decays and however far out a
  large weight pushes its mass.  A caller that knows better where the
  mass ends gives the scale itself (``tail_scale`` of :func:`integrate`).

Both halves share one trapezoid step h in the transformed variable; each
refinement level halves h and reuses previous samples, so the cost of
level m is the same as all previous levels combined.  Convergence is
declared when successive refinements of the *sum* agree to ``rel_tol``.
The new nodes of levels 0..5, from both halves, are evaluated in one
pass, since most integrals of this package stop at level 5, and each
deeper level in a pass of its own.  Each pass's levels are stacked on a
leading axis and tested together, in one set of array operations, and
the first level that passes the test is the result; a non-finite sample
of a level the test never reaches is no error.  The nodes of a pass come
from a cached layout, which holds the tanh-sinh half (it does not depend
on the scale) and the order of the nodes, level by level; a pass computes
only the exp-sinh map.  The rows are called, and weighted, on at most
4096 nodes at a time: a first pass holds at most 1178, so it takes one
call, and only a level from 9 on takes more than one.  Each level's sums
are one product on each call, so the sums, and every result, are bit for
bit those of evaluating each level alone, 4096 nodes at a time.

All rows share one node ladder and one refinement loop, which
evaluates the callable once on each call's nodes, so the parts of
one form triple share their nodes and whatever the rows have in
common.  Each row is multiplied by sqrt(w r^p) = exp(L/2), with
L = log w + p log r, before it is squared, so rows may take any finite
weight exponent: rows that vanish at the origin absorb a weight at or
below -1.  A row weight at or below -0.9 is centred in the tail transform
as weight 0, the peak of the rows' own mass, and a stack is centred on
its largest weight, whose mass lies farthest out.

Weights that underflow to zero are masked before the integrand is
evaluated: at extreme nodes the integrand itself may overflow double
range even though its weighted contribution is exactly negligible, and
evaluating it there would poison the sum with inf * 0.  A weight w r^p
is alive where exp(L) is nonzero, a node is evaluated when any row's
weight is alive there, and a row ignores whatever it returns at nodes
where its own weight underflows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (DivergentIntegralError, DomainError, NonConvergenceError,
                     NonFiniteSampleError)

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
]

# Truncation of the trapezoid in the transformed variable.  Weights
# underflow well inside +-9.2 for every transform used here; nodes beyond
# underflow are masked, so a generous fixed cap is safe.
_T_CAP = 9.2
_H0 = 1.0
_EPS = float(np.finfo(float).eps)
# Deepest refinement level (step h = 2^-level).
_MAX_LEVEL = 12
# Where the half line is cut between the two transforms.
_SPLIT_POINT = 1.0
# Row weights at or below this edge are centred as weight 0.
_FOLD_EDGE = -0.9
# Levels 0.._FIRST_PASS are evaluated in one pass, each deeper level alone.
# Of the 672 integrals of four rounds of library queries of the benchmark's
# closed-forms workload, none stops below level 4, and 60-80 stop at level
# 4, 574-597 at level 5 and 15-18 at level 6 (seeds 11, 41, 42 and 43).  In
# a round of the probe workload, all 7 estimate witnesses and all 5 energy
# triples stop at level 5.  So one pass is the rule, on about a thousand
# nodes.
_FIRST_PASS = 5
_PASSES = ((0, _FIRST_PASS),) + tuple(
    (level, level) for level in range(_FIRST_PASS + 1, _MAX_LEVEL + 1))
# exp(L) is nonzero exactly where L is at least this, the least double
# above log(2^-1075), half the least denormal.
_LOG_LIVE = -745.1332191019411
# Most nodes the rows are called on, and weighted, at once.  A first pass
# (levels 0..5) holds at most 1178 nodes, so every integral takes one call
# for its first pass; a deeper level past this size is cut into calls of
# this size, so that memory does not grow with the level.
_CALL_NODES = 4096


class _QuadratureSpec(NamedTuple):
    rel_tol: float = 1e-12


class QuadratureSpec(_QuadratureSpec):
    """Tolerance for :func:`integrate`.

    Attributes
    ----------
    rel_tol : float
        Relative tolerance on the integral; must lie in (1e-15, 1e-3).

    A construction, a ``_replace`` and an unpickling all validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "QuadratureSpec":
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.rel_tol, float) and 1e-15 < self.rel_tol < 1e-3):
            raise DomainError(
                f"rel_tol must be a float in (1e-15, 1e-3), got {self.rel_tol!r}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> "QuadratureSpec":
        return cls(*iterable)


class QuadratureResult(NamedTuple):
    """Converged energies with their refinement error estimate, both
    (T,) arrays for T weight exponents, one entry per row.

    ``levels_used`` is the level the value comes from, and ``nodes_used``
    the number of nodes the rows were called on: every node of the first
    pass (levels 0..5) even where the value comes from a coarser level,
    and every node of each deeper level evaluated.  A pass that meets a
    non-finite sample stops there, and counts the nodes of its calls up
    to and including the one that met it.
    """

    value: np.ndarray
    err_est: np.ndarray
    levels_used: int
    nodes_used: int


def _steps(level: int) -> np.ndarray:
    """The transformed variable t of the nodes new at this level.

    Level 0 is the full coarse grid at step _H0; level m >= 1 holds the
    odd multiples of h = _H0 / 2^m (the nodes not already present).
    """
    if level == 0:
        j = np.arange(-int(_T_CAP / _H0), int(_T_CAP / _H0) + 1)
        return j * _H0
    h = _H0 / 2.0**level
    j_max = int(_T_CAP / h)
    j = np.arange(-j_max, j_max + 1)
    return j[j % 2 != 0] * h


@lru_cache(maxsize=64)
def _layout(first: int, last: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """The node layout of levels first..last, which does not depend on the
    tail scale: (sinh t, cosh t) of the new steps, level by level; the
    tanh-sinh nodes sigmoid(pi sinh t) on (0, 1], and their weights, that
    are positive; the gather index that puts these nodes followed by every
    exp-sinh node in level order, each level's tanh-sinh half first; and
    the start of each level in that order."""
    steps = [_steps(level) for level in range(first, last + 1)]
    t = np.concatenate(steps)
    sinh_t, cosh_t = np.sinh(t), np.cosh(t)
    u2 = math.pi * sinh_t  # 2 * (pi/2) sinh t
    sig = _sigmoid(u2)
    r = _SPLIT_POINT * sig
    w = _SPLIT_POINT * (math.pi * cosh_t * sig * _sigmoid(-u2))
    keep = np.isfinite(w) & (r > 0.0) & (w > 0.0)
    level = np.repeat(np.arange(len(steps)), [step.size for step in steps])
    order = np.argsort(np.concatenate([level[keep], level]), kind="stable")
    sizes = np.bincount(level[keep], minlength=len(steps)) + [step.size for step in steps]
    return sinh_t, cosh_t, r[keep], w[keep], order, np.cumsum(sizes) - sizes


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Stable logistic: never overflows, underflows to 0/1 gracefully.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _tail(p: np.ndarray, decay_hint: Optional[Tuple[float, float]],
          tail_scale: Optional[float]) -> Tuple[float, float]:
    """The scale s and rate kappa of the exp-sinh map r = 1 + s exp(kappa sinh t)."""
    if decay_hint is not None:
        c, q = decay_hint
        peak = (max(0.0 if x <= _FOLD_EDGE else float(x) for x in p) + 1.0) / (c * q)
        scale = max(c ** (-1.0 / q), peak ** (1.0 / q))
        kappa = 0.5 * math.pi / q
    else:
        scale = 1.0
        kappa = 0.5 * math.pi
    if tail_scale is not None:
        scale = tail_scale
    return scale, kappa


def _nodes(tail: Tuple[float, float], first: int, last: int
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes r and log weights log w of levels first..last in level
    order, and the start of each level.  An exp-sinh node whose weight
    overflows gets log w = -inf, so that no weight exponent makes it live."""
    sinh_t, cosh_t, unit_r, unit_w, order, starts = _layout(first, last)
    scale, kappa = tail
    with np.errstate(over="ignore", divide="ignore"):
        g = scale * np.exp(kappa * sinh_t)
        w = kappa * cosh_t * g
        w[w == math.inf] = 0.0
        return (np.concatenate([unit_r, _SPLIT_POINT + g])[order],
                np.log(np.concatenate([unit_w, w])[order]), starts)


def _row_tables(rows: Callable[[np.ndarray], np.ndarray], r: np.ndarray, tables: int
                ) -> np.ndarray:
    """The rows at r as a (tables, len(r)) array."""
    vals = np.asarray(rows(r), dtype=float)
    if vals.shape != (tables, r.size):
        raise DomainError(
            "rows must return one table per weight exponent, each with one row "
            "and one column per radius"
        )
    return vals


def _weighted_rows(vals: np.ndarray, log_wp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row times sqrt(w r^p_i) = exp(L_i / 2), zero where that
    weight is dead, and the mask of values that are not finite where
    their row's weight is alive (None where every product is finite).

    ``log_wp`` holds L_i = log w + p_i log r, one row per weight, and the
    weight is alive where exp(L_i) is nonzero.  A tiny (denormal) row
    value times a huge transformed weight overflows or turns into nan
    even though the true product is negligible, so non-finite products of
    finite parts are recomputed in log space.  Genuinely divergent nodes
    stay non-finite and are reported by the caller.
    """
    alive = log_wp >= _LOG_LIVE
    half = 0.5 * log_wp
    g = vals * np.exp(half)
    g[~alive | (vals == 0.0)] = 0.0
    over = ~np.isfinite(g)
    bad = None  # a non-finite value of a live weight leaves g non-finite
    if over.any():
        bad = alive & ~np.isfinite(vals)
        with np.errstate(divide="ignore"):
            fb = vals[over]
            g[over] = np.sign(fb) * np.exp(half[over] + np.log(np.abs(fb)))
    return g, bad


def _pass(rows: Callable[[np.ndarray], np.ndarray], tail: Tuple[float, float], p: np.ndarray,
          first: int, last: int) -> Tuple[np.ndarray, Optional[NonFiniteSampleError], int]:
    """The sums of levels first..last, evaluated together, the error of
    the first level with a non-finite sample (or None) and the nodes
    evaluated.

    The sums are stacked as (levels, T) and stop before a level with a
    non-finite sample.  A node is live where any row's weight
    w r^p = exp(log w + p log r) is nonzero.  The live nodes are called,
    and weighted, at most _CALL_NODES at a time, and each level's part of
    a call is one (T, 1, k) @ (T, k, 1) product.
    """
    r, log_w, starts = _nodes(tail, first, last)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        log_wp = log_w + p[:, None] * np.log(r)
        # The overflowing exp-sinh nodes, with log w = -inf and log r = inf,
        # are nan or -inf in every row, so their maximum leaves them dead.
        live = np.flatnonzero(log_wp.max(axis=0) >= _LOG_LIVE)
        bounds = np.searchsorted(live, starts).tolist() + [live.size]
        levels = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        r, log_wp = r[live], log_wp.take(live, axis=1)
        cut, unreached = len(levels), None
        sums = np.zeros((len(levels), p.size))
        for start in range(0, max(r.size, 1), _CALL_NODES):
            call = slice(start, min(start + _CALL_NODES, r.size))
            g, bad = _weighted_rows(_row_tables(rows, r[call], p.size), log_wp[:, call])
            parts = [(i, slice(max(span.start, start) - start, min(span.stop, call.stop) - start))
                     for i, span in enumerate(levels)
                     if span.start < call.stop and span.stop > start]
            if bad is not None and bad.any():
                i, part = next(pt for pt in parts if bad[:, pt[1]].any())
                at = np.broadcast_to(r[call][part], bad[:, part].shape)[bad[:, part]][0]
                cut, unreached = i, NonFiniteSampleError(
                    f"integrand row returned a non-finite value at r={float(at)!r}")
                parts = [pt for pt in parts if pt[0] < i]
            for i, part in parts:
                sums[i] += (g[:, None, part] @ g[:, part, None])[:, 0, 0]
            if unreached is not None:
                break
        finite = np.isfinite(sums[:cut]).all(axis=1)
        if not finite.all():
            cut = int(np.argmin(finite))
            at = r[levels[cut]]
            unreached = NonFiniteSampleError("weighted Gram table overflowed on nodes r in "
                                             f"[{float(at.min())!r}, {float(at.max())!r}]")
        return sums[:cut], unreached, call.stop


def _positive(x) -> bool:
    """Whether x is a finite real number above 0."""
    try:
        return math.isfinite(x) and x > 0
    except TypeError:
        return False


def integrate(rows: Callable[[np.ndarray], np.ndarray], weight_exponent: Tuple[float, ...],
              spec: QuadratureSpec = QuadratureSpec(),
              decay_hint: Optional[Tuple[float, float]] = None,
              tail_scale: Optional[float] = None) -> QuadratureResult:
    """Integrate the squared rows over (0, inf) to relative tolerance.

    Parameters
    ----------
    rows : callable
        Accepts a float ndarray of n radii (all > 0) and returns an array
        of shape (T, n): one row per weight exponent, row i to be weighted
        by r^p_i.  The integral of a row is that of its square, converged
        to ``rel_tol`` relative to its value.  Every row is multiplied by
        sqrt(w r^p) first, which cannot overflow for convergent integrals
        even where f alone, or r^p, would exceed double range near a
        singular endpoint.  Values a row returns where its own weight
        underflows to zero are ignored, even if not finite.
    weight_exponent : tuple of floats
        The non-empty stack (p_1, ..., p_T) of powers of the explicit
        weights, each finite; the rows must vanish fast enough at the
        origin for their squares to converge.  A weight at or below
        -0.9 is centred in the tail transform as weight 0.
    spec : QuadratureSpec
        Tolerance.
    decay_hint : (c, q) or None
        Optional tail scale: the integrand decays roughly like
        exp(-c r^q).  Used only to centre the tail transform; wrong hints
        cost accuracy per level, not correctness.
    tail_scale : float or None
        Optional scale s of the tail transform r = 1 + s exp(kappa sinh t),
        for a caller that knows where its integrand's mass ends (such as
        the turning point of an oscillating row); it replaces the scale
        derived from the decay hint and the weights, and kappa still
        follows the hint.

    Returns
    -------
    QuadratureResult
        value, err_est (last refinement difference; an upper estimate of
        the truncation error for integrands in the double-exponential
        convergence class), levels and node count.  value and err_est are
        (T,) arrays for T weight exponents; the level is the deepest any
        row needs.  Levels 0..5 are evaluated in one pass, which is one
        call of rows, deeper levels one pass each, called on at most 4096
        nodes at a time, and each pass's levels are tested together, on a
        (levels, T) array of its sums; the results equal, bit for bit,
        those of evaluating each level alone, 4096 nodes at a time, and
        testing level by level.

    Raises
    ------
    DomainError
        If an argument, or the shape rows returns, is malformed.
    DivergentIntegralError
        If a weight exponent is not finite.
    NonConvergenceError
        If level 12 is passed without convergence; carries the partial
        value/err_est.
    NonFiniteSampleError
        If the rows return nan/inf at a contributing node of a level the
        refinement reaches.
    """
    if not callable(rows):
        raise DomainError("rows must be callable")
    if not (isinstance(weight_exponent, tuple) and weight_exponent):
        raise DomainError("weight_exponent must be a non-empty tuple of exponents, "
                          f"got {weight_exponent!r}")
    for p in weight_exponent:
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise DivergentIntegralError(f"weight_exponent must be finite, got {p!r}")
    if decay_hint is not None:
        try:
            c, q = decay_hint
        except (TypeError, ValueError):  # not a pair
            c = q = math.nan
        if not (_positive(c) and _positive(q)):
            raise DomainError(f"decay_hint must be (c > 0, q > 0), got {decay_hint!r}")
    if tail_scale is not None and not _positive(tail_scale):
        raise DomainError(f"tail_scale must be finite and > 0, got {tail_scale!r}")
    p = np.asarray(weight_exponent, dtype=float)
    tail = _tail(p, decay_hint, tail_scale)
    n = 0
    # The running sums through the last level of the previous pass, and
    # that level's error estimate.
    carried = prev_err = None
    for first, last in _PASSES:
        sums, unreached, evaluated = _pass(rows, tail, p, first, last)
        n += evaluated
        if carried is None:
            prev_err = np.full(p.size, math.inf)  # before level 1
        else:  # the test of level first needs level first - 1
            sums = np.concatenate([carried[None], sums])
            first -= 1
        # Level L's value is h_L times the sum of levels 0..L, which is
        # 0.5 * (level L-1's value) + h_L * (level L's sum) exactly, short
        # of subnormal values, as h_L is a power of two.
        levels = np.arange(first, first + len(sums))
        totals = np.cumsum(sums, axis=0)
        value = (_H0 / 2.0**levels)[:, None] * totals
        err = abs(value[1:] - value[:-1])
        prev = np.concatenate([prev_err[None], err])[:-1]
        # A value is a sum of squares, so it is its own absolute mass, and
        # eps times it is the floor summation rounding allows.
        scale = np.maximum(value[1:], 1e-300)
        floor = _EPS * scale
        converged = ((err <= spec.rel_tol * scale) | (err <= 16.0 * floor)).all(1)
        # Refinement hit the rounding floor: the previous level is the best.
        rounding = (err >= prev).all(1) & (prev <= 1e3 * floor).all(1)
        stops = np.flatnonzero(converged | rounding)
        if stops.size:
            i = int(stops[0])
            j, est = (i + 1, err[i]) if converged[i] else (i, prev[i])
            return QuadratureResult(value[j], est, int(levels[j]), n)
        if unreached is not None:
            raise unreached
        carried, prev_err = totals[-1], err[-1]
    raise NonConvergenceError(
        f"quadrature did not reach rel_tol={spec.rel_tol} within "
        f"max_level={_MAX_LEVEL} (last error {float(np.max(prev_err)):.3e})",
        value=value[-1],
        err_est=prev_err,
    )
