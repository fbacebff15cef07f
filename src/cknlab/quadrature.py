"""Adaptive double-exponential quadrature on the half line.

The integrals this package needs are Gram matrices of rows,

    integral_0^inf  f(r) f(r)^T r^p  dr,

one per weight exponent p of a stack (p_1, ..., p_T): the integrand is a
callable returning T tables, table i weighted by r^p_i, each with one row
per function, and its integral holds all pairwise products of that
table's rows.  An energy integral |v|^2 r^p is a 1 x 1 table, and a
signed integrand s(r) t(r) r^p an off-diagonal entry of the two-row
table (s, t).  The rows are smooth on (0, inf), may behave like a power
at the origin and decay (usually like exp(-c r^q)) at infinity.  The
half line is cut at r = 1:

* (0, 1]   tanh-sinh transform  r = sigmoid(pi * sinh t), which resolves
  algebraic endpoint behaviour at 0 to full precision;
* [1, inf) exp-sinh transform   r = 1 + s * exp(kappa * sinh t).  With a
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
The new nodes of levels 0..5, from both halves, are evaluated in one
pass, since most integrals of this package stop at level 5, and each
deeper level in a pass of its own.  Each pass's levels are stacked on a
leading axis and tested together, in one set of array operations, and
the first level that passes the test is the result; a non-finite sample
of a level the test never reaches is no error.  Each level's nodes are
cut into sub-batches of at most 256, and its products are summed one
sub-batch at a time, so the sums, and every result, are bit for bit
those of evaluating each level alone.  The rows are called, and
weighted, on groups of at most 16 consecutive sub-batches (4096 nodes):
a first pass holds at most nine, so it takes one call, and only a level
from 8 on may take more than one.

All tables share one node ladder and one refinement loop, which
evaluates the callable once on each group of new nodes, so the parts of
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
evaluating it there would poison the sum with inf * 0.  A node is
evaluated when any table's weight is alive there, and a table ignores
whatever it returns at nodes where its own weight underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

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
# a round of the probe workload, 6 of the 7 Gram checks and all 5 energy
# triples stop at level 5, and the N = 4, k = 3, m = 16 check at level 6.
# So one pass is the rule, on about a thousand nodes.
_FIRST_PASS = 5
_PASSES = ((0, _FIRST_PASS),) + tuple(
    (level, level) for level in range(_FIRST_PASS + 1, _MAX_LEVEL + 1))
# Most nodes over which one Gram product of a level is summed.
_BATCH_NODES = 256
# Most sub-batches the rows are called on, and weighted, at once.  A first
# pass (levels 0..5) holds at most 1+1+1+1+2+3 = 9 sub-batches, so every
# integral, energy or Gram, takes one call for its first pass, while the
# memory of a call on a deep level is held to that of 4096 nodes.
_CALL_BATCHES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance for :func:`integrate`.

    Attributes
    ----------
    rel_tol : float
        Relative tolerance on the integral; must lie in (1e-15, 1e-3).
    """

    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (isinstance(self.rel_tol, float) and 1e-15 < self.rel_tol < 1e-3):
            raise DomainError(
                f"rel_tol must be a float in (1e-15, 1e-3), got {self.rel_tol!r}"
            )


@dataclass(frozen=True)
class IntegrandHandle:
    """The Gram matrices of rows under a stack of weights r^p_i.

    Attributes
    ----------
    rows : callable
        Accepts a float ndarray of n radii (all > 0) and returns an array
        of shape (T, rows, n): one table per weight exponent and one row
        per function, table i to be weighted by r^p_i.  The integral of a
        table is the (rows, rows) matrix of all pairwise products of its
        rows, each entry converged to ``rel_tol`` relative to its
        absolute mass (the integral of |f_i f_j| r^p).  Every row is
        multiplied by sqrt(w r^p) first, which cannot overflow for
        convergent integrals even where f alone, or r^p, would exceed
        double range near a singular endpoint.  Values a table returns
        where its own weight underflows to zero are ignored, even if not
        finite.
    weight_exponent : tuple of floats
        The non-empty stack (p_1, ..., p_T) of powers of the explicit
        weights, each finite; the rows must vanish fast enough at the
        origin for their products to converge.  A weight at or below
        -0.9 is centred in the tail transform as weight 0.
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
    """

    rows: Callable[[np.ndarray], np.ndarray]
    weight_exponent: Tuple[float, ...]
    decay_hint: Optional[Tuple[float, float]] = None
    tail_scale: Optional[float] = None

    def __post_init__(self) -> None:
        if not callable(self.rows):
            raise DomainError("rows must be callable")
        if not (isinstance(self.weight_exponent, tuple) and self.weight_exponent):
            raise DomainError("weight_exponent must be a non-empty tuple of exponents, "
                              f"got {self.weight_exponent!r}")
        for p in self.weight_exponent:
            if not (isinstance(p, (int, float)) and math.isfinite(p)):
                raise DivergentIntegralError(f"weight_exponent must be finite, got {p!r}")
        if self.decay_hint is not None:
            c, q = self.decay_hint
            if not (math.isfinite(c) and c > 0 and math.isfinite(q) and q > 0):
                raise DomainError(f"decay_hint must be (c > 0, q > 0), got {self.decay_hint!r}")
        if self.tail_scale is not None and not (math.isfinite(self.tail_scale)
                                                and self.tail_scale > 0):
            raise DomainError(f"tail_scale must be finite and > 0, got {self.tail_scale!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged Gram matrices with their refinement error estimate, both
    (T, rows, rows) arrays for T weight exponents.

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
def _grid(first: int, last: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                          List[slice]]:
    """(sinh t, cosh t) for the nodes new at levels first..last, level by
    level, the tanh-sinh nodes sigmoid(pi sinh t) and weights on (0, 1],
    which the split point scales, and the span of each level."""
    steps = [_steps(level) for level in range(first, last + 1)]
    t = np.concatenate(steps)
    sinh_t, cosh_t = np.sinh(t), np.cosh(t)
    u2 = math.pi * sinh_t  # 2 * (pi/2) sinh t
    sig = _sigmoid(u2)
    return sinh_t, cosh_t, sig, math.pi * cosh_t * sig * _sigmoid(-u2), _spans(
        [step.size for step in steps])


def _spans(sizes: List[int]) -> List[slice]:
    """Consecutive slices of the given sizes."""
    ends = list(accumulate(sizes))
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


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
    (r, w) node/weight arrays with positive weight of each level of a
    grid."""

    def __init__(self, kind: str, scale: float, kappa: float):
        self.kind = kind
        self.scale = scale
        self.kappa = kappa

    def nodes(self, grid: tuple) -> List[Tuple[np.ndarray, np.ndarray]]:
        sinh_t, cosh_t, unit_r, unit_w, spans = grid
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.kind == "tanh-sinh":
                r = _SPLIT_POINT * unit_r
                w = _SPLIT_POINT * unit_w
            else:  # exp-sinh
                g = self.scale * np.exp(self.kappa * sinh_t)
                r = _SPLIT_POINT + g
                w = self.kappa * cosh_t * g
            keep = np.isfinite(r) & (r > 0.0) & np.isfinite(w) & (w > 0.0)
        return [(r[span][keep[span]], w[span][keep[span]]) for span in spans]


def _build_maps(handle: IntegrandHandle) -> Tuple[_HalfMap, _HalfMap]:
    if handle.decay_hint is not None:
        c, q = handle.decay_hint
        p = np.asarray(handle.weight_exponent, dtype=float)
        p = np.where(p <= _FOLD_EDGE, 0.0, p)
        peak = (float(np.max(p)) + 1.0) / (c * q)
        scale = max(c ** (-1.0 / q), peak ** (1.0 / q))
        kappa = 0.5 * math.pi / q
    else:
        scale = 1.0
        kappa = 0.5 * math.pi
    if handle.tail_scale is not None:
        scale = handle.tail_scale
    return _HalfMap("tanh-sinh", 1.0, 0.0), _HalfMap("exp-sinh", scale, kappa)


def _row_tables(handle: IntegrandHandle, r: np.ndarray, tables: int) -> np.ndarray:
    """The rows at r as a (tables, rows, len(r)) array."""
    vals = np.asarray(handle.rows(r), dtype=float)
    if vals.ndim != 3 or vals.shape[0] != tables or vals.shape[-1] != r.size:
        raise DomainError(
            "rows must return one table per weight exponent, each with one row "
            "per function and one column per radius"
        )
    return vals


def _weighted_rows(
    vals: np.ndarray, r: np.ndarray, w: np.ndarray, wp: np.ndarray, p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each table's rows times sqrt(w r^p_i), zero where that weight is,
    and the mask of values that are not finite where their table's weight
    is alive.

    ``wp`` holds w r^p_i, one row per table.  A tiny (denormal) row value
    times a huge transformed weight overflows or turns into nan even
    though the true product is negligible, so non-finite products of
    finite parts are recomputed in log space.  Genuinely divergent nodes
    stay non-finite and are reported by the caller.
    """
    live = (wp != 0.0)[:, None, :]
    bad = live & ~np.isfinite(vals)
    g = vals * np.sqrt(wp)[:, None, :]
    g[~live | (vals == 0.0)] = 0.0
    over = ~np.isfinite(g)
    if np.any(over):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            rb = np.broadcast_to(r, g.shape)[over]
            wb = np.broadcast_to(w, g.shape)[over]
            pb = np.broadcast_to(p[:, None, None], g.shape)[over]
            fb = vals[over]
            g[over] = np.sign(fb) * np.exp(0.5 * (np.log(wb) + pb * np.log(rb))
                                           + np.log(np.abs(fb)))
    return g, bad


def _pass(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    p: np.ndarray,
    first: int,
    last: int,
) -> Tuple[np.ndarray, Optional[NonFiniteSampleError], int]:
    """The Gram sums of levels first..last, evaluated together, the error
    of the first level with a non-finite sample (or None) and the nodes
    evaluated.

    The sums are stacked as (levels, 2, T, rows, rows): each level's
    signed sums, then its sums of magnitudes.  They stop before a level
    with a non-finite sample.  The live nodes are ordered by level and
    within a level by half, as each level alone would have them; each
    level's products are summed over sub-batches of at most _BATCH_NODES
    of its nodes, and the rows are called, and weighted, on groups of at
    most _CALL_BATCHES consecutive sub-batches.
    """
    per_level = list(zip(*(m.nodes(_grid(first, last)) for m in maps)))
    r = np.concatenate([hr for halves in per_level for hr, _ in halves])
    w = np.concatenate([hw for halves in per_level for _, hw in halves])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        wp = w * np.power(r, p[:, None])
        live = np.any(wp != 0.0, axis=0)
        spans = _spans([sum(hr.size for hr, _ in halves) for halves in per_level])
        levels = _spans([int(np.count_nonzero(live[span])) for span in spans])
        r, w, wp = r[live], w[live], wp[:, live]
        subs = [(i, slice(start, min(start + _BATCH_NODES, nodes.stop)))
                for i, nodes in enumerate(levels)
                for start in range(nodes.start, nodes.stop, _BATCH_NODES)]
        for done in range(0, len(subs), _CALL_BATCHES):
            group = subs[done:done + _CALL_BATCHES]
            call = slice(group[0][1].start, group[-1][1].stop)
            g, bad = _weighted_rows(_row_tables(handle, r[call], p.size), r[call], w[call],
                                    wp[:, call], p)
            if done == 0:
                sums = np.zeros((len(levels), 2) + g.shape[:2] + g.shape[1:2])
            for i, sub in group:
                at, part = r[sub], slice(sub.start - call.start, sub.stop - call.start)
                if np.any(bad[..., part]):
                    at = np.broadcast_to(at, bad[..., part].shape)[bad[..., part]][0]
                    return sums[:i], NonFiniteSampleError(
                        f"integrand row returned a non-finite value at r={float(at)!r}"), call.stop
                gs = np.ascontiguousarray(g[..., part])
                term = gs @ gs.transpose(0, 2, 1)
                if not np.all(np.isfinite(term)):
                    return sums[:i], NonFiniteSampleError(
                        "weighted Gram table overflowed on nodes r in "
                        f"[{float(at.min())!r}, {float(at.max())!r}]"), call.stop
                np.abs(gs, out=gs)
                sums[i, 0] += term
                sums[i, 1] += gs @ gs.transpose(0, 2, 1)
    return sums, None, r.size


def integrate(handle: IntegrandHandle, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate the Gram matrices of the rows over (0, inf) to relative
    tolerance.

    Parameters
    ----------
    handle : IntegrandHandle
        The rows and their stack of weights.
    spec : QuadratureSpec
        Tolerance.

    Returns
    -------
    QuadratureResult
        value, err_est (last refinement difference; an upper estimate of
        the truncation error for integrands in the double-exponential
        convergence class), levels and node count.  value and err_est are
        (T, rows, rows) arrays for T weight exponents; the level is the
        deepest any entry of any table needs.  Levels 0..5 are evaluated
        in one pass, which is one call of rows, deeper levels one pass
        each, and each pass's levels are tested together; the results
        equal those of evaluating and testing level by level, bit for
        bit.

    Raises
    ------
    NonConvergenceError
        If level 12 is passed without convergence; carries the partial
        value/err_est.
    NonFiniteSampleError
        If the rows return nan/inf at a contributing node of a level the
        refinement reaches.
    """
    maps = _build_maps(handle)
    p = np.asarray(handle.weight_exponent, dtype=float)
    n = 0
    # The running sums through the last level of the previous pass, and
    # that level's error estimate.
    carried = prev_err = None
    for first, last in _PASSES:
        sums, unreached, evaluated = _pass(handle, maps, p, first, last)
        n += evaluated
        if carried is None:
            prev_err = np.full(sums.shape[2:], math.inf)  # before level 1
        else:  # the test of level first needs level first - 1
            sums = np.concatenate([carried[None], sums])
            first -= 1
        # Level L's value is h_L times the sum of levels 0..L, which is
        # 0.5 * (level L-1's value) + h_L * (level L's sum) exactly, short
        # of subnormal values, as h_L is a power of two; so is its mass.
        levels = np.arange(first, first + len(sums))
        totals = np.cumsum(sums, axis=0)
        h = _H0 / 2.0**levels
        value, mass = np.moveaxis(h[:, None, None, None, None] * totals, 1, 0)
        err = abs(value[1:] - value[:-1])
        prev = np.concatenate([prev_err[None], err])[:-1]
        # Off-diagonal Gram entries may cancel to nearly nothing; each is
        # converged relative to its absolute mass instead.  The sampled
        # mass also bounds what summation rounding allows: for
        # cancellation-dominated integrals the achievable error floor is
        # eps * mass, not eps * |value|.
        scale = np.maximum(np.maximum(abs(value[1:]), 1e-300), mass[1:])
        floor = _EPS * scale
        axes = (1, 2, 3)
        converged = np.all((err <= spec.rel_tol * scale) | (err <= 16.0 * floor), axis=axes)
        # Refinement hit the rounding floor: the previous level is the best.
        rounding = np.all(err >= prev, axis=axes) & np.all(prev <= 1e3 * floor, axis=axes)
        stops = np.flatnonzero(converged | rounding)
        if stops.size:
            i = int(stops[0])
            if converged[i]:
                return QuadratureResult(value[i + 1], err[i], int(levels[i + 1]), n)
            return QuadratureResult(value[i], prev[i], int(levels[i]), n)
        if unreached is not None:
            raise unreached
        carried, prev_err = totals[-1], err[-1]
    raise NonConvergenceError(
        f"quadrature did not reach rel_tol={spec.rel_tol} within "
        f"max_level={_MAX_LEVEL} (last error {float(np.max(prev_err)):.3e})",
        value=value[-1],
        err_est=prev_err,
    )
