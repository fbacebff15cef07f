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
declared when successive refinements of the *sum* agree to ``rel_tol``,
tested level by level.  The new nodes of levels 0..4, from both halves,
are evaluated in one pass, since almost no integral stops sooner, and
each deeper level in a pass of its own; a non-finite sample of a level
the test never reaches is no error.  Rows are called, and weighted, on
batches of at most 20480 values (tables x rows x nodes), so a stack of
one row per table takes one call a pass while a wide Gram stack is held
to 256 nodes at a time, which bounds the memory it takes; the first call
counts one row per table, and only its unweighted rows may exceed the
bound.  Each level's products are summed over its own sub-batches of at
most 256 nodes, so the sums, and every result, are bit for bit those of
evaluating each level alone.

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
from itertools import accumulate
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

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
# Levels 0.._FIRST_PASS are evaluated in one pass, each deeper level alone
# (QuadratureSpec.max_level is at least 4).  Of the 672 integrals of four
# rounds of library queries of the benchmark's closed-forms workload (seed
# 11), none stops sooner: 67 stop at level 4, 590 at level 5 and 15 at
# level 6.  So those levels always run, on a few hundred nodes in all.
_FIRST_PASS = 4
# Most nodes over which one Gram product of a level is summed.
_BATCH_NODES = 256
# Most values (tables x rows x nodes) the rows are called on, or weighted,
# at once, unless one sub-batch of _BATCH_NODES nodes holds more: those of
# 256 nodes of a Gram check of 16 trial functions over five parts.  A stack
# of one row per table is then evaluated a whole pass at a time.
_BATCH_VALUES = 256 * 16 * 5


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
    (T, rows, rows) arrays for a rows integrand with T weight exponents).

    ``levels_used`` is the level the value comes from, and ``nodes_used``
    the number of nodes the integrand was evaluated at: every node of the
    first pass (levels 0..4) even where the value comes from a coarser
    level, and every node of each deeper level evaluated.
    """

    value: Union[float, np.ndarray]
    err_est: Union[float, np.ndarray]
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
    which a split point a scales by a, and the span of each level."""
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

    def __init__(self, kind: str, a: float, scale: float, kappa: float):
        self.kind = kind
        self.a = a
        self.scale = scale
        self.kappa = kappa

    def nodes(self, grid: tuple) -> List[Tuple[np.ndarray, np.ndarray]]:
        sinh_t, cosh_t, unit_r, unit_w, spans = grid
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.kind == "tanh-sinh":
                r = self.a * unit_r
                w = self.a * unit_w
            else:  # exp-sinh
                g = self.scale * np.exp(self.kappa * sinh_t)
                r = self.a + g
                w = self.kappa * cosh_t * g
            keep = np.isfinite(r) & (r > 0.0) & np.isfinite(w) & (w > 0.0)
        return [(r[span][keep[span]], w[span][keep[span]]) for span in spans]


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
) -> Tuple[np.ndarray, np.ndarray]:
    """Each table's rows times sqrt(w r^p_i), zero where that weight is,
    and the mask of values that are not finite where their table's weight
    is alive.

    ``wp`` holds w r^p_i, one row per table.
    """
    live = (wp != 0.0)[:, None, :]
    bad = live & ~np.isfinite(vals)
    g = vals * np.sqrt(wp)[:, None, :]
    g[~live | (vals == 0.0)] = 0.0
    return _rescue_overflow(g, vals, r, w, p[:, None, None], share=0.5), bad


# A level's signed and absolute sums, or the error raised if it is reached.
_Sums = Union[Sequence[Union[float, np.ndarray]], NonFiniteSampleError]


def _evaluator_sums(
    handle: IntegrandHandle,
    r: np.ndarray,
    w: np.ndarray,
    wp: np.ndarray,
    p: float,
    levels: List[slice],
) -> List[_Sums]:
    """The sums of each level of a pass, from one call of the evaluator."""
    f = np.asarray(handle.evaluator(r), dtype=float)
    if f.shape != r.shape:
        raise DomainError("evaluator must return an array of the same shape as its input")
    sums: List[_Sums] = []
    for nodes in levels:
        fl, rl, wpl = f[nodes], r[nodes], wp[nodes]
        bad = ~np.isfinite(fl)
        if np.any(bad):
            return sums + [NonFiniteSampleError(
                f"integrand returned a non-finite value at r={rl[bad][0]!r}")]
        term = np.where(fl == 0.0, 0.0, fl * wpl)
        term = _rescue_overflow(term, fl, rl, w[nodes], p)
        if not np.all(np.isfinite(term)):
            idx = int(np.flatnonzero(~np.isfinite(term))[0])
            return sums + [NonFiniteSampleError(
                f"weighted integrand overflowed at r={rl[idx]!r} (weight={wpl[idx]!r})")]
        sums.append((float(np.sum(term)), float(np.sum(np.abs(term)))))
    return sums


def _run_end(subs: Sequence[slice], start: int, per_node: int) -> int:
    """The end of the run of consecutive sub-batches from ``start`` that
    holds at most _BATCH_VALUES values at ``per_node`` values a node, or
    of the one sub-batch at ``start``."""
    end = start + 1
    while end < len(subs) and (subs[end].stop - subs[start].start) * per_node <= _BATCH_VALUES:
        end += 1
    return end


def _products(
    handle: IntegrandHandle,
    r: np.ndarray,
    w: np.ndarray,
    wp: np.ndarray,
    p: np.ndarray,
    subs: List[slice],
) -> Tuple[List[_Sums], int]:
    """The signed and absolute Gram products of each sub-batch ``subs``
    of r, from one call of the rows on r, and the values per node the
    rows returned.

    The rows are weighted in runs of sub-batches bounded like a call, so
    a first call, made before the rows were seen, holds no more than one
    run of weighted values at a time.  The list ends early with the
    NonFiniteSampleError of the first sub-batch that has a non-finite
    value or product.
    """
    vals = _row_tables(handle, r, p.size)
    per_node = vals.shape[0] * vals.shape[1]
    products: List[_Sums] = []
    start = 0
    while start < len(subs):
        end = _run_end(subs, start, per_node)
        run = slice(subs[start].start, subs[end - 1].stop)
        g, bad = _weighted_rows(vals[..., run], r[run], w[run], wp[:, run], p)
        for part in subs[start:end]:
            at, sub = r[part], slice(part.start - run.start, part.stop - run.start)
            if np.any(bad[..., sub]):
                at = np.broadcast_to(at, bad[..., sub].shape)[bad[..., sub]][0]
                return products + [NonFiniteSampleError(
                    f"integrand row returned a non-finite value at r={at!r}")], per_node
            gs = np.ascontiguousarray(g[..., sub])
            term = gs @ gs.transpose(0, 2, 1)
            if not np.all(np.isfinite(term)):
                return products + [NonFiniteSampleError(
                    "weighted Gram table overflowed on nodes r in "
                    f"[{at.min()!r}, {at.max()!r}]")], per_node
            np.abs(gs, out=gs)
            products.append((term, gs @ gs.transpose(0, 2, 1)))
        start = end
    return products, per_node


def _row_sums(
    handle: IntegrandHandle,
    r: np.ndarray,
    w: np.ndarray,
    wp: np.ndarray,
    p: np.ndarray,
    levels: List[slice],
    per_node: int,
) -> Tuple[List[_Sums], int, int]:
    """The Gram sums of each level of a pass, the nodes evaluated and the
    values per node the rows returned.

    A level's products are summed over sub-batches of at most _BATCH_NODES
    of its nodes.  The rows are called on runs of sub-batches of at most
    _BATCH_VALUES values (or one sub-batch), at ``per_node`` values a node
    until a call shows how many there are.
    """
    owners = [i for i, nodes in enumerate(levels)
              for _ in range(nodes.start, nodes.stop, _BATCH_NODES)]
    subs = [slice(start, min(start + _BATCH_NODES, nodes.stop)) for nodes in levels
            for start in range(nodes.start, nodes.stop, _BATCH_NODES)]
    totals: List[_Sums] = [[0.0, 0.0] for _ in levels]
    done = 0
    while done < len(subs):
        end = _run_end(subs, done, per_node)
        lo, hi = subs[done].start, subs[end - 1].stop
        products, per_node = _products(handle, r[lo:hi], w[lo:hi], wp[:, lo:hi], p,
                                       [slice(s.start - lo, s.stop - lo) for s in subs[done:end]])
        for i, product in zip(owners[done:end], products):
            if isinstance(product, NonFiniteSampleError):
                return totals[:i] + [product], hi, per_node
            totals[i][0] = totals[i][0] + product[0]
            totals[i][1] = totals[i][1] + product[1]
        done = end
    return totals, r.size, per_node


def _pass(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    p: np.ndarray,
    first: int,
    last: int,
    per_node: int,
) -> Tuple[List[_Sums], int, int]:
    """The sums of each of levels first..last, evaluated together, the
    nodes evaluated and the values per node of the rows (see _row_sums).

    The nodes are ordered by level and within a level by half, as each
    level alone would have them.
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
        if handle.rows is None:
            return _evaluator_sums(handle, r, w, wp[0], p[0], levels), r.size, per_node
        return _row_sums(handle, r, w, wp, p, levels, per_node)


def _level_sums(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    spec: QuadratureSpec,
) -> Iterator[Tuple[Union[float, np.ndarray], Union[float, np.ndarray], int]]:
    """Weighted integrand sums of levels 0, 1, ... in turn.

    Yields the signed sum, the sum of magnitudes (the rounding floor of
    any cancellation), which are Gram matrices, one per table, for a rows
    integrand, and the number of nodes evaluated so far.  Levels
    0.._FIRST_PASS are evaluated in one pass, each deeper level alone;
    a pass ends at the first level with a non-finite sample, which is
    raised only when that level is reached.
    """
    p = _exponents(handle)
    n, per_node = 0, p.size  # one row per table until the rows are seen
    passes = [(0, _FIRST_PASS)] + [(level, level)
                                   for level in range(_FIRST_PASS + 1, spec.max_level + 1)]
    for first, last in passes:
        sums, evaluated, per_node = _pass(handle, maps, p, first, last, per_node)
        n += evaluated
        while sums:
            entry = sums.pop(0)  # so that no level's sums outlive their use
            if isinstance(entry, NonFiniteSampleError):
                raise entry
            yield (*entry, n)


def _refine(
    handle: IntegrandHandle,
    maps: Tuple[_HalfMap, ...],
    spec: QuadratureSpec,
) -> QuadratureResult:
    sums = _level_sums(handle, maps, spec)
    s0, a0, n = next(sums)
    value = _H0 * s0
    mass = _H0 * a0
    prev = value
    prev_err = math.inf
    for level, (s, a, n) in enumerate(sums, start=1):
        h = _H0 / 2.0**level
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
        entry of any table needs.  Levels 0..4 are evaluated in one pass
        (one call of an evaluator, or of rows with one row per table),
        deeper levels one pass each; the results equal those of
        evaluating level by level, bit for bit.

    Raises
    ------
    NonConvergenceError
        If max_level is exhausted; carries the partial value/err_est.
    NonFiniteSampleError
        If the integrand returns nan/inf at a contributing node of a level
        the refinement reaches.
    """
    maps = _build_maps(handle, float(spec.split_point))
    return _refine(handle, maps, spec)
