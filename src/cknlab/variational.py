"""Variational estimates of the per-mode constants.

The per-mode product quotient

    Q(c) = (c^T M_A c) (c^T M_B c) / (c^T M_C c)^2

is minimized over the trial spaces

    phi_j(r) = r^gamma0 exp(-x) L_j^(a)(2x),   x = r^q,   j < m,   q = alpha + 1,

which span the same nested spaces as r^(gamma0 + j*q) exp(-r^q) but keep
the Gram matrices well-conditioned (the monomial ones are Hilbert-like).
The trial functions stand for the radial profile v, and M_A, M_B, M_C are
the Gram matrices of the forms of ``constants.form_parts``, the
zero-order mode term of C included, so the minimum over the full space is
the per-mode constant itself.  Every derivative of a trial function is
r^g exp(-x) E_j(x) with E_j a polynomial, so a Gauss-Laguerre rule of
m + 3 nodes gives every Gram entry exactly.  The rules of all parts of a
triple are built together (one stacked eigenvalue call, one Newton
polish), and one Laguerre table, every derivative order at once, serves
all their nodes.  As a second route, a witness integrates the argmin's
profile v = sum_j c_j phi_j by double-exponential quadrature in r: its
energies must match c^T M c, and their quotient the reported value.

By AM-GM, ab = min over t > 0 of ((t a + b/t)/2)^2, so min Q over a trial
space is min over u = log t of (lambda_1(e^u M_A + e^-u M_B ; M_C) / 2)^2,
found by a one-dimensional search (see ``minimize_quotient``).

The symmetry-breaking scan also reports each mode's constant without the
zero-order part of C (that part is controlled separately by a
one-dimensional Hardy estimate, see ``constants.hardy_step_factor``).
The forms left act on v' only and are those of the radial problem in
dimension N + 2k, whose constant K(N+2k, alpha, 0) is proven and attained
by the extremal (1 + r^q) exp(-r^q); the scan takes it from the closed
form and checks it against that extremal's energies in dimension N + 2k.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import (
    DEFAULT_SCAN_SIZES,
    InequalityParams,
    ModeQuotient,
    form_parts,
    hardy_step_factor,
    mode_quotient_weighted,
    require_mode_index,
)
from .errors import (
    ConsistencyError,
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    RangeOverflowError,
    UnsupportedRegimeError,
    VerificationMismatchError,
)
from .quadrature import QuadratureSpec, integrate

__all__ = [
    "BasisSpec",
    "GramTriple",
    "MinimizationResult",
    "ModeConstantEstimate",
    "Witness",
    "ScanRow",
    "ScanReport",
    "make_basis",
    "build_gram",
    "minimize_quotient",
    "estimate_mode_constant",
    "symmetry_breaking_scan",
]

DEFAULT_TOL = 1e-10
DEFAULT_SCAN_K_MAX = 8

SPOT_CHECK_RTOL = 1e-10
TRACE_SLACK = 1e-10
LOWER_BOUND_SLACK = 1e-12

_MAX_GAMMA0_BUMPS = 8
_GAUSS_EXTRA_NODES = 3
# Rule exponents up to this diverge: -1 may round up (N = 2, alpha = 0.1).
_DIVERGENT_EXPONENT = -1.0 + 1e-12
_SEARCH_GRID = 16
_SEARCH_TOL = 1e-6
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


class _Factor(NamedTuple):
    """The ``order``-th derivative of every trial function as
    r^power exp(-x) E_j(x), E_j = sum_d coefs[d](x) P_j^(d)(x), row d of
    ``coefs`` holding the ascending coefficients of coefs[d]; powers of x
    common to every coefficient are moved into ``power``, so E_j need not
    vanish at 0."""

    order: int
    power: float
    coefs: np.ndarray


class _BasisSpec(NamedTuple):
    m: int
    gamma0: float
    decay_q: float


class BasisSpec(_BasisSpec):
    """Trial space phi_j = r^gamma0 e^(-x) P_j(x), P_j(x) = L_j^(a)(2x),
    x = r^q, j < m.

    ``m`` is the number of trial functions, ``gamma0`` the leading
    exponent and ``decay_q`` the exponent q of the decay (normally
    alpha + 1).  The decay rate is fixed to 1: the quotient is dilation
    invariant, so the rate is a gauge choice.  The Laguerre parameter a
    sets the conditioning but not the span; ``build_gram`` derives it from
    the quadratic forms and records it as ``diagnostics["laguerre_a"]``.
    A construction, a ``_replace`` and an unpickling all validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BasisSpec":
        self = super().__new__(cls, *args, **kwargs)
        m, gamma0, decay_q = self
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise DomainError(f"basis size m must be an integer >= 1, got {m!r}")
        if not (isinstance(gamma0, (int, float)) and math.isfinite(gamma0)):
            raise DomainError(f"gamma0 must be a finite real, got {gamma0!r}")
        if not (isinstance(decay_q, (int, float)) and math.isfinite(decay_q) and decay_q > 0):
            raise DomainError(f"decay_q must be a finite real > 0, got {decay_q!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "BasisSpec":
        return cls(*iterable)

    def factor(self, order: int) -> _Factor:
        """The polynomial factors of the ``order``-th derivatives."""
        return _factor(float(self.gamma0), float(self.decay_q), order)

    def factor_values(self, fac: _Factor, x: np.ndarray, lag: np.ndarray) -> np.ndarray:
        """E_j(x) for every trial function: an (m, len(x)) table, from the
        Laguerre tables ``lag`` of ``_laguerre_tables`` at y = 2x, to an
        order of at least ``fac.order``; sum_j c_j E_j(x), a row, from
        tables contracted with c (``evaluate``)."""
        poly = fac.coefs[:, -1:] + x * 0.0  # Horner's rule, every order at once
        for col in fac.coefs.T[-2::-1]:
            poly = col[:, None] + poly * x
        out = np.zeros(lag.shape[1:])
        for d in np.flatnonzero(np.any(fac.coefs, axis=1)):
            out += (2.0**d * poly[d]) * lag[d]
        return out

    def evaluate(self, facs: Sequence[_Factor], r: np.ndarray, a: float,
                 coeffs: np.ndarray) -> np.ndarray:
        """The derivatives of v = sum_j c_j phi_j, c = ``coeffs``, of every
        factor in ``facs`` at r > 0, with Laguerre parameter ``a``: a
        (len(facs), len(r)) stack.  One set of Laguerre tables serves every
        factor, contracted with c term by term first, so that a node's
        value does not depend on the other nodes of the call."""
        r = np.asarray(r, dtype=float)
        x = np.power(r, self.decay_q)
        with np.errstate(over="ignore", under="ignore"):
            amp = np.exp(np.array([fac.power for fac in facs])[:, None] * np.log(r) - x)
        out = np.zeros((len(facs), r.size))
        live = np.any(amp > 0.0, axis=0)
        if np.any(live):
            x = x[live]
            lag = _laguerre_tables(self.m, a, 2.0 * x, max(fac.order for fac in facs))
            lag = sum(c * tab for c, tab in zip(coeffs, lag.swapaxes(0, 1)))
            for i, fac in enumerate(facs):
                out[i, live] = self.factor_values(fac, x, lag) * amp[i, live]
        return out


@lru_cache(maxsize=64)
def _factor(g: float, q: float, order: int) -> _Factor:
    """``BasisSpec.factor`` of the trial space with gamma0 = g, decay q."""
    coefs = np.ones((1, 1))
    for _ in range(order):
        # (r^g e^-x sum c_d P^(d))' = r^(g-1) e^-x sum_d
        #     [g c_d + q x (c_d' - c_d) + q x c_(d-1)] P^(d)
        c = np.pad(coefs, ((0, 1), (0, 1)))
        shifted = np.pad(c[:, :-1], ((0, 0), (1, 0)))  # x c_d
        coefs = g * c + q * (np.arange(c.shape[1]) * c - shifted)
        coefs[1:] += q * shifted[:-1]
        g -= 1.0
    lead = int(np.flatnonzero(np.any(coefs, axis=0))[0])
    coefs = coefs[:, lead:]
    coefs.flags.writeable = False
    return _Factor(order, g + lead * q, coefs)


def _laguerre_tables(m: int, a, y: np.ndarray, order: int) -> np.ndarray:
    """L_j^(a)(y) and its first ``order`` derivatives in y: an
    (order + 1, m) + y.shape array, ``a`` a float or an array that
    broadcasts against y.

    The three-term recurrence (j+1) L_(j+1) = (2j+1+a-y) L_j - (j+a) L_(j-1),
    differentiated d times, gains the term -d L_j^(d-1); one step of it
    serves every derivative order at once.
    """
    tabs = np.zeros((order + 1, m) + y.shape)
    tabs[0, 0] = 1.0
    d = np.arange(1, order + 1).reshape((order,) + (1,) * y.ndim)
    for j in range(m - 1):
        slope = 2 * j + 1 + a - y
        nxt = slope * tabs[:, j]
        if j:
            nxt -= (j + a) * tabs[:, j - 1]
        nxt[1:] -= d * tabs[:-1, j]
        tabs[:, j + 1] = nxt / (j + 1)
    return tabs


def _gauss_laguerre(nodes: int, exponents: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss rules for int_0^inf y^s e^-y f(y) dy, one per s in ``exponents``,
    each exact for degree < 2 nodes: (len(exponents), nodes) arrays of nodes
    and weights.  Jacobi-matrix eigenvalues (Golub-Welsch, one stacked
    call) polished by one Newton step, and weights
    Gamma(n+s+1) / (n! y L_n^(s)'(y)^2), accurate even where tiny.  One
    step is enough: the moments sum w y^j, j < 2 nodes, of rules of 7, 19
    and 35 nodes with s in [-0.95, 30] lie within 7.3e-14 relative of
    Gamma(s+j+1), against 5.8e-14 after three steps.
    Not ``roots_genlaguerre``: its import of ``scipy.linalg`` costs 6 MB."""
    s = np.array(exponents)[:, None]
    i = np.arange(1.0, nodes)
    jacobi = np.zeros((len(exponents), nodes, nodes))
    k = np.arange(nodes)
    jacobi[:, k, k] = 2.0 * k + s + 1.0
    jacobi[:, k[1:], k[:-1]] = np.sqrt(i * (i + s))
    y = np.linalg.eigvalsh(jacobi)
    value, slope = _laguerre_tables(nodes + 1, s, y, 1)[:, nodes]
    y = y - value / slope
    log_scale = np.array([[math.lgamma(nodes + e + 1.0) - math.lgamma(nodes + 1.0)]
                          for e in exponents])
    w = np.exp(log_scale - np.log(y) - 2.0 * np.log(np.abs(slope)))
    return y, w


class _GramTriple(NamedTuple):
    m_a: np.ndarray
    m_b: np.ndarray
    m_c: np.ndarray
    params: InequalityParams
    k: int
    basis: BasisSpec
    diagnostics: Dict[str, object]


class GramTriple(_GramTriple):
    """Gram matrices of the three quadratic forms on one trial space.

    ``m_a``, ``m_b``, ``m_c`` are symmetric by construction.  ``m_b`` and
    ``m_c`` are checked positive definite; ``m_a`` is positive definite
    on every admissible trial space, by the weighted Hardy inequality
    (see ``minimize_quotient``).  ``diagnostics`` defaults to a fresh
    dict.  Triples compare and hash by identity, never by their
    arrays.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __new__(
        cls,
        m_a: np.ndarray,
        m_b: np.ndarray,
        m_c: np.ndarray,
        params: InequalityParams,
        k: int,
        basis: BasisSpec,
        diagnostics: Optional[Dict[str, object]] = None,
    ) -> "GramTriple":
        return super().__new__(cls, m_a, m_b, m_c, params, k, basis,
                               {} if diagnostics is None else diagnostics)

    @property
    def m(self) -> int:
        return self.basis.m

    def leading_block(self, size: int) -> "GramTriple":
        """The triple of the first ``size`` trial functions, cut from this one.

        Nested trial spaces share their functions, so its matrices are the
        leading ``size`` x ``size`` blocks.  Its diagnostics name the size it
        was cut from (``leading_block_of_m``) and repeat no conditioning
        measured on the whole."""
        basis = self.basis._replace(m=size)  # rejects a size that is not an integer >= 1
        if size > self.m:
            raise DomainError(f"block size {size} exceeds the trial space size {self.m}")
        if size == self.m:
            return self
        return GramTriple(
            m_a=self.m_a[:size, :size],
            m_b=self.m_b[:size, :size],
            m_c=self.m_c[:size, :size],
            params=self.params,
            k=self.k,
            basis=basis,
            diagnostics={
                "laguerre_a": self.diagnostics["laguerre_a"],
                "leading_block_of_m": self.m,
            },
        )


class MinimizationResult(NamedTuple):
    """Outcome of one quotient minimization.

    ``coeffs`` (Laguerre basis, a in the Gram diagnostics) has c^T M_C c = 1,
    largest component positive.  ``converged``: at t* = e^(u*) the
    eigenvector's relative residual |(t* M_A + M_B/t* - lambda_1 M_C) c| is
    <= DEFAULT_TOL and u* lies strictly inside its bracket.
    ``gradient_norm`` is that of log Q where M_C has unit diagonal;
    ``iterations`` counts eigenvalue evaluations.  ``warnings`` is empty;
    it keeps the ``minimize`` report's key.
    """

    value: float
    coeffs: np.ndarray
    iterations: int
    converged: bool
    gradient_norm: float
    warnings: Tuple[str, ...] = ()


class Witness(NamedTuple):
    """Worst relative gap, level and nodes of an estimate's quadrature witness."""

    worst_rel: float
    levels_used: int
    nodes_used: int


class ModeConstantEstimate(NamedTuple):
    """Nested-basis estimate of one per-mode constant with its trace."""

    params: InequalityParams
    k: int
    basis: BasisSpec
    basis_sizes: Tuple[int, ...]
    trace: Tuple[float, ...]
    final: MinimizationResult
    lower_bound: ModeQuotient  # the proven K(N, alpha, k) the estimate was checked against
    witness: Witness

    @property
    def value(self) -> float:
        return self.final.value


class ScanRow(NamedTuple):
    """Per-mode line of a symmetry-breaking scan.

    ``raw_value`` is the constant of mode k without the zero-order part of
    C, exactly K(N+2k, alpha, 0) = ((N+2k+3 alpha+1)/2)^2, checked against
    the energies of its extremal in dimension N + 2k; ``effective_value``
    is raw divided by the squared Hardy-step factor (a lower-bound
    correction; None when the factor is undefined), and ``full_value`` is
    the complete-C Rayleigh-Ritz estimate.  ``verdict_value`` is what the
    verdict compares: the full estimate, except at k=0 where raw is the
    same quotient's attained constant and the smaller of the two is used.
    """

    k: int
    raw_value: float
    hardy_factor: Optional[float]
    effective_value: Optional[float]
    full_value: float
    verdict_value: float
    full_converged: bool


class ScanReport(NamedTuple):
    """Scan outcome: per-mode rows plus the verdict they support."""

    params: InequalityParams
    k_max: int
    basis_sizes: Tuple[int, ...]
    rows: Tuple[ScanRow, ...]
    k_star: int
    best_value: float
    verdict: str
    flag: Optional[str] = None


def _rule_exponent(fac_power: float, power: float, q: float) -> float:
    """s in  int f_j f_l r^power dr = (1/q) int x^s e^(-2x) E_j E_l dx
    for f = r^fac_power e^(-x) E(x)."""
    return (2.0 * fac_power + power + 1.0) / q - 1.0


def _live_parts(params: InequalityParams, k: int, basis: BasisSpec) -> List[tuple]:
    """(form, factor, weight exponent, coefficient) of every nonzero part
    of the forms of ``constants.form_parts``."""
    return [(form, basis.factor(order), power, coef)
            for form, parts in enumerate(form_parts(params.n, params.alpha, k))
            for order, power, coef in parts if coef != 0.0]


def make_basis(params: InequalityParams, k: int, size: int) -> BasisSpec:
    """A trial space of ``size`` functions whose Gram integrals converge.

    The leading exponent starts at 0.  When it makes some Gram integral
    diverge near the origin, it is raised in steps of q/2 until every
    integral converges.
    """
    if params.alpha <= -1.0:
        raise UnsupportedRegimeError(
            f"basis decay exponent alpha+1 must be positive, got alpha={params.alpha}"
        )
    require_mode_index(k)
    q = params.alpha + 1.0
    g0 = 0.0
    for _ in range(_MAX_GAMMA0_BUMPS + 1):
        basis = BasisSpec(size, g0, q)
        if all(_rule_exponent(fac.power, power, q) > _DIVERGENT_EXPONENT
               for _, fac, power, _ in _live_parts(params, k, basis)):
            return basis
        g0 += q / 2.0
    raise DivergentIntegralError(
        f"no converging leading exponent found for n={params.n}, alpha={params.alpha},"
        f" k={k} (last tried gamma0={g0})"
    )


def _gauss_parts(
    basis: BasisSpec, live: Sequence[Tuple[int, _Factor, float, float]], a: float
) -> List[np.ndarray]:
    """int f_j f_l r^power dr for all j, l, for every (form, factor, power,
    coef) in ``live``: each by its own exact Gauss-Laguerre rule, the rules
    built together and the Laguerre tables evaluated once on all their
    nodes.  A part that is not finite raises ``RangeOverflowError``."""
    q, m = basis.decay_q, basis.m
    exponents = []
    for _, fac, power, _ in live:
        s = _rule_exponent(fac.power, power, q)
        if s <= _DIVERGENT_EXPONENT:
            raise DivergentIntegralError(
                f"Gram entries of derivative order {fac.order} with weight exponent "
                f"{power} diverge at the origin (rule exponent {s} <= -1)"
            )
        exponents.append(s)
    with np.errstate(over="ignore", invalid="ignore"):
        y, w = _gauss_laguerre(m + _GAUSS_EXTRA_NODES, exponents)
        lag = _laguerre_tables(m, a, y, max(fac.order for _, fac, _, _ in live))
        parts = []
        for i, ((_, fac, _, _), s) in enumerate(zip(live, exponents)):
            values = basis.factor_values(fac, y[i] / 2.0, lag[:, :, i])
            parts.append((values * (w[i] * 2.0 ** (-s - 1.0) / q)) @ values.T)
            if not np.all(np.isfinite(parts[-1])):
                raise RangeOverflowError(
                    f"the Gauss-Laguerre Gram part of derivative order {fac.order} "
                    f"(rule exponent {float(s)!r}) exceeds double-precision range"
                )
    return parts


def _pd_check(mat: np.ndarray, name: str, diagnostics: Dict[str, object]) -> None:
    diag = np.diag(mat)
    if np.any(diag <= 0) or not np.all(np.isfinite(mat)):
        raise ConsistencyError(f"{name} has a nonpositive diagonal or a nonfinite entry")
    d = 1.0 / np.sqrt(diag)
    scaled = _symmetric(mat * np.outer(d, d))
    eigs = np.linalg.eigvalsh(scaled)
    if eigs[0] <= 0.0 or _cholesky(scaled) is None:
        raise ConsistencyError(
            f"{name} is not positive definite "
            f"(min/max eigenvalue ratio {eigs[0] / eigs[-1]:.3e})"
        )
    diagnostics[f"cond_{name}"] = float(eigs[-1] / eigs[0])


def build_gram(params: InequalityParams, k: int, basis: BasisSpec) -> GramTriple:
    """Gram matrices of the A, B, C forms on the trial space.

    Each part of each form is assembled exactly as V^T diag(w) V on its
    own Gauss-Laguerre rule; the rules of all parts come from one batched
    computation, and one Laguerre table at the highest derivative order
    is evaluated on all their nodes (the witness of
    ``estimate_mode_constant`` checks them along its argmin).
    ``DivergentIntegralError`` names a diverging part, and
    ``ConsistencyError`` a failed positive definiteness check of M_B, M_C.
    """
    require_mode_index(k)
    if params.n < 2:
        raise DomainError(f"mode decomposition needs dimension n >= 2, got {params.n}")
    all_parts = form_parts(params.n, params.alpha, k)
    # Laguerre parameter a = the rule exponent of C's zero-order (last) part,
    # even where k = 0 drops it: that part is then diagonal.
    a = _rule_exponent(float(basis.gamma0), all_parts[2][-1][1], float(basis.decay_q))
    matrices = tuple(np.zeros((basis.m, basis.m)) for _ in range(3))
    live = _live_parts(params, k, basis)
    for (form, _, _, coef), part in zip(live, _gauss_parts(basis, live, a)):
        matrices[form][:] += coef * part
    for mat in matrices:
        mat[:] = _symmetric(mat)
    diagnostics: Dict[str, object] = {"laguerre_a": a}
    _pd_check(matrices[1], "m_b", diagnostics)
    _pd_check(matrices[2], "m_c", diagnostics)
    for mat in matrices:
        mat.flags.writeable = False
    return GramTriple(
        m_a=matrices[0],
        m_b=matrices[1],
        m_c=matrices[2],
        params=params,
        k=k,
        basis=basis,
        diagnostics=diagnostics,
    )


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


def _whitened(mat: np.ndarray, inv_chol: np.ndarray) -> np.ndarray:
    return _symmetric(inv_chol @ mat @ inv_chol.T)


def _cholesky(mat: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _brent(f, points: Sequence[float], values: Sequence[float]) -> Tuple[float, float]:
    """(f(x), x) at the lowest point that Brent's search finds in a bracket.

    ``points`` = (a, x, b) holds the bracket [a, b] and a point x in it,
    an end allowed, that is no higher than either end; ``values`` holds f
    at all three.  Each step goes to the vertex of the parabola through
    the three best points so far, unless that leaves the bracket or is
    not shorter than half the step before last; then it is a golden
    section step into the larger side of x (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).  The search stops
    once x lies within _SEARCH_TOL of both ends of the bracket, and no
    step is shorter than _SEARCH_TOL / 2.
    """
    (a, x, b), fx = points, values[1]
    # w and v, the second and third best points: the first step fits all three.
    (fw, w), (fv, v) = sorted([(values[0], a), (values[2], b)])
    tol = _SEARCH_TOL / 2.0
    step = last = b - a
    while max(x - a, b - x) > _SEARCH_TOL:
        middle = 0.5 * (a + b)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
            last, step = step, p / q
            if min(x + step - a, b - x - step) < _SEARCH_TOL:
                step = math.copysign(tol, middle - x)
        else:
            last = (a if x >= middle else b) - x
            step = _GOLDEN_STEP * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                (v, fv), (w, fw) = (w, fw), (u, fu)
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return fx, x


def minimize_quotient(gram: GramTriple) -> MinimizationResult:
    """Minimum of Q over the trial space by a one-dimensional search.

    Since ab = min over t of ((t a + b/t)/2)^2 for a, b >= 0, min Q is the
    minimum over u = log t of (lambda_1(u)/2)^2, lambda_1(u) the smallest
    eigenvalue of e^u M_A + e^-u M_B relative to M_C, and the optimal
    u = (1/2) log(b/a) lies in [(1/2) log lambda_min(M_B; M_A),
    (1/2) log lambda_max(M_B; M_A)].  A 17-point grid scans that bracket
    in one stacked eigenvalue call, and Brent's search (``_brent``, no
    eigenvectors) refines every grid point lower than its neighbours
    inside the bracket of those neighbours.
    lambda_1 need not be unimodal: the search is global when each of its
    basins holds such a grid point.  The value is Q at the eigenvector.

    _SEARCH_TOL = 1e-6, as a finer u moves the value by less than its
    checks resolve.  Q at the eigenvector of u is a Rayleigh-Ritz upper
    bound, at most lambda_1(u)^2 / 4, so it exceeds the bracket's minimum,
    at u*, by at most (lambda_1(u)^2 - lambda_1(u*)^2) / 4 = O((u - u*)^2),
    about (lambda_1''/lambda_1) (u - u*)^2 relative.  lambda_1''/lambda_1
    is at most 0.35 over N in {2, 3, 4, 5, 7, 12}, alpha in [-3/4, 2],
    k <= 3 and m <= 32, so a u within 1e-6 of u* moves Q by less than
    1e-12 relative, far inside the 1e-10 of the trace and witness checks.

    M_A is positive definite: with f = v' and s = N+2k-2 alpha-1, the
    weighted Hardy inequality int f'^2 r^s >= ((s-1)/2)^2 int f^2 r^(s-2)
    gives A >= ((N+2k+2 alpha)/2)^2 int v'^2 r^(N+2k-2 alpha-3) > 0 for
    N >= 2, alpha > -1.

    Raises
    ------
    ConsistencyError
        If M_A, M_B or M_C is not positive definite: numerical breakdown.
    """
    scale = 1.0 / np.sqrt(np.diag(gram.m_c))
    outer = np.outer(scale, scale)
    a_mat, b_mat, c_mat = (_symmetric(mat * outer) for mat in (gram.m_a, gram.m_b, gram.m_c))
    chol_a, chol_c = _cholesky(a_mat), _cholesky(c_mat)
    if chol_a is None:
        raise ConsistencyError(
            f"M_A is not positive definite on this trial space ({gram.params!r}, "
            f"k={gram.k}); the reduction ab = min_t ((t a + b/t)/2)^2 needs a >= 0"
        )
    if chol_c is None:
        raise ConsistencyError("M_C is not positive definite")
    inv_c = np.linalg.inv(chol_c)
    a_w, b_w = _whitened(a_mat, inv_c), _whitened(b_mat, inv_c)
    ratios = np.linalg.eigvalsh(_whitened(b_mat, np.linalg.inv(chol_a)))
    if not ratios[0] > 0.0:
        raise ConsistencyError("M_B is not positive definite")
    lo, hi = 0.5 * math.log(ratios[0]), 0.5 * math.log(ratios[-1])
    evaluations: List[float] = []

    def lam(u: float) -> float:
        evaluations.append(u)
        return float(np.linalg.eigvalsh(math.exp(u) * a_w + math.exp(-u) * b_w)[0])

    grid = np.linspace(lo, hi, _SEARCH_GRID + 1)
    evaluations.extend(grid)
    # math.exp as in lam: numpy's exp may round differently, which moves
    # the search.
    up = np.array([math.exp(u) for u in grid])[:, None, None]
    down = np.array([math.exp(-u) for u in grid])[:, None, None]
    values = np.linalg.eigvalsh(up * a_w + down * b_w)[:, 0].tolist()
    found = []
    for i, value in enumerate(values):
        left, right = max(i - 1, 0), min(i + 1, _SEARCH_GRID)
        if value <= min(values[left], values[right]):
            found.append(_brent(lam, (grid[left], grid[i], grid[right]),
                                (values[left], value, values[right])))
    _, u_star = min(found)
    inside = hi - lo <= _SEARCH_TOL or lo + _SEARCH_TOL < u_star < hi - _SEARCH_TOL

    t = math.exp(u_star)
    eigvals, eigvecs = np.linalg.eigh(t * a_w + b_w / t)
    c = inv_c.T @ eigvecs[:, 0]
    ac, bc, cc = a_mat @ c, b_mat @ c, c_mat @ c
    a, b, q_c = float(c @ ac), float(c @ bc), float(c @ cc)
    value = a * b / q_c**2
    if not (math.isfinite(value) and min(a, b, q_c) > 0):
        raise NonConvergenceError(
            "quotient minimization produced no positive finite value", value=float("nan")
        )
    pencil = t * ac + bc / t
    residual = np.linalg.norm(pencil - eigvals[0] * cc) / (
        np.linalg.norm(pencil) + abs(eigvals[0]) * np.linalg.norm(cc))
    grad = 2.0 * ac / a + 2.0 * bc / b - 4.0 * cc / q_c
    coeffs = scale * c
    if coeffs[int(np.argmax(np.abs(coeffs)))] < 0:
        coeffs = -coeffs
    coeffs.flags.writeable = False
    return MinimizationResult(
        value=value,
        coeffs=coeffs,
        iterations=len(evaluations),
        converged=bool(residual <= DEFAULT_TOL and inside),
        gradient_norm=float(np.linalg.norm(grad)),
    )


def estimate_mode_constant(
    params: InequalityParams,
    k: int,
    basis_sizes: Sequence[int],
    spec: Optional[QuadratureSpec] = None,
) -> ModeConstantEstimate:
    """Estimate of one per-mode constant over a nested sequence of trial
    spaces, its value checked by a quadrature witness.

    The spaces are nested: they share the leading exponent, the decay and
    the Laguerre parameter, which does not depend on the size.  So one
    Gram triple is built, at the largest size, and each smaller space is
    minimised on its leading block.  The value trace cannot increase
    beyond round-off.  A value below the proven per-mode lower bound
    K(N, alpha, k) raises ``ConsistencyError``.  Then a quadrature witness
    re-derives the value from the final argmin (``_witness``).
    """
    sizes = tuple(basis_sizes)
    if not sizes:
        raise DomainError("basis_sizes must be non-empty")
    for prev_size, size in zip(sizes, sizes[1:]):
        if size <= prev_size:
            raise DomainError(f"basis_sizes must be strictly increasing, got {sizes}")
    gram = build_gram(params, k, make_basis(params, k, sizes[-1]))
    trace = []
    for size in sizes:
        result = minimize_quotient(gram.leading_block(size))
        if trace and result.value > trace[-1] + TRACE_SLACK * max(1.0, abs(trace[-1])):
            raise ConsistencyError(
                f"estimate increased from {trace[-1]!r} to {result.value!r} "
                f"when the trial space grew to m={size}"
            )
        trace.append(result.value)
    bound = mode_quotient_weighted(params.n, params.alpha, k)
    if result.value < bound.value * (1.0 - LOWER_BOUND_SLACK):
        raise ConsistencyError(
            f"estimate {result.value!r} lies below the proven per-mode lower bound "
            f"K({params.n}, {params.alpha}, {k}) = {bound.value!r}"
        )
    return ModeConstantEstimate(
        params=params,
        k=k,
        basis=gram.basis,
        basis_sizes=sizes,
        trace=tuple(trace),
        final=result,
        lower_bound=bound,
        witness=_witness(gram, result, spec if spec is not None else QuadratureSpec()),
    )


def _witness(gram: GramTriple, result: MinimizationResult, spec: QuadratureSpec) -> Witness:
    """Check ``result`` against the energies of its profile
    v = sum_j c_j phi_j by quadrature: one ``integrate`` call on one
    row per live part, ``BasisSpec.evaluate`` of v, its tail
    centred at the top trial function's turning point x_c = 2(m-1) + a + 1
    if positive (797 nodes at N = 4, alpha = 0, k = 1, m = 16; 1592 on the
    decay hint).  Each form's energy must match c^T M c within
    SPOT_CHECK_RTOL of its scale S = sum |coef| (part's energy), and their
    quotient Q the value within SPOT_CHECK_RTOL of the scale those allow,
    Q (S_A/|A| + S_B/|B| + 2 S_C/|C|), else ``VerificationMismatchError``."""
    basis, a, c = gram.basis, gram.diagnostics["laguerre_a"], result.coeffs
    live = _live_parts(gram.params, gram.k, basis)
    facs = [fac for _, fac, _, _ in live]
    turn = 2.0 * (basis.m - 1) + a + 1.0
    res = integrate(lambda r: basis.evaluate(facs, r, a, c),
                    tuple(power for _, _, power, _ in live), spec,
                    decay_hint=(2.0, basis.decay_q),
                    tail_scale=turn ** (1.0 / basis.decay_q) if turn > 0.0 else None)
    quad, scale = np.zeros(3), np.zeros(3)
    for (form, _, _, coef), part in zip(live, res.value):
        quad[form] += coef * part
        scale[form] += abs(coef) * part
    gauss = [float(c @ mat @ c) for mat in (gram.m_a, gram.m_b, gram.m_c)] + [result.value]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.append(scale, result.value * (scale / abs(quad)) @ (1.0, 1.0, 2.0))
        quad = np.append(quad, quad[0] * quad[1] / quad[2] ** 2)
        rel = abs(gauss - quad) / scale
    i = int(np.argmin(rel <= SPOT_CHECK_RTOL))  # the first failed check, if any
    if not rel[i] <= SPOT_CHECK_RTOL:
        raise VerificationMismatchError(
            f"witness check failed for the {('energy A', 'energy B', 'energy C', 'quotient')[i]}"
            f" of the argmin: Gauss-Laguerre {gauss[i]!r} vs quadrature {float(quad[i])!r} "
            f"(rel {rel[i]:.3e})"
        )
    return Witness(float(rel.max()), res.levels_used, res.nodes_used)


def _checked_raw_value(params: InequalityParams, k: int, spec: Optional[QuadratureSpec]) -> float:
    """K(N+2k, alpha, 0), the constant of mode k without the zero-order part
    of C, checked against the energies of its extremal in dimension N + 2k:
    their ratio and their closed-vs-quadrature gap within SPOT_CHECK_RTOL.
    The energy layer loads here, on the scan path only: an estimate never
    reads it."""
    from .functionals import ExtremalFamily, extremal_profile, mode_energies

    radial = InequalityParams(params.n + 2 * k, params.alpha)
    exact = mode_quotient_weighted(radial.n, radial.alpha, 0).value
    extremal = extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, radial))
    spec = spec if spec is not None else QuadratureSpec()
    e = mode_energies(extremal, radial, 0, spec)
    ratio = (e.energy_a / e.energy_c) * (e.energy_b / e.energy_c)
    if not (abs(ratio - exact) <= SPOT_CHECK_RTOL * exact and e.rel_gap <= SPOT_CHECK_RTOL):
        raise ConsistencyError(
            f"energy ratio {ratio!r} of the extremal in dimension {radial.n} (closed vs "
            f"quadrature gap {e.rel_gap:.3e}) disagrees with "
            f"K({radial.n}, {params.alpha}, 0) = {exact!r} at k={k}"
        )
    return exact


def symmetry_breaking_scan(
    n: int,
    alpha: float = 0.0,
    k_max: int = DEFAULT_SCAN_K_MAX,
    basis_sizes: Sequence[int] = DEFAULT_SCAN_SIZES,
    spec: Optional[QuadratureSpec] = None,
) -> ScanReport:
    """Per-mode constants for k = 0..k_max and the mode that minimises them.

    Each row reports the exact constant without C's zero-order part (raw),
    the Hardy-corrected effective value raw / factor^2 (a lower-bound
    correction, None where the factor is undefined), and the complete-C
    Rayleigh-Ritz estimate.  The verdict compares the complete
    quotient estimates across modes (``verdict_value``): "radial" when
    k=0 attains the minimum, otherwise "symmetry-broken at k=<k*>".
    """
    params = InequalityParams(n, alpha)
    if n < 2:
        raise DomainError(f"symmetry-breaking scan needs dimension n >= 2, got {n}")
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    rows = []
    for k in range(k_max + 1):
        raw = _checked_raw_value(params, k, spec)
        full = estimate_mode_constant(params, k, basis_sizes, spec=spec)
        factor = hardy_step_factor(n, alpha, k)
        rows.append(ScanRow(
            k=k,
            raw_value=raw,
            hardy_factor=factor,
            effective_value=raw / factor**2 if factor is not None else None,
            full_value=full.value,
            verdict_value=min(full.value, raw) if k == 0 else full.value,
            full_converged=full.final.converged,
        ))
    best = min(rows, key=lambda row: (row.verdict_value, row.k))
    verdict = "radial" if best.k == 0 else f"symmetry-broken at k={best.k}"
    flag = "conjecture-open" if (n == 4 and alpha == 0.0) else None
    return ScanReport(
        params=params,
        k_max=k_max,
        basis_sizes=tuple(basis_sizes),
        rows=tuple(rows),
        k_star=best.k,
        best_value=best.verdict_value,
        verdict=verdict,
        flag=flag,
    )
