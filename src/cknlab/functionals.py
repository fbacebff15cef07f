"""Radial profiles, per-mode energies and quotients.

A function u on R^N decomposed over spherical harmonics phi_k reduces,
mode by mode, to radial profiles v(r).  For one mode k the three energies
entering the product inequality become one-dimensional integrals
(the surface measure of the sphere cancels in the quotient and is
omitted):

    A = int |v''|^2 r^(N+2k-2a-1) dr
        + (2a+1)(N+2k-1) int |v'|^2 r^(N+2k-2a-3) dr
    B = int |v'|^2 r^(N+2k-1) dr
    C = int |v'|^2 r^(N+2k-a-2) dr + (a+1) k int |v|^2 r^(N+2k-a-4) dr

with a the weight exponent alpha, and the per-mode quotient is
Q = A B / C^2, invariant under amplitude scaling and dilation of v.

A profile is three exponential polynomials, v, v' and v'' (``ExpPoly``,
whose decay power takes either sign), except that v may be left out: it
is then the tail integral -int_r^inf v' of a one-term v', an incomplete
Gamma function (the families "thm1.2-1a", "thmC-1" and "thmC-2").  The
energies are computed two independent ways, Gamma closed forms vs
adaptive quadrature, and cross-checked; a part that reads a left-out v
has the quadrature route only.

The closed-form extremal families are named by opaque ids (the CLI's
--family vocabulary).  With m := alpha + 1:

* "thm1.2-2", "thm1.2-1b", "thmA": v = a (1 + b r^m) exp(-b r^m)
  ("thmA" is the m = 1 specialisation);
* "thm1.2-1a": v' = -a exp(-b r^m)  (v = -int_r^inf v' is an upper
  incomplete Gamma; arises for N = 1, alpha <= -1/2);
* "thmB": v = a exp(-b r^2);
* "thmC-1" (beta < 1, b > 0):  v' = a r exp(-kappa r^(1-beta)),
  kappa = b / (1 - beta); v itself is an upper incomplete Gamma;
* "thmC-2" (beta > 1, b < 0):  v' = a r^(1-N) exp(-kappa r^(1-beta)),
  kappa = b / (1 - beta), a decay towards the origin; v is a lower
  incomplete Gamma, flat at the origin with an algebraic r^(2-N) tail;
* "thmD": v = a exp(-b r^(2m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constants import (
    FAMILY_IDS,
    InequalityParams,
    exponential_profile_quotient,
    form_parts,
    require_mode_index,
)
from .errors import (
    ConsistencyError,
    DivergentIntegralError,
    DomainError,
    RangeOverflowError,
    ZeroDenominatorError,
)
from .exppoly import ExpPoly, evaluate
from .quadrature import QuadratureSpec, integrate
from .special import regularized_gamma_p, regularized_gamma_q, weighted_exp_integral

__all__ = [
    "ExtremalFamily",
    "RadialProfile",
    "ModeEnergy",
    "laplace_beltrami_eigenvalue",
    "extremal_profile",
    "profile_from_exppoly",
    "exponential_profile",
    "form_parts",
    "mode_energies",
    "mode_quotient",
    "test_function_quotient",
    "one_dim_quotient",
]

# Dual-path agreement tolerance for energies (relative).
ENERGY_AGREEMENT_RTOL = 1e-9
# Closed form vs quadrature of the test-function quotient (relative).
TEST_FUNCTION_RTOL = 1e-10
# Denominator energies below this are treated as zero.
_DENOM_FLOOR = 1e-150


@dataclass(frozen=True)
class ExtremalFamily:
    """A closed-form extremal profile: family id plus amplitude a and
    rate b (dilation gauge).  b > 0 except for "thmC-2" where b < 0."""

    family_id: str
    a: float
    b: float
    params: InequalityParams

    def __post_init__(self) -> None:
        if self.family_id not in FAMILY_IDS:
            raise DomainError(
                f"unknown family id {self.family_id!r}; expected one of {FAMILY_IDS}"
            )
        if not (math.isfinite(self.a) and self.a != 0.0):
            raise DomainError(f"amplitude a must be finite and nonzero, got {self.a!r}")
        if not math.isfinite(self.b):
            raise DomainError(f"rate b must be finite, got {self.b!r}")
        if self.family_id == "thmC-2":
            if self.b >= 0.0:
                raise DomainError("family 'thmC-2' requires b < 0")
        elif self.b <= 0.0:
            raise DomainError(f"family {self.family_id!r} requires b > 0")
        if self.family_id.startswith("thm1.2") or self.family_id == "thmD":
            if not float(self.params.alpha) > -1.0:
                raise DomainError(
                    f"family {self.family_id!r} requires alpha > -1, "
                    f"got {self.params.alpha}"
                )
        if self.family_id == "thmC-1":
            if self.params.beta is None or not float(self.params.beta) < 1.0:
                raise DomainError("family 'thmC-1' requires params.beta < 1")
        if self.family_id == "thmC-2":
            if self.params.beta is None or not float(self.params.beta) > 1.0:
                raise DomainError("family 'thmC-2' requires params.beta > 1")
            if self.params.n < 3:
                raise DomainError(
                    "family 'thmC-2' requires N >= 3 (profile reconstruction "
                    "diverges otherwise)"
                )


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile v, given by the exponential polynomials
    ``closed`` = (v, v', v'').

    v may be None: it is then the tail integral -int_r^inf v' of a
    one-term v' = c r^p exp(-kappa r^s) with kappa > 0 and (p+1)/s > 0,
    an incomplete Gamma function (``_tail_values``).  Scaling and
    dilation act on the polynomials, so a left-out v stays the tail
    integral of its v'.
    """

    closed: Tuple[Optional[ExpPoly], ExpPoly, ExpPoly]

    def __post_init__(self) -> None:
        if not (len(self.closed) == 3 and isinstance(self.closed[0], (ExpPoly, type(None)))
                and all(isinstance(poly, ExpPoly) for poly in self.closed[1:])):
            raise DomainError("a profile is (v, v', v''), each an ExpPoly, with v None for "
                              "the tail integral of v'")
        v, d1, _ = self.closed
        if v is None and not (len(d1.terms) == 1 and d1.rate > 0.0
                              and (d1.terms[0][0] + 1.0) / d1.decay_power > 0.0):
            raise DomainError("a profile without v needs a one-term v' = c r^p exp(-kappa r^s), "
                              "kappa > 0, (p+1)/s > 0, whose tail integral is v")

    @property
    def decay_hint(self) -> Optional[Tuple[float, float]]:
        """(rate, q) of v' where it decays at infinity (q > 0), else None."""
        d1 = self.closed[1]
        return (d1.rate, d1.decay_power) if d1.decay_power > 0.0 else None

    def scaled(self, s: float) -> "RadialProfile":
        """Amplitude-scaled profile s * v."""
        if not (math.isfinite(s) and s != 0.0):
            raise DomainError(f"scale must be finite and nonzero, got {s!r}")
        return RadialProfile(tuple(None if poly is None else poly.scaled(s)
                                   for poly in self.closed))

    def dilated(self, lam: float) -> "RadialProfile":
        """The profile r -> v(lam * r): the order-j component gains lam^j.

        Raises RangeOverflowError where lam^2, or a power of lam that
        ``ExpPoly.dilated`` takes, exceeds double-precision range.
        """
        if not (math.isfinite(lam) and lam > 0.0):
            raise DomainError(f"dilation factor must be finite and > 0, got {lam!r}")
        try:
            factors = (1.0, lam, lam**2)
        except OverflowError:
            raise RangeOverflowError(
                f"the power lam^2 of the dilation factor lam = {lam!r} exceeds "
                "double-precision range") from None
        return RadialProfile(tuple(None if poly is None else poly.dilated(lam).scaled(f)
                                   for poly, f in zip(self.closed, factors)))


@dataclass(frozen=True)
class ModeEnergy:
    """The per-mode energy triple (A, B, C) for one profile.

    ``method`` is the route that ran: "both" (closed forms cross-checked
    by quadrature) or "quadrature".  ``levels_used`` and ``nodes_used``
    are the refinement depth and node count of the one ``integrate`` call
    behind the triple.  ``rel_gap`` is the worst relative disagreement
    between the closed and quadrature routes where both ran, else None.
    """

    energy_a: float
    energy_b: float
    energy_c: float
    k: int
    params: InequalityParams
    method: str
    levels_used: int
    nodes_used: int
    rel_gap: Optional[float] = None


def laplace_beltrami_eigenvalue(n: int, k: int) -> int:
    """Eigenvalue k (N + k - 2) of the spherical Laplacian on the k-th
    harmonic subspace of S^(N-1); N >= 2, k >= 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"eigenvalues require integer dimension n >= 2, got {n!r}")
    require_mode_index(k)
    return k * (n + k - 2)


# -- profile constructors --------------------------------------------------


def _tail_values(d1: ExpPoly, r: np.ndarray) -> np.ndarray:
    """v = -int_r^inf v' at r > 0 for a one-term v' = c r^p exp(-kappa r^s).
    Substituting y = kappa x^s turns it into an incomplete Gamma:

        v(r) = -c W(p; kappa, s) R(g, kappa r^s),   g = (p+1)/s,

    with W = int_0^inf x^p exp(-kappa x^s) dx (``weighted_exp_integral``)
    and R the upper Q for s > 0 and the lower P for s < 0, where y runs
    the other way.  W is taken here, so a v beyond double range fails
    only the forms that read v itself.
    """
    (p, c), = d1.terms
    kappa, s = d1.rate, d1.decay_power
    incomplete = regularized_gamma_q if s > 0.0 else regularized_gamma_p
    return -c * weighted_exp_integral(p, kappa, s) * incomplete((p + 1.0) / s,
                                                                kappa * np.power(r, s))


def _tail_profile(c: float, p: float, kappa: float, s: float) -> RadialProfile:
    """The profile whose v is the tail integral of the one-term
    v' = c r^p exp(-kappa r^s)."""
    d1 = ExpPoly(((p, c),), kappa, s)
    return RadialProfile((None, d1, d1.derivative()))


def profile_from_exppoly(poly_v: ExpPoly) -> RadialProfile:
    """Profile from a closed-form v; derivatives are derived symbolically."""
    if poly_v.rate <= 0.0:
        raise DomainError("profile polynomials must decay (rate > 0)")
    d1 = poly_v.derivative()
    return RadialProfile((poly_v, d1, d1.derivative()))


def exponential_profile(rate: float = 1.0) -> RadialProfile:
    """The reference profile v = exp(-rate * r)."""
    return profile_from_exppoly(ExpPoly(((0.0, 1.0),), rate, 1.0))


def extremal_profile(fam: ExtremalFamily, spec: QuadratureSpec = QuadratureSpec()) -> RadialProfile:
    """The RadialProfile of a closed-form extremal family member.

    ``spec`` is not used; it is kept for callers."""
    a, b = float(fam.a), float(fam.b)
    alpha = float(fam.params.alpha)
    m = alpha + 1.0
    fid = fam.family_id

    if fid in ("thm1.2-2", "thm1.2-1b", "thmA"):
        if fid == "thmA":
            m = 1.0
        # v = a (1 + b r^m) e^{-b r^m}; the r^(2m-1) form of v' below is
        # the telescoped derivative (the r^(m-1) terms cancel).
        try:
            coefs = (a * b, -a * b**2 * m, -a * b**2 * m * (2.0 * m - 1.0), a * b**3 * m**2)
            if not all(map(math.isfinite, coefs)):
                raise OverflowError
        except OverflowError:
            raise RangeOverflowError(
                f"a coefficient of the {fid} profile or its derivatives exceeds "
                "double-precision range"
            ) from None
        v1, d1, d2_low, d2_high = coefs
        poly_v = ExpPoly(((0.0, a), (m, v1)), b, m)
        poly_d1 = ExpPoly(((2.0 * m - 1.0, d1),), b, m)
        poly_d2 = ExpPoly(((2.0 * m - 2.0, d2_low), (3.0 * m - 2.0, d2_high)), b, m)
        for name, formula, poly in (("v'", "-a b^2 m", poly_d1), ("v''", "a b^3 m^2", poly_d2)):
            if poly.is_zero:
                raise RangeOverflowError(
                    f"the coefficient {formula} of the {fid} profile's {name} underflows "
                    f"double-precision range (a={a!r}, b={b!r}, m={m!r})")
        return RadialProfile((poly_v, poly_d1, poly_d2))

    if fid == "thm1.2-1a":
        # v(r) = a * integral_r^inf e^{-b s^m} ds.
        return _tail_profile(-a, 0.0, b, m)

    if fid == "thmB":
        return profile_from_exppoly(ExpPoly(((0.0, a),), b, 2.0))

    if fid == "thmD":
        return profile_from_exppoly(ExpPoly(((0.0, a),), b, 2.0 * m))

    if fid == "thmC-1":
        s = 1.0 - float(fam.params.beta)  # > 0
        # v' = a r e^{-kappa r^s}, kappa = b / s.
        return _tail_profile(a, 1.0, b / s, s)

    # "thmC-2": beta > 1, b < 0; v' = a r^(1-N) e^{-kappa r^s} decays
    # towards the origin, as s = 1 - beta < 0 and kappa = b / s > 0.
    s = 1.0 - float(fam.params.beta)
    return _tail_profile(a, 1.0 - fam.params.n, b / s, s)


# -- energies and quotients -------------------------------------------------


def _lead(profile: RadialProfile, order: int) -> Tuple[float, float]:
    """(t, q): the ``order``-th derivative of v behaves like r^t where its
    decay power q does not reach, at the origin for q > 0 and at infinity
    for q < 0.

    A left-out v = -int_r^inf v' tends at the origin to the nonzero
    -int_0^inf v', as v' keeps its sign, so t = 0 there; at infinity
    t = p + 1 for v' ~ r^p.
    """
    poly = profile.closed[order]
    if poly is not None:
        return poly.lead_power, poly.decay_power
    d1 = profile.closed[1]
    return (0.0 if d1.decay_power > 0.0 else d1.lead_power + 1.0), d1.decay_power


def _combine(pairs, coefs) -> Tuple[float, Optional[float]]:
    """Combine per-part (closed, quad) pairs with coefficients into
    (value, rel_gap): the value prefers closed parts, and where every
    part has one, rel_gap is the relative gap of the combined closed vs
    the combined quadrature totals."""
    value = sum(coef * (quad if closed is None else closed)
                for (closed, quad), coef in zip(pairs, coefs))
    if any(closed is None for closed, _ in pairs):
        return value, None
    quad_total = sum(coef * quad for (_, quad), coef in zip(pairs, coefs))
    return value, abs(value - quad_total) / max(abs(value), abs(quad_total), 1e-300)


def _energies(
    profile: RadialProfile,
    params: InequalityParams,
    k: int,
    spec: QuadratureSpec,
    method: str,
) -> ModeEnergy:
    """The energy triple of ``form_parts``; parts with a zero coefficient
    are skipped.

    First each part is checked to converge where its component's decay
    does not reach (``_lead``): the first part that diverges at the
    origin is named, and of those read at infinity the fastest-growing.
    The closed route takes every part of one component from one
    ``ExpPoly.square_moments`` call: on the exponent ladder, one Gamma
    factor a part and no product polynomial.  The quadrature route is one
    ``integrate`` call on the stack of every live part, each weighted by
    its own power of r: on each batch of nodes every component the parts
    read is evaluated once, the polynomials together in one
    ``exppoly.evaluate`` and a left-out v by ``_tail_values``.
    """
    if method not in ("auto", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    polys = profile.closed
    live = [(form, order, power, coef)
            for form, parts in enumerate(form_parts(params.n, params.alpha, k))
            for order, power, coef in parts if coef != 0.0]
    far = []
    for form, order, power, _ in live:
        lead, q = _lead(profile, order)
        growth = 2.0 * lead + power
        if q > 0.0 and growth <= -1.0:
            raise DivergentIntegralError(
                f"energy {'ABC'[form]} diverges at the origin: its part "
                f"int |v^({order})|^2 r^{power} dr behaves like r^{growth}"
            )
        if q < 0.0:
            far.append((growth, form, order, power))
    if far and max(far)[0] >= -1.0:
        growth, form, order, power = max(far)
        raise DivergentIntegralError(
            f"energy {'ABC'[form]} diverges at infinity: its part "
            f"int |v^({order})|^2 r^{power} dr behaves like r^{growth}, as v' ~ "
            f"r^{polys[1].lead_power}"
        )
    closed: List[Optional[float]] = [None] * len(live)
    if method == "auto":
        # The parts read v'', v' and v in that order, so taking each
        # component's parts together keeps the order of the moments: the
        # first part that fails is the one that raises.
        reads: Dict[int, List[int]] = {}
        for i, part in enumerate(live):
            reads.setdefault(part[1], []).append(i)
        for order, index in reads.items():
            if polys[order] is not None:
                moments = polys[order].square_moments([live[i][2] for i in index])
                for i, value in zip(index, moments):
                    closed[i] = value
    orders = sorted({order for _, order, _, _ in live})
    closed_orders = [order for order in orders if polys[order] is not None]
    tail = len(closed_orders) < len(orders)

    def rows(r):
        comps = dict(zip(closed_orders, evaluate([polys[order] for order in closed_orders], r)))
        if tail:
            comps[0] = _tail_values(polys[1], r)
        return np.stack([comps[order] for _, order, _, _ in live])

    hint = profile.decay_hint
    if hint is not None:
        hint = (2.0 * hint[0], hint[1])
    res = integrate(rows, tuple(part[2] for part in live), spec, decay_hint=hint)
    quad = res.value.tolist()
    energies, gaps = [], []
    for form in range(3):
        index = [i for i, part in enumerate(live) if part[0] == form]
        energy, gap = _combine([(closed[i], quad[i]) for i in index],
                               [live[i][3] for i in index])
        energies.append(energy)
        if gap is not None:
            gaps.append(gap)
    rel_gap = max(gaps) if gaps else None
    if rel_gap is not None and rel_gap > ENERGY_AGREEMENT_RTOL:
        raise ConsistencyError(
            f"closed-form and quadrature energies disagree (rel gap {rel_gap:.3e} "
            f"> {ENERGY_AGREEMENT_RTOL}) for k={k}, params={params!r}"
        )
    return ModeEnergy(*energies, k, params, "both" if method == "auto" else "quadrature",
                      res.levels_used, res.nodes_used, rel_gap)


def _quotient(e: ModeEnergy) -> float:
    """A B / C^2 evaluated as (A/C)(B/C), so that energies near the float
    range do not overflow."""
    if not (e.energy_c > _DENOM_FLOOR):
        raise ZeroDenominatorError(
            f"denominator energy C = {e.energy_c!r} is zero (or numerically so)"
        )
    return (e.energy_a / e.energy_c) * (e.energy_b / e.energy_c)


def mode_energies(
    profile: RadialProfile,
    params: InequalityParams,
    k: int,
    spec: QuadratureSpec = QuadratureSpec(),
    method: str = "auto",
) -> ModeEnergy:
    """The energy triple (A, B, C) of one profile on mode k.

    ``method``:

    * "auto" (default): both routes, cross-checked to 1e-9 relative; a
      part that reads a left-out v has the quadrature route only;
    * "quadrature": adaptive quadrature only.

    Raises ConsistencyError when the two routes disagree, and
    DivergentIntegralError naming the form when a part diverges at the
    origin or, for a profile that decays towards the origin, at infinity.
    """
    require_mode_index(k)
    if params.n < 2:
        raise DomainError("mode energies require dimension n >= 2 "
                          "(use one_dim_quotient for N = 1)")
    alpha = float(params.alpha)
    if not alpha > -1.0:
        raise DomainError(f"alpha must be > -1, got {alpha}")
    return _energies(profile, params, k, spec, method)


def mode_quotient(
    profile: RadialProfile,
    params: InequalityParams,
    k: int,
    spec: QuadratureSpec = QuadratureSpec(),
    method: str = "auto",
) -> float:
    """The per-mode quotient Q = A B / C^2 of one profile, evaluated as
    (A/C)(B/C) so that energies near the float range do not overflow."""
    return _quotient(mode_energies(profile, params, k, spec, method))


def test_function_quotient(n: int, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Quotient of the explicit first-harmonic test function (profile
    v = e^{-r} on mode k = 1, alpha = 0).

    Its closed form is  N (N+4) (N^2-1)^2 / (4 (N^2-N+4)^2)  via three
    Gamma integrals; the value is recomputed by adaptive quadrature and
    the two must agree to TEST_FUNCTION_RTOL = 1e-10 relative
    (ConsistencyError otherwise).
    Returns the closed form.  For N in {2, 3} this value lies below the
    radial constant (N+1)^2/4 (breaking symmetry); for N = 4 above it.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"test function quotient requires integer n >= 2, got {n!r}")
    exact = exponential_profile_quotient(n)
    q_quad = mode_quotient(exponential_profile(1.0), InequalityParams(n, 0.0), 1, spec,
                           method="quadrature")
    rel = abs(q_quad - float(exact)) / float(exact)
    if rel > TEST_FUNCTION_RTOL:
        raise ConsistencyError(
            f"test-function quotient: quadrature value {q_quad!r} disagrees with "
            f"closed form {float(exact)!r} (rel {rel:.3e})"
        )
    return float(exact)


def one_dim_quotient(
    profile: RadialProfile,
    alpha: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """The N = 1 quotient for even profiles v(|x|): the forms of
    ``form_parts(1, alpha, 0)``,

        Q = (int |v''|^2 r^(-2a) dr) (int |v'|^2 dr) / (int |v'|^2 r^(-a-1) dr)^2

    (the factor 2 of the even extension cancels).  Requires alpha > -1.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be finite and > -1, got {alpha!r}")
    return _quotient(_energies(profile, InequalityParams(1, alpha), 0, spec, "auto"))
