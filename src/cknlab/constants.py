"""Closed-form sharp constants and per-mode quotient formulas.

The inequality under study bounds the product of a weighted second-order
energy and the gradient energy from below by the square of a mixed
weighted gradient term:

    (int |Lap u|^2 / |x|^(2 alpha))  *  (int |grad u|^2)
        >=  C  *  (int |grad u|^2 / |x|^(alpha+1))^2 .

Decomposing u into spherical-harmonic modes turns the sharp constant into
an infimum over the mode index k of explicit rational expressions in
(N, k, alpha).  Two per-mode formulas appear:

* tag ``"J"``  - the unweighted case (alpha = 0),
* tag ``"K"``  - the weighted case, reducing to "J" at alpha = 0,

plus tag ``"DN-general"`` for a catch-all lower bound valid for a second
weight exponent beta on the gradient term.

All formulas are rational, so they are evaluated exactly with
``fractions.Fraction`` (binary floats convert exactly) and reported as
floats with the exact rational attached.  The k = 0 expressions are 0/0
at isolated parameter values (N = 3 for "J", alpha = N - 3 for "K"); the
limit value ((N + 2k + 3 alpha + 1)/2)^2 is used uniformly at k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    RangeOverflowError,
    UnsupportedRegimeError,
)

__all__ = [
    "InequalityParams",
    "ModeQuotient",
    "ModeInfimumResult",
    "BoundsReport",
    "ClosedFormConstant",
    "FORMULA_PLAIN",
    "FORMULA_WEIGHTED",
    "FORMULA_GENERAL",
    "mode_quotient_plain",
    "mode_quotient_weighted",
    "mode_infimum",
    "sharp_constant_closed_form",
    "symmetry_breaking_bounds",
    "exponential_profile_quotient",
    "reference_constants",
    "dn_general_lower_bound",
    "tail_certificate",
    "hardy_step_factor",
    "FAMILY_IDS",
    "DEFAULT_SCAN_SIZES",
]

FORMULA_PLAIN = "J"
FORMULA_WEIGHTED = "K"
FORMULA_GENERAL = "DN-general"

DEFAULT_K_MAX = 64

# Ids of the closed-form extremal families (``functionals.ExtremalFamily``),
# and the nested trial-space sizes of the variational estimates
# (``variational``): defined here so that the CLI reads them without
# loading the numeric layer.
FAMILY_IDS = (
    "thmA",
    "thm1.2-1a",
    "thm1.2-1b",
    "thm1.2-2",
    "thmB",
    "thmC-1",
    "thmC-2",
    "thmD",
)
DEFAULT_SCAN_SIZES = (4, 8, 16)


@dataclass(frozen=True)
class InequalityParams:
    """Parameters (N, alpha, beta) of one inequality instance.

    ``beta`` is the optional second weight exponent used only by the
    general lower bound and the weighted-gradient reference constants.
    """

    n: int
    alpha: float = 0.0
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"dimension n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be a finite real, got {self.alpha!r}")
        if self.beta is not None and not (
            isinstance(self.beta, (int, float)) and math.isfinite(self.beta)
        ):
            raise DomainError(f"beta must be a finite real or None, got {self.beta!r}")


@dataclass(frozen=True)
class ModeQuotient:
    """One per-mode quotient value with its exact rational form."""

    k: int
    value: float
    formula: str  # "J" | "K" | "DN-general"
    params: InequalityParams
    exact: Optional[Fraction] = None


@dataclass(frozen=True)
class ModeInfimumResult:
    """Infimum of a per-mode formula over k in {0, ..., k_max}."""

    quotient: ModeQuotient
    argmin_k: int
    tail_verified: bool
    k_max: int

    @property
    def value(self) -> float:
        return self.quotient.value

    @property
    def exact(self) -> Optional[Fraction]:
        return self.quotient.exact


@dataclass(frozen=True)
class BoundsReport:
    """Rigorous two-sided bounds on the sharp constant for N in {2, 3, 4},
    where no closed form is known."""

    n: int
    lower: float
    upper: float
    conjectured: float
    exact_lower: Fraction
    exact_upper: Fraction
    exact_conjectured: Fraction
    flag: Optional[str] = None  # "conjecture-open" for N = 4


@dataclass(frozen=True)
class ClosedFormConstant:
    """A closed-form sharp constant with its case label and extremal
    family id."""

    value: float
    exact: Fraction
    case: str
    family_id: str
    params: InequalityParams


def _require_mode_args(n: int, k: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"mode quotients require integer dimension n >= 2, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"mode index k must be an integer >= 0, got {k!r}")


def exact_to_float(exact: Fraction, what: str) -> float:
    """The float nearest ``exact``; RangeOverflowError (naming ``what``)
    where it lies beyond double-precision range."""
    try:
        return float(exact)
    except OverflowError:
        raise RangeOverflowError(f"{what} exceeds double-precision range") from None


def mode_quotient_plain(n: int, k: int) -> ModeQuotient:
    """Per-mode quotient of the unweighted (alpha = 0) inequality, tag "J".

    J(N, k) = (N+2k-3)^4 (N+2k+1)^2 / (4 [(N+2k-3)^2 + 4k]^2) for k >= 1;
    the k = 0 value is the radial constant (N+1)^2 / 4 (limit convention
    covers the 0/0 at N = 3).
    """
    _require_mode_args(n, k)
    if k == 0:
        exact = Fraction((n + 1) ** 2, 4)
    else:
        t = n + 2 * k - 3
        exact = Fraction(t**4 * (n + 2 * k + 1) ** 2, 4 * (t**2 + 4 * k) ** 2)
    return ModeQuotient(k, exact_to_float(exact, f"J(N, {k})"), FORMULA_PLAIN,
                        InequalityParams(n), exact)


def mode_quotient_weighted(n: int, alpha: float, k: int) -> ModeQuotient:
    """Per-mode quotient of the weighted inequality, tag "K".

    K(N, alpha, k) = (N+2k-alpha-3)^4 (N+2k+3 alpha+1)^2
                     / (4 [(N+2k-alpha-3)^2 + 4 (alpha+1) k]^2)

    for k >= 1; the k = 0 value is (N+3 alpha+1)^2 / 4.  Reduces exactly
    to the "J" formula at alpha = 0.  Requires alpha > -1 (the weighted
    energies are defined only there), n >= 2.
    """
    _require_mode_args(n, k)
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be finite and > -1, got {alpha!r}")
    a = Fraction(alpha)
    if k == 0:
        exact = ((n + 3 * a + 1) / 2) ** 2
    else:
        t = n + 2 * k - a - 3
        den = t**2 + 4 * (a + 1) * k
        exact = t**4 * (n + 2 * k + 3 * a + 1) ** 2 / (4 * den**2)
    return ModeQuotient(k, exact_to_float(exact, f"K(N, alpha, {k})"), FORMULA_WEIGHTED,
                        InequalityParams(n, float(alpha)), exact)


def _weighted_float(n: int, alpha: float, k: int) -> float:
    """Float evaluation of the "K" formula (k = 0 is the limit value)."""
    if k == 0:
        return ((n + 3.0 * alpha + 1.0) / 2.0) ** 2
    t = n + 2.0 * k - alpha - 3.0
    den = t**2 + 4.0 * (alpha + 1.0) * k
    return t**4 * (n + 2.0 * k + 3.0 * alpha + 1.0) ** 2 / (4.0 * den**2)


def _near_minimal(values: Sequence[float]) -> List[int]:
    """The indices whose float value is within 1e-6 relative of the float
    minimum: the candidates an exact re-evaluation decides between."""
    fmin = min(values)
    return [k for k, v in enumerate(values) if v <= fmin * (1.0 + 1e-6)]


def hardy_step_factor(n: int, alpha: float, k: int) -> Optional[float]:
    """Factor [1 + 4(alpha+1)k / (N+2k-alpha-3)^2] relating the reduced
    derivative-substitution problem to the per-mode quotient.

    Returns None when N+2k-alpha-3 <= 0 (the substitution's integration
    by parts is not valid there).
    """
    if k == 0:
        return 1.0
    t = n + 2 * k - alpha - 3.0
    if t <= 0.0:
        return None
    return 1.0 + 4.0 * (alpha + 1.0) * k / t**2


def tail_certificate(n: int, alpha: float) -> bool:
    """Exact certificate that K(N, alpha, k) >= K(N, alpha, 1) for every
    k >= 1 ("J" at alpha = 0).

    The continuous extension

        F(x) = t^4 (t + 4m)^2 / (4 (t^2 + 2 m x)^2),   F(2k) = K(N, alpha, k),

    with m = alpha + 1, t = x + N - alpha - 3 and t0 = N - alpha - 1 (the
    value of t at x = 2) has, for t0 > 0 and m > 0, F'(x) of the sign of

        P(t) = t^3 + 4m t^2 + (8m^2 - 6m (t0-2)) t - 16m^2 (t0-2)

    on x >= 2.  In P(t0 + s) the coefficients of s^3, s^2 and s are
    1, 3 t0 + 4m and 3 t0^2 + 2m t0 + 8m^2 + 12m, all positive; the
    constant term is P(t0) = t0 (t0 - 4m)(t0 + 2m) + 12m t0 + 32m^2.  So F
    is non-decreasing on all of [2, oo) exactly when P(t0) >= 0, which
    this evaluates in ``Fraction`` arithmetic.  It always holds when
    N >= 5 alpha + 5 (then t0 >= 4m), and for "J" at every N >= 2.
    """
    m = Fraction(alpha) + 1
    t0 = n - m
    if not (m > 0 and t0 > 0):
        return False
    return t0 * (t0 - 4 * m) * (t0 + 2 * m) + 12 * m * t0 + 32 * m**2 >= 0


def mode_infimum(
    formula: str,
    params: InequalityParams,
    k_max: int = DEFAULT_K_MAX,
) -> ModeInfimumResult:
    """Infimum over k in {0..k_max} of a per-mode quotient formula.

    The scan runs in floats; every k whose float value is within 1e-6
    relative of the float minimum is then re-evaluated exactly and the
    exact minimum of that candidate set is returned (float arithmetic on
    these rationals is accurate to ~1e-15, so the 1e-6 net cannot miss
    the true argmin).

    In the regimes where the quotient formula is eventually monotone in
    the mode index (always for "J" with N >= 2; for "K" when alpha > -1
    and N >= 5 alpha + 5), ``tail_certificate`` additionally proves
    exactly that no k beyond the scan range can undercut the reported
    infimum; ``tail_verified`` records whether that certificate ran and
    passed.

    Raises ConsistencyError if the certificate was expected to hold but
    fails.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    n, alpha = params.n, float(params.alpha)
    if formula == FORMULA_PLAIN:
        _require_mode_args(n, 0)
        alpha = 0.0
        exact_of = lambda k: mode_quotient_plain(n, k)
        tail_applicable = True
    elif formula == FORMULA_WEIGHTED:
        mode_quotient_weighted(n, alpha, 0)  # validates n, alpha
        exact_of = lambda k: mode_quotient_weighted(n, alpha, k)
        tail_applicable = n >= 5 * alpha + 5
    else:
        raise DomainError(f"unknown formula tag {formula!r}; expected 'J' or 'K'")

    try:
        floats = [_weighted_float(n, alpha, k) for k in range(k_max + 1)]
    except OverflowError:
        raise DomainError(
            f"n={n} is too large: the per-mode quotients overflow double precision"
        ) from None
    candidates = _near_minimal(floats)
    best = min((exact_of(k) for k in candidates), key=lambda q: (q.exact, q.k))

    tail_verified = False
    if tail_applicable:
        if not tail_certificate(n, alpha):
            raise ConsistencyError(
                f"continuous extension of {formula!r} decreases on the tail "
                f"for params {params!r}; contradicts the expected tail monotonicity"
            )
        tail_verified = True

    return ModeInfimumResult(best, best.k, tail_verified, k_max)


def sharp_constant_closed_form(params: InequalityParams) -> ClosedFormConstant:
    """The sharp constant where a closed form is proven.

    Cases (with m := alpha + 1):

    * N = 1, -1 < alpha <= -1/2 : alpha^2 / 4, extremal built from a tail
      integral of exp(-b r^m)                      (family "thm1.2-1a");
    * N = 1, alpha > -1/2       : (3 alpha + 2)^2 / 4, extremal
      a (1 + b r^m) exp(-b r^m)                    (family "thm1.2-1b");
    * N >= 2, alpha > -1, N >= 5 alpha + 5 : (N + 3 alpha + 1)^2 / 4,
      same radial extremal shape                   (family "thm1.2-2").

    Raises UnsupportedRegimeError naming the violated condition anywhere
    else (alpha <= -1; or N in {2, 3, 4}-style regimes with
    N < 5 alpha + 5, where symmetry may break and only bounds exist).
    """
    n, alpha = params.n, float(params.alpha)
    a = Fraction(alpha)
    if alpha <= -1.0:
        raise UnsupportedRegimeError(
            f"alpha = {alpha} <= -1: weighted energies undefined, no closed form"
        )
    if n == 1:
        if alpha <= -0.5:
            exact = a**2 / 4
            return ClosedFormConstant(exact_to_float(exact, "the sharp constant"), exact,
                                      "one-dim-low-alpha",
                                      "thm1.2-1a", params)
        exact = (3 * a + 2) ** 2 / 4
        return ClosedFormConstant(exact_to_float(exact, "the sharp constant"), exact,
                                  "one-dim", "thm1.2-1b", params)
    if n < 5 * alpha + 5:
        raise UnsupportedRegimeError(
            f"N >= 5 alpha + 5 violated (N={n}, alpha={alpha}): no closed form is "
            f"proven; use symmetry_breaking_bounds / the variational scan"
        )
    exact = ((n + 3 * a + 1) / 2) ** 2
    return ClosedFormConstant(exact_to_float(exact, "the sharp constant"), exact,
                              "radial-weighted", "thm1.2-2", params)


def exponential_profile_quotient(n: int) -> Fraction:
    """The exact quotient N (N+4) (N^2-1)^2 / (4 (N^2-N+4)^2) of the
    profile v = e^{-r} on the first harmonic (k = 1) at alpha = 0."""
    return Fraction(n * (n + 4) * (n**2 - 1) ** 2, 4 * (n**2 - n + 4) ** 2)


def symmetry_breaking_bounds(n: int) -> BoundsReport:
    """Two-sided bounds on the sharp constant for N in {2, 3, 4} (the
    unweighted alpha = 0 case, where no closed form is proven).

    * lower: the k = 1 per-mode value J(N, 1) (valid by the mode scan);
    * upper: for N in {2, 3} the quotient of the explicit non-radial test
      profile |x| e^{-|x|} on the first harmonic,
      N (N+4) (N^2-1)^2 / (4 (N^2-N+4)^2); for N = 4 the radial value
      25/4 (the test profile evaluates above it);
    * conjectured: the radial value (N+1)^2 / 4.

    For N in {2, 3} upper < conjectured, which is what breaks radial
    symmetry; for N = 4 the report carries flag "conjecture-open".
    """
    if n not in (2, 3, 4):
        raise DomainError(
            f"bounds are specific to N in {{2, 3, 4}}, got {n!r}; for "
            f"N >= 5 use sharp_constant_closed_form"
        )
    lower = mode_quotient_plain(n, 1).exact
    conjectured = Fraction((n + 1) ** 2, 4)
    if n == 4:
        upper = conjectured
        flag = "conjecture-open"
    else:
        upper = exponential_profile_quotient(n)
        flag = None
    if not (lower <= upper <= conjectured):
        raise ConsistencyError(f"bounds ordering violated for N={n}")
    return BoundsReport(
        n=n,
        lower=exact_to_float(lower, "the lower bound"),
        upper=exact_to_float(upper, "the upper bound"),
        conjectured=exact_to_float(conjectured, "the conjectured constant"),
        exact_lower=lower,
        exact_upper=upper,
        exact_conjectured=conjectured,
        flag=flag,
    )


def reference_constants(params: InequalityParams) -> Dict[str, Optional[float]]:
    """Closed-form constants of the surrounding known inequalities.

    Entries (present when their dimension requirement is met):

    * ``first-order``           (N >= 2): (N-1)^2 / 4, the first-order
      product inequality this package's second-order versions extend;
    * ``second-order-unweighted`` (N >= 5): (N+1)^2 / 4;
    * ``second-order-heisenberg`` (N >= 1): (N+2)^2 / 4, Laplacian vs
      plain gradient;
    * ``weighted-gradient``     (beta set): (N-beta+1)^2 / 4 for beta < 1,
      (N+beta-1)^2 / 4 for beta > 1; value None at the beta = 1
      Hardy-Rellich crossover;
    * ``weighted-heisenberg``   (N >= 1): (N+4 alpha+2)^2 / 4.
    """
    n, alpha = params.n, float(params.alpha)
    out: Dict[str, Optional[float]] = {}
    if n >= 2:
        out["first-order"] = (n - 1) ** 2 / 4
    if n >= 5:
        out["second-order-unweighted"] = (n + 1) ** 2 / 4
    out["second-order-heisenberg"] = (n + 2) ** 2 / 4
    if params.beta is not None:
        beta = float(params.beta)
        if beta < 1.0:
            out["weighted-gradient"] = (n - beta + 1) ** 2 / 4
        elif beta > 1.0:
            out["weighted-gradient"] = (n + beta - 1) ** 2 / 4
        else:
            # Hardy-Rellich crossover: no product-inequality constant.
            out["weighted-gradient"] = None
    out["weighted-heisenberg"] = (n + 4 * alpha + 2) ** 2 / 4
    return out


def dn_general_lower_bound(
    params: InequalityParams,
    k_max: int = DEFAULT_K_MAX,
) -> ModeInfimumResult:
    """General two-weight lower bound on the sharp constant, tag
    "DN-general".

    E(k) = [1 + min(0, 8 beta k / (N+2k-2 beta-2)^2)]
           / [1 + max(0, 4 (alpha+beta+1) k / (N+2k-alpha-beta-3)^2)]^2
           * ((N+2k+3 alpha-beta+1)/2)^2,

    minimised over k in {0..k_max}.  ``params.beta`` of None means
    beta = 0 (plain gradient), in which case E(k) coincides exactly with
    the "K" formula.

    Preconditions (all must hold; the error lists every failure):
    N >= 2, N - 2 alpha > 0, N - 2 beta > 0, N - alpha - beta - 1 > 0,
    alpha - beta + 1 > 0, N + 2 alpha > 0.
    """
    n, alpha = params.n, float(params.alpha)
    beta = float(params.beta) if params.beta is not None else 0.0
    failures = []
    if n < 2:
        failures.append(f"N >= 2 (got N={n})")
    if not n - 2 * alpha > 0:
        failures.append(f"N - 2 alpha > 0 (got {n - 2 * alpha})")
    if not n - 2 * beta > 0:
        failures.append(f"N - 2 beta > 0 (got {n - 2 * beta})")
    if not n - alpha - beta - 1 > 0:
        failures.append(f"N - alpha - beta - 1 > 0 (got {n - alpha - beta - 1})")
    if not alpha - beta + 1 > 0:
        failures.append(f"alpha - beta + 1 > 0 (got {alpha - beta + 1})")
    if not n + 2 * alpha > 0:
        failures.append(f"N + 2 alpha > 0 (got {n + 2 * alpha})")
    if failures:
        raise PreconditionError(
            "general lower bound preconditions violated: " + "; ".join(failures)
        )
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")

    a, b = Fraction(alpha), Fraction(beta)

    def exact_of(k: int) -> Fraction:
        if k == 0:
            return ((n + 3 * a - b + 1) / 2) ** 2
        num_corr = 1 + min(Fraction(0), 8 * b * k / (n + 2 * k - 2 * b - 2) ** 2)
        den_corr = (1 + max(Fraction(0), 4 * (a + b + 1) * k / (n + 2 * k - a - b - 3) ** 2)) ** 2
        return num_corr / den_corr * ((n + 2 * k + 3 * a - b + 1) / 2) ** 2

    def float_of(k: int) -> float:
        if k == 0:
            return ((n + 3.0 * alpha - beta + 1.0) / 2.0) ** 2
        # t1, t2 > 0 exactly for k >= 1; one rounds to 0.0 only when its
        # numerator is positive, and then +inf is the limit of the term.
        t1 = n + 2.0 * k - 2.0 * beta - 2.0
        t2 = n + 2.0 * k - alpha - beta - 3.0
        num_corr = 1.0 + min(0.0, 8.0 * beta * k / t1**2 if t1 else math.inf)
        den_corr = (1.0 + max(0.0, 4.0 * (alpha + beta + 1.0) * k / t2**2
                              if t2 else math.inf)) ** 2
        return num_corr / den_corr * ((n + 2.0 * k + 3.0 * alpha - beta + 1.0) / 2.0) ** 2

    cands = _near_minimal([float_of(k) for k in range(k_max + 1)])
    best_k = min(cands, key=lambda kk: (exact_of(kk), kk))
    exact = exact_of(best_k)

    tail_verified = False
    if beta == 0.0 and n >= 5 * alpha + 5:
        if not tail_certificate(n, alpha):
            raise ConsistencyError(
                f"tail certificate failed for DN-general at beta=0, params {params!r}"
            )
        tail_verified = True

    quotient = ModeQuotient(best_k, exact_to_float(exact, f"the DN-general quotient (k={best_k})"),
                            FORMULA_GENERAL, InequalityParams(n, alpha, beta), exact)
    return ModeInfimumResult(quotient, best_k, tail_verified, k_max)
