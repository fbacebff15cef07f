"""Closed-form sharp constants and per-mode quotient formulas.

The inequality under study bounds the product of a weighted second-order
energy and the gradient energy from below by the square of a mixed
weighted gradient term:

    (int |Lap u|^2 / |x|^(2 alpha))  *  (int |grad u|^2)
        >=  C  *  (int |grad u|^2 / |x|^(alpha+1))^2 .

Decomposing u into spherical-harmonic modes turns the sharp constant into
an infimum over the mode index k of one explicit rational expression
E(N, alpha, beta, k), the two-weight lower bound of Duong-Nguyen with a
second weight exponent beta on the gradient term.  Its tags name the
specialisations:

* tag ``"DN-general"`` - E itself,
* tag ``"K"``  - the weighted quotient, E at beta = 0,
* tag ``"J"``  - the unweighted quotient of Cazacu-Flynn-Lam, K at
  alpha = 0.

One evaluator (``_mode_value``) computes E, exactly with
``fractions.Fraction`` (binary floats convert exactly) for every reported
value, which is a float with the exact rational attached, and in floats
for the candidate net of the infima.  It is written in polynomial form,
so it stays defined where N + 2k - alpha - 3 = 0 (K(2, 1, 1) = 0); the
k = 0 value is the limit ((N + 3 alpha - beta + 1)/2)^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

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
    "form_parts",
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


class _InequalityParams(NamedTuple):
    n: int
    alpha: float = 0.0
    beta: Optional[float] = None


class InequalityParams(_InequalityParams):
    """Parameters (N, alpha, beta) of one inequality instance.

    ``beta`` is the optional second weight exponent used only by the
    general lower bound and the weighted-gradient reference constants.
    A construction, a ``_replace`` and an unpickling all validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "InequalityParams":
        self = super().__new__(cls, *args, **kwargs)
        n, alpha, beta = self
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"dimension n must be an integer >= 1, got {n!r}")
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
            raise DomainError(f"alpha must be a finite real, got {alpha!r}")
        if beta is not None and not (isinstance(beta, (int, float)) and math.isfinite(beta)):
            raise DomainError(f"beta must be a finite real or None, got {beta!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "InequalityParams":
        return cls(*iterable)


class ModeQuotient(NamedTuple):
    """One per-mode quotient value with its exact rational form."""

    k: int
    value: float
    formula: str  # "J" | "K" | "DN-general"
    params: InequalityParams
    exact: Optional[Fraction] = None


class ModeInfimumResult(NamedTuple):
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


class BoundsReport(NamedTuple):
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


class ClosedFormConstant(NamedTuple):
    """A closed-form sharp constant with its case label and extremal
    family id."""

    value: float
    exact: Fraction
    case: str
    family_id: str
    params: InequalityParams


def require_mode_index(k: int) -> None:
    """DomainError unless the mode index k is an integer >= 0."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"mode index k must be an integer >= 0, got {k!r}")


def _require_mode_args(n: int, k: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"mode quotients require integer dimension n >= 2, got {n!r}")
    require_mode_index(k)


def exact_to_float(exact: Fraction, what: str) -> float:
    """The float nearest ``exact``; RangeOverflowError (naming ``what``)
    where it lies beyond double-precision range."""
    try:
        return float(exact)
    except OverflowError:
        raise RangeOverflowError(f"{what} exceeds double-precision range") from None


_VALUE_NAMES = {
    FORMULA_PLAIN: "J(N, {k})",
    FORMULA_WEIGHTED: "K(N, alpha, {k})",
    FORMULA_GENERAL: "the DN-general quotient (k={k})",
}


def _mode_value(n, a, b, k: int):
    """The per-mode value E(N, alpha, beta, k) of "DN-general":

        E = [1 + min(0, 8 b k / t1^2)] t2^4 s^2 / (4 [t2^2 + max(0, 4 (a+b+1) k)]^2)

    with t1 = N+2k-2b-2, t2 = N+2k-a-b-3 and s = N+2k+3a-b+1, and the
    limit (s/2)^2 at k = 0.  "K" is the case b = 0 and "J" the case
    a = b = 0.  The polynomial form stays defined where t2 = 0, and the
    correction is 1 unless b < 0, where t1 > 0.  Exact for ``Fraction``
    weights and an int n; with floats it is the candidate net of
    ``_mode_infimum``, and at b = 0.0 it performs the float operations
    of the K formula alone (subtracting 0.0 and multiplying by 1 are
    exact), so K's t2^4 still overflows where it did, near N = 1e77.
    """
    m = n + 2 * k
    s = m + 3 * a - b + 1
    if k == 0:
        return (s / 2) ** 2
    t2 = m - a - b - 3
    gap = t2**2 + max(0, 4 * (a + b + 1) * k)
    correction = 1 + 8 * b * k / (m - 2 * b - 2) ** 2 if b < 0 else 1
    return correction * t2**4 * s**2 / (4 * gap**2)


def _mode_quotient(formula: str, params: InequalityParams, k: int) -> ModeQuotient:
    """The exact per-mode value of ``formula`` at ``params`` (beta None
    read as 0), reported as a float."""
    exact = _mode_value(params.n, Fraction(params.alpha), Fraction(params.beta or 0), k)
    return ModeQuotient(k, exact_to_float(exact, _VALUE_NAMES[formula].format(k=k)), formula,
                        params, exact)


def mode_quotient_plain(n: int, k: int) -> ModeQuotient:
    """Per-mode quotient of the unweighted (alpha = 0) inequality, tag "J".

    J(N, k) = (N+2k-3)^4 (N+2k+1)^2 / (4 [(N+2k-3)^2 + 4k]^2) for k >= 1,
    the "K" formula at alpha = 0; the k = 0 value is the radial constant
    (N+1)^2 / 4.
    """
    _require_mode_args(n, k)
    return _mode_quotient(FORMULA_PLAIN, InequalityParams(n), k)


def mode_quotient_weighted(n: int, alpha: float, k: int) -> ModeQuotient:
    """Per-mode quotient of the weighted inequality, tag "K".

    K(N, alpha, k) = (N+2k-alpha-3)^4 (N+2k+3 alpha+1)^2
                     / (4 [(N+2k-alpha-3)^2 + 4 (alpha+1) k]^2)

    for k >= 1, the "DN-general" formula at beta = 0; the k = 0 value is
    (N+3 alpha+1)^2 / 4.  Requires alpha > -1 (the weighted energies are
    defined only there), n >= 2.
    """
    _require_mode_args(n, k)
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be finite and > -1, got {alpha!r}")
    return _mode_quotient(FORMULA_WEIGHTED, InequalityParams(n, float(alpha)), k)


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


def form_parts(
    n: int, alpha: float, k: int
) -> Tuple[Tuple[Tuple[int, float, float], ...], ...]:
    """The parts of the A, B and C forms of mode k.

    Each part is (derivative order, weight exponent, coefficient), and a
    form is the sum over its parts of coefficient * int |v^(order)|^2
    r^exponent dr for the radial profile v of the mode (see the
    ``functionals`` module docstring).  At N = 1, k = 0 both extra
    coefficients vanish, leaving the one-dimensional forms.  The energies
    (``functionals``) and the Gram matrices (``variational``) both read
    the forms from here.
    """
    alpha = float(alpha)
    return (
        ((2, n + 2 * k - 2 * alpha - 1.0, 1.0),
         (1, n + 2 * k - 2 * alpha - 3.0, (2 * alpha + 1.0) * (n + 2 * k - 1.0))),
        ((1, n + 2 * k - 1.0, 1.0),),
        ((1, n + 2 * k - alpha - 2.0, 1.0),
         (0, n + 2 * k - alpha - 4.0, (alpha + 1.0) * k)),
    )


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


def _too_large(n: int) -> DomainError:
    """The error for a dimension whose per-mode quotients overflow floats."""
    return DomainError(f"n={n} is too large: the per-mode quotients overflow double precision")


def _mode_infimum(formula: str, params: InequalityParams, k_max: int,
                  tail_gate: bool) -> ModeInfimumResult:
    """The exact minimum of ``formula``'s per-mode value at ``params``
    (validated) over k in {0..k_max}, with ``tail_certificate`` run where
    ``tail_gate`` holds.

    The scan runs in floats; every k whose float value is within 1e-6
    relative of the float minimum is then re-evaluated exactly, and the
    exact minimum of that candidate set (smallest k on ties) is returned.
    Float arithmetic on these rationals is accurate to ~1e-15, so the
    1e-6 net cannot miss the true argmin.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    n, alpha, beta = params.n, float(params.alpha), float(params.beta or 0.0)
    try:
        n_float = float(n)
        floats = [_mode_value(n_float, alpha, beta, k) for k in range(k_max + 1)]
    except OverflowError:
        raise _too_large(n) from None
    cutoff = min(floats) * (1.0 + 1e-6)
    best = min((_mode_quotient(formula, params, k)
                for k, value in enumerate(floats) if value <= cutoff),
               key=lambda q: (q.exact, q.k))
    if tail_gate and not tail_certificate(n, alpha):
        raise ConsistencyError(
            f"continuous extension of {formula!r} decreases on the tail "
            f"for params {params!r}; contradicts the expected tail monotonicity"
        )
    return ModeInfimumResult(best, best.k, tail_gate, k_max)


def mode_infimum(
    formula: str,
    params: InequalityParams,
    k_max: int = DEFAULT_K_MAX,
) -> ModeInfimumResult:
    """Infimum over k in {0..k_max} of the "J" or "K" per-mode quotient.

    The minimum over the scanned modes is exact (see ``_mode_infimum``).
    In the regimes where the quotient formula is eventually monotone in
    the mode index (always for "J" with N >= 2; for "K" when alpha > -1
    and N >= 5 alpha + 5), ``tail_certificate`` additionally proves
    exactly that no k beyond the scan range can undercut the reported
    infimum; ``tail_verified`` records whether that certificate ran and
    passed.  "J" is the alpha = 0 case and rejects any other alpha.

    Raises ConsistencyError if the certificate was expected to hold but
    fails.
    """
    n, alpha = params.n, float(params.alpha)
    if formula == FORMULA_PLAIN:
        _require_mode_args(n, 0)
        if alpha != 0:
            raise DomainError(f"formula 'J' is the alpha = 0 case, got alpha={alpha!r}; use 'K'")
        return _mode_infimum(formula, InequalityParams(n), k_max, True)
    if formula == FORMULA_WEIGHTED:
        # Validates n and alpha, and that K(N, alpha, 0) lies in float range.
        mode_quotient_weighted(n, alpha, 0)
        return _mode_infimum(formula, InequalityParams(n, alpha), k_max, n >= 5 * alpha + 5)
    raise DomainError(f"unknown formula tag {formula!r}; expected 'J' or 'K'")


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
    exact = _mode_value(n, a, Fraction(0), 0)
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
    conjectured = mode_quotient_plain(n, 0).exact
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
        out["first-order"] = _quarter_square(n - 1, "first-order")
    if n >= 5:
        out["second-order-unweighted"] = _quarter_square(n + 1, "second-order-unweighted")
    out["second-order-heisenberg"] = _quarter_square(n + 2, "second-order-heisenberg")
    if params.beta is not None:
        beta = float(params.beta)
        if beta < 1.0:
            out["weighted-gradient"] = _quarter_square(n - beta + 1, "weighted-gradient")
        elif beta > 1.0:
            out["weighted-gradient"] = _quarter_square(n + beta - 1, "weighted-gradient")
        else:
            # Hardy-Rellich crossover: no product-inequality constant.
            out["weighted-gradient"] = None
    out["weighted-heisenberg"] = _quarter_square(n + 4 * alpha + 2, "weighted-heisenberg")
    return out


def _quarter_square(x, name: str) -> float:
    """x^2 / 4 as a float; RangeOverflowError (naming the constant) where
    it lies beyond double-precision range."""
    try:
        return x**2 / 4
    except OverflowError:
        raise RangeOverflowError(
            f"reference constant {name} exceeds double-precision range") from None


def dn_general_lower_bound(
    params: InequalityParams,
    k_max: int = DEFAULT_K_MAX,
) -> ModeInfimumResult:
    """General two-weight lower bound on the sharp constant, tag
    "DN-general".

    E(k) = [1 + min(0, 8 beta k / (N+2k-2 beta-2)^2)]
           / [1 + max(0, 4 (alpha+beta+1) k / (N+2k-alpha-beta-3)^2)]^2
           * ((N+2k+3 alpha-beta+1)/2)^2,

    minimised exactly over k in {0..k_max} (see ``_mode_infimum``).
    ``params.beta`` of None means beta = 0 (plain gradient), in which
    case E(k) is the "K" formula.

    Preconditions (all must hold; the error lists every failure):
    N >= 2, N - 2 alpha > 0, N - 2 beta > 0, N - alpha - beta - 1 > 0,
    alpha - beta + 1 > 0, N + 2 alpha > 0.
    """
    n, alpha = params.n, float(params.alpha)
    beta = float(params.beta) if params.beta is not None else 0.0
    try:
        nf = float(n)
    except OverflowError:
        raise _too_large(n) from None
    failures = []
    if n < 2:
        failures.append(f"N >= 2 (got N={n})")
    if not nf - 2 * alpha > 0:
        failures.append(f"N - 2 alpha > 0 (got {nf - 2 * alpha})")
    if not nf - 2 * beta > 0:
        failures.append(f"N - 2 beta > 0 (got {nf - 2 * beta})")
    if not nf - alpha - beta - 1 > 0:
        failures.append(f"N - alpha - beta - 1 > 0 (got {nf - alpha - beta - 1})")
    if not alpha - beta + 1 > 0:
        failures.append(f"alpha - beta + 1 > 0 (got {alpha - beta + 1})")
    if not nf + 2 * alpha > 0:
        failures.append(f"N + 2 alpha > 0 (got {nf + 2 * alpha})")
    if failures:
        raise PreconditionError(
            "general lower bound preconditions violated: " + "; ".join(failures)
        )
    return _mode_infimum(FORMULA_GENERAL, InequalityParams(n, alpha, beta), k_max,
                         beta == 0.0 and n >= 5 * alpha + 5)
