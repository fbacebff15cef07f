"""Per-mode energies, quotients, and the closed-form extremal families."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknlab.functionals as functionals
from cknlab.constants import InequalityParams
from cknlab.errors import (
    ConsistencyError,
    DivergentIntegralError,
    DomainError,
    RangeOverflowError,
    ZeroDenominatorError,
)
from cknlab.exppoly import ExpPoly
from cknlab.functionals import (
    ExtremalFamily,
    RadialProfile,
    extremal_profile,
    exponential_profile,
    laplace_beltrami_eigenvalue,
    mode_energies,
    mode_quotient,
    one_dim_quotient,
    profile_from_exppoly,
)
from cknlab.functionals import test_function_quotient as harmonic_test_quotient
from cknlab.quadrature import QuadratureSpec, integrate
from cknlab.special import weighted_exp_integral as wei


def test_laplace_beltrami_values():
    assert laplace_beltrami_eigenvalue(3, 0) == 0
    assert laplace_beltrami_eigenvalue(3, 1) == 2
    assert laplace_beltrami_eigenvalue(5, 2) == 10


def test_laplace_beltrami_rejects_bad_mode():
    with pytest.raises(DomainError):
        laplace_beltrami_eigenvalue(3, -1)


def test_mode_energy_anchors():
    # v = e^{-r}, k = 1, alpha = 0: Gamma moments of e^{-2r}.
    prof = exponential_profile(1.0)
    e2 = mode_energies(prof, InequalityParams(2), 1, QuadratureSpec())
    assert e2.energy_a == pytest.approx(
        math.gamma(4) / 2**4 + 3 * math.gamma(2) / 2**2, rel=1e-12
    )
    e3 = mode_energies(prof, InequalityParams(3), 1, QuadratureSpec())
    assert e3.energy_b == pytest.approx(math.gamma(5) / 2**5, rel=1e-12)


def test_mode_energy_extremal_cross_term():
    params = InequalityParams(5, 0.0)
    prof = extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, params))
    e = mode_energies(prof, params, 0, QuadratureSpec())
    assert e.energy_c == pytest.approx(math.gamma(6) / 2**6, rel=1e-12)


def test_dual_route_agreement_reported():
    prof = profile_from_exppoly(ExpPoly(((0.0, 1.0), (2.0, -0.4)), 1.0, 1.0))
    e = mode_energies(prof, InequalityParams(4, 0.25), 1, QuadratureSpec())
    assert e.rel_gap is not None
    assert e.rel_gap < 1e-9


@pytest.mark.parametrize("method", ["auto", "quadrature"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_energies_are_one_refinement_loop(monkeypatch, method, k):
    params = InequalityParams(4, 0.25)
    results, original = [], functionals.integrate

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(functionals, "integrate", counted)
    for fam in ("thm1.2-2", "thmC-1"):
        fam_params = InequalityParams(4, 0.25, 0.5) if fam == "thmC-1" else params
        profile = extremal_profile(ExtremalFamily(fam, 1.0, 1.0, fam_params))
        e = mode_energies(profile, fam_params, k, method=method)
        live = sum(coef != 0.0 for parts in functionals.form_parts(4, 0.25, k)
                   for *_, coef in parts)
        assert len(results) == 1
        res = results.pop()
        assert res.value.shape == (live,)
        assert (e.levels_used, e.nodes_used) == (res.levels_used, res.nodes_used) != (0, 0)
        assert min(e.energy_a, e.energy_b, e.energy_c) > 0.0


def test_energy_gap_is_a_plain_float():
    params = InequalityParams(5, 0.25)
    e = mode_energies(extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, params)), params, 2)
    assert type(e.rel_gap) is float
    assert "np.float64" not in repr(e)


def test_energies_take_one_call_of_the_rows_a_pass(monkeypatch):
    # Levels 0..5 are evaluated in one pass, which is one call of the
    # rows; nodes_used counts every node the rows were evaluated at.
    sizes, original = [], functionals.integrate

    def counted(rows, *args, **kwargs):
        return original(lambda r: sizes.append(r.size) or rows(r), *args, **kwargs)

    monkeypatch.setattr(functionals, "integrate", counted)
    params = InequalityParams(5, 0.0)
    profile = extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, params))
    e = mode_energies(profile, params, 1)
    assert e.levels_used == 5
    assert len(sizes) == 1
    assert e.nodes_used == sum(sizes)


@pytest.mark.parametrize("alpha", [1.375, 1.5, 1.625, 1.75, 1.875])
def test_quadrature_route_rejects_a_divergence_at_the_origin(alpha):
    # At N = 2, k = 1 the zero-order part of C is int v^2 r^(-alpha-1) dr
    # with v(0) != 0: it diverges, and the closed route already says so.
    params = InequalityParams(2, alpha)
    q = alpha + 1.0
    profiles = (
        extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, params)),
        profile_from_exppoly(ExpPoly(((0.0, 1.0), (q, -0.375), (2 * q, 0.625)), 1.0, q)),
    )
    for profile in profiles:
        for method in ("auto", "quadrature"):
            with pytest.raises(DivergentIntegralError):
                mode_energies(profile, params, 1, method=method)


def test_spherical_reduction_identities():
    """The three one-dimensional energy displays equal the direct
    integrals of |Delta u|^2, |grad u|^2 for u = r^k v(r) phi_k(sigma)
    (surface factor cancelled, |grad_sigma phi_k|^2 integrating to c_k)."""
    rng = np.random.default_rng(5)
    spec = QuadratureSpec()
    for n, alpha, k in ((4, 0.0, 1), (6, 0.4, 2), (5, -0.3, 1)):
        params = InequalityParams(n, alpha)
        ck = laplace_beltrami_eigenvalue(n, k)
        terms = tuple((2.0 + j, float(rng.standard_normal())) for j in range(3))
        v = ExpPoly(terms, 1.0, 1.0)
        w = ExpPoly(tuple((p + k, c) for p, c in v.terms), 1.0, 1.0)
        w1 = w.derivative()
        w2 = w1.derivative()
        hint = (2.0, 1.0)

        # |Delta u|^2 is the square of one row, |grad u|^2 the sum of
        # the squares of two.
        def lap(r):
            val = w2(r) + (n - 1) / r * w1(r) - ck / r**2 * w(r)
            return val[None, :]

        def grad(r):
            return np.stack([w1(r), math.sqrt(ck) * w(r) / r])

        def grad_energy(p):
            return integrate(grad, (p, p), spec, hint).value.sum()

        a_direct = integrate(lap, (n - 1 - 2 * alpha,), spec, hint).value[0]
        b_direct = grad_energy(n - 1)
        c_direct = grad_energy(n - 2 - alpha)

        e = mode_energies(profile_from_exppoly(v), params, k, spec)
        assert a_direct == pytest.approx(e.energy_a, rel=1e-9)
        assert b_direct == pytest.approx(e.energy_b, rel=1e-9)
        assert c_direct == pytest.approx(e.energy_c, rel=1e-9)


def test_test_function_quotient_values():
    assert harmonic_test_quotient(2) == pytest.approx(0.75, rel=1e-12)
    assert harmonic_test_quotient(3) == pytest.approx(3.36, rel=1e-12)
    assert harmonic_test_quotient(4) == pytest.approx(7.03125, rel=1e-12)


def test_test_function_dominance():
    for n in (2, 3):
        assert harmonic_test_quotient(n) < (n + 1) ** 2 / 4
    assert harmonic_test_quotient(4) > 25 / 4


def test_weighted_extremal_attains_constant():
    for a in (1.0, -2.0):
        for b in (0.5, 1.0, 4.0):
            params = InequalityParams(5, 0.0)
            prof = extremal_profile(ExtremalFamily("thm1.2-2", a, b, params))
            assert mode_quotient(prof, params, 0) == pytest.approx(9.0, rel=1e-8)


def test_unweighted_extremal_attains_constant():
    params = InequalityParams(7, 0.0)
    prof = extremal_profile(ExtremalFamily("thmA", 1.0, 1.0, params))
    assert mode_quotient(prof, params, 0) == pytest.approx(16.0, rel=1e-8)


def test_one_dim_anchors():
    p_a = InequalityParams(1, -0.75)
    prof_a = extremal_profile(ExtremalFamily("thm1.2-1a", 1.0, 1.0, p_a))
    assert one_dim_quotient(prof_a, -0.75) == pytest.approx(0.140625, rel=1e-8)

    p_b0 = InequalityParams(1, 0.0)
    prof_b0 = extremal_profile(ExtremalFamily("thm1.2-1b", 1.0, 2.0, p_b0))
    assert one_dim_quotient(prof_b0, 0.0) == pytest.approx(1.0, rel=1e-8)

    p_b1 = InequalityParams(1, 1.0)
    prof_b1 = extremal_profile(ExtremalFamily("thm1.2-1b", 1.0, 1.0, p_b1))
    assert one_dim_quotient(prof_b1, 1.0) == pytest.approx(6.25, rel=1e-8)


def test_flat_origin_family_matches_gamma_arithmetic():
    # thmC-2 at N=4, beta=2, b=-1: substituting y = 1/r reduces every
    # energy to Gamma moments; A*B/C^2 = 1.875 * 0.25 / 0.0625 = 7.5.
    params = InequalityParams(4, 0.0, 2.0)
    prof = extremal_profile(ExtremalFamily("thmC-2", 1.0, -1.0, params))
    e = mode_energies(prof, params, 0, QuadratureSpec())
    assert e.energy_a == pytest.approx(1.875, rel=1e-10)
    assert e.energy_b == pytest.approx(0.25, rel=1e-10)
    assert e.energy_c == pytest.approx(0.25, rel=1e-10)
    assert mode_quotient(prof, params, 0) == pytest.approx(7.5, rel=1e-9)


def test_gradient_weighted_family_matches_gamma_arithmetic():
    params = InequalityParams(4, 0.0, 0.5)
    prof = extremal_profile(ExtremalFamily("thmC-1", 1.0, 1.0, params))
    a = wei(3, 4, 0.5) - 2 * wei(3.5, 4, 0.5) + wei(4, 4, 0.5) + 3 * wei(3, 4, 0.5)
    b = wei(5, 4, 0.5)
    c = wei(4, 4, 0.5)
    assert mode_quotient(prof, params, 0) == pytest.approx(a * b / c**2, rel=1e-10)


@pytest.mark.parametrize("family_id, b, n, beta", [
    ("thmC-1", 1.0, 4, 0.5), ("thmC-1", 2.0, 3, -1.0),
    ("thmC-2", -1.0, 4, 2.0), ("thmC-2", -0.5, 6, 1.5),
    ("thm1.2-1a", 1.0, 1, -0.875), ("thm1.2-1a", 2.0, 1, -0.5), ("thm1.2-1a", 0.5, 1, 0.0),
])
def test_incomplete_gamma_profiles_integrate_their_derivative(family_id, b, n, beta):
    # v is an incomplete Gamma function of kappa r^s: v(r) = -int_r^inf v'.
    # For thm1.2-1a the last parameter is alpha: v' = -exp(-b r^(alpha+1)).
    if family_id == "thm1.2-1a":
        params = InequalityParams(n, beta)
        s, kappa, lead, amp = beta + 1.0, b, 0, -1.0
    else:
        params = InequalityParams(n, 0.0, beta)
        s = 1.0 - beta
        kappa = b / s
        lead = 1 if family_id == "thmC-1" else 1 - n
        amp = 1.0
    if family_id == "thm1.2-1a" and beta > -0.5:
        # The family stops at alpha = -1/2; its v' = -exp(-b r^(alpha+1)) does not.
        prof = functionals._tail_profile(-1.0, 0.0, b, s)
    else:
        prof = extremal_profile(ExtremalFamily(family_id, 1.0, b, params))
    assert prof.closed[0] is None
    rs = np.array([0.05, 0.5, 1.0, 3.0])
    v = functionals._tail_values(prof.closed[1], rs)
    with mpmath.workdps(30):
        for r, value in zip(rs, v):
            tail = mpmath.quad(lambda x: amp * x**lead * mpmath.exp(-kappa * x**s),
                               [r * 2**j for j in range(8)] + [mpmath.inf])
            assert value == pytest.approx(-float(tail), rel=1e-12)


def test_gaussian_families_respect_radial_bound():
    params = InequalityParams(6, 0.0)
    gauss = extremal_profile(ExtremalFamily("thmB", 1.0, 2.0, params))
    assert mode_quotient(gauss, params, 0) >= (6 + 1) ** 2 / 4
    params_d = InequalityParams(8, 0.5)
    stretched = extremal_profile(ExtremalFamily("thmD", 1.0, 1.0, params_d))
    assert mode_quotient(stretched, params_d, 0) >= (8 + 3 * 0.5 + 1) ** 2 / 4


def test_family_validation():
    with pytest.raises(DomainError):
        ExtremalFamily("thm1.2-2", 1.0, -1.0, InequalityParams(5, 0.0))
    with pytest.raises(DomainError):
        ExtremalFamily("thmC-2", 1.0, 1.0, InequalityParams(4, 0.0, 2.0))
    with pytest.raises(DomainError):
        ExtremalFamily("nope", 1.0, 1.0, InequalityParams(5, 0.0))
    # thm1.2-1a's quotient alpha^2/4 undercuts the sharp constant for alpha > -1/2.
    ExtremalFamily("thm1.2-1a", 1.0, 1.0, InequalityParams(1, -0.5))
    with pytest.raises(DomainError, match=r"alpha in \(-1, -1/2\]"):
        ExtremalFamily("thm1.2-1a", 1.0, 1.0, InequalityParams(1, -0.4999))


coeffs3 = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
)


@given(coeffs3, st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=20, deadline=None)
def test_dilation_invariance(coeffs, lam):
    poly = ExpPoly(tuple((float(j), c) for j, c in enumerate(coeffs)), 1.0, 1.0)
    prof = profile_from_exppoly(poly)
    params = InequalityParams(5, 0.25)
    base = mode_quotient(prof, params, 1)
    dilated = mode_quotient(prof.dilated(lam), params, 1)
    assert dilated == pytest.approx(base, rel=1e-9)


def test_profile_dilation_beyond_range_is_an_error():
    # lam^2 = 1e320 scales v'' and lam^400 the rate of a decay power 400:
    # each escaped as a bare OverflowError, not the package's range error.
    slow = extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1e-150, InequalityParams(7, 0.0)))
    with pytest.raises(RangeOverflowError, match="lam = 1e\\+160"):
        slow.dilated(1e160)
    steep = profile_from_exppoly(ExpPoly(((0.0, 1.0),), 1.0, 400.0))
    with pytest.raises(RangeOverflowError, match="lam = 1000.0"):
        steep.dilated(1e3)


# One profile of each family whose v is the tail integral of its v': the
# tail evaluator gives v where C reads it (k = 1), an upper incomplete
# Gamma for thmC-1 and a lower one for thmC-2.
REST_PROFILES = {
    "thm1.2-1a": (InequalityParams(1, -0.75), None),
    "thmC-1": (InequalityParams(4, 0.0, 0.5), 1),
    "thmC-2": (InequalityParams(6, 0.0, 1.5), 1),
}


@pytest.mark.parametrize("family_id", REST_PROFILES)
@pytest.mark.parametrize("transform", [
    lambda p: p.dilated(0.5), lambda p: p.dilated(3.0),
    lambda p: p.scaled(-3.0), lambda p: p.scaled(7.0),
], ids=["dilated-0.5", "dilated-3", "scaled--3", "scaled-7"])
def test_rest_profiles_are_dilation_and_amplitude_invariant(family_id, transform):
    params, k = REST_PROFILES[family_id]
    b = -1.0 if family_id == "thmC-2" else 1.0
    prof = extremal_profile(ExtremalFamily(family_id, 1.0, b, params))
    if k is None:
        base, moved = (one_dim_quotient(p, params.alpha) for p in (prof, transform(prof)))
    else:
        base, moved = (mode_quotient(p, params, k) for p in (prof, transform(prof)))
    assert moved == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("transform", [lambda p: p.dilated(2.0), lambda p: p.scaled(3.0)],
                         ids=["dilated", "scaled"])
def test_rescaled_thmc2_profile_keeps_its_divergence_check(transform):
    # B = int v'^2 r^(N+2k-1) dr diverges at infinity for 2k >= N - 2, where
    # v' ~ r^(1-N), for a rescaled profile too: without the check the
    # quadrature runs to NonConvergenceError.
    params = InequalityParams(5, 0.0, 1.5)
    prof = extremal_profile(ExtremalFamily("thmC-2", 1.0, -1.0, params))
    for profile in (prof, transform(prof)):
        for method in ("auto", "quadrature"):
            with pytest.raises(DivergentIntegralError, match="energy B diverges at infinity"):
                mode_quotient(profile, params, 2, method=method)


@pytest.mark.parametrize("n, beta, b, k", [(5, 1.5, -1.0, 0), (8, 1.25, -0.5, 2)])
def test_thmc2_energies_take_both_routes(n, beta, b, k):
    # v' and v'' decay towards the origin (q = 1 - beta < 0) and have
    # closed moments; at k = 2 C also reads v, a lower incomplete Gamma,
    # by quadrature.
    params = InequalityParams(n, 0.0, beta)
    e = mode_energies(extremal_profile(ExtremalFamily("thmC-2", 1.0, b, params)), params, k)
    assert e.method == "both"
    assert e.rel_gap <= 1e-12


def test_profile_validation():
    # A left-out v needs a one-term v'; each slot needs an ExpPoly.
    v = ExpPoly(((0.0, 1.0), (2.0, 1.0)), 1.0, 1.0)
    d1 = v.derivative()
    assert len(d1.terms) == 3
    for closed in ((None, d1, d1.derivative()), (v, lambda r: r, d1), (v, d1)):
        with pytest.raises(DomainError):
            RadialProfile(closed)


@given(coeffs3, st.sampled_from([-3.0, 0.1, 7.0]))
@settings(max_examples=20, deadline=None)
def test_amplitude_invariance(coeffs, c):
    poly = ExpPoly(tuple((float(j), w) for j, w in enumerate(coeffs)), 1.0, 1.0)
    prof = profile_from_exppoly(poly)
    params = InequalityParams(4, 0.0)
    assert mode_quotient(prof.scaled(c), params, 1) == pytest.approx(
        mode_quotient(prof, params, 1), rel=1e-10
    )


def test_random_profiles_respect_radial_lower_bound(rng):
    spec = QuadratureSpec()
    for _ in range(50):
        n = int(rng.integers(2, 12))
        alpha = float(rng.uniform(-0.9, (n - 5) / 5.0))
        terms = tuple((float(j), float(rng.standard_normal())) for j in range(3))
        poly = ExpPoly(terms, float(rng.uniform(0.5, 2.0)), 1.0)
        if poly.is_zero:
            continue
        q = mode_quotient(profile_from_exppoly(poly), InequalityParams(n, alpha), 0, spec)
        assert q >= (n + 3 * alpha + 1) ** 2 / 4 - 1e-6


def test_random_profiles_satisfy_mode_hardy_step(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        alpha = float(rng.uniform(-0.9, 1.0))
        s = n + 2 * k - alpha - 2
        if s <= 1.0:
            continue
        terms = tuple((1.0 + j, float(rng.standard_normal())) for j in range(3))
        v = ExpPoly(terms, float(rng.uniform(0.5, 2.0)), 1.0)
        if v.is_zero:
            continue
        lhs = (v * v).moment(s - 2.0)
        d = v.derivative()
        rhs = (2.0 / (s - 1.0)) ** 2 * (d * d).moment(s)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_zero_profile_denominator():
    prof = profile_from_exppoly(ExpPoly((), 1.0, 1.0))
    with pytest.raises(ZeroDenominatorError):
        mode_quotient(prof, InequalityParams(5, 0.0), 0)


def test_one_dim_requires_valid_weight():
    prof = exponential_profile(1.0)
    with pytest.raises(DomainError):
        one_dim_quotient(prof, -1.5)


def test_slow_decay_quadrature_matches_closed_form():
    # alpha = -7/8 decays like exp(-r^(1/8)): the quadrature route must
    # find the mass far out instead of settling on two empty levels.
    params = InequalityParams(11, -0.875)
    prof = extremal_profile(ExtremalFamily("thm1.2-2", 1.0, 1.0, params))
    e = mode_energies(prof, params, 1, QuadratureSpec())
    assert e.rel_gap is not None
    assert e.rel_gap < 1e-10
