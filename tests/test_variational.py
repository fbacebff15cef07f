"""Gram assembly, quotient minimization, and the symmetry-breaking scan."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknlab.variational as variational
from cknlab.constants import InequalityParams, mode_quotient_weighted
from cknlab.exppoly import ExpPoly
from cknlab.errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    UnsupportedRegimeError,
    VerificationMismatchError,
)
from cknlab.functionals import form_parts
from cknlab.variational import (
    BasisSpec,
    _pd_check,
    build_gram,
    estimate_mode_constant,
    make_basis,
    minimize_quotient,
    symmetry_breaking_scan,
)

P5 = InequalityParams(5, 0.0)


def _problem(n, alpha, k, formulation):
    """(params, k) of one Gram problem.  "derivative" names the problem the
    substitution w = v' leaves once C loses its zero-order part: the radial
    one in dimension N + 2k."""
    if formulation == "derivative":
        return InequalityParams(n + 2 * k, alpha), 0
    return InequalityParams(n, alpha), k


def test_make_basis_defaults():
    basis = make_basis(P5, 0, 4)
    assert basis.m == 4
    assert basis.gamma0 == pytest.approx(0.0)
    assert basis.decay_q == pytest.approx(1.0)  # alpha + 1


def test_make_basis_bumps_away_from_divergence():
    # At N=2 the A entries diverge for gamma0 = 0, also at alpha = 0.1,
    # where their rule exponent -1 rounds to -1 + 2.2e-16.
    for alpha in (0.0, 0.1):
        basis = make_basis(InequalityParams(2, alpha), 0, 3)
        assert basis.gamma0 > 0.0


def test_make_basis_rejects_low_alpha():
    with pytest.raises(UnsupportedRegimeError):
        make_basis(InequalityParams(3, -1.5), 0, 3)


def test_gram_anchor_entry():
    # phi_0 = e^-r, so M_B[0, 0] = int e^(-2r) r^4 dr.
    gram = build_gram(P5, 0, make_basis(P5, 0, 1))
    assert gram.m_b[0, 0] == pytest.approx(math.gamma(5) / 2**5, rel=1e-12)


def test_gram_matrices_are_read_only_and_witnessed():
    # The witness of an estimate checks its Gram triple along the argmin.
    basis = make_basis(P5, 0, 3)
    gram = build_gram(P5, 0, basis)
    with pytest.raises(ValueError):
        gram.m_b[0, 0] = 1.0
    witness = estimate_mode_constant(P5, 0, (3,)).witness
    assert witness.worst_rel < 1e-10
    assert witness.levels_used > 0 and witness.nodes_used > 0


def test_gram_requires_multidimensional_params():
    with pytest.raises(PreconditionError):
        build_gram(InequalityParams(1, 0.0), 0, BasisSpec(2, 1.0, 1.0))


def test_quotient_gradient_euler_identity():
    basis = make_basis(P5, 0, 5)
    gram = build_gram(P5, 0, basis)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.standard_normal(5)
        value, grad = quotient_gradient(gram, y)
        assert value > 0.0
        # log Q is 0-homogeneous, so y . grad log Q = 0 identically.
        assert abs(float(y @ grad)) <= 1e-10 * float(np.linalg.norm(grad) + 1.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_gradient_matches_finite_differences(seed):
    basis = make_basis(P5, 0, 4)
    gram = build_gram(P5, 0, basis)
    y = np.random.default_rng(seed).standard_normal(4)
    value, grad = quotient_gradient(gram, y)
    step = 1e-6
    for i in range(4):
        plus, minus = y.copy(), y.copy()
        plus[i] += step
        minus[i] -= step
        fd = (
            math.log(quotient_gradient(gram, plus)[0])
            - math.log(quotient_gradient(gram, minus)[0])
        ) / (2 * step)
        assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-6)


def test_single_function_basis_recovers_constant():
    # The span of e^-r and r e^-r holds the extremal (1 + r) e^-r.
    basis = make_basis(P5, 0, 2)
    result = minimize_quotient(build_gram(P5, 0, basis))
    assert result.value == pytest.approx(9.0, rel=1e-12)
    assert result.converged


def test_minimize_is_deterministic():
    basis = make_basis(P5, 0, 6)
    gram = build_gram(P5, 0, basis)
    a = minimize_quotient(gram)
    b = minimize_quotient(gram)
    assert a.value == b.value
    assert np.array_equal(a.coeffs, b.coeffs)


def test_estimate_trace_monotone_and_accurate():
    est = estimate_mode_constant(P5, 0, (4, 8, 16))
    assert est.value == pytest.approx(9.0, rel=1e-4)
    for before, after in zip(est.trace, est.trace[1:]):
        assert after <= before + 1e-10 * max(1.0, abs(before))


@pytest.mark.parametrize("n, alpha, k", [(5, 0.0, 0), (4, 0.0, 1), (3, -0.5, 2), (7, 1.0, 1)])
def test_estimate_minimises_leading_blocks_of_one_gram(monkeypatch, n, alpha, k):
    params, sizes = InequalityParams(n, alpha), (4, 8, 16)
    gram = build_gram(params, k, make_basis(params, k, sizes[-1]))
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2].m)
        return build_gram(*args, **kwargs)

    monkeypatch.setattr(variational, "build_gram", counted)
    est = estimate_mode_constant(params, k, sizes)
    assert builds == [16]
    assert est.trace == tuple(minimize_quotient(gram.leading_block(m)).value for m in sizes)
    assert est.basis == gram.basis


def test_leading_block_is_the_smaller_gram():
    params = InequalityParams(4, 0.0)
    gram = build_gram(params, 1, make_basis(params, 1, 16))
    block = gram.leading_block(8)
    small = build_gram(params, 1, make_basis(params, 1, 8))
    assert block.basis == small.basis
    for mat, ref in ((block.m_a, small.m_a), (block.m_b, small.m_b), (block.m_c, small.m_c)):
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(mat - ref) / scale) < 1e-12
    assert block.diagnostics["leading_block_of_m"] == 16
    for key in ("cond_m_b", "cond_m_c"):
        assert key in gram.diagnostics
        assert key not in block.diagnostics
    assert gram.leading_block(16) is gram
    with pytest.raises(PreconditionError):
        gram.leading_block(17)
    with pytest.raises(PreconditionError):
        gram.leading_block(0)


def test_estimate_nonradial_upper_bound():
    est = estimate_mode_constant(InequalityParams(2, 0.0), 1, (4, 8, 16))
    assert est.value <= 0.75


def test_estimate_requires_increasing_sizes():
    with pytest.raises(PreconditionError):
        estimate_mode_constant(P5, 0, (8, 8))
    with pytest.raises(PreconditionError):
        estimate_mode_constant(P5, 0, ())


def test_scan_detects_symmetry_breaking():
    scan = symmetry_breaking_scan(3, 0.0, k_max=2, basis_sizes=(4, 8))
    assert scan.verdict == "symmetry-broken at k=1"
    assert scan.k_star == 1
    # The k=1 infimum (9/4) is not attained, so the variational value is
    # a strict upper bound; it must still beat the radial value 4 and
    # respect the exact per-mode lower bound.
    assert 2.25 - 1e-9 <= scan.best_value < 4.0
    assert scan.rows[1].effective_value == pytest.approx(2.25, rel=1e-9)
    assert scan.rows[0].hardy_factor == pytest.approx(1.0)
    assert scan.flag is None


def test_scan_radial_regime():
    scan = symmetry_breaking_scan(6, 0.0, k_max=2, basis_sizes=(4, 8))
    assert scan.verdict == "radial"
    assert scan.best_value == pytest.approx(49.0 / 4.0, rel=1e-6)


def test_scan_k0_verdict_uses_better_formulation():
    # At k = 0 the verdict reads the proven, attained K(N, alpha, 0) itself,
    # never an estimate a rounding below it.
    for n, constant in ((2, 2.25), (4, 6.25)):
        row0 = symmetry_breaking_scan(n, 0.0, k_max=1, basis_sizes=(4, 8)).rows[0]
        assert row0.verdict_value == row0.raw_value == constant


def test_scan_conjecture_flag_only_for_open_case():
    open_scan = symmetry_breaking_scan(4, 0.0, k_max=1, basis_sizes=(4,))
    assert open_scan.flag == "conjecture-open"
    closed_scan = symmetry_breaking_scan(5, 0.0, k_max=1, basis_sizes=(4,))
    assert closed_scan.flag is None


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_scan_raw_column_is_exact(n, alpha):
    scan = symmetry_breaking_scan(n, alpha, k_max=3, basis_sizes=(2,))
    for row in scan.rows:
        raw = float(mode_quotient_weighted(n + 2 * row.k, alpha, 0).exact)
        assert row.raw_value == raw
        assert row.effective_value == raw / row.hardy_factor**2


@pytest.mark.parametrize("n, alpha, k", [
    (2, 0.0, 1), (4, 0.0, 2), (5, -0.5, 1), (3, 0.5, 3), (7, -0.875, 1),
])
def test_derivative_minimum_is_the_radial_constant_of_dimension_n_plus_2k(n, alpha, k):
    # The fact the scan takes from the closed form instead of recomputing:
    # for w = v' (every order one lower), mode k's forms without C's
    # zero-order part are those of the radial problem in dimension N + 2k.
    def for_w(parts):
        return tuple((order - 1, power, coef) for order, power, coef in parts
                     if order > 0 and coef != 0.0)

    assert (tuple(map(for_w, form_parts(n, alpha, k)))
            == tuple(map(for_w, form_parts(n + 2 * k, alpha, 0))))
    params = InequalityParams(n + 2 * k, alpha)
    gram = build_gram(params, 0, make_basis(params, 0, 8))
    expected = mode_quotient_weighted(n + 2 * k, alpha, 0).value
    assert minimize_quotient(gram).value == pytest.approx(expected, rel=1e-9)


def test_scan_preconditions():
    with pytest.raises(PreconditionError):
        symmetry_breaking_scan(1, 0.0)
    with pytest.raises(PreconditionError):
        symmetry_breaking_scan(4, 0.0, k_max=0)


def quotient_gradient(gram, coeffs):
    """Q at ``coeffs`` and the gradient of log Q there: the route of
    ``_lbfgs_minimum``, independent of the minimiser's eigenvalue search."""
    c = np.asarray(coeffs, dtype=float)
    ac, bc, cc = gram.m_a @ c, gram.m_b @ c, gram.m_c @ c
    a, b, q_c = float(c @ ac), float(c @ bc), float(c @ cc)
    if min(a, b, q_c) <= 0.0:
        raise DomainError("quotient undefined: a quadratic form is nonpositive here")
    return a * b / q_c**2, 2.0 * ac / a + 2.0 * bc / b - 4.0 * cc / q_c


def _lbfgs_minimum(gram, starts=6):
    """Best local minimum of log Q from several L-BFGS starts."""
    from scipy.optimize import minimize

    def objective(y):
        try:
            value, grad = quotient_gradient(gram, y)
        except PreconditionError:
            return 1e100, np.zeros_like(y)
        return math.log(value), grad

    rng = np.random.default_rng(5)
    best = math.inf
    for start in [np.ones(gram.m)] + [rng.standard_normal(gram.m) for _ in range(starts - 1)]:
        res = minimize(objective, start, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-17, "gtol": 1e-14})
        best = min(best, math.exp(res.fun))
    return best


@pytest.mark.parametrize("formulation", ["derivative", "profile"])
@pytest.mark.parametrize("n, alpha, k", [
    (2, 0.0, 1), (3, 0.0, 1), (4, 0.0, 1), (4, 0.0, 2), (5, 0.0, 0),
    (3, 0.25, 0), (6, 0.5, 1), (4, -0.25, 1), (5, -0.6, 2),
])
def test_exact_minimum_never_above_lbfgs(n, alpha, k, formulation):
    params, k = _problem(n, alpha, k, formulation)
    for m in (2, 4, 8):
        gram = build_gram(params, k, make_basis(params, k, m))
        exact = minimize_quotient(gram).value
        assert exact <= _lbfgs_minimum(gram) * (1.0 + 1e-12)


@pytest.mark.parametrize("n, alpha, k, formulation", [
    (4, 0.0, 1, "profile"), (3, 0.0, 1, "profile"), (7, 0.0, 1, "profile"),
    (5, 0.0, 0, "profile"), (4, 0.0, 2, "profile"), (6, 0.5, 3, "profile"),
    (11, -0.875, 1, "profile"), (2, 0.0, 1, "profile"),
])
def test_search_matches_dense_scan(n, alpha, k, formulation):
    # (lambda_1(u)/2)^2 bounds Q at its eigenvector from above, so the
    # search may not end above the lowest value of a dense scan of u; the
    # k = 1 modes of N = 4 and 2 are also held to it at m = 64.
    from scipy.linalg import eigh

    params, k = _problem(n, alpha, k, formulation)
    for m in (16, 32, 64) if (n, alpha, k) in ((4, 0.0, 1), (2, 0.0, 1)) else (16, 32):
        gram = build_gram(params, k, make_basis(params, k, m))
        d = 1.0 / np.sqrt(np.diag(gram.m_c))
        a, b, c = (mat * np.outer(d, d) for mat in (gram.m_a, gram.m_b, gram.m_c))
        ratios = eigh(b, a, eigvals_only=True)
        scan = min(
            eigh(math.exp(u) * a + math.exp(-u) * b, c, eigvals_only=True,
                 subset_by_index=[0, 0])[0]
            for u in np.linspace(0.5 * math.log(ratios[0]), 0.5 * math.log(ratios[-1]), 2001)
        )
        assert minimize_quotient(gram).value <= (scan / 2.0) ** 2 * (1.0 + 1e-12)


def test_probe_minimisations_stay_within_their_evaluation_budget(monkeypatch):
    # The twelve minimisations of the N = 4 probe (k <= 3, sizes 4, 8, 16)
    # take 370 lambda_1 evaluations with Brent's search, 741 with golden
    # section.
    iterations, original = [], variational.minimize_quotient

    def counted(gram):
        result = original(gram)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(variational, "minimize_quotient", counted)
    symmetry_breaking_scan(4, 0.0, k_max=3, basis_sizes=(4, 8, 16))
    assert len(iterations) == 12
    assert sum(iterations) <= 400


def _moment_mp(poly, p):
    """ExpPoly.moment's Gamma closed form at the working precision: the
    monomial Gram is Hilbert-like, and T M_mono T^T cancels far beyond
    double precision."""
    q = mpmath.mpf(poly.decay_power)
    return mpmath.fsum(
        c * mpmath.gamma((g + p + 1) / q) / (q * mpmath.mpf(poly.rate) ** ((g + p + 1) / q))
        for g, c in poly.terms)


def _laguerre_monomials_mp(m, a):
    """Monomial coefficients of L_j^(a)(2x), j < m, in 40 digits:
    L_j^(a)(y) = sum_i (-1)^i binom(j+a, j-i) y^i / i!."""
    with mpmath.workdps(40):
        return mpmath.matrix([[(-2) ** i * mpmath.binomial(j + mpmath.mpf(a), j - i)
                               / mpmath.factorial(i) if i <= j else 0 for i in range(m)]
                              for j in range(m)])


@pytest.mark.parametrize("formulation", ["derivative", "profile"])
@pytest.mark.parametrize("n, alpha, k", [(4, 0.0, 1), (2, 0.0, 0), (6, 0.25, 2), (5, -0.75, 1)])
def test_laguerre_gram_is_monomial_gram_transformed(n, alpha, k, formulation):
    # M = T M_mono T^T, with M_mono from the Gamma-function moments of
    # r^(gamma0 + i q) exp(-r^q) and T the monomial coefficients of P_j.
    # Dyadic alphas keep every exponent exact in double: the monomial
    # route amplifies an exponent's rounding by the cancellation in T.
    params, k = _problem(n, alpha, k, formulation)
    basis = make_basis(params, k, 6)
    gram = build_gram(params, k, basis)
    q = basis.decay_q
    t = _laguerre_monomials_mp(6, gram.diagnostics["laguerre_a"])
    monomials = [ExpPoly(((basis.gamma0 + i * q, 1.0),), 1.0, q) for i in range(6)]
    for mat, parts in zip((gram.m_a, gram.m_b, gram.m_c),
                          form_parts(params.n, params.alpha, k)):
        with mpmath.workdps(40):
            mono = mpmath.zeros(6, 6)
            for order, power, coef in parts:
                funcs = monomials
                for _ in range(order):
                    funcs = [f.derivative() for f in funcs]
                if coef != 0.0:
                    mono += coef * mpmath.matrix([[_moment_mp(f * g, power) for g in funcs]
                                                  for f in funcs])
            expected = np.array((t * mono * t.T).tolist(), dtype=float)
        diag = np.abs(np.diag(expected))
        scale = np.sqrt(np.outer(diag, diag))
        assert np.all(np.abs(mat - expected) <= 1e-10 * scale)


@pytest.mark.parametrize("gamma0, q, a", [(0.0, 1.0, 2.0), (1.0, 1.0, 5.0),
                                          (0.5, 0.25, -1.5), (2.5, 1.75, 0.3)])
def test_derivative_factors_match_exppoly_derivatives(gamma0, q, a):
    r = np.array([1e-3, 0.07, 0.4, 1.0, 2.3, 6.0, 15.0])
    for m in (1, 2, 4):
        basis = BasisSpec(m, gamma0, q)
        t = np.array(_laguerre_monomials_mp(m, a).tolist(), dtype=float)
        funcs = [ExpPoly(tuple((gamma0 + i * q, c) for i, c in enumerate(row)), 1.0, q)
                 for row in t]
        facs = [basis.factor(order) for order in range(3)]
        stack = np.stack([basis.evaluate(facs, r, a, unit) for unit in np.eye(m)], axis=1)
        assert stack.shape == (3, m, r.size)
        for table in stack:
            expected = np.array([f(r) for f in funcs])
            np.testing.assert_allclose(table, expected, rtol=1e-10,
                                       atol=1e-13 * np.max(np.abs(expected)))
            funcs = [f.derivative() for f in funcs]


@pytest.mark.parametrize("m", [1, 16, 64])
def test_evaluate_contracts_the_trial_functions(m):
    # evaluate gives the derivatives of v = sum_j c_j phi_j: those of the
    # trial functions (unit c) contracted with c, up to rounding; and each
    # node's value bit for bit, whatever other nodes share the call.
    basis = BasisSpec(m, 0.5, 1.25)
    facs = [basis.factor(order) for order in range(3)]
    c = np.random.default_rng(m).standard_normal(m)
    r = np.geomspace(1e-3, 80.0, 301)
    got = basis.evaluate(facs, r, 1.5, c)
    assert got.shape == (3, r.size)
    stack = np.stack([basis.evaluate(facs, r, 1.5, unit) for unit in np.eye(m)], axis=1)
    assert np.all(np.abs(got - c @ stack) <= 1e-13 * (np.abs(c) @ np.abs(stack)))
    for part in (slice(0, 1), slice(7, 9), slice(100, 237)):
        assert np.array_equal(basis.evaluate(facs, r[part], 1.5, c), got[:, part])


@pytest.mark.parametrize("n, k", [(4, 1), (3, 1), (5, 0)])
def test_gram_conditioning_stays_bounded(n, k):
    params = InequalityParams(n, 0.0)
    gram = build_gram(params, k, make_basis(params, k, 32))
    assert gram.diagnostics["cond_m_c"] <= 1e4


@pytest.mark.parametrize("n, alpha, k", [(5, 0.0, 1), (4, 0.0, 0), (3, -0.5, 2)])
def test_witness_is_one_refinement_loop(monkeypatch, n, alpha, k):
    # The Gram triple is checked along the argmin by the estimate's witness:
    # one integrate call on one row per live part.  Building the triple
    # integrates nothing.
    params = InequalityParams(n, alpha)
    results, original = [], variational.integrate

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(variational, "integrate", counted)
    build_gram(params, k, make_basis(params, k, 6))
    assert results == []
    est = estimate_mode_constant(params, k, (3, 6))
    assert len(results) == 1
    live = sum(coef != 0.0 for parts in form_parts(n, alpha, k) for *_, coef in parts)
    assert results[0].value.shape == (live,)
    assert est.witness.levels_used == results[0].levels_used
    assert est.witness.nodes_used == results[0].nodes_used


@pytest.mark.parametrize("n, alpha, k", [
    (2, 0.0, 1), (3, -0.5, 2), (4, 0.0, 1), (5, -0.75, 0), (6, 0.5, 3), (9, 2.0, 1),
])
def test_witness_gap_is_within_1e_12(n, alpha, k):
    # Each form's energy and the quotient of the argmin's profile, by
    # quadrature, agree with the Gauss-Laguerre values far inside
    # SPOT_CHECK_RTOL.
    est = estimate_mode_constant(InequalityParams(n, alpha), k, (8, 16))
    assert est.witness.worst_rel <= 1e-12


@pytest.mark.parametrize("n, alpha, k, sizes", [(2, -0.875, 0, (4, 8, 16)), (3, 3.0, 0, (1,))])
def test_witness_allows_a_cancelling_form_and_a_single_trial_function(n, alpha, k, sizes):
    # At N = 2, alpha = -7/8, k = 0 the A form cancels about 57-fold, so its
    # quotient's gap is judged against the scale the energies allow; one
    # trial function at alpha = 3, k = 0 has no positive turning point, so
    # the tail is centred on the decay hint.
    est = estimate_mode_constant(InequalityParams(n, alpha), k, sizes)
    assert est.witness.worst_rel <= variational.SPOT_CHECK_RTOL


def test_witness_rejects_a_value_its_energies_contradict(monkeypatch):
    # The energies of the argmin match c^T M c, but not a reported value.
    original = variational.minimize_quotient

    def raised(gram):
        result = original(gram)
        return result._replace(value=result.value * (1.0 + 1e-6))

    monkeypatch.setattr(variational, "minimize_quotient", raised)
    with pytest.raises(VerificationMismatchError, match="witness check failed for the quotient"):
        estimate_mode_constant(P5, 1, (4,))


def _rule_exponents(params, k, basis):
    """The Gauss-rule exponent s of every live part of the triple."""
    return tuple(variational._rule_exponent(basis.factor(order).power, power, basis.decay_q)
                 for parts in form_parts(params.n, params.alpha, k)
                 for order, power, coef in parts if coef != 0.0)


@pytest.mark.parametrize("n, alpha, k, m", [
    (4, 0.0, 1, 16), (3, -0.5, 2, 8), (7, 1.0, 3, 16), (6, 0.1, 0, 32), (2, -0.75, 1, 4),
])
def test_batched_rules_integrate_every_monomial_exactly(n, alpha, k, m):
    # Each rule has nodes = m + 3 and is exact for y^j, j < 2 nodes:
    # sum w y^j = Gamma(s + j + 1), compared in log space.
    params = InequalityParams(n, alpha)
    exponents = _rule_exponents(params, k, make_basis(params, k, m))
    nodes = m + variational._GAUSS_EXTRA_NODES
    y, w = variational._gauss_laguerre(nodes, exponents)
    assert y.shape == w.shape == (len(exponents), nodes)
    for s, y_s, w_s in zip(exponents, y, w):
        for j in range(2 * nodes):
            terms = np.log(w_s) + j * np.log(y_s)
            top = terms.max()
            log_sum = top + math.log(np.sum(np.exp(terms - top)))
            assert abs(log_sum - math.lgamma(s + j + 1.0)) <= 1e-12


def _laguerre_table(m, a, y, order):
    """L_j^(a)(y) differentiated ``order`` times, from the recurrence of that
    order alone, the lower orders recomputed first."""
    lower = _laguerre_table(m, a, y, order - 1) if order else None
    tab = np.zeros((m,) + y.shape)
    tab[0] = 1.0 if order == 0 else 0.0
    for j in range(m - 1):
        nxt = (2 * j + 1 + a - y) * tab[j]
        if j:
            nxt -= (j + a) * tab[j - 1]
        if order:
            nxt -= order * lower[j]
        tab[j + 1] = nxt / (j + 1)
    return tab


@pytest.mark.parametrize("a", [-0.5, 0.0, 3.25])
def test_stacked_laguerre_tables_match_the_single_order_recurrence(a):
    y = np.array([[1e-3, 0.4, 2.0, 7.5], [11.0, 30.0, 0.05, 64.0]])
    tabs = variational._laguerre_tables(12, a, y, 3)
    assert tabs.shape == (4, 12) + y.shape
    for order in range(4):
        assert np.array_equal(tabs[order], _laguerre_table(12, a, y, order))
    # Parameters per row of nodes, as for the batched Gauss rules.
    rows = np.array([[a], [a + 1.5]])
    stacked = variational._laguerre_tables(12, rows, y, 2)
    for i in range(2):
        assert np.array_equal(stacked[:, :, i],
                              variational._laguerre_tables(12, a + 1.5 * i, y[i], 2))


def test_probe_witnesses_centre_on_the_top_trial_function():
    # probe-conjecture checks the estimates of N = 4, alpha = 0, k = 0..3 at
    # m = 16 by their witnesses.  Centred on the turning point of the top
    # trial function, x = 2(m-1) + a + 1, they take 810 + 797 + 780 + 770
    # nodes; centred on the decay hint, the k = 1 witness alone takes 1592.
    params = InequalityParams(4, 0.0)
    used = [estimate_mode_constant(params, k, (4, 8, 16)).witness.nodes_used for k in range(4)]
    assert sum(used) <= 4000


def test_pd_check_rejects_barely_indefinite_matrix():
    delta = 2e-15
    mat = np.array([[1.0, 1.0 + delta], [1.0 + delta, 1.0]])
    eigs = np.linalg.eigvalsh(mat)
    assert -2e-15 < eigs[0] / eigs[-1] < 0.0
    with pytest.raises(ConsistencyError):
        _pd_check(mat, "m_c", {})


def test_converged_flag_set_at_the_exact_minimum():
    est = estimate_mode_constant(P5, 1, (4, 8))
    assert est.final.converged
    assert est.final.gradient_norm < 1e-6


def test_estimate_below_proven_bound_is_rejected(monkeypatch):
    original = variational.build_gram

    def halved_a(*args, **kwargs):
        gram = original(*args, **kwargs)
        return gram._replace(m_a=gram.m_a / 2.0)

    monkeypatch.setattr(variational, "build_gram", halved_a)
    with pytest.raises(ConsistencyError, match="lower bound"):
        estimate_mode_constant(P5, 1, (4,))


def test_k0_estimate_above_its_attained_constant_is_rejected(monkeypatch):
    # Spaces that cannot hold the extremal (1 + x) e^-x are not calibrated:
    # one trial function at N = 5, and N = 2, whose leading exponent is raised.
    assert estimate_mode_constant(P5, 0, (1,)).value == pytest.approx(28.0 / 3.0)
    assert estimate_mode_constant(InequalityParams(2, 0.0), 0, (4, 8)).basis.gamma0 > 0.0
    original = variational.build_gram

    def raised_a(*args, **kwargs):
        gram = original(*args, **kwargs)
        return gram._replace(m_a=gram.m_a * (1.0 + 1e-6))

    monkeypatch.setattr(variational, "build_gram", raised_a)
    with pytest.raises(ConsistencyError, match=r"k = 0 estimate 9\.00000.* K\(5, 0\.0, 0\) = 9\.0"):
        estimate_mode_constant(P5, 0, (4, 8))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 20])
def test_k0_estimate_is_the_attained_constant(n):
    # Every space of leading exponent 0 and m >= 2 holds the extremal, so
    # the k = 0 estimate is K(N, alpha, 0) to rounding.
    for alpha in (-0.75, -0.5, 0.0, 0.1, 0.3, 1.0, 2.0, 3.0):
        constant = mode_quotient_weighted(n, alpha, 0).value
        for sizes in ((2,), (4, 8, 16)):
            est = estimate_mode_constant(InequalityParams(n, alpha), 0, sizes)
            assert est.value == pytest.approx(constant, rel=1e-12, abs=0.0), (alpha, sizes)


def test_indefinite_a_form_is_rejected():
    # M_A is positive definite on every admissible trial space (the Hardy
    # bound below), so an indefinite one is numerical breakdown.
    gram = build_gram(P5, 1, make_basis(P5, 1, 4))
    with pytest.raises(ConsistencyError, match="needs a >= 0"):
        minimize_quotient(gram._replace(m_a=-gram.m_a))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12])
@pytest.mark.parametrize("alpha", [-0.9, -0.75, -0.6, 0.0, 0.5, 2.0])
def test_a_form_obeys_the_weighted_hardy_bound(n, alpha):
    # With f = v' and s = N+2k-2 alpha-1, int f'^2 r^s >= ((s-1)/2)^2 int f^2 r^(s-2)
    # gives A >= h int v'^2 r^(N+2k-2 alpha-3), h = ((N+2k+2 alpha)/2)^2: M_A - h M_1
    # is positive semidefinite, M_1 the Gram matrix of A's v' part.  (At
    # alpha = -1/2 that part has coefficient 0 and is not assembled.)
    params = InequalityParams(n, alpha)
    for k in range(4):
        basis = make_basis(params, k, 12)
        gram = build_gram(params, k, basis)
        live = variational._live_parts(params, k, basis)
        parts = variational._gauss_parts(basis, live, gram.diagnostics["laguerre_a"])
        m_1, = [part for (form, fac, _, _), part in zip(live, parts)
                if form == 0 and fac.order == 1]
        h = ((n + 2 * k + 2 * alpha) / 2) ** 2
        inv = np.linalg.inv(np.linalg.cholesky(gram.m_a))
        assert np.linalg.eigvalsh(inv @ (gram.m_a - h * m_1) @ inv.T)[0] >= -1e-12
