"""Gamma kernel and weighted exponential integral against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknlab.special as special
from cknlab.errors import (
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    RangeOverflowError,
)
from cknlab.quadrature import integrate
from cknlab.special import (
    gamma,
    log_gamma,
    regularized_gamma_p,
    regularized_gamma_q,
    weighted_exp_integral,
)


def test_gamma_small_integers():
    for n, expected in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 6.0), (5, 24.0), (7, 720.0)):
        assert gamma(float(n)) == pytest.approx(expected, rel=1e-14)


def test_gamma_half_integer():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


def test_gamma_against_mpmath_grid():
    mpmath.mp.dps = 40
    ts = np.geomspace(1e-3, 170.0, 400)
    worst = 0.0
    for t in ts:
        ref = float(mpmath.gamma(mpmath.mpf(float(t))))
        worst = max(worst, abs(gamma(float(t)) - ref) / ref)
    assert worst < 1e-13


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)


def test_gamma_overflow_guarded():
    with pytest.raises(RangeOverflowError):
        gamma(200.0)


def test_log_gamma_large_arguments():
    mpmath.mp.dps = 40
    for t in (5.0, 50.0, 500.0, 5000.0):
        ref = float(mpmath.loggamma(mpmath.mpf(t)).real)
        assert log_gamma(t) == pytest.approx(ref, rel=1e-13)


@given(st.floats(min_value=0.5, max_value=80.0))
@settings(max_examples=200)
def test_gamma_recurrence(t):
    assert gamma(t + 1.0) == pytest.approx(t * gamma(t), rel=1e-12)


def test_weighted_exp_integral_known_values():
    # int r^p e^{-c r^q} dr = Gamma((p+1)/q) / (q c^((p+1)/q))
    assert weighted_exp_integral(0.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert weighted_exp_integral(6.0, 2.0, 1.0) == pytest.approx(720.0 / 2.0**7, rel=1e-14)
    assert weighted_exp_integral(0.0, 1.0, 2.0) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-14
    )
    # A decay towards the origin: Gamma(6) / 0.5.
    assert weighted_exp_integral(-4.0, 1.0, -0.5) == 240.0


def test_weighted_exp_integral_divergent():
    with pytest.raises(DivergentIntegralError):
        weighted_exp_integral(-1.0, 1.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        weighted_exp_integral(2.0, -1.0, 1.0)
    for p in (-1.0, 0.5):
        with pytest.raises(DivergentIntegralError, match="diverges at infinity"):
            weighted_exp_integral(p, 1.0, -0.5)


@given(
    st.floats(min_value=-0.9, max_value=10.0),
    st.floats(min_value=0.05, max_value=8.0),
    st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_weighted_exp_integral_matches_quadrature(p, c, q):
    closed = weighted_exp_integral(p, c, q)
    # r^p e^(-c r^q) as the row e^(-c r^q / 2).
    result = integrate(lambda r: np.exp(-0.5 * c * np.power(r, q))[None, :], (p,),
                       decay_hint=(c, q))
    assert result.value[0] == pytest.approx(closed, rel=1e-10)


@given(
    st.floats(min_value=-0.5, max_value=8.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=200)
def test_weighted_exp_integral_dilation_law(p, c, q, lam):
    # Substituting r -> lam r multiplies the integral by lam^-(p+1)
    # and rescales c by lam^-q.
    left = weighted_exp_integral(p, c * lam**-q, q)
    right = lam ** (p + 1.0) * weighted_exp_integral(p, c, q)
    assert left == pytest.approx(right, rel=1e-11)


# Worst relative errors measured against mpmath on this grid: 2.6e-13 for
# g <= 150 and 1.2e-12 for g <= 1000, where the log-space prefactor
# x^g e^-x / Gamma(g) carries an absolute error of about g ln(x) eps.
@pytest.mark.parametrize("orders, rtol", [
    ((0.05, 0.3, 1.0, 2.5, 10.0, 40.0, 150.0), 5e-13),
    ((400.0, 1000.0), 2e-12),
])
def test_incomplete_gamma_against_mpmath(orders, rtol):
    with mpmath.workdps(40):
        for g in orders:
            xs = np.concatenate([np.geomspace(1e-6, 1e4, 21),
                                 g + 5.0 * math.sqrt(g) * np.array([-1.0, 1.0])])
            xs = xs[xs > 0.0]
            p, q = regularized_gamma_p(g, xs), regularized_gamma_q(g, xs)
            for x, pv, qv in zip(xs, p, q):
                for value, ref in (
                    (pv, float(mpmath.gammainc(g, 0, x, regularized=True))),
                    (qv, float(mpmath.gammainc(g, x, mpmath.inf, regularized=True))),
                ):
                    if ref > 1e-300:
                        assert abs(value - ref) <= rtol * ref, (g, x, value, ref)
                    else:
                        assert value <= 1e-290, (g, x, value, ref)
                if pv > 1e-300 and qv > 1e-300:
                    assert pv + qv == pytest.approx(1.0, abs=1e-15)


def test_incomplete_gamma_end_points_and_shape():
    x = np.array([[0.0, np.inf], [1.0, 50.0]])
    p, q = regularized_gamma_p(2.0, x), regularized_gamma_q(2.0, x)
    assert p.shape == q.shape == (2, 2)
    assert (p[0, 0], q[0, 0], p[0, 1], q[0, 1]) == (0.0, 1.0, 1.0, 0.0)
    assert p[1, 0] == pytest.approx(1.0 - 2.0 / math.e, rel=1e-14)
    assert q[1, 1] == pytest.approx(51.0 * math.exp(-50.0), rel=1e-13)


def test_incomplete_gamma_rejects_bad_arguments():
    for g, x in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, -1e-3), (1.0, math.nan)):
        with pytest.raises(DomainError):
            regularized_gamma_p(g, x)


@pytest.mark.parametrize("x", [5.0, 15.0])  # the series below g + 1, the fraction above
def test_incomplete_gamma_raises_instead_of_a_partial_sum(monkeypatch, x):
    monkeypatch.setattr(special, "_INC_MAX_ITERATIONS", 3)
    with pytest.raises(NonConvergenceError):
        regularized_gamma_q(10.0, x)
