"""Exponential-polynomial algebra: derivatives, products, moments."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cknlab.errors import RangeOverflowError
from cknlab.exppoly import ExpPoly, _normalize, evaluate
from cknlab.special import weighted_exp_integral

coeff = st.floats(min_value=-3.0, max_value=3.0)
power = st.floats(min_value=0.0, max_value=4.0)


@st.composite
def exppolys(draw):
    n_terms = draw(st.integers(min_value=1, max_value=4))
    terms = tuple(
        (draw(power), draw(coeff)) for _ in range(n_terms)
    )
    rate = draw(st.floats(min_value=0.3, max_value=2.5))
    q = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    return ExpPoly(terms, rate, q)


@given(exppolys())
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_differences(p):
    r = np.geomspace(0.2, 5.0, 7)
    h = 1e-7 * r
    fd = (p(r + h) - p(r - h)) / (2.0 * h)
    d = p.derivative()(r)
    scale = np.maximum(np.abs(d), np.max(np.abs(p(r))) + 1.0)
    assert np.all(np.abs(fd - d) <= 1e-5 * scale)


@given(exppolys(), exppolys())
@settings(max_examples=100, deadline=None)
def test_product_is_pointwise(p, q):
    if p.decay_power != q.decay_power:
        return
    if p.terms and q.terms and all(c1 * c2 == 0.0 for _, c1 in p.terms for _, c2 in q.terms):
        # A product whose every coefficient underflows is an error, not the
        # zero polynomial.
        with pytest.raises(RangeOverflowError, match="underflows"):
            p * q
        return
    prod = p * q
    r = np.geomspace(0.1, 4.0, 9)
    assert np.allclose(prod(r), p(r) * q(r), rtol=1e-12, atol=1e-12)


def test_product_underflow_is_an_error():
    # Squaring a derivative with coefficients near 3e-300 (the profiles of
    # rate 1e-300) underflowed every coefficient to 0: ExpPoly dropped them
    # all and the closed energy route read a zero polynomial.
    d = ExpPoly(((0.0, -3e-300), (1.0, 1e-300)), 1e-300, 1.0)
    with pytest.raises(RangeOverflowError, match="underflows double-precision range"):
        d * d
    # Where some coefficient survives, only the underflowing terms are dropped.
    assert (d * ExpPoly(((0.0, 1e-300), (2.0, 1.0)), 1.0, 1.0)).terms == (
        (2.0, -3e-300), (3.0, 1e-300))


def test_derivative_underflow_is_an_error():
    # -c rate q of 1e-300 e^(-1e-100 r^2), its only coefficient, underflows:
    # the derivative of a nonzero polynomial would read as zero.
    with pytest.raises(RangeOverflowError, match="derivative underflows"):
        ExpPoly(((0.0, 1e-300),), 1e-100, 2.0).derivative()
    # A constant without decay has the zero derivative, and where some
    # coefficient survives only the underflowing ones are dropped.
    assert ExpPoly(((0.0, 1e-300),), 0.0, 1.0).derivative().is_zero
    assert ExpPoly(((2.0, 1e-300),), 1e-30, 1.0).derivative().terms == ((1.0, 2e-300),)


def test_moment_equals_weighted_exp_integral():
    p = ExpPoly(((2.0, 3.0),), 1.5, 1.0)
    # int 3 r^2 * r^4 e^{-1.5 r} dr
    assert p.moment(4.0) == pytest.approx(
        3.0 * weighted_exp_integral(6.0, 1.5, 1.0), rel=1e-13
    )


@given(exppolys(), st.floats(min_value=0.4, max_value=2.5))
@example(ExpPoly(((0.0, -2.112711075913527), (1.5625, 0.5449966071625738),
                  (1.7339053164998908, 0.9892451165863516)), 1.0, 0.5), 1.5628732413326931)
@settings(max_examples=100, deadline=None)
def test_dilated_is_pointwise(p, lam):
    # Near a sign change the terms cancel, so the rounding of each term is
    # measured against the sum of their magnitudes, not against the value.
    r = np.geomspace(0.2, 3.0, 7)
    magnitude = ExpPoly(tuple((g, abs(c)) for g, c in p.terms), p.rate, p.decay_power)(lam * r)
    assert np.all(np.abs(p.dilated(lam)(r) - p(lam * r)) <= 1e-12 * magnitude + 1e-300)


def test_scaled():
    p = ExpPoly(((0.0, 1.0), (1.0, 2.0)), 1.0, 1.0)
    r = np.linspace(0.1, 4.0, 11)
    assert np.allclose(p.scaled(-2.0)(r), -2.0 * p(r), rtol=1e-15)


def test_log_space_fallback_at_large_radius():
    # Plain evaluation of r^6 e^{-r^2} overflows the power factor long
    # before the product matters; the evaluator must stay finite.
    p = ExpPoly(((6.0, 1.0),), 1.0, 2.0)
    vals = p(np.array([1e3, 1e6, 1e150]))
    assert np.all(np.isfinite(vals))
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("poly", [
    ExpPoly(((-0.5, 1.5), (0.0, 2.0), (1.25, 0.75), (60.0, 3e-20)), 1.0, 0.5),
    ExpPoly(((0.0, 1.0), (2.0, 0.5), (7.5, 1e-3)), 0.8, 1.0),
    ExpPoly(((1.0, 1.0), (3.0, 2.0)), 2.0, 2.0),
])
def test_log_form_matches_mpmath(poly):
    # Each term is c exp(g log r - rate r^q): on a log grid over 1e-300..1e6
    # the values agree with 40-digit ones to 1e-13 relative wherever those
    # are normal doubles, and underflow where those are smaller still.  The
    # r^60 term overflows past r = 1e5 against an exponential that
    # underflows past r = 5e5, and its product stays exact.
    mpmath.mp.dps = 40
    r = np.geomspace(1e-300, 1e6, 201)
    for x, value in zip(r.tolist(), poly(r).tolist()):
        x = mpmath.mpf(x)
        exact = mpmath.exp(-poly.rate * x**poly.decay_power) * mpmath.fsum(
            c * x**g for g, c in poly.terms)
        if exact > 1e-290:
            assert abs(value - exact) <= 1e-13 * exact, (x, value, exact)
        else:
            assert 0.0 <= value <= 1e-289, (x, value, exact)


def test_log_form_edges():
    # r^400 overflows and e^-r underflows: the value is 0, not inf * 0 = nan.
    far = np.array([1e4, 1e6, 1e100, 1e300])
    assert np.array_equal(ExpPoly(((400.0, 1.0),), 1.0, 1.0)(far), np.zeros(4))
    # A g = 0 term is c e^(-rate r^q) exactly, and c itself without decay,
    # at the origin too.
    r = np.array([0.0, 1e-300, 0.3, 1.0, 7.0, 1e6])
    assert np.array_equal(ExpPoly(((0.0, 2.5),), 0.75, 1.5)(r),
                          2.5 * np.exp(-0.75 * np.power(r, 1.5)))
    assert np.array_equal(ExpPoly(((0.0, 2.5),), 0.0, 1.0)(r), np.full(6, 2.5))
    # Polynomials evaluated together share log r and the exponential's
    # argument, and give each one's values alone.
    p, q = ExpPoly(((0.0, 1.0), (1.5, -2.0)), 1.0, 1.5), ExpPoly(((0.5, 3.0),), 1.0, 1.5)
    for together, alone in zip(evaluate((p, q, p.derivative()), r[1:]),
                               (p(r[1:]), q(r[1:]), p.derivative()(r[1:]))):
        assert np.array_equal(together, alone)


def test_zero_poly():
    z = ExpPoly((), 1.0, 1.0)
    assert z.is_zero
    assert z.moment(3.0) == 0.0


def _normalize_by_scan(terms):
    """The tolerance scan alone: each power merges into the first earlier
    key within 1e-12 relative to that key, or becomes a key."""
    merged = {}
    for g, c in terms:
        g = float(g)
        c = float(c)
        if c == 0.0:
            continue
        for key in merged:
            if abs(key - g) <= 1e-12 * max(1.0, abs(key)):
                merged[key] += c
                break
        else:
            merged[g] = c
    return tuple(sorted((g, c) for g, c in merged.items() if c != 0.0))


_BASE_POWERS = (st.sampled_from([0.0, -0.0, 1.0, 2.5, -0.5, 1e-13, 7.0, 1e300, -1e300,
                                 math.inf, -math.inf])
                | st.floats(allow_nan=False))
_COEFFS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _term_lists(draw):
    """Terms on a few base powers: exact repeats, and near repeats shifted
    by k 1e-13 relative, inside the merge tolerance for |k| <= 10."""
    bases = draw(st.lists(_BASE_POWERS, min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        g = draw(st.sampled_from(bases))
        shift = draw(st.sampled_from([0, 0, 0, 1, -1, 5, -9, 11]))
        if shift and math.isfinite(g):
            g += shift * 1e-13 * max(1.0, abs(g))
        terms.append((g, draw(_COEFFS)))
    return terms


@given(_term_lists())
@example([(math.inf, 1.0), (math.inf, 2.0)])  # an infinite power never merges: the last wins
@example([(-0.0, 1.0), (0.0, 2.0), (1e-13, 4.0)])
@example([(1.0, 1.0), (1.0 + 9e-13, 2.0), (1.0 + 1.8e-12, 4.0), (1.0 + 1.8e-12, 8.0)])
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_tolerance_scan(terms):
    # The exact key lookup before the scan changes no term, bit for bit.
    assert repr(_normalize(terms)) == repr(_normalize_by_scan(terms))
