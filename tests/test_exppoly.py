"""Exponential-polynomial algebra: derivatives, products, moments."""

import math
from fractions import Fraction
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cknlab import exppoly
from cknlab.errors import CknLabError, DivergentIntegralError, DomainError, RangeOverflowError
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


# A polynomial whose decay reaches the origin (q < 0).
_FLAT_ORIGIN = ExpPoly(((-3.0, 1.5), (-1.25, -2.0), (0.5, 0.75)), 0.75, -0.5)


@given(exppolys())
@example(_FLAT_ORIGIN)
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_differences(p):
    if p.terms and all(c * g == 0.0 and c * p.rate * p.decay_power == 0.0
                       for g, c in p.terms):
        # A derivative whose every coefficient underflows (c = 5e-324 at
        # g = 0, q = 0.5) is an error, not the zero polynomial.
        with pytest.raises(RangeOverflowError, match="derivative underflows"):
            p.derivative()
        return
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
    # int 3 r^-6 * r^2 e^{-1.5 r^-1/2} dr, a decay towards the origin.
    assert ExpPoly(((-6.0, 3.0),), 1.5, -0.5).moment(2.0) == pytest.approx(
        3.0 * weighted_exp_integral(-4.0, 1.5, -0.5), rel=1e-13)


@given(exppolys(), st.floats(min_value=0.4, max_value=2.5))
@example(ExpPoly(((0.0, -2.112711075913527), (1.5625, 0.5449966071625738),
                  (1.7339053164998908, 0.9892451165863516)), 1.0, 0.5), 1.5628732413326931)
@example(_FLAT_ORIGIN, 2.25)
@settings(max_examples=100, deadline=None)
def test_dilated_is_pointwise(p, lam):
    # Near a sign change the terms cancel, so the rounding of each term is
    # measured against the sum of their magnitudes, not against the value.
    r = np.geomspace(0.2, 3.0, 7)
    magnitude = ExpPoly(tuple((g, abs(c)) for g, c in p.terms), p.rate, p.decay_power)(lam * r)
    assert np.all(np.abs(p.dilated(lam)(r) - p(lam * r)) <= 1e-12 * magnitude + 1e-300)


def test_dilation_beyond_range_is_an_error():
    # 1e3^400 overflowed as a bare OverflowError from the float power.
    with pytest.raises(RangeOverflowError, match="dilation factor lam = 1000.0 exceeds"):
        ExpPoly(((400.0, 1.0),), 1.0, 1.0).dilated(1e3)
    with pytest.raises(RangeOverflowError, match="dilation factor"):
        ExpPoly(((1.0, 1.0),), 1.0, 400.0).dilated(1e3)
    # A rate that overflows, or underflows to no decay at all.
    with pytest.raises(RangeOverflowError, match="rate 1e\\+300 dilated by 1e\\+100"):
        ExpPoly(((1.0, 1.0),), 1e300, 1.0).dilated(1e100)
    with pytest.raises(RangeOverflowError, match="rate 1e-300 dilated by 1e-100"):
        ExpPoly(((1.0, 1.0),), 1e-300, 1.0).dilated(1e-100)
    # A polynomial without decay stays one.
    assert ExpPoly(((1.0, 1.0),), 0.0, 1.0).dilated(2.0) == ExpPoly(((1.0, 2.0),), 0.0, 1.0)


_EXTREME = st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _extreme_exppolys(draw):
    """Any finite powers, coefficients, rates and decay powers of either
    sign, from ordinary ones to the ends of double-precision range."""
    terms = draw(st.lists(st.tuples(_EXTREME, _EXTREME), min_size=1, max_size=3))
    rate = draw(st.one_of(st.just(0.0), _EXTREME.map(abs)))
    q = draw(_EXTREME.filter(bool))
    return ExpPoly(tuple(terms), rate, q)


@given(_extreme_exppolys(), _extreme_exppolys(), st.floats(), st.floats(),
       st.sampled_from(["dilated", "scaled", "derivative", "mul"]))
@settings(max_examples=300, deadline=None)
def test_algebra_raises_only_package_errors(p, other, lam, s, op):
    # Overflow, underflow and out-of-domain factors end in a CknLabError
    # (exit 2 at the CLI), never in a bare OverflowError or ValueError.
    operations = {"dilated": lambda: p.dilated(lam), "scaled": lambda: p.scaled(s),
                  "derivative": p.derivative, "mul": lambda: p * other}
    try:
        result = operations[op]()
    except CknLabError:
        return
    assert isinstance(result, ExpPoly)


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
    key within 2^-49 relative to that key, or becomes a key."""
    merged = {}
    for g, c in terms:
        g = float(g)
        c = float(c)
        if c == 0.0:
            continue
        for key in merged:
            if abs(key - g) <= 2.0**-49 * max(1.0, abs(key)):
                merged[key] += c
                break
        else:
            merged[g] = c
    return tuple(sorted((g, c) for g, c in merged.items() if c != 0.0))


_BASE_POWERS = (st.sampled_from([0.0, -0.0, 1.0, 2.5, -0.5, 1e-15, 7.0, 1e300, -1e300,
                                 math.inf, -math.inf])
                | st.floats(allow_nan=False))
_COEFFS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _term_lists(draw):
    """Terms on a few base powers: exact repeats, and near repeats shifted
    by k 2^-52 relative, inside the merge tolerance for |k| <= 8."""
    bases = draw(st.lists(_BASE_POWERS, min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        g = draw(st.sampled_from(bases))
        shift = draw(st.sampled_from([0, 0, 0, 1, -1, 5, -9, 11]))
        if shift and math.isfinite(g):
            g += shift * 2.0**-52 * max(1.0, abs(g))
        terms.append((g, draw(_COEFFS)))
    return terms


@given(_term_lists())
@example([(math.inf, 1.0), (math.inf, 2.0)])  # an infinite power never merges: the last wins
@example([(-0.0, 1.0), (0.0, 2.0), (1e-15, 4.0)])
@example([(1.0, 1.0), (1.0 + 7 * 2.0**-52, 2.0), (1.0 + 14 * 2.0**-52, 4.0),
          (1.0 + 14 * 2.0**-52, 8.0)])
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_tolerance_scan(terms):
    # The exact key lookup before the scan changes no term, bit for bit.
    assert repr(_normalize(terms)) == repr(_normalize_by_scan(terms))


def test_non_finite_powers_are_rejected():
    # A repeated infinite power kept only its last coefficient, a nan power
    # was kept as it was, and the square of r^1e308 had the power inf.
    with pytest.raises(DomainError, match="powers must be finite, got inf"):
        ExpPoly(((math.inf, 1.0), (math.inf, 2.0)), 1.0, 1.0)
    with pytest.raises(DomainError, match="powers must be finite, got nan"):
        ExpPoly(((math.nan, 1.0),), 1.0, 1.0)
    huge = ExpPoly(((1e308, 1.0),), 1.0, 1.0)
    for square in (lambda: huge * huge, lambda: huge.square_moments([1.0])):
        with pytest.raises(RangeOverflowError, match="power 1e\\+308 \\+ 1e\\+308 of the product"):
            square()
    with pytest.raises(RangeOverflowError, match="of the derivative exceeds"):
        ExpPoly(((1.7e308, 1.0),), 1.0, 1e308).derivative()



def test_non_finite_coefficients_are_rejected():
    # They built, and their moment blamed the double-precision range.
    one = ExpPoly(((0.0, 1.0),), 1.0, 1.0)
    with pytest.raises(DomainError, match="coefficients must be finite, got nan"):
        ExpPoly(((0.0, math.nan), (1.0, 1.0)), 1.0, 1.0)
    with pytest.raises(DomainError, match="coefficients must be finite, got -inf"):
        ExpPoly(((0.0, 1.0), (0.0, -math.inf)), 1.0, 1.0)
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="scale factor must be finite"):
            one.scaled(s)
    # A coefficient that finite ones overflow into is beyond range, not bad input.
    big = ExpPoly(((0.0, 1e200), (1.0, 1.0)), 1.0, 1.0)
    for overflow, what in ((lambda: big * big, "of the product"),
                           (lambda: big.scaled(1e200), "of the scaled polynomial"),
                           (lambda: ExpPoly(((3.0, 1e308),), 1.0, 1.0).derivative(),
                            "of the derivative"),
                           (lambda: ExpPoly(((300.0, 1e300),), 1.0, 1.0).dilated(10.0),
                            "of the dilated polynomial"),
                           (lambda: ExpPoly(((0.0, 1e308), (0.0, 1e308)), 1.0, 1.0).moment(0.0),
                            "of the moment's integrand")):
        with pytest.raises(RangeOverflowError, match=f"{what} exceeds double-precision range"):
            overflow()


def test_product_rate_beyond_range_is_an_error():
    # The constructor rejected the rate inf as bad input.
    fast = ExpPoly(((0.0, 1.0),), 1e308, 1.0)
    with pytest.raises(RangeOverflowError,
                       match="rate 1e\\+308 \\+ 1e\\+308 of the product exceeds"):
        fast * fast
    assert (fast * ExpPoly(((1.0, 2.0),), 0.0, 1.0)).rate == 1e308

def _rising(s, m):
    out = Fraction(1)
    for i in range(m):
        out *= s + i
    return out


@st.composite
def _ladder_profiles(draw):
    """(g0, coefficients, rate, q, p) of sum_j c_j r^(g0 + j q) exp(-rate r^q):
    small dyadic coefficients, coefficients spanning up to 1e10, or those of
    the Laguerre polynomial L_(n-1)(2 rate r^q), whose squares' ladder sums
    cancel (by up to 1.6e4 at n = 6)."""
    n = draw(st.integers(min_value=2, max_value=6))
    q = draw(st.sampled_from([0.25, 0.5, 1.0, 1.1, 1.375, 3.0]))
    rate = draw(st.sampled_from([0.5, 1.0, 1.5]))
    kind = draw(st.sampled_from(["dyadic", "span", "laguerre"]))
    if kind == "dyadic":
        coefs = [draw(st.integers(min_value=-16, max_value=16).filter(bool)) / 8.0
                 for _ in range(n)]
    elif kind == "span":
        coefs = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(min_value=1.0, max_value=8.0))
                 * 10.0 ** -draw(st.integers(min_value=0, max_value=10)) for _ in range(n)]
    else:
        coefs = [(-2.0 * rate) ** j * math.comb(n - 1, j) / math.factorial(j) for j in range(n)]
    g0 = draw(st.sampled_from([0.0, 0.5, 1.25, 2.0]))
    p = draw(st.sampled_from([-0.5, 0.0, 1.0, 2.5, 4.0, 7.0]))
    return g0, coefs, rate, q, p


@given(_ladder_profiles())
@example((0.0, [1.0, -10.0, 20.0, -40 / 3, 10 / 3, -4 / 15], 1.0, 1.0, 0.0))  # L_5(2r)
@settings(max_examples=300, deadline=None)
def test_square_moments_match_exact_ladder_sum(profile):
    # The moment of the square is W(2 g0 + p; 2 rate, q) S with S the ladder
    # sum of the autoconvolution h; here S is exact, in rationals, from the
    # floats' values.  Every result is within the float sum's rounding
    # bound, relative to the absolute terms; a sum whose stated bound exceeds
    # 1e-11 of its value is redone exactly, and then only the final product
    # with W rounds.
    g0, coefs, rate, q, p = profile
    poly = ExpPoly(tuple((g0 + j * q, c) for j, c in enumerate(coefs)), rate, q)
    exact_runs = []
    original = exppoly._exact_ladder_sum

    def counted(*args):
        exact_runs.append(args)
        return original(*args)

    with patch.object(exppoly, "_exact_ladder_sum", counted):
        got, = poly.square_moments([p])
    low = g0 + g0 + p
    w0 = weighted_exp_integral(low, 2.0 * rate, q)
    s0, step = Fraction((low + 1.0) / q), Fraction(2.0 * rate)
    h = [sum(Fraction(coefs[i]) * Fraction(coefs[m - i]) for i in range(len(coefs))
             if 0 <= m - i < len(coefs)) for m in range(2 * len(coefs) - 1)]
    terms = [hm * _rising(s0, m) / step**m for m, hm in enumerate(h)]
    ref = w0 * float(sum(terms))
    size = w0 * float(sum(abs(t) for t in terms))
    eps = 2.0**-53
    err = abs(got - ref)
    assert err <= 2 * eps * abs(ref) + 8 * (len(coefs) + 4 * len(h)) * eps * size
    assert err <= (1.1e-11 + 2 * eps) * abs(ref)
    if exact_runs:
        assert err <= 2 * eps * abs(ref)
    if 2 * (len(coefs) + 4 * len(h)) * eps * size > 2e-11 * abs(ref):
        assert exact_runs


@st.composite
def _hardy_polys(draw):
    """The polynomials of the acceptance Hardy check: powers 1 + j + u_j on
    different ladders, and the same on one ladder (u_j = 0)."""
    shifts = draw(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=3, max_size=3))
    if draw(st.booleans()):
        shifts = [0.0] * 3
    coefs = st.floats(min_value=-2.0, max_value=2.0).filter(lambda c: abs(c) >= 1e-6)
    terms = tuple((1.0 + j + u, draw(coefs)) for j, u in enumerate(shifts))
    return ExpPoly(terms, draw(st.floats(min_value=0.5, max_value=2.0)), 1.0)


def _magnitude(poly, p):
    """The moment of weight r^p of the sum of the terms' magnitudes."""
    return sum(abs(c) * weighted_exp_integral(g + p, poly.rate, poly.decay_power)
               for g, c in poly.terms)


def _mirror(poly):
    """r -> poly(1/r): the powers and the decay power change sign, so that
    int mirror(r) r^p dr = int poly(t) t^(-p-2) dt."""
    return ExpPoly(tuple((-g, c) for g, c in poly.terms), poly.rate, -poly.decay_power)


@given(_hardy_polys(), st.floats(min_value=2.0, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_square_moments_equal_the_product_moment(poly, s):
    # Also for the mirror images, whose decay reaches the origin (q = -1):
    # their moments at -p - 2 are those of the polynomial at p.
    for v in (poly, poly.derivative()):
        if v.is_zero:
            continue
        got = v.square_moments([s - 2.0, s])
        square = v * v
        for value, p in zip(got, (s - 2.0, s)):
            want = square.moment(p)
            size = _magnitude(square, p)
            assert abs(value - want) <= 1e-14 * size
            assert abs(v.moment(p) - _mirror(v).moment(-p - 2.0)) <= 1e-14 * _magnitude(v, p)
            mirrored, = _mirror(v).square_moments([-p - 2.0])
            assert abs(mirrored - value) <= 1e-14 * size
            assert abs((_mirror(v) * _mirror(v)).moment(-p - 2.0) - want) <= 1e-14 * size


@given(exppolys(), st.sampled_from([0.0, 0.5, 2.0, 5.0]))
@settings(max_examples=100, deadline=None)
# r^2 lies 1e-12 off the rung 1e-12 + 4 q: a moment taken at the rung's
# power is 3.4e-12 off relative.
@example(ExpPoly(((1e-12, 1.0), (2.0, 1.0)), 1.0, 0.5), 0.0)
def test_moment_matches_termwise_sum(poly, p):
    # The ladders of a moment give the sum of its terms' closed forms.
    if poly.is_zero:
        return
    terms = [c * weighted_exp_integral(g + p, poly.rate, poly.decay_power)
             for g, c in poly.terms]
    assert abs(poly.moment(p) - math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))


def test_square_moments_keep_the_product_errors():
    # Every coefficient of the square underflows: the error of the product.
    tiny = ExpPoly(((0.0, -3e-300), (1.0, 1e-300)), 1e-300, 1.0)
    with pytest.raises(RangeOverflowError, match="every coefficient of the product underflows"):
        tiny.square_moments([1.0])
    # A coefficient of the square overflows.
    with pytest.raises(RangeOverflowError, match="exceeds double-precision range"):
        ExpPoly(((0.0, 1e200), (1.0, 1.0)), 1.0, 1.0).square_moments([1.0])
    # A part that diverges at the origin, after the parts before it.
    poly = ExpPoly(((0.5, 1.0), (1.5, 2.0)), 1.0, 1.0)
    with pytest.raises(DivergentIntegralError, match="diverges at the origin"):
        poly.square_moments([0.0, -2.5])
    # Its mirror decays towards the origin, and diverges at infinity instead.
    for diverges in (lambda: _mirror(poly).square_moments([-2.0, 0.5]),
                     lambda: _mirror(poly).moment(-0.5)):
        with pytest.raises(DivergentIntegralError, match="moment diverges at infinity"):
            diverges()
    # A square whose lowest coefficient underflows starts at the next rung.
    lopsided = ExpPoly(((0.0, 1e-170), (1.0, 1.0)), 1.0, 1.0)
    assert lopsided.square_moments([-1.5]) == pytest.approx(
        [(lopsided * lopsided).moment(-1.5)], rel=1e-14)
