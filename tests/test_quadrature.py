"""Double-exponential quadrature on half-line integrals with known values."""

import math

import numpy as np
import pytest

import cknlab.quadrature as quadrature
import cknlab.variational as variational
from cknlab.constants import InequalityParams
from cknlab.errors import DomainError, NonConvergenceError, NonFiniteSampleError
from cknlab.exppoly import ExpPoly
from cknlab.quadrature import (
    IntegrandHandle,
    QuadratureSpec,
    integrate,
)
from cknlab.special import weighted_exp_integral


def test_plain_exponential():
    res = integrate(IntegrandHandle(lambda r: np.exp(-r), 0.0, (1.0, 1.0)))
    assert res.value == pytest.approx(1.0, rel=1e-13)
    assert res.err_est < 1e-12


def test_gaussian_moment():
    res = integrate(IntegrandHandle(lambda r: np.exp(-r * r), 2.0, (1.0, 2.0)))
    assert res.value == pytest.approx(0.25 * math.sqrt(math.pi), rel=1e-12)


def test_endpoint_singularity():
    # r^(-1/2) e^(-r) integrates to Gamma(1/2); the weight exponent
    # carries the singular factor so tanh-sinh clusters nodes correctly.
    res = integrate(IntegrandHandle(lambda r: np.exp(-r), -0.5, (1.0, 1.0)))
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_without_decay_hint():
    res = integrate(IntegrandHandle(lambda r: np.exp(-2.0 * r), 3.0, None))
    assert res.value == pytest.approx(weighted_exp_integral(3.0, 2.0, 1.0), rel=1e-11)


def test_factored_handle_matches_plain():
    f = ExpPoly(((1.0, 1.0), (2.0, -0.3)), 1.5, 1.0)
    plain = integrate(IntegrandHandle(lambda r: f(r) * f(r), 2.0, (3.0, 1.0)))
    factored = integrate(IntegrandHandle(None, 2.0, (3.0, 1.0), rows=f))
    assert factored.value[0, 0, 0] == pytest.approx(plain.value, rel=1e-12)


def test_rows_absorb_a_weight_below_minus_one():
    # int (r e^-r)^2 r^-1.5 dr = Gamma(1.5) / 2^1.5: the rows vanish at the
    # origin fast enough for a weight the plain integrand could not take.
    f = ExpPoly(((1.0, 1.0),), 1.0, 1.0)
    res = integrate(IntegrandHandle(None, -1.5, (2.0, 1.0), rows=f))
    assert res.value.shape == (1, 1, 1)
    assert res.value[0, 0, 0] == pytest.approx(math.gamma(1.5) / 2.0**1.5, rel=1e-12)


def test_algebraic_tail():
    # 1/(1+r)^4 integrates to 1/3 despite only polynomial decay.
    res = integrate(IntegrandHandle(lambda r: (1.0 + r) ** -4.0, 0.0, None))
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-11)


def test_rel_tol_is_respected():
    spec = QuadratureSpec(rel_tol=1e-6)
    res = integrate(IntegrandHandle(lambda r: np.exp(-r), 4.0, (1.0, 1.0)), spec)
    assert res.value == pytest.approx(24.0, rel=1e-6)


def test_determinism():
    handle = IntegrandHandle(lambda r: np.exp(-r) / (1.0 + r), 1.0, (1.0, 1.0))
    a = integrate(handle)
    b = integrate(handle)
    assert a.value == b.value and a.err_est == b.err_est


def test_divergent_integral_does_not_converge():
    with pytest.raises(NonConvergenceError):
        integrate(IntegrandHandle(lambda r: 1.0 / (1.0 + r), 0.0, None))


def test_non_finite_sample_reported():
    def bad(r):
        return np.where(r > 1.0, np.nan, np.exp(-r))

    with pytest.raises(NonFiniteSampleError):
        integrate(IntegrandHandle(bad, 0.0, (1.0, 1.0)))


def test_denormal_times_huge_weight_is_rescued():
    # Integrand values underflow to denormals at extreme nodes while the
    # transformed weight overflows; the true integral is still finite.
    def steep(r):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return np.where(r > 0.0, np.exp(-1.0 / np.maximum(r, 1e-320)), 0.0) / (
                1.0 + r
            ) ** 4
    res = integrate(IntegrandHandle(steep, 0.0, None))
    assert np.isfinite(res.value)
    # Reference value from 30-digit mpmath.quad.
    assert res.value == pytest.approx(0.041247381633079506, rel=1e-9)


def test_cancellation_reaches_mass_floor():
    # int_0^inf (1 - r) e^{-r} dr = 0 exactly: pure cancellation.
    poly = ExpPoly(((0.0, 1.0), (1.0, -1.0)), 1.0, 1.0)
    res = integrate(IntegrandHandle(poly, 0.0, (1.0, 1.0)))
    assert abs(res.value) < 1e-14


def test_tail_centred_on_weighted_mass():
    # r^10 exp(-r^(1/8)) has its mass near r = 88^8 ~ 4e15, far beyond
    # the decay scale c^(-1/q) = 1.
    res = integrate(IntegrandHandle(lambda r: np.exp(-np.power(r, 0.125)), 10.0,
                                    (1.0, 0.125)))
    assert res.value == pytest.approx(weighted_exp_integral(10.0, 1.0, 0.125), rel=1e-11)


def test_table_factors_give_every_pairwise_integral():
    polys = [ExpPoly(((g, 1.0), (g + 1.0, -0.5)), 1.0, 1.0) for g in (0.0, 0.5, 2.0)]

    def table(r):
        return np.array([p(r) for p in polys])

    res = integrate(IntegrandHandle(rows=table, weight_exponent=1.5, decay_hint=(2.0, 1.0)))
    assert res.value.shape == (1, 3, 3)
    for j, pj in enumerate(polys):
        for l, pl in enumerate(polys):
            assert res.value[0, j, l] == pytest.approx((pj * pl).moment(1.5), rel=1e-12)


def test_table_factors_must_match_nodes():
    handle = IntegrandHandle(rows=lambda r: np.ones((2, r.size + 1)))
    with pytest.raises(DomainError):
        integrate(handle)


def test_stack_matches_each_table_alone():
    polys = [ExpPoly(((g, 1.0), (g + 1.0, -0.5)), 1.0, 1.0) for g in (0.0, 0.5, 2.0)]
    exponents = (1.5, -0.5, 6.0)

    def table(r):
        return np.array([p(r) for p in polys])

    stacked = integrate(IntegrandHandle(rows=lambda r: np.array([table(r)] * 3),
                                        weight_exponent=exponents, decay_hint=(2.0, 1.0)))
    assert stacked.value.shape == stacked.err_est.shape == (3, 3, 3)
    for p, value in zip(exponents, stacked.value):
        alone = integrate(IntegrandHandle(rows=table, weight_exponent=p, decay_hint=(2.0, 1.0)))
        np.testing.assert_allclose(value, alone.value[0], rtol=1e-12)
        exact = [[(pj * pl).moment(p) for pl in polys] for pj in polys]
        np.testing.assert_allclose(value, exact, rtol=1e-12)


def test_table_may_be_non_finite_where_its_own_weight_underflows():
    # At r < 1e-12 the weight r^40 of the second table underflows to zero,
    # so the inf it returns there is ignored; the first table is alive there.
    def rows(r):
        with np.errstate(over="ignore"):
            tail = np.where(r < 1e-12, np.inf, np.exp(-r))
        return np.stack([np.exp(-r), tail])[:, None, :]

    res = integrate(IntegrandHandle(rows=rows, weight_exponent=(0.0, 40.0),
                                    decay_hint=(2.0, 1.0)))
    assert res.value[0, 0, 0] == pytest.approx(0.5, rel=1e-12)
    assert res.value[1, 0, 0] == pytest.approx(math.factorial(40) / 2.0**41, rel=1e-12)
    with pytest.raises(NonFiniteSampleError):
        integrate(IntegrandHandle(rows=rows, weight_exponent=(0.0, 0.0),
                                  decay_hint=(2.0, 1.0)))


def test_stack_must_match_its_exponents():
    with pytest.raises(DomainError):
        integrate(IntegrandHandle(rows=lambda r: np.ones((2, 1, r.size)),
                                  weight_exponent=(0.0, 1.0, 2.0)))
    with pytest.raises(DomainError):
        IntegrandHandle(lambda r: np.exp(-r), weight_exponent=(0.0, 1.0))
    with pytest.raises(DomainError):
        IntegrandHandle(rows=lambda r: np.exp(-r), weight_exponent=())


def test_tail_scale_moves_the_tail_centre_only():
    # r^8 e^-r has its mass near r = 8, beyond the peak the hint and the
    # weight give (r = 1): centred there, the same integral needs fewer nodes.
    def table(r):
        return np.exp(8.0 * np.log(r) - r)[None, :]

    hinted = integrate(IntegrandHandle(rows=table, decay_hint=(2.0, 1.0)))
    centred = integrate(IntegrandHandle(rows=table, decay_hint=(2.0, 1.0), tail_scale=8.0))
    exact = math.factorial(16) / 2.0**17
    for res in (hinted, centred):
        assert res.value[0, 0, 0] == pytest.approx(exact, rel=1e-12)
    assert centred.nodes_used < hinted.nodes_used
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            IntegrandHandle(rows=table, tail_scale=bad)


def _level_by_level(handle, maps, spec):
    """Reference sums: each level's nodes alone, from the module's node
    maps, its rows in batches of 256 nodes, with the nodes so far."""
    p = quadrature._exponents(handle)
    n = 0
    for level in range(spec.max_level + 1):
        grid = quadrature._grid(level, level)
        r, w = (np.concatenate(part) for part in zip(*(m.nodes(grid)[0] for m in maps)))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            wp = w * np.power(r, p[:, None])
            live = np.any(wp != 0.0, axis=0)
            r, w, wp = r[live], w[live], wp[:, live]
            n += r.size
            if handle.rows is None:
                f = handle.evaluator(r)
                term = quadrature._rescue_overflow(np.where(f == 0.0, 0.0, f * wp[0]),
                                                   f, r, w, p[0])
                yield float(np.sum(term)), float(np.sum(np.abs(term))), n
                continue
            total = abs_total = 0.0
            for start in range(0, r.size, 256):
                b = slice(start, start + 256)
                vals = quadrature._row_tables(handle, r[b], p.size)
                g, bad = quadrature._weighted_rows(vals, r[b], w[b], wp[:, b], p)
                if np.any(bad):
                    raise NonFiniteSampleError(f"non-finite row at level {level}")
                total = total + g @ g.transpose(0, 2, 1)
                g = np.abs(g)
                abs_total = abs_total + g @ g.transpose(0, 2, 1)
            yield total, abs_total, n


def _reference(handle, spec, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_level_sums", _level_by_level)
        return quadrature._refine(handle, quadrature._build_maps(handle, spec.split_point), spec)


def _gram_check_handle(monkeypatch):
    """The handle of the m = 16 Gram check of N = 4, alpha = 0, k = 3,
    which refines to level 6 in several batches a level."""
    handles = []

    def record(handle, spec):
        handles.append(handle)
        return integrate(handle, spec)

    params = InequalityParams(4, 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(variational, "integrate", record)
        variational.build_gram(params, 3, variational.make_basis(params, 3, 16))
    return handles[0]


def _stack_of_one_row():
    f = ExpPoly(((0.0, 1.0), (1.0, -0.5)), 1.0, 1.0)
    return IntegrandHandle(rows=lambda r: np.stack([f(r)] * 3)[:, None, :],
                           weight_exponent=(1.5, -0.5, 6.0), decay_hint=(2.0, 1.0))


@pytest.mark.parametrize("case", ["evaluator", "one-row stack", "gram stack", "early stop"])
def test_first_pass_matches_level_by_level(monkeypatch, case):
    spec = QuadratureSpec()
    if case == "evaluator":
        handle = IntegrandHandle(lambda r: np.exp(-r) / (1.0 + r), 2.0, (1.0, 1.0))
    elif case == "one-row stack":
        handle = _stack_of_one_row()
    elif case == "gram stack":
        handle = _gram_check_handle(monkeypatch)
    else:
        handle = IntegrandHandle(lambda r: np.exp(-r) / (1.0 + r), 0.0, (1.0, 1.0))
        spec = QuadratureSpec(rel_tol=1e-4)
    res, ref = integrate(handle, spec), _reference(handle, spec, monkeypatch)
    assert np.array_equal(res.value, ref.value)
    assert np.array_equal(res.err_est, ref.err_est)
    assert res.levels_used == ref.levels_used
    if case == "gram stack":
        assert res.value.shape[1:] == (16, 16) and res.levels_used == 6
    if case == "early stop":
        assert res.levels_used < quadrature._FIRST_PASS


def test_non_finite_row_past_convergence_is_not_reached():
    # nan at the nodes new at level 4, which a refinement converging at a
    # coarser level never needs; the far exp-sinh nodes of every level
    # round to the split point r = 1 and stay finite.
    handle = IntegrandHandle(rows=lambda r: np.exp(-r) / (1.0 + r), decay_hint=(2.0, 1.0))
    grid = quadrature._grid(4, 4)
    level4 = np.concatenate([m.nodes(grid)[0][0]
                             for m in quadrature._build_maps(handle, 1.0)])
    level4 = level4[level4 != 1.0]
    poisoned = IntegrandHandle(rows=lambda r: np.where(np.isin(r, level4), np.nan,
                                                       handle.rows(r)),
                               decay_hint=(2.0, 1.0))
    coarse = QuadratureSpec(rel_tol=1e-4)
    res = integrate(poisoned, coarse)
    assert res.levels_used < 4
    assert np.array_equal(res.value, integrate(handle, coarse).value)
    with pytest.raises(NonFiniteSampleError):
        integrate(poisoned)
