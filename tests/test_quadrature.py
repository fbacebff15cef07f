"""Double-exponential quadrature on half-line integrals with known values."""

import math
from itertools import islice

import numpy as np
import pytest

import cknlab.quadrature as quadrature
import cknlab.variational as variational
from cknlab.constants import InequalityParams
from cknlab.errors import DomainError, NonConvergenceError, NonFiniteSampleError
from cknlab.exppoly import ExpPoly
from cknlab.quadrature import QuadratureSpec, integrate
from cknlab.special import weighted_exp_integral


def _rows(*fs):
    """The rows callable of f_1, f_2, ...: entry i of its integral is that
    of f_i^2."""
    return lambda r: np.stack([f(r) for f in fs])


def test_plain_exponential():
    res = integrate(_rows(lambda r: np.exp(-0.5 * r)), (0.0,), decay_hint=(1.0, 1.0))
    assert res.value[0] == pytest.approx(1.0, rel=1e-13)
    assert res.err_est[0] < 1e-12


def test_gaussian_moment():
    res = integrate(_rows(lambda r: np.exp(-0.5 * r * r)), (2.0,), decay_hint=(1.0, 2.0))
    assert res.value[0] == pytest.approx(0.25 * math.sqrt(math.pi), rel=1e-12)


def test_endpoint_singularity():
    # r^(-1/2) e^(-r) integrates to Gamma(1/2); the weight exponent
    # carries the singular factor so tanh-sinh clusters nodes correctly.
    res = integrate(_rows(lambda r: np.exp(-0.5 * r)), (-0.5,), decay_hint=(1.0, 1.0))
    assert res.value[0] == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_without_decay_hint():
    res = integrate(_rows(lambda r: np.exp(-r)), (3.0,))
    assert res.value[0] == pytest.approx(weighted_exp_integral(3.0, 2.0, 1.0), rel=1e-11)


def test_factored_handle_matches_plain():
    # f^2 r^2 as the square of the row f under the weight r^2, and as the
    # square of the row |f| r under no weight.
    f = ExpPoly(((1.0, 1.0), (2.0, -0.3)), 1.5, 1.0)
    plain = integrate(_rows(lambda r: np.abs(f(r)) * r), (0.0,), decay_hint=(3.0, 1.0))
    factored = integrate(_rows(f), (2.0,), decay_hint=(3.0, 1.0))
    assert factored.value[0] == pytest.approx(plain.value[0], rel=1e-12)
    assert factored.value[0] == pytest.approx((f * f).moment(2.0), rel=1e-12)


def test_rows_absorb_a_weight_below_minus_one():
    # int (r e^-r)^2 r^-1.5 dr = Gamma(1.5) / 2^1.5: the rows vanish at the
    # origin fast enough for a weight the plain integrand could not take.
    f = ExpPoly(((1.0, 1.0),), 1.0, 1.0)
    res = integrate(_rows(f), (-1.5,), decay_hint=(2.0, 1.0))
    assert res.value.shape == res.err_est.shape == (1,)
    assert res.value[0] == pytest.approx(math.gamma(1.5) / 2.0**1.5, rel=1e-12)


def test_algebraic_tail():
    # 1/(1+r)^4 integrates to 1/3 despite only polynomial decay.
    res = integrate(_rows(lambda r: (1.0 + r) ** -2.0), (0.0,))
    assert res.value[0] == pytest.approx(1.0 / 3.0, rel=1e-11)


def test_rel_tol_is_respected():
    spec = QuadratureSpec(rel_tol=1e-6)
    res = integrate(_rows(lambda r: np.exp(-0.5 * r)), (4.0,), spec, (1.0, 1.0))
    assert res.value[0] == pytest.approx(24.0, rel=1e-6)


def _exp_over_one_plus_r(r):
    """The row whose square is e^-r / (1 + r)."""
    return np.exp(-0.5 * r) / np.sqrt(1.0 + r)


def test_determinism():
    args = (_rows(_exp_over_one_plus_r), (1.0,), QuadratureSpec(), (1.0, 1.0))
    a = integrate(*args)
    b = integrate(*args)
    assert np.array_equal(a.value, b.value) and np.array_equal(a.err_est, b.err_est)


def test_divergent_integral_does_not_converge():
    with pytest.raises(NonConvergenceError):
        integrate(_rows(lambda r: (1.0 + r) ** -0.5), (0.0,))


def test_non_finite_sample_reported():
    # The message names the nodes as floats, not in numpy's np.float64(...)
    # repr.
    def bad(r):
        return np.where(r > 1.0, np.nan, np.exp(-0.5 * r))

    with pytest.raises(NonFiniteSampleError, match=r"non-finite value at r=[\d.e+-]+$"):
        integrate(_rows(bad), (0.0,), decay_hint=(1.0, 1.0))
    with pytest.raises(NonFiniteSampleError,
                       match=r"overflowed on nodes r in \[[\d.e+-]+, [\d.e+-]+\]$"):
        integrate(_rows(lambda r: np.full_like(r, 1e200)), (0.0,), decay_hint=(2.0, 1.0))


def test_denormal_times_huge_weight_is_rescued():
    # Row values underflow to denormals at extreme nodes while the
    # transformed weight overflows; the true integral is still finite.
    def steep(r):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return np.where(r > 0.0, np.exp(-0.5 / np.maximum(r, 1e-320)), 0.0) / (
                1.0 + r
            ) ** 2

    res = integrate(_rows(steep), (0.0,))
    assert np.all(np.isfinite(res.value))
    # int e^(-1/r) / (1+r)^4 dr; reference value from 30-digit mpmath.quad.
    assert res.value[0] == pytest.approx(0.041247381633079506, rel=1e-9)


def test_tail_centred_on_weighted_mass():
    # r^10 exp(-r^(1/8)) has its mass near r = 88^8 ~ 4e15, far beyond
    # the decay scale c^(-1/q) = 1.
    res = integrate(_rows(lambda r: np.exp(-0.5 * np.power(r, 0.125))), (10.0,),
                    decay_hint=(1.0, 0.125))
    assert res.value[0] == pytest.approx(weighted_exp_integral(10.0, 1.0, 0.125), rel=1e-11)


def test_table_factors_must_match_nodes():
    # One row per weight exponent, one column per radius: the old (1, 1, n)
    # table, a row without its axis, a column too many and a row too many
    # are all rejected.
    for shape in (lambda n: (1, 1, n), lambda n: (n,), lambda n: (1, n + 1), lambda n: (2, n)):
        with pytest.raises(DomainError):
            integrate(lambda r: np.ones(shape(r.size)), (0.0,))


def test_stack_matches_each_table_alone():
    polys = [ExpPoly(((g, 1.0), (g + 1.0, -0.5)), 1.0, 1.0) for g in (0.0, 0.5, 2.0)]
    exponents = (1.5, -0.5, 6.0)
    stacked = integrate(_rows(*polys), exponents, decay_hint=(2.0, 1.0))
    assert stacked.value.shape == stacked.err_est.shape == (3,)
    for f, p, value in zip(polys, exponents, stacked.value):
        alone = integrate(_rows(f), (p,), decay_hint=(2.0, 1.0))
        assert alone.value[0] == pytest.approx(value, rel=1e-12)
        assert value == pytest.approx((f * f).moment(p), rel=1e-12)


def test_table_may_be_non_finite_where_its_own_weight_underflows():
    # At r < 1e-12 the weight r^40 of the second row underflows to zero,
    # so the inf it returns there is ignored; the first row is alive there.
    def rows(r):
        with np.errstate(over="ignore"):
            tail = np.where(r < 1e-12, np.inf, np.exp(-r))
        return np.stack([np.exp(-r), tail])

    res = integrate(rows, (0.0, 40.0), decay_hint=(2.0, 1.0))
    assert res.value[0] == pytest.approx(0.5, rel=1e-12)
    assert res.value[1] == pytest.approx(math.factorial(40) / 2.0**41, rel=1e-12)
    with pytest.raises(NonFiniteSampleError):
        integrate(rows, (0.0, 0.0), decay_hint=(2.0, 1.0))


def test_stack_must_match_its_exponents():
    with pytest.raises(DomainError):
        integrate(lambda r: np.ones((2, r.size)), (0.0, 1.0, 2.0))


def test_rows_take_one_form():
    # One weight exponent is the stack (p,), a single row is returned as a
    # stack of one, and a decay hint is a pair of finite positive numbers.
    rows = _rows(lambda r: np.exp(-0.5 * r))
    for weights in (0.0, 1, ()):
        with pytest.raises(DomainError):
            integrate(rows, weights)
    with pytest.raises(DomainError, match="rows must be callable"):
        integrate(rows(np.ones(3)), (0.0,))
    with pytest.raises(DomainError):
        integrate(lambda r: rows(r)[0], (0.0,), decay_hint=(1.0, 1.0))
    for hint in ((1.0,), (1.0, 2.0, 3.0), "ab", (None, 1.0), (0.0, 1.0), (1.0, math.nan), 1.0):
        with pytest.raises(DomainError, match=r"decay_hint must be \(c > 0, q > 0\)"):
            integrate(rows, (0.0,), decay_hint=hint)
    assert integrate(rows, (0.0,), decay_hint=(1.0, 1.0)).value[0] == \
        pytest.approx(1.0, rel=1e-13)


def test_tail_scale_moves_the_tail_centre_only():
    # r^8 e^-r has its mass near r = 8, beyond the peak the hint and the
    # weight give (r = 1): centred there, the same integral needs fewer nodes.
    def rows(r):
        return np.exp(8.0 * np.log(r) - r)[None, :]

    hinted = integrate(rows, (0.0,), decay_hint=(2.0, 1.0))
    centred = integrate(rows, (0.0,), decay_hint=(2.0, 1.0), tail_scale=8.0)
    exact = math.factorial(16) / 2.0**17
    for res in (hinted, centred):
        assert res.value[0] == pytest.approx(exact, rel=1e-12)
    assert centred.nodes_used < hinted.nodes_used
    for bad in (0.0, -1.0, math.inf, "1", 1j):
        with pytest.raises(DomainError, match="tail_scale must be finite and > 0"):
            integrate(rows, (0.0,), tail_scale=bad)


def _args(rows, weight_exponent, decay_hint=None, tail_scale=None):
    """The arguments of one integrate call, but its spec."""
    return dict(rows=rows, weight_exponent=weight_exponent, decay_hint=decay_hint,
                tail_scale=tail_scale)


def _stack_and_tail(args):
    """The weight exponents of ``args`` as an array, and its tail map."""
    p = np.asarray(args["weight_exponent"], dtype=float)
    return p, quadrature._tail(p, args["decay_hint"], args["tail_scale"])


def _level_by_level(args):
    """Each level's sums and node count: the level's nodes alone, on the
    module's node layout, with one product a level (a level of more than
    4096 live nodes one product per 4096, summed in order), each the
    (T, 1, k) @ (T, k, 1) product of the weighted rows with themselves."""
    p, tail = _stack_and_tail(args)
    cap = quadrature._CALL_NODES
    for level in range(quadrature._MAX_LEVEL + 1):
        r, log_w, _ = quadrature._nodes(tail, level, level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            log_wp = log_w + p[:, None] * np.log(r)
            live = np.any(np.exp(log_wp) > 0.0, axis=0)
            r, log_wp = r[live], log_wp[:, live]
            total = np.zeros((p.size, 1, 1))
            for start in range(0, r.size, cap):
                b = slice(start, start + cap)
                vals = quadrature._row_tables(args["rows"], r[b], p.size)
                g, bad = quadrature._weighted_rows(vals, log_wp[:, b])
                if np.any(bad):
                    raise NonFiniteSampleError(f"non-finite row at level {level}")
                g = g[:, None, :]
                total = total + g @ g.transpose(0, 2, 1)
        yield total[:, 0, 0], r.size


def test_live_weights_are_those_whose_exponential_is_nonzero():
    # A weight exp(L) is alive where L >= _LOG_LIVE: exactly where exp(L)
    # does not underflow to zero.
    edge = quadrature._LOG_LIVE
    below = np.nextafter(edge, -np.inf)
    with np.errstate(under="ignore"):
        assert np.exp(edge) > 0.0 and np.exp(below) == 0.0
        assert np.array_equal(np.exp(np.array([below, edge] * 4)) > 0.0, [False, True] * 4)


def _reference(args, spec):
    """(value, err_est, levels_used, branch) of the refinement rule applied
    one level at a time, each value from the previous one by the trapezoid
    recurrence; the branch is "converged", "rounding" or "none" (the level
    cap was passed)."""
    for level, (s, _) in enumerate(_level_by_level(args)):
        h = quadrature._H0 / 2.0**level
        if level == 0:
            value, prev_err = h * s, math.inf
            continue
        prev, value = value, 0.5 * value + h * s
        err = abs(value - prev)
        scale = np.maximum(value, 1e-300)
        floor = quadrature._EPS * scale
        if np.all((err <= spec.rel_tol * scale) | (err <= 16.0 * floor)):
            return value, err, level, "converged"
        if np.all(err >= prev_err) and np.all(prev_err <= 1e3 * floor):
            return prev, prev_err, level - 1, "rounding"
        prev_err = err
    return value, err, None, "none"


def _witness_call(monkeypatch):
    """The arguments of the witness that checks the m = 16 Gram triple of
    N = 4, alpha = 0, k = 3 along its argmin: one row per live part."""
    calls = []

    def record(rows, weight_exponent, spec, decay_hint=None, tail_scale=None):
        calls.append(_args(rows, weight_exponent, decay_hint, tail_scale))
        return integrate(rows, weight_exponent, spec, decay_hint, tail_scale)

    with monkeypatch.context() as patch:
        patch.setattr(variational, "integrate", record)
        variational.estimate_mode_constant(InequalityParams(4, 0.0), 3, (16,))
    return calls[0]


def _stack_of_one_row():
    f = ExpPoly(((0.0, 1.0), (1.0, -0.5)), 1.0, 1.0)
    return _args(lambda r: np.stack([f(r)] * 3), (1.5, -0.5, 6.0), (2.0, 1.0))


def _noisy(row, amplitude, frequency):
    """The row with a relative ripple that no refinement resolves, so that
    the error estimate stalls near the rounding floor."""
    return lambda r: row(r) * (1.0 + amplitude * np.sin(np.minimum(r, 1e6) * frequency))


def _exp(r):
    return np.exp(-0.5 * r)


def _gauss(r):
    return np.exp(-0.5 * r * r)


# case: (integrate's arguments, rel_tol, level the value comes from, branch taken)
_REFINEMENTS = {
    "early stop": (lambda: _args(_rows(_exp_over_one_plus_r), (0.0,), (1.0, 1.0)),
                   1e-4, 2, "converged"),
    "level 4": (lambda: _args(_rows(_exp), (0.0,), (1.0, 1.0)), 1e-6, 4, "converged"),
    "one row": (lambda: _args(_rows(_exp_over_one_plus_r), (2.0,), (1.0, 1.0)),
                1e-12, 5, "converged"),
    "one-row stack": (_stack_of_one_row, 1e-12, 5, "converged"),
    "witness stack": (None, 1e-12, 5, "converged"),
    "level 8": (lambda: _args(_rows(lambda r: _exp(r) * np.cos(3.0 * r)), (0.0,), (1.0, 1.0)),
                1e-12, 8, "converged"),
    "rounding in the first pass": (
        lambda: _args(_rows(_noisy(_gauss, 3e-13, 1e5)), (2.0,), (1.0, 2.0)),
        2e-15, 4, "rounding"),
    "rounding across passes": (
        lambda: _args(_rows(_noisy(_gauss, 3e-13, 1e5), _noisy(_gauss, 1e-13, 3e4)),
                      (2.0, 2.0), (1.0, 2.0)),
        2e-15, 6, "rounding"),
    "no convergence": (
        lambda: _args(_rows(_noisy(_exp, 1e-11, 1e9)), (0.0,), (1.0, 1.0)),
        2e-15, None, "none"),
}


@pytest.mark.parametrize("case", list(_REFINEMENTS))
def test_first_pass_matches_level_by_level(monkeypatch, case):
    # The passes and the array-wide convergence test give the values, error
    # estimates and levels of the rule applied one level at a time.
    make, rel_tol, level, branch = _REFINEMENTS[case]
    args = _witness_call(monkeypatch) if make is None else make()
    spec = QuadratureSpec(rel_tol=rel_tol)
    value, err, ref_level, ref_branch = _reference(args, spec)
    assert (ref_level, ref_branch) == (level, branch)
    # The first pass's sums are each level's alone, summed as a
    # (T, 1, k) @ (T, k, 1) product, bit for bit.
    p, tail = _stack_and_tail(args)
    sums, _, _ = quadrature._pass(args["rows"], tail, p, 0, quadrature._FIRST_PASS)
    assert [s.tobytes() for s in sums] == [
        s.tobytes() for s, _ in islice(_level_by_level(args), quadrature._FIRST_PASS + 1)]
    if branch == "none":
        with pytest.raises(NonConvergenceError) as failure:
            integrate(spec=spec, **args)
        assert np.array_equal(failure.value.value, value)
        assert np.array_equal(failure.value.err_est, err)
        return
    res = integrate(spec=spec, **args)
    assert np.array_equal(res.value, value)
    assert np.array_equal(res.err_est, err)
    assert res.levels_used == level
    # The first pass evaluates every node of levels 0..5, and each deeper
    # level tested adds its own.
    deepest = max(level + (branch == "rounding"), quadrature._FIRST_PASS)
    assert res.nodes_used == sum(n for *_, n in islice(_level_by_level(args), deepest + 1))
    assert res.value.shape == (len(args["weight_exponent"]),)


def test_rows_are_called_once_a_pass_and_a_deep_level_per_4096_nodes():
    # The rows are called once on every live node of levels 0..5.  A level
    # 8 takes one call, and each of the levels 9..12 of a refinement that
    # never converges is cut into calls of at most 4096 nodes.
    call_cap = quadrature._CALL_NODES

    def calls(args, spec):
        sizes, rows = [], args["rows"]
        recorded = dict(args, rows=lambda r: sizes.append(r.size) or rows(r))
        try:
            assert integrate(spec=spec, **recorded).nodes_used == sum(sizes)
        except NonConvergenceError:
            pass
        assert max(sizes) <= call_cap
        return sizes

    for case, deepest in (("level 8", 8), ("no convergence", quadrature._MAX_LEVEL)):
        make, rel_tol, *_ = _REFINEMENTS[case]
        args = make()
        counts = [n for *_, n in islice(_level_by_level(args), deepest + 1)]
        deep = [min(call_cap, n - start) for n in counts[6:] for start in range(0, n, call_cap)]
        assert calls(args, QuadratureSpec(rel_tol=rel_tol)) == [sum(counts[:6])] + deep
    assert counts[8] <= call_cap < 2 * call_cap < max(counts)


def test_non_finite_row_past_convergence_is_not_reached():
    # nan at the nodes new at level 4, which a refinement converging at a
    # coarser level never needs; the far exp-sinh nodes of every level
    # round to the split point r = 1 and stay finite.
    rows = _rows(lambda r: np.exp(-r) / (1.0 + r))
    level4 = quadrature._nodes(quadrature._tail(np.zeros(1), (2.0, 1.0), None), 4, 4)[0]
    level4 = level4[level4 != 1.0]

    def poisoned(r):
        return np.where(np.isin(r, level4), np.nan, rows(r))

    coarse = QuadratureSpec(rel_tol=1e-4)
    res = integrate(poisoned, (0.0,), coarse, (2.0, 1.0))
    assert res.levels_used < 4
    assert np.array_equal(res.value, integrate(rows, (0.0,), coarse, (2.0, 1.0)).value)
    with pytest.raises(NonFiniteSampleError):
        integrate(poisoned, (0.0,), decay_hint=(2.0, 1.0))
