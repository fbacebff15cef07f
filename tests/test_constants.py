"""Closed-form mode quotients, infima, and regime dispatch."""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.constants import (
    FORMULA_PLAIN,
    FORMULA_WEIGHTED,
    InequalityParams,
    dn_general_lower_bound,
    hardy_step_factor,
    mode_infimum,
    mode_quotient_plain,
    mode_quotient_weighted,
    reference_constants,
    sharp_constant_closed_form,
    symmetry_breaking_bounds,
    tail_certificate,
)
from cknlab.cli import RunConfig, SharpConstantReport
from cknlab.errors import DomainError, PreconditionError, UnsupportedRegimeError
from cknlab.quadrature import QuadratureSpec
from cknlab.variational import BasisSpec, GramTriple


FROZEN_K1 = {2: Fraction(1, 4), 3: Fraction(9, 4), 4: Fraction(3969, 676)}
FROZEN_K0 = {2: Fraction(9, 4), 3: Fraction(4), 4: Fraction(25, 4)}


def test_frozen_first_mode_table():
    for n, expected in FROZEN_K1.items():
        assert mode_quotient_plain(n, 1).exact == expected


def test_frozen_radial_table():
    for n, expected in FROZEN_K0.items():
        assert mode_quotient_plain(n, 0).exact == expected


def test_plain_formula_generic_k():
    # (N+2k-3)^4 (N+2k+1)^2 / (4 ((N+2k-3)^2 + 4k)^2) at N=3, k=2
    assert mode_quotient_plain(3, 2).exact == Fraction(4**4 * 8**2, 4 * 24**2)


def _plain_literal(n, k):
    """J(N, k) as written for the unweighted inequality, evaluated exactly."""
    if k == 0:
        return Fraction((n + 1) ** 2, 4)
    t = n + 2 * k - 3
    return Fraction(t**4 * (n + 2 * k + 1) ** 2, 4 * (t**2 + 4 * k) ** 2)


def _weighted_literal(n, a, k):
    """K(N, alpha, k) as written for the weighted inequality, evaluated exactly."""
    if k == 0:
        return ((n + 3 * a + 1) / 2) ** 2
    t = n + 2 * k - a - 3
    return t**4 * (n + 2 * k + 3 * a + 1) ** 2 / (4 * (t**2 + 4 * (a + 1) * k) ** 2)


def test_mode_quotients_match_the_literal_formulas():
    # The grid reaches t = N + 2k - alpha - 3 <= 0, where the polynomial
    # form must still hold: K(2, 1, 1) has t = 0.
    assert mode_quotient_weighted(2, 1.0, 1).exact == 0
    nonpositive = 0
    for n in range(2, 13):
        for k in range(9):
            assert mode_quotient_plain(n, k).exact == _plain_literal(n, k)
            for j in range(-15, 49):
                a = Fraction(j, 16)
                nonpositive += k >= 1 and n + 2 * k - a - 3 <= 0
                assert mode_quotient_weighted(n, float(a), k).exact == _weighted_literal(n, a, k)
    assert nonpositive > 20


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=30))
@settings(max_examples=150)
def test_weighted_reduces_to_plain_at_zero_weight(n, k):
    assert mode_quotient_weighted(n, 0.0, k).exact == mode_quotient_plain(n, k).exact


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=30))
@settings(max_examples=150)
def test_hardy_step_factor_bounds(n, k):
    alpha = 0.25
    factor = hardy_step_factor(n, alpha, k)
    if n + 2 * k - alpha - 3 <= 0:
        assert factor is None
    else:
        assert factor >= 1.0


def test_hardy_step_factor_radial_is_unity():
    assert hardy_step_factor(7, 0.3, 0) == 1.0


def test_mode_infimum_plain_low_dimensions():
    for n in (2, 3, 4):
        inf = mode_infimum(FORMULA_PLAIN, InequalityParams(n), k_max=64)
        assert inf.argmin_k == 1
        assert inf.exact == FROZEN_K1[n]
        assert inf.tail_verified


def test_mode_infimum_plain_high_dimensions():
    for n in range(5, 31):
        inf = mode_infimum(FORMULA_PLAIN, InequalityParams(n), k_max=64)
        assert inf.argmin_k == 0
        assert inf.exact == Fraction((n + 1) ** 2, 4)


@given(st.integers(min_value=5, max_value=30), st.floats(min_value=-0.9, max_value=1.0))
@settings(max_examples=100)
def test_mode_infimum_weighted_radial_regime(n, alpha):
    if n < 5 * alpha + 5:
        return
    inf = mode_infimum(FORMULA_WEIGHTED, InequalityParams(n, alpha), k_max=64)
    assert inf.argmin_k == 0
    assert inf.exact == (Fraction(n) + 3 * Fraction(alpha) + 1) ** 2 / 4


def _grid_nondecreasing(n, alpha):
    """The sampled tail check this package used before its exact
    certificate: F on x in [2, 200] at step 0.1, with 1e-12 relative slack."""
    x = np.arange(2.0, 200.0 + 0.05, 0.1)
    t = n + x - alpha - 3.0
    values = t**4 * (n + x + 3.0 * alpha + 1.0) ** 2 / (4.0 * (t**2 + 2.0 * (alpha + 1.0) * x) ** 2)
    return bool(np.all(np.diff(values) >= -1e-12 * np.abs(values[:-1])))


def _extension(n, alpha, x):
    """F(x) in exact arithmetic, F(2k) = K(N, alpha, k)."""
    t = n + x - alpha - 3
    return t**4 * (n + x + 3 * alpha + 1) ** 2 / (4 * (t**2 + 2 * (alpha + 1) * x) ** 2)


def test_tail_certificate_agrees_with_the_grid():
    # Inside the gate both hold; outside it, a decrease the grid sees must
    # fail the certificate, which is exact.
    inside = outside = 0
    for n in range(2, 41):
        for j in range(-15, 16 * 8):
            alpha = j / 16
            if n >= 5 * alpha + 5:
                inside += 1
                assert tail_certificate(n, alpha) and _grid_nondecreasing(n, alpha), (n, alpha)
            elif not _grid_nondecreasing(n, alpha):
                outside += 1
                assert not tail_certificate(n, alpha), (n, alpha)
    assert inside > 1000 and outside > 1000


def test_tail_certificate_sees_the_dip_the_grid_misses():
    n, alpha = 10, Fraction(41, 16)
    assert not tail_certificate(n, float(alpha))
    assert _grid_nondecreasing(n, float(alpha))
    dip = _extension(n, alpha, Fraction(2)) - _extension(n, alpha, 2 + Fraction(1, 400))
    assert 1.4e-5 < dip < 1.6e-5


def test_tail_verified_follows_the_gate_not_the_certificate():
    # Outside N >= 5 alpha + 5 the flag stays False whatever the certificate says.
    for alpha, certified in ((2.0, True), (41 / 16, False)):
        assert tail_certificate(10, alpha) == certified
        inf = mode_infimum(FORMULA_WEIGHTED, InequalityParams(10, alpha), k_max=40)
        assert not inf.tail_verified


def _general_exact(n, a, b, k):
    """E(k) of dn_general_lower_bound, evaluated exactly."""
    if k == 0:
        return ((n + 3 * a - b + 1) / 2) ** 2
    num_corr = 1 + min(Fraction(0), 8 * b * k / (n + 2 * k - 2 * b - 2) ** 2)
    den_corr = (1 + max(Fraction(0), 4 * (a + b + 1) * k / (n + 2 * k - a - b - 3) ** 2)) ** 2
    return num_corr / den_corr * ((n + 2 * k + 3 * a - b + 1) / 2) ** 2


@pytest.mark.parametrize("beta", [None, 0.0, -0.5, 0.75, 1 - 2**-52])
def test_infima_are_the_exact_minimum_over_the_scanned_modes(beta):
    # 1 - 2**-52 at N = 2 rounds the float N + 2 - alpha - beta - 3 to 0.0.
    for n, alpha in ((2, 0.0), (4, 0.125), (6, 0.2), (9, -0.4), (12, 1.5), (7, 2.0)):
        params = InequalityParams(n, alpha, beta)
        try:
            general = dn_general_lower_bound(params, k_max=40)
        except PreconditionError:
            continue
        b = Fraction(beta or 0.0)
        best = min(_general_exact(n, Fraction(alpha), b, k) for k in range(41))
        assert general.exact == best
        if beta is None:
            weighted = mode_infimum(FORMULA_WEIGHTED, params, k_max=40)
            assert weighted.exact == min(mode_quotient_weighted(n, alpha, k).exact
                                         for k in range(41))
            assert weighted.tail_verified == (n >= 5 * alpha + 5)


def test_mode_infimum_requires_enough_modes():
    with pytest.raises(DomainError):
        mode_infimum(FORMULA_PLAIN, InequalityParams(3), k_max=0)


def test_plain_infimum_rejects_a_weight():
    # "J" is the alpha = 0 case; it returned the alpha = 0 infimum silently.
    with pytest.raises(DomainError, match="alpha"):
        mode_infimum(FORMULA_PLAIN, InequalityParams(3, 0.5))


_INFIMA = {
    "mode_infimum": lambda params, k_max: mode_infimum(FORMULA_PLAIN, params, k_max),
    "dn_general_lower_bound": dn_general_lower_bound,
}


@pytest.mark.parametrize("entry", sorted(_INFIMA))
@pytest.mark.parametrize("n, k_max, message", [
    (10**200, 64, "too large"),
    (10**400, 64, "too large"),
    (3, True, "k_max"),
    (3, 0, "k_max"),
    (3, 2.0, "k_max"),
])
def test_infimum_input_errors(entry, n, k_max, message):
    # The float net of the DN-general bound overflowed at N = 1e200 as a
    # bare OverflowError, its preconditions did at N = 1e400 (beyond float
    # range), and k_max=True was accepted as 1.
    with pytest.raises(DomainError, match=message):
        _INFIMA[entry](InequalityParams(n, 0.0, 0.5), k_max)


def test_sharp_constant_cases():
    assert sharp_constant_closed_form(InequalityParams(5, 0.0)).exact == Fraction(9)
    assert sharp_constant_closed_form(InequalityParams(1, -0.75)).exact == Fraction(9, 64)
    assert sharp_constant_closed_form(InequalityParams(1, 1.0)).exact == Fraction(25, 4)


def test_sharp_constant_unsupported_regimes():
    with pytest.raises(UnsupportedRegimeError):
        sharp_constant_closed_form(InequalityParams(2, 0.0))
    with pytest.raises(UnsupportedRegimeError):
        sharp_constant_closed_form(InequalityParams(1, -1.5))


def test_symmetry_breaking_bounds_table():
    b2 = symmetry_breaking_bounds(2)
    assert (b2.exact_lower, b2.exact_upper) == (Fraction(1, 4), Fraction(3, 4))
    assert b2.exact_conjectured == Fraction(9, 4)
    b4 = symmetry_breaking_bounds(4)
    assert b4.exact_lower == Fraction(3969, 676)
    assert b4.exact_upper == Fraction(25, 4)
    assert b4.exact_conjectured == Fraction(25, 4)
    assert b4.flag == "conjecture-open"


def test_reference_constants_shape():
    refs = reference_constants(InequalityParams(5, 0.0, 0.5))
    assert refs["first-order"] == 4.0
    assert refs["second-order-unweighted"] == 9.0
    assert refs["weighted-gradient"] == pytest.approx((5 - 0.5 + 1) ** 2 / 4)
    crossover = reference_constants(InequalityParams(5, 0.0, 1.0))
    assert crossover["weighted-gradient"] is None


def test_dn_general_reduces_to_weighted_at_zero_beta():
    for n, alpha in ((6, 0.2), (9, -0.4), (14, 1.0)):
        general = dn_general_lower_bound(InequalityParams(n, alpha, 0.0))
        weighted = mode_infimum(FORMULA_WEIGHTED, InequalityParams(n, alpha), k_max=64)
        assert general.exact == weighted.exact and general.argmin_k == weighted.argmin_k


def test_params_validation():
    with pytest.raises(DomainError):
        InequalityParams(0)
    with pytest.raises(DomainError):
        mode_quotient_plain(3, -1)


def test_records_keep_their_dataclass_contract():
    # The records are NamedTuples: those that validate do so in the __new__
    # of a subclass, which without __slots__ = () would take new
    # attributes, and whose _replace builds through _make, which skips
    # __new__ unless redirected.  A dataclass unpickled without validating.
    for record, bad, error in (
        (InequalityParams(4, 0.5), {"n": 0}, DomainError),
        (RunConfig("constants", InequalityParams(3)), {"output_format": "xml"},
         PreconditionError),
        (QuadratureSpec(), {"rel_tol": 1e-2}, DomainError),
        (BasisSpec(4, 0.0, 1.0), {"m": 0}, DomainError),
    ):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        invalid = dict(record._asdict(), **bad)
        with pytest.raises(error):
            type(record)(**invalid)
        with pytest.raises(error):
            record._replace(**bad)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        unchecked = pickle.dumps(tuple.__new__(type(record), invalid.values()))
        with pytest.raises(error):
            pickle.loads(unchecked)
    assert repr(InequalityParams(4)) == "InequalityParams(n=4, alpha=0.0, beta=None)"
    assert repr(QuadratureSpec()) == "QuadratureSpec(rel_tol=1e-12)"
    assert repr(BasisSpec(4, 0.0, 1.0)) == "BasisSpec(m=4, gamma0=0.0, decay_q=1.0)"
    with pytest.raises(DomainError, match="beta must be a finite real or None, got nan"):
        InequalityParams(4, 0.0, float("nan"))
    with pytest.raises(PreconditionError, match="unknown command 'nope'"):
        RunConfig("nope")
    first, second = SharpConstantReport(), SharpConstantReport()
    first.diagnostics["discrepancy"] = True
    assert second.diagnostics == {} and second.provenance is not first.provenance
    # A Gram triple gets fresh diagnostics too, and compares and hashes by
    # identity: comparing its arrays would raise.
    eye = np.eye(2)
    first, second = (GramTriple(eye, eye, eye, InequalityParams(5), 1, BasisSpec(2, 0.0, 1.0))
                     for _ in range(2))
    first.diagnostics["laguerre_a"] = 1.0
    assert second.diagnostics == {}
    assert first == first and first != second and hash(first) != hash(second)
    assert first._replace(m_a=eye) != first
