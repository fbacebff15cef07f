"""Reference values computed apart from cknlab.

Two independent routes, neither of which imports the package under test:

* the paper's closed forms evaluated exactly with ``fractions.Fraction``
  (the per-mode formulas J and K, the radial and one-dimensional sharp
  constants, the test-profile quotient and the N in {2, 3, 4} bounds);
* the energies A, B, C of exponential-polynomial profiles
  sum_j c_j r^(g_j) exp(-b r^q), differentiated and squared here term by
  term and integrated with mpmath's Gamma function at 40 digits.

Parameters are Fractions (or ints); callers convert binary floats with
``Fraction(x)``, which is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import mpmath

Terms = List[Tuple[Fraction, Fraction]]  # (power, coefficient) pairs


def radial_constant(n: int, alpha: Fraction) -> Fraction:
    """(N + 3 alpha + 1)^2 / 4: the k = 0 mode value and, for
    N >= 5 alpha + 5, the sharp constant."""
    return (n + 3 * Fraction(alpha) + 1) ** 2 / 4


def mode_k(n: int, alpha: Fraction, k: int) -> Fraction:
    """The weighted per-mode value K(N, alpha, k); J is K at alpha = 0."""
    a = Fraction(alpha)
    if k == 0:
        return radial_constant(n, a)
    t = n + 2 * k - a - 3
    return t**4 * (n + 2 * k + 3 * a + 1) ** 2 / (4 * (t**2 + 4 * (a + 1) * k) ** 2)


def mode_j(n: int, k: int) -> Fraction:
    return mode_k(n, Fraction(0), k)


def mode_minimum(n: int, alpha: Fraction, k_max: int) -> Tuple[Fraction, int]:
    """Smallest K(N, alpha, k) over k = 0..k_max and its first argmin."""
    values = [mode_k(n, alpha, k) for k in range(k_max + 1)]
    best = min(values)
    return best, values.index(best)


def one_dim_constant(alpha: Fraction) -> Fraction:
    """N = 1 sharp constant: alpha^2/4 for alpha <= -1/2, else
    (3 alpha + 2)^2 / 4."""
    a = Fraction(alpha)
    return a**2 / 4 if a <= Fraction(-1, 2) else (3 * a + 2) ** 2 / 4


def sharp_constant(n: int, alpha: Fraction) -> Fraction:
    """Closed-form sharp constant where the paper proves one (N = 1, or
    N >= 5 alpha + 5)."""
    a = Fraction(alpha)
    if n == 1:
        return one_dim_constant(a)
    if n < 5 * a + 5:
        raise ValueError(f"no closed form for N={n}, alpha={a}")
    return radial_constant(n, a)


def exp_profile_quotient(n: int) -> Fraction:
    """Quotient of v = exp(-r) on the first harmonic at alpha = 0:
    N (N+4) (N^2-1)^2 / (4 (N^2-N+4)^2)."""
    return Fraction(n * (n + 4) * (n**2 - 1) ** 2, 4 * (n**2 - n + 4) ** 2)


def bounds(n: int) -> Dict[str, Fraction]:
    """Proven bounds on the N in {2, 3, 4} sharp constant at alpha = 0:
    lower J(N, 1); upper the test profile for N in {2, 3} and the radial
    value (N+1)^2/4 for N = 4; conjectured (N+1)^2/4."""
    conjectured = Fraction((n + 1) ** 2, 4)
    upper = conjectured if n == 4 else exp_profile_quotient(n)
    return {"lower": mode_j(n, 1), "upper": upper, "conjectured": conjectured}


# -- mpmath energies of exponential polynomials --------------------------


def _merge(terms: Terms) -> Terms:
    merged: Dict[Fraction, Fraction] = {}
    for g, c in terms:
        merged[g] = merged.get(g, Fraction(0)) + c
    return sorted((g, c) for g, c in merged.items() if c != 0)


def derivative(terms: Terms, rate: Fraction, q: Fraction) -> Terms:
    """d/dr of sum c r^g exp(-rate r^q), in the same form."""
    out = []
    for g, c in terms:
        if g != 0:
            out.append((g - 1, c * g))
        out.append((g + q - 1, -c * rate * q))
    return _merge(out)


def _square_moment(terms: Terms, rate: Fraction, q: Fraction, p: Fraction) -> mpmath.mpf:
    """integral_0^inf (sum c r^g)^2 exp(-2 rate r^q) r^p dr."""
    total = mpmath.mpf(0)
    two_rate = 2 * mpmath.mpf(rate.numerator) / rate.denominator
    qm = mpmath.mpf(q.numerator) / q.denominator
    for g1, c1 in terms:
        for g2, c2 in terms:
            e = g1 + g2 + p
            if e <= -1:
                raise ValueError(f"moment diverges at the origin (exponent {e})")
            s = (mpmath.mpf(e.numerator) / e.denominator + 1) / qm
            coef = mpmath.mpf(c1.numerator) / c1.denominator
            coef *= mpmath.mpf(c2.numerator) / c2.denominator
            total += coef * mpmath.gamma(s) / (qm * two_rate**s)
    return total


def mode_quotient(
    terms: Terms, rate: Fraction, q: Fraction, n: int, alpha: Fraction, k: int
) -> float:
    """A B / C^2 of v = sum c r^g exp(-rate r^q) on mode k, by mpmath."""
    a = Fraction(alpha)
    with mpmath.workdps(40):
        v = _merge(terms)
        d1 = derivative(v, rate, q)
        d2 = derivative(d1, rate, q)
        big_a = _square_moment(d2, rate, q, n + 2 * k - 2 * a - 1)
        if (2 * a + 1) * (n + 2 * k - 1) != 0:
            c_a2 = (2 * a + 1) * (n + 2 * k - 1)
            big_a += (mpmath.mpf(c_a2.numerator) / c_a2.denominator) * _square_moment(
                d1, rate, q, n + 2 * k - 2 * a - 3
            )
        big_b = _square_moment(d1, rate, q, Fraction(n + 2 * k - 1))
        big_c = _square_moment(d1, rate, q, n + 2 * k - a - 2)
        if k != 0:
            c_c2 = (a + 1) * k
            big_c += (mpmath.mpf(c_c2.numerator) / c_c2.denominator) * _square_moment(
                v, rate, q, n + 2 * k - a - 4
            )
        return float(big_a * big_b / big_c**2)


def coefficient_terms(coeffs: Sequence[Fraction], q: Fraction) -> Terms:
    """The ``--coeffs`` profile sum_j c_j r^(j q) (times exp(-r^q))."""
    return [(j * q, Fraction(c)) for j, c in enumerate(coeffs)]


def family_terms(a: Fraction, b: Fraction, m: Fraction) -> Terms:
    """The thm1.2-2 profile a (1 + b r^m) (times exp(-b r^m))."""
    return [(Fraction(0), Fraction(a)), (Fraction(m), Fraction(a) * Fraction(b))]
