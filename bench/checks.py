"""Output checks: every program output is compared with a value computed
apart from the program (``oracles``) or with a property the method must
have (Rayleigh-Ritz bounds, nesting, invariances, determinism), never with
a stored copy of an earlier output.

Each check raises :class:`CheckError` naming what disagreed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import oracles

# Relative slack for "at or above a proven lower bound": round-off of the
# estimate itself, far below any method error.
BOUND_SLACK = 1e-12


class CheckError(AssertionError):
    """An output disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(value: float, ref, rtol: float) -> bool:
    ref = float(ref)
    return abs(float(value) - ref) <= rtol * abs(ref)


def at_least(value: float, lower, what: str) -> None:
    require(
        float(value) >= float(lower) * (1.0 - BOUND_SLACK),
        f"{what} {value!r} lies below its lower bound {lower} ({float(lower)!r})",
    )


def exact_pair(printed_exact: Optional[str], printed_value, ref: Fraction, what: str) -> None:
    """A printed rational string and its printed float both equal ``ref``."""
    require(printed_exact == str(ref), f"{what}: printed {printed_exact!r}, expected {ref}")
    require(printed_value == float(ref),
            f"{what}: printed {printed_value!r}, expected {float(ref)!r}")


def same_bytes(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        at = next(
            (i for i, (x, y) in enumerate(zip(first, again)) if x != y),
            min(len(first), len(again)),
        )
        raise CheckError(f"{what}: repeated run differs from byte {at} on")


# -- CLI documents ---------------------------------------------------------


def check_constants(doc: dict, n: int, alpha: Fraction) -> None:
    report = doc["report"]
    if n == 1 or n >= 5 * alpha + 5:
        exact_pair(report["diagnostics"].get("exact"), report["closed_form"],
                   oracles.sharp_constant(n, alpha), "closed form")
    else:
        require(report["closed_form"] is None, "closed form printed outside its regime")
    if n in (2, 3, 4) and alpha == 0:
        refs = oracles.bounds(n)
        for key in ("lower", "upper", "conjectured"):
            exact_pair(report["bounds"][f"exact_{key}"], report["bounds"][key],
                       refs[key], f"bounds.{key}")
        require(report["bounds"]["flag"] == ("conjecture-open" if n == 4 else None),
                "bounds flag")


def check_mode_scan(doc: dict, formula: str, n: int, alpha: Fraction, k_max: int) -> None:
    a = Fraction(0) if formula == "J" else alpha
    refs = [oracles.mode_k(n, a, k) for k in range(k_max + 1)]
    best, argmin = oracles.mode_minimum(n, a, k_max)
    tail = formula == "J" or n >= 5 * a + 5
    rows = doc["rows"]
    require(len(rows) == k_max + 1, f"mode-scan printed {len(rows)} rows")
    for k, (row, ref) in enumerate(zip(rows, refs)):
        require(row["k"] == k and row["formula"] == formula, f"mode-scan row {k} label")
        require(row["value"] == float(ref),
                f"mode-scan row {k}: printed {row['value']!r}, expected {ref}")
        require(row["argmin"] == (k == argmin), f"mode-scan row {k} argmin flag")
        require(row["tail_verified"] == tail, f"mode-scan row {k} tail flag")
    inf = doc["infimum"]
    exact_pair(inf["exact"], inf["value"], best, "mode-scan infimum")
    require(inf["argmin_k"] == argmin, f"infimum argmin {inf['argmin_k']}, expected {argmin}")
    require(inf["tail_verified"] == tail, "infimum tail flag")


def check_quotient_closed(doc: dict, closed: Fraction, rtol: float) -> None:
    """A profile that attains a theorem value (extremal family at k = 0,
    test profile): printed closed form and quadrature both match it."""
    report = doc["report"]
    value = report["quadrature_value"]
    require(report["closed_form"] == float(closed),
            f"printed closed form {report['closed_form']!r}, expected {closed}")
    require(close(value, closed, rtol),
            f"quotient {value!r} misses its closed form {closed} by more than {rtol}")


def check_quotient_generic(doc: dict, n: int, alpha: Fraction, k: int, mp_value: float) -> None:
    """Any other profile: at or above K(N, alpha, k), equal to the mpmath
    quotient within 1e-9."""
    report = doc["report"]
    value = report["quadrature_value"]
    require(report["closed_form"] is None, "closed form printed for a generic profile")
    check_generic_value(value, n, alpha, k, mp_value)


def check_generic_value(value: float, n: int, alpha: Fraction, k: int,
                        mp_value: Optional[float]) -> None:
    at_least(value, oracles.mode_k(n, alpha, k), "quotient")
    if mp_value is not None:
        require(close(value, mp_value, 1e-9),
                f"quotient {value!r} disagrees with mpmath {mp_value!r} beyond 1e-9")


def check_minimize(doc: dict, n: int, alpha: Fraction, k: int, sizes: Sequence[int]) -> None:
    report = doc["report"]
    value = report["variational_estimate"]
    diag = report["diagnostics"]
    trace = diag["trace"]
    require(list(diag["basis_sizes"]) == list(sizes), "basis sizes echoed wrongly")
    require(len(trace) == len(sizes) and trace[-1] == value, "trace does not end at the value")
    for m, (prev, cur) in zip(sizes[1:], zip(trace, trace[1:])):
        require(cur <= prev * (1.0 + 1e-10),
                f"estimate rose from {prev!r} to {cur!r} at m={m}; the spaces are nested")
    lower = oracles.mode_k(n, alpha, k)
    require(diag["mode_lower_bound_exact"] == str(lower),
            f"printed lower bound {diag['mode_lower_bound_exact']!r}, expected {lower}")
    at_least(value, lower, "estimate")
    if k == 0 and n >= 5 * alpha + 5:
        require(close(value, lower, 1e-6),
                f"radial estimate {value!r} misses (N+3a+1)^2/4 = {lower} by more than 1e-6")
    if alpha == 0 and k == 1:
        upper = oracles.exp_profile_quotient(n)
        require(value <= float(upper) * (1.0 + BOUND_SLACK),
                f"estimate {value!r} above the quotient {upper} of exp(-r), "
                "which lies in the trial span")


def check_probe(doc: dict) -> None:
    require(doc["banner"] == "numerical evidence only", "probe banner")
    require(doc["lower_bound_exact"] == str(oracles.mode_j(4, 1)), "probe lower bound")
    require(doc["test_profile_mode1_quotient"] == float(oracles.exp_profile_quotient(4)),
            "probe test-profile quotient")
    radial = oracles.radial_constant(4, Fraction(0))
    for row in doc["rows"]:
        k = row["k"]
        raw = ((4 + 2 * k + 1) / Fraction(2)) ** 2
        require(close(row["raw_value"], raw, 1e-9),
                f"probe k={k}: raw {row['raw_value']!r}, expected {raw}")
        require(close(row["effective_value"], oracles.mode_j(4, k), 1e-9),
                f"probe k={k}: effective {row['effective_value']!r}, "
                f"expected J(4,{k}) = {oracles.mode_j(4, k)}")
        at_least(row["full_value"], oracles.mode_j(4, k), f"probe k={k} full value")
    rows = {row["k"]: row for row in doc["rows"]}
    require(close(rows[0]["full_value"], radial, 1e-6),
            f"probe k=0 full value {rows[0]['full_value']!r} is not 25/4")
    require(rows[1]["full_value"] <= 7.03125 * (1.0 + BOUND_SLACK),
            f"probe k=1 full value {rows[1]['full_value']!r} above 7.03125 (exp(-r) is in the span)")
    best = doc["best_estimate"]
    at_least(best, oracles.mode_j(4, 1), "probe best estimate")
    require(best <= float(radial) * (1.0 + 1e-9), f"probe best estimate {best!r} above 25/4")


# -- library values ----------------------------------------------------------


def check_value(value: float, ref, rtol: float, what: str) -> None:
    require(close(value, ref, rtol), f"{what}: {value!r} vs reference {float(ref)!r} (rtol {rtol})")
