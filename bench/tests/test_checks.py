"""The benchmark's own checks: each accepts a correct output and rejects a
deliberately corrupted one (a changed digit in a rational, an estimate
below its lower bound, a quotient off by 1e-6, a differing byte between
repeats), so that no check is vacuous.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
from cknlab.cli import main  # noqa: E402


def cli_doc(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def bump_digit(text: str) -> str:
    """The rational string with its last digit changed."""
    last = text[-1]
    return text[:-1] + ("0" if last == "9" else str(int(last) + 1))


def rejects(check, doc):
    with pytest.raises(checks.CheckError):
        check(doc)


# -- the oracles agree with each other -------------------------------------


def test_mpmath_route_reproduces_closed_forms():
    one = Fraction(1)
    for n in (2, 3, 4, 7):
        value = oracles.mode_quotient([(Fraction(0), one)], one, one, n, Fraction(0), 1)
        assert value == pytest.approx(float(oracles.exp_profile_quotient(n)), rel=1e-14)
    for n, a in ((5, Fraction(0)), (8, Fraction(1, 2)), (3, Fraction(-1, 2))):
        terms = oracles.family_terms(Fraction(3), Fraction(1, 4), a + 1)
        value = oracles.mode_quotient(terms, Fraction(1, 4), a + 1, n, a, 0)
        assert value == pytest.approx(float(oracles.radial_constant(n, a)), rel=1e-14)


def test_mode_formula_matches_paper_values():
    assert oracles.mode_j(4, 1) == Fraction(3969, 676)
    assert oracles.mode_j(3, 1) == Fraction(9, 4)
    assert oracles.bounds(2) == {"lower": Fraction(1, 4), "upper": Fraction(3, 4),
                                 "conjectured": Fraction(9, 4)}
    assert oracles.sharp_constant(1, Fraction(-3, 4)) == Fraction(9, 64)


# -- closed forms -------------------------------------------------------------


def test_constants_check_rejects_changed_digit(capsys):
    doc = cli_doc(capsys, "constants", "--n", "4")
    checks.check_constants(doc, 4, Fraction(0))
    bad = copy.deepcopy(doc)
    bad["report"]["bounds"]["exact_lower"] = bump_digit(bad["report"]["bounds"]["exact_lower"])
    rejects(lambda d: checks.check_constants(d, 4, Fraction(0)), bad)

    doc = cli_doc(capsys, "constants", "--n", "7", "--alpha", "0.25")
    checks.check_constants(doc, 7, Fraction(1, 4))
    bad = copy.deepcopy(doc)
    bad["report"]["diagnostics"]["exact"] = bump_digit(bad["report"]["diagnostics"]["exact"])
    rejects(lambda d: checks.check_constants(d, 7, Fraction(1, 4)), bad)


def test_mode_scan_check_rejects_changed_digit(capsys):
    args = ("K", 7, Fraction(1, 4), 6)
    doc = cli_doc(capsys, "mode-scan", "--formula", "K", "--n", "7", "--alpha", "0.25",
                  "--kmax", "6")
    checks.check_mode_scan(doc, *args)
    bad = copy.deepcopy(doc)
    bad["infimum"]["exact"] = bump_digit(bad["infimum"]["exact"])
    rejects(lambda d: checks.check_mode_scan(d, *args), bad)
    bad = copy.deepcopy(doc)
    bad["rows"][3]["value"] = math.nextafter(bad["rows"][3]["value"], math.inf)
    rejects(lambda d: checks.check_mode_scan(d, *args), bad)
    bad = copy.deepcopy(doc)
    bad["rows"][0]["argmin"] = not bad["rows"][0]["argmin"]
    rejects(lambda d: checks.check_mode_scan(d, *args), bad)


def test_quotient_checks_reject_value_off_by_1e6(capsys, tmp_path):
    n, a, k = 6, Fraction(1, 8), 2
    coeffs = [Fraction(1), Fraction(-3, 8), Fraction(5, 8)]
    path = tmp_path / "coeffs.txt"
    path.write_text(" ".join(str(float(c)) for c in coeffs))
    doc = cli_doc(capsys, "quotient", "--coeffs", str(path), "--n", str(n),
                  "--alpha", "0.125", "--k", str(k))
    mp = oracles.mode_quotient(oracles.coefficient_terms(coeffs, a + 1), Fraction(1), a + 1,
                               n, a, k)
    checks.check_quotient_generic(doc, n, a, k, mp)
    bad = copy.deepcopy(doc)
    bad["report"]["quadrature_value"] *= 1 + 1e-6
    rejects(lambda d: checks.check_quotient_generic(d, n, a, k, mp), bad)

    doc = cli_doc(capsys, "quotient", "--family", "thm1.2-2", "--n", "5", "--b", "2")
    checks.check_quotient_closed(doc, Fraction(9), 1e-8)
    bad = copy.deepcopy(doc)
    bad["report"]["quadrature_value"] *= 1 + 1e-6
    rejects(lambda d: checks.check_quotient_closed(d, Fraction(9), 1e-8), bad)


def test_library_value_checks_reject_corruption():
    lower = oracles.mode_k(6, Fraction(0), 1)
    checks.check_generic_value(float(lower) * 1.01, 6, Fraction(0), 1, float(lower) * 1.01)
    with pytest.raises(checks.CheckError):
        checks.check_generic_value(float(lower) * (1 - 1e-9), 6, Fraction(0), 1, None)
    with pytest.raises(checks.CheckError):
        checks.check_generic_value(float(lower) * 1.01 * (1 + 1e-6), 6, Fraction(0), 1,
                                   float(lower) * 1.01)
    checks.check_value(9.0 * (1 + 1e-9), Fraction(9), 1e-8, "family")
    with pytest.raises(checks.CheckError):
        checks.check_value(9.0 * (1 + 1e-6), Fraction(9), 1e-8, "family")


# -- variational outputs ------------------------------------------------------


def test_minimize_check_rejects_estimate_below_bound(capsys):
    doc = cli_doc(capsys, "minimize", "--n", "5", "--k", "1", "--basis", "4,8")
    checks.check_minimize(doc, 5, Fraction(0), 1, (4, 8))
    lower = float(oracles.mode_j(5, 1))
    bad = copy.deepcopy(doc)
    bad["report"]["variational_estimate"] = lower * (1 - 1e-9)
    bad["report"]["diagnostics"]["trace"][-1] = lower * (1 - 1e-9)
    rejects(lambda d: checks.check_minimize(d, 5, Fraction(0), 1, (4, 8)), bad)
    bad = copy.deepcopy(doc)  # a trace that rises as the space grows
    trace = bad["report"]["diagnostics"]["trace"]
    trace[0] = trace[1] * (1 - 1e-6)
    rejects(lambda d: checks.check_minimize(d, 5, Fraction(0), 1, (4, 8)), bad)
    bad = copy.deepcopy(doc)  # above the exp(-r) quotient, which lies in the span
    value = float(oracles.exp_profile_quotient(5)) * (1 + 1e-9)
    bad["report"]["variational_estimate"] = bad["report"]["diagnostics"]["trace"][-1] = value
    bad["report"]["diagnostics"]["trace"][0] = value
    rejects(lambda d: checks.check_minimize(d, 5, Fraction(0), 1, (4, 8)), bad)


def probe_doc():
    """A probe document that satisfies every property the probe must have."""
    rows = []
    for k in range(4):
        raw = float(((5 + 2 * k) / Fraction(2)) ** 2)
        effective = float(oracles.mode_j(4, k))
        full = 6.25 if k == 0 else 7.003 if k == 1 else effective * 1.05
        rows.append({"k": k, "raw_value": raw, "effective_value": effective,
                     "full_value": full, "hardy_factor": (raw / effective) ** 0.5,
                     "verdict_value": full})
    return {"banner": "numerical evidence only", "lower_bound_exact": "3969/676",
            "test_profile_mode1_quotient": 7.03125, "best_estimate": 6.25, "rows": rows}


def test_probe_check_rejects_corruption():
    checks.check_probe(probe_doc())
    corruptions = [
        lambda d: d["rows"][2].update(raw_value=d["rows"][2]["raw_value"] * (1 + 1e-6)),
        lambda d: d["rows"][3].update(effective_value=d["rows"][3]["effective_value"] * (1 + 1e-6)),
        lambda d: d["rows"][1].update(full_value=float(oracles.mode_j(4, 1)) * (1 - 1e-9)),
        lambda d: d["rows"][1].update(full_value=7.04),
        lambda d: d["rows"][0].update(full_value=6.25 * (1 + 1e-5)),
        lambda d: d.update(best_estimate=6.25 * (1 + 1e-6)),
        lambda d: d.update(banner="proof"),
        lambda d: d.update(lower_bound_exact=bump_digit(d["lower_bound_exact"])),
    ]
    for corrupt in corruptions:
        bad = probe_doc()
        corrupt(bad)
        rejects(checks.check_probe, bad)


def test_repeat_check_rejects_differing_byte():
    first = json.dumps({"value": 7.0030057541331185}).encode()
    checks.same_bytes(first, bytes(first), "repeat")
    with pytest.raises(checks.CheckError, match="byte 27"):
        checks.same_bytes(first, first.replace(b"85}", b"86}"), "repeat")
