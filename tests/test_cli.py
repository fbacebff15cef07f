"""End-to-end CLI behavior: anchors, formats, config, exit codes."""

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cknlab.cli as cli
from cknlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_constants_closed_form(capsys):
    doc = run_json(capsys, "constants", "--n", "5", "--alpha", "0")
    assert doc["report"]["closed_form"] == 9.0
    assert doc["report"]["diagnostics"]["exact"] == "9"


def test_constants_bounds_only(capsys):
    doc = run_json(capsys, "constants", "--n", "2")
    report = doc["report"]
    assert report["closed_form"] is None
    assert report["bounds"]["lower"] == 0.25
    assert report["bounds"]["upper"] == 0.75
    assert report["bounds"]["exact_conjectured"] == "9/4"


def test_constants_one_dimensional(capsys):
    doc = run_json(capsys, "constants", "--n", "1", "--alpha", "-0.75")
    assert doc["report"]["closed_form"] == 0.140625


def test_constants_requires_n(capsys):
    code, _, err = run(capsys, "constants")
    assert code == 2
    assert "requires --n" in err


def test_mode_scan_csv(capsys):
    code, out, _ = run(capsys, "mode-scan", "--formula", "J", "--n", "3",
                       "--kmax", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,value,formula,argmin,tail_verified"
    assert lines[1] == "0,4,J,false,true"
    assert lines[2] == "1,2.25,J,true,true"


def test_mode_scan_weighted_json(capsys):
    doc = run_json(capsys, "mode-scan", "--formula", "K", "--n", "12",
                   "--alpha", "1", "--kmax", "6")
    assert doc["infimum"]["argmin_k"] == 0
    assert doc["infimum"]["value"] == 64.0


def test_mode_scan_kmax_precondition(capsys):
    code, _, err = run(capsys, "mode-scan", "--formula", "J", "--n", "3",
                       "--kmax", "1")
    assert code == 2
    assert "kmax" in err


@pytest.mark.parametrize("formula", ["J", "K"])
def test_mode_scan_rejects_dimension_beyond_float_range(capsys, formula):
    # The float pre-screen of the mode scan overflowed on (N+2k-alpha-3)^4
    # and escaped as an OverflowError traceback (exit 1).
    code, out, err = run(capsys, "mode-scan", "--formula", formula, "--n", "1" + "0" * 80,
                         "--kmax", "3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("family", [("thmD", "--alpha", "0.5"), ("thmB",)])
def test_tiny_rate_exits_precondition(capsys, family):
    # Squaring the derivative polynomials of a rate of 1e-300 underflowed
    # every coefficient to 0: ExpPoly dropped them all, the closed route
    # read a zero polynomial and quadrature overflowed (exit 3).
    code, out, err = run(capsys, "quotient", "--family", family[0], "--n", "7", *family[1:],
                         "--b", "1e-300", "--k", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "underflows" in err


@pytest.mark.parametrize("argv, coefficient", [
    (("thmA", "--b", "1e-200"), "coefficient -a b^2 m of the thmA profile's v' "),
    (("thm1.2-2", "--alpha", "0.25", "--b", "1e-165"),
     "coefficient -a b^2 m of the thm1.2-2 profile's v' "),
    (("thm1.2-2", "--alpha", "-0.5", "--b", "1e-120"),
     "coefficient a b^3 m^2 of the thm1.2-2 profile's v'' "),
    (("thmB", "--a", "1e-300", "--b", "1e-100"),
     "every coefficient c g and -c rate q of the derivative "),
])
def test_underflowing_derivative_coefficient_is_named(capsys, argv, coefficient):
    # At rates of 1e-165 and below the derivative coefficients underflowed
    # to 0 and were dropped, so the command exited 2 with a misleading
    # "denominator energy C = 0.0 is zero".
    code, out, err = run(capsys, "quotient", "--family", *argv, "--n", "7", "--k", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: the " if "every" not in coefficient
                                                     else "error: every")
    assert coefficient + "underflows double-precision range" in err


def test_mode_scan_rejects_alpha_for_plain_formula(capsys):
    # J is the alpha = 0 case: the scan printed J values under "alpha": 0.5.
    code, out, err = run(capsys, "mode-scan", "--formula", "J", "--n", "3", "--alpha", "0.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "alpha" in err


@pytest.mark.parametrize("argv", [
    ("constants", "--n", "1" + "0" * 200),
    ("mode-scan", "--formula", "K", "--kmax", "3", "--n", "1" + "0" * 200),
    ("quotient", "--test-function", "--n", "1" + "0" * 200),
    ("quotient", "--family", "thm1.2-1b", "--n", "1", "--alpha", "1e300"),
    ("constants", "--n", "3", "--beta", "1e300"),
    ("quotient", "--family", "thm1.2-2", "--n", "7", "--alpha", "0.25", "--a", "1e200", "--k", "0"),
    ("quotient", "--family", "thmA", "--n", "7", "--a", "1e300", "--k", "0"),
    ("quotient", "--family", "thm1.2-1b", "--n", "1", "--alpha", "1e100"),
    ("minimize", "--n", "170", "--k", "1"),
    ("minimize", "--n", "1" + "0" * 200, "--k", "1"),
    ("minimize", "--n", "9", "--alpha", "-0.95", "--k", "1"),
    ("quotient", "--family", "thm1.2-2", "--n", "7", "--a", "1e300", "--b", "1e10", "--k", "0"),
])
def test_exact_value_beyond_float_range_exits_precondition(capsys, argv):
    # At N = 1e200 the exact rationals exceed double range: float() of them
    # escaped as an OverflowError traceback (exit 1).  So did the float
    # powers of a weight of 1e300 in the thm1.2-1b profile's coefficients
    # and in the reference constants.  The closed energies square the
    # profile's polynomial, whose coefficients then overflow to inf: their
    # moment escaped as "ValueError: -inf + inf in fsum" (exit 1).  The
    # Gauss-Laguerre weights of a Gram part overflow at rule exponents near
    # 170: that part was inf or nan and failed the quadrature check (exit 3
    # or 4, after numpy RuntimeWarnings).  A profile coefficient a b = 1e310
    # is beyond range too, not a non-finite coefficient given.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "exceeds double-precision range" in err


@pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
def test_unwritable_output_exits_precondition(capsys, tmp_path, monkeypatch, target):
    # An --out path in a missing directory escaped as a FileNotFoundError
    # traceback from the temporary file (exit 1); a directory as the target
    # fails only at the final rename, after the temporary file was written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    code, out, err = run(capsys, "constants", "--n", "3", "--out", target)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target!r}: ")
    assert list(tmp_path.rglob(".cknlab-*.tmp")) == []


def test_quadrature_failure_names_nodes_as_plain_floats(capsys, monkeypatch):
    # An overflowing Gram table names its nodes as floats, not in numpy's
    # np.float64(...) repr.  The quotient's integrate call is handed rows
    # whose products overflow.
    import numpy as np
    from cknlab import functionals
    from cknlab.quadrature import integrate

    def huge(rows, weight_exponent, spec, decay_hint=None):
        return integrate(lambda r: np.full((1, r.size), 1e200), (0.0,), spec, (2.0, 1.0))

    monkeypatch.setattr(functionals, "integrate", huge)
    code, out, err = run(capsys, "quotient", "--family", "thmD", "--n", "7", "--alpha", "0.5",
                         "--k", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: did not converge: weighted Gram table overflowed on nodes r in [")
    assert "np.float64" not in err


def test_mode_scan_deterministic_bytes(capsys):
    args = ("mode-scan", "--formula", "J", "--n", "4", "--kmax", "6",
            "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_quotient_test_function(capsys):
    doc = run_json(capsys, "quotient", "--test-function", "--n", "3")
    assert doc["report"]["quadrature_value"] == pytest.approx(3.36, rel=1e-12)
    assert doc["report"]["closed_form"] == pytest.approx(3.36, rel=1e-15)


def test_quotient_test_function_integrates_once(capsys, monkeypatch):
    import cknlab.functionals as functionals

    energies, routes = functionals.mode_energies, []

    def counted(*args, **kwargs):
        routes.append(args[4] if len(args) > 4 else kwargs.get("method"))
        return energies(*args, **kwargs)

    monkeypatch.setattr(functionals, "mode_energies", counted)
    run_json(capsys, "quotient", "--test-function", "--n", "3")
    assert routes == ["quadrature"]


def test_quotient_test_function_keeps_its_tight_check(capsys, monkeypatch):
    import cknlab.functionals as functionals

    # Inside the generic 1e-8 agreement, outside the test function's 1e-10.
    monkeypatch.setattr(functionals, "mode_quotient", lambda *args, **kwargs: 3.36 * (1.0 + 1e-9))
    code, out, _ = run(capsys, "quotient", "--test-function", "--n", "3")
    assert code == 4
    assert json.loads(out)["report"]["diagnostics"]["discrepancy"] is True


def test_quotient_family(capsys):
    doc = run_json(capsys, "quotient", "--family", "thm1.2-2", "--n", "5",
                   "--alpha", "0", "--a", "1", "--b", "2", "--k", "0")
    assert doc["report"]["quadrature_value"] == pytest.approx(9.0, rel=1e-8)
    assert doc["report"]["closed_form"] == 9.0


def test_quotient_one_dim_family(capsys):
    doc = run_json(capsys, "quotient", "--family", "thm1.2-1b", "--n", "1",
                   "--alpha", "1", "--a", "1", "--b", "1")
    assert doc["report"]["quadrature_value"] == pytest.approx(6.25, rel=1e-8)


def test_quotient_one_dim_closed_form_is_the_exact_constant_rounded_once(capsys):
    from cknlab.constants import InequalityParams, sharp_constant_closed_form

    doc = run_json(capsys, "quotient", "--family", "thm1.2-1b", "--n", "1", "--alpha", "0.1")
    exact = sharp_constant_closed_form(InequalityParams(1, 0.1))
    assert doc["report"]["closed_form"] == exact.value == float(exact.exact)


def test_quotient_one_dim_family_outside_its_case_has_no_closed_form(capsys):
    # thm1.2-1a attains the sharp constant only for alpha <= -1/2; at
    # alpha = -0.3 its energies converge, but the constant is thm1.2-1b's.
    doc = run_json(capsys, "quotient", "--family", "thm1.2-1a", "--n", "1", "--alpha", "-0.3")
    assert doc["report"]["closed_form"] is None
    assert "closed_formula" not in doc["report"]["provenance"]
    assert doc["report"]["quadrature_value"] == pytest.approx(0.0225, rel=1e-8)


def test_quotient_coefficient_file(capsys, tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0, 0.5, 0.25\n")
    doc = run_json(capsys, "quotient", "--coeffs", str(path), "--n", "5",
                   "--alpha", "0", "--k", "1")
    assert doc["report"]["quadrature_value"] > 10.24  # exact k=1 bound


@pytest.mark.parametrize("text", ["1 nan\n", "1 inf\n"])
def test_non_finite_coefficient_is_rejected_at_the_file(capsys, tmp_path, text):
    # Such a file exited 2 with "a coefficient of the moment's integrand
    # exceeds double-precision range", which blamed overflow for bad input.
    path = tmp_path / "coeffs.txt"
    path.write_text(text)
    code, out, err = run(capsys, "quotient", "--coeffs", str(path), "--n", "3")
    assert code == 2
    assert out == ""
    token = text.split()[1]
    assert err.count("\n") == 1 and err.startswith("error: bad coefficient file")
    assert f"coefficient {token!r} is not a finite number" in err


def _laguerre_minimiser_in_monomials():
    """The m = 14 minimiser of N = 3, k = 1 (Laguerre parameter a = 1,
    gamma0 = 0), v = sum_j c_j e^-r L_j^(1)(2r), expanded exactly into
    r^i e^-r, each coefficient rounded once."""
    from fractions import Fraction

    from cknlab.constants import InequalityParams
    from cknlab.variational import build_gram, make_basis, minimize_quotient

    params = InequalityParams(3, 0.0)
    basis = make_basis(params, 1, 14)
    gram = build_gram(params, 1, basis)
    assert (basis.gamma0, basis.decay_q, gram.diagnostics["laguerre_a"]) == (0.0, 1.0, 1.0)
    coeffs = [Fraction(float(c)) for c in minimize_quotient(gram).coeffs]
    mono = [Fraction(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        # L_j^(1)(y) = sum_i (-1)^i C(j+1, j-i) y^i / i!, at y = 2r
        for i in range(j + 1):
            mono[i] += c * (-2) ** i * math.comb(j + 1, j - i) / Fraction(math.factorial(i))
    return params, [float(x) for x in mono]


def test_cancelling_coefficient_profile_passes_the_energy_check(capsys, tmp_path):
    # The monomial coefficients span 1.5e10 and their squares' moments
    # cancel: the float sum of the closed energies was 3.2e-8 off the
    # quadrature ones, and the command exited 4.  The closed side now redoes
    # such a sum exactly.
    from cknlab.exppoly import ExpPoly
    from cknlab.functionals import mode_energies, profile_from_exppoly

    params, mono = _laguerre_minimiser_in_monomials()
    assert 1.4e10 < max(map(abs, mono)) / min(map(abs, mono)) < 1.6e10
    path = tmp_path / "coeffs.txt"
    path.write_text("\n".join(repr(c) for c in mono) + "\n")
    code, _, err = run(capsys, "quotient", "--coeffs", str(path), "--n", "3", "--k", "1")
    assert code == 0, err
    poly = ExpPoly(tuple((float(j), c) for j, c in enumerate(mono)), 1.0, 1.0)
    assert mode_energies(profile_from_exppoly(poly), params, 1).rel_gap <= 1e-12


def test_quotient_selector_is_exclusive(capsys):
    code, _, err = run(capsys, "quotient", "--n", "3")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, "quotient", "--n", "3", "--test-function",
                     "--family", "thm1.2-2")
    assert code == 2


def test_quotient_discrepancy_exits_consistency(capsys, monkeypatch):
    import cknlab.functionals as functionals

    monkeypatch.setattr(functionals, "mode_quotient", lambda *args, **kwargs: 1.0)
    code, out, _ = run(capsys, "quotient", "--test-function", "--n", "3")
    assert code == 4
    doc = json.loads(out)
    assert doc["report"]["diagnostics"]["discrepancy"] is True


def test_minimize_anchor(capsys):
    doc = run_json(capsys, "minimize", "--n", "5", "--alpha", "0", "--k", "0",
                   "--basis", "4,8")
    assert doc["report"]["variational_estimate"] == pytest.approx(9.0, rel=1e-4)
    assert doc["report"]["diagnostics"]["mode_lower_bound"] == 9.0


def test_minimize_requires_multidimensional(capsys):
    code, _, _ = run(capsys, "minimize", "--n", "1", "--k", "0")
    assert code == 2


def test_probe_rejects_other_dimensions(capsys):
    code, _, err = run(capsys, "probe-conjecture", "--n", "5")
    assert code == 2
    assert "minimize" in err


def test_probe_payload(capsys):
    doc = run_json(capsys, "probe-conjecture", "--kmax", "1", "--basis", "4,8")
    assert doc["banner"] == "numerical evidence only"
    assert doc["flag"] == "conjecture-open"
    assert doc["lower_bound"] == pytest.approx(3969 / 676, rel=1e-15)
    assert doc["upper_bound"] == 6.25
    assert doc["test_profile_mode1_quotient"] == pytest.approx(7.03125, rel=1e-12)
    assert [row["raw_value"] for row in doc["rows"]] == [6.25, 12.25]
    assert doc["rows"][1]["effective_value"] == doc["lower_bound"]
    assert [row["full_converged"] for row in doc["rows"]] == [True, True]


@pytest.mark.parametrize("argv", [["--jobs", "2"], ["--config", "jobs.cfg"]])
def test_probe_has_no_jobs_option(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs.cfg").write_text("jobs = 2\n")
    try:
        code = main(["probe-conjecture", "--kmax", "1", "--basis", "4", *argv])
    except SystemExit as exc:  # argparse rejects an unknown flag
        code = exc.code
    assert code == 2


def test_plot_data_format(capsys):
    code, out, _ = run(capsys, "minimize", "--n", "5", "--k", "0",
                       "--basis", "4,8", "--format", "plot-data")
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")]
    assert [r[0] for r in rows] == ["4", "8"]
    assert float(rows[-1][1]) == pytest.approx(9.0, rel=1e-4)


def test_csv_quotes_cells_with_commas_and_quotes():
    document = cli.Document(payload={}, table_header=("index", "description"),
                            table_rows=((1, 'a, "b"'), (2, "plain")), series=())
    text = cli.render(document, "csv")
    assert list(csv.reader(io.StringIO(text))) == [
        ["index", "description"], ["1", 'a, "b"'], ["2", "plain"]]


def test_selftest_csv_accepts_descriptions_with_commas(capsys, monkeypatch):
    import cknlab.acceptance as acceptance

    results = [acceptance.CriterionResult(i, f"criterion {i}, with a comma", True, 0.0, "ok")
               for i in (1, 2)]
    monkeypatch.setattr(acceptance, "run_all", lambda verbose=False: results)
    code, out, err = run(capsys, "selftest", "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[1] == '1,true,0,"criterion 1, with a comma"'


@pytest.mark.parametrize("fmt", ["csv", "plot-data"])
def test_selftest_tables_keep_the_failing_exit_code(capsys, monkeypatch, fmt):
    import cknlab.acceptance as acceptance

    fake = ((1, "passes", 1.0, lambda: (True, "ok")), (2, "fails", 1.0, lambda: (False, "no")))
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out, _ = run(capsys, "selftest", "--format", fmt)
    assert code == 1
    assert len(out.splitlines()) == (3 if fmt == "csv" else 2)


def test_selftest_json_stdout_is_one_document(capsys, monkeypatch):
    import cknlab.acceptance as acceptance

    fake = tuple((i, f"fake criterion {i}", 1.0, lambda: (True, "ok")) for i in (1, 2))
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out, err = run(capsys, "selftest", "--format", "json")
    assert code == 0, err
    assert [r["index"] for r in json.loads(out)["results"]] == [1, 2]
    assert "criterion  1 PASS" in err and "criterion  2 PASS" in err


def _modules_loaded_by(statement):
    """The numpy, scipy, dataclasses and cknlab modules a fresh interpreter
    holds after running ``statement``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (f"import sys, contextlib, io\nwith contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {statement}\nprint(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('numpy', 'scipy', 'dataclasses', 'cknlab')))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return set(ast.literal_eval(done.stdout.strip()))


def test_cli_import_leaves_out_scipy_linalg_and_optimize():
    # scipy is a test dependency only: importing scipy.special alone took
    # more than half of a cold CLI start and about 25 MB of peak RSS.  The
    # exact commands load no numpy either, which took about half of the
    # rest of it.  Nor do they load dataclasses, whose import (with inspect,
    # ast, dis and tokenize) and eight record classes took about a sixth of
    # a cold constants command.
    exact_path = (
        "import cknlab",
        "import cknlab.cli",
        "from cknlab.cli import main; main(['constants', '--n', '3'])",
        "from cknlab.cli import main; main(['mode-scan', '--formula', 'K', '--n', '7', "
        "'--alpha', '0.25', '--kmax', '12'])",
    )
    numeric = {f"cknlab.{m}" for m in ("exppoly", "functionals", "quadrature", "special",
                                       "variational")}
    for statement in exact_path:
        loaded = _modules_loaded_by(statement)
        assert not any(m.startswith(("numpy", "scipy")) for m in loaded), statement
        assert not numeric & loaded, statement
        assert "dataclasses" not in loaded, statement
    # The numeric commands load numpy, but neither scipy nor
    # numpy.polynomial, whose import took about 4 ms of each of them.
    numeric_path = (
        "import cknlab; cknlab.mode_quotient",
        "from cknlab.cli import main; main(['minimize', '--n', '4', '--k', '1', "
        "'--basis', '4,8'])",
        "from cknlab.cli import main; main(['quotient', '--test-function', '--n', '3'])",
    )
    package, estimate, energies = map(_modules_loaded_by, numeric_path)
    for statement, loaded in zip(numeric_path, (package, estimate, energies)):
        assert "numpy" in loaded and "cknlab.quadrature" in loaded, statement
        assert not any(m.startswith(("scipy", "numpy.polynomial")) for m in loaded), statement
    # A numeric name read from the package loads the whole layer; each
    # command loads only the layers it runs.  An estimate never reads the
    # energy layer (functionals, exppoly, special), whose cold compile took
    # about a tenth of a cold minimize, and one profile's energies need no
    # Gram matrices.  Nor does an estimate load dataclasses: creating the
    # ten frozen record classes of quadrature and variational took about
    # 12 ms of a cold minimize.
    assert numeric <= package
    assert {m for m in estimate if m.startswith("cknlab")} == {
        "cknlab", "cknlab.cli", "cknlab.constants", "cknlab.errors", "cknlab.quadrature",
        "cknlab.variational"}
    assert "dataclasses" not in estimate
    assert "cknlab.variational" not in energies


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_thmc2_divergent_energy_exits_precondition(capsys, n, k):
    # v' ~ -r^(1-N) at infinity, so B = int v'^2 r^(N+2k-1) dr diverges
    # exactly when 2k >= N - 2; the other energies converge wherever B does.
    code, _, err = run(capsys, "quotient", "--family", "thmC-2", "--n", str(n), "--alpha", "0",
                       "--beta", "2", "--b", "-1", "--k", str(k))
    if 2 * k >= n - 2:
        assert code == 2
        assert "energy B" in err
    else:
        assert code == 0, err


def test_thmc1_origin_divergence_exits_precondition(capsys):
    # C's zero-order part int v^2 r^(N+2k-alpha-4) dr = int v^2 r^-1.5 dr
    # diverges at the origin, where v tends to a nonzero constant.
    code, out, err = run(capsys, "quotient", "--family", "thmC-1", "--n", "2", "--alpha", "1.5",
                         "--beta", "0.5", "--b", "1", "--k", "1")
    assert code == 2
    assert out == ""
    assert "energy C diverges at the origin" in err


@pytest.mark.parametrize("argv, closed", [
    # A B alone would overflow: the energies are about 3e179 and 2e164.
    (("--family", "thm1.2-2", "--n", "18", "--alpha", "-0.875", "--k", "0"), 67.03515625),
    (("--test-function", "--n", "120"), 120 * 124 * (120**2 - 1) ** 2 / (4 * (120**2 - 116) ** 2)),
])
def test_quotient_energies_near_float_range(capsys, argv, closed):
    doc = run_json(capsys, "quotient", *argv)
    assert doc["report"]["quadrature_value"] == pytest.approx(closed, rel=0, abs=1e-8)


def test_output_file_is_written_atomically(capsys, tmp_path):
    target = tmp_path / "out" / "scan.csv"
    target.parent.mkdir()
    code, out, _ = run(capsys, "mode-scan", "--formula", "J", "--n", "3",
                       "--kmax", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("k,value,formula,argmin,tail_verified")
    leftovers = [p for p in target.parent.iterdir() if p.name != "scan.csv"]
    assert leftovers == []


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("n = 3\nkmax = 4\nformat = csv\n")
    code, out, _ = run(capsys, "mode-scan", "--formula", "J",
                       "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 6  # header + k = 0..4


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("n = 3\nkmax = 4\nformat = csv\n")
    code, out, _ = run(capsys, "mode-scan", "--formula", "J",
                       "--config", str(cfg), "--kmax", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_config_env_variable(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("n = 2\nformat = csv\nkmax = 3\n")
    monkeypatch.setenv("CKNLAB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "mode-scan", "--formula", "J")
    assert code == 0
    assert out.startswith("k,value,formula,argmin,tail_verified")


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    code, _, err = run(capsys, "mode-scan", "--formula", "J", "--n", "3",
                       "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_json_output_is_round_trippable(capsys):
    doc = run_json(capsys, "constants", "--n", "5", "--alpha", "0")
    assert json.loads(json.dumps(doc)) == doc


def _nonincreasing(trace):
    return all(after <= before + 1e-10 * max(1.0, abs(before))
               for before, after in zip(trace, trace[1:]))


@pytest.mark.parametrize("n", ["4", "7"])
def test_minimize_deep_basis_trace_does_not_rise(capsys, n):
    doc = run_json(capsys, "minimize", "--n", n, "--k", "1", "--basis", "8,16,24,32")
    trace = doc["report"]["diagnostics"]["trace"]
    assert len(trace) == 4
    assert _nonincreasing(trace)


def test_minimize_with_a_negative_v_prime_coefficient_reports_no_warning(capsys):
    # At alpha = -3/4 the v' part of A has a negative coefficient, yet M_A
    # is positive definite by the weighted Hardy inequality.
    doc = run_json(capsys, "minimize", "--n", "5", "--alpha", "-0.75", "--k", "1")
    assert doc["report"]["diagnostics"]["warnings"] == []


def test_minimize_reports_convergence(capsys):
    doc = run_json(capsys, "minimize", "--n", "5", "--k", "0", "--basis", "8,16,24,32")
    diagnostics = doc["report"]["diagnostics"]
    assert diagnostics["converged"] is True
    assert doc["report"]["variational_estimate"] == pytest.approx(9.0, rel=1e-12)


def test_minimize_below_lower_bound_exits_consistency(capsys, monkeypatch):
    import cknlab.variational as variational

    original = variational.build_gram

    def halved_a(*args, **kwargs):
        gram = original(*args, **kwargs)
        return gram._replace(m_a=gram.m_a / 2.0)

    monkeypatch.setattr(variational, "build_gram", halved_a)
    code, _, err = run(capsys, "minimize", "--n", "5", "--k", "1", "--basis", "4")
    assert code == 4
    assert "lower bound" in err


def test_witness_mismatch_exits_consistency_with_plain_floats(capsys, monkeypatch):
    import cknlab.variational as variational

    original = variational._gauss_parts

    def perturbed(*args):
        parts = original(*args)
        return [parts[0] * (1.0 + 1e-6)] + parts[1:]

    monkeypatch.setattr(variational, "_gauss_parts", perturbed)
    code, out, err = run(capsys, "minimize", "--n", "5", "--k", "1", "--basis", "4")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: consistency check failed: witness check failed")
    assert "np.float64" not in err


# One sample value per config key: its flag and its config-file line.
_OPTION_SAMPLES = {
    "n": "5", "alpha": "0.25", "beta": "0.5", "k": "2", "kmax": "7", "basis": "4,8",
    "a": "2", "b": "0.5", "format": "csv", "out": "report.json", "rel-tol": "1e-9",
    "formula": "K", "family": "thmA", "test-function": "yes", "coeffs": "c.txt",
}
# A second value of each, which the config file holds when the flag is given too.
_OPTION_OTHERS = {
    "n": "6", "alpha": "0.5", "beta": "1.5", "k": "3", "kmax": "9", "basis": "4,16",
    "a": "3", "b": "0.25", "format": "plot-data", "out": "other.json", "rel-tol": "1e-8",
    "formula": "J", "family": "thmB", "test-function": "off", "coeffs": "d.txt",
}


@pytest.mark.parametrize("key", sorted(_OPTION_SAMPLES))
def test_config_key_matches_its_flag(tmp_path, key):
    # Every config key is a long flag (bar --config) and sets what the flag sets.
    assert set(_OPTION_SAMPLES) == set(cli._CONFIG_KEYS)
    command = cli._CONFIG_KEYS[key].command or "minimize"
    switch = cli._CONFIG_KEYS[key].cast is None
    flag = [f"--{key}"] if switch else [f"--{key}", _OPTION_SAMPLES[key]]
    base = [] if key == "n" else ["--n", "3"]  # alpha and beta act only with n

    def config(argv, text=None):
        if text is not None:
            (tmp_path / "run.cfg").write_text(text)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        return cli.build_config(cli.build_parser().parse_args([command, *base, *argv]))

    from_flag = config(flag)
    assert from_flag != config([])
    assert config([], f"{key} = {_OPTION_SAMPLES[key]}\n") == from_flag
    assert config(flag, f"{key} = {_OPTION_OTHERS[key]}\n") == from_flag
    assert config([], f"{key} = {_OPTION_OTHERS[key]}\n") != from_flag


def test_minimizer_has_no_seed(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    code, _, err = run(capsys, "minimize", "--n", "5", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err
