"""End-to-end CLI behavior: anchors, formats, config, exit codes."""

import ast
import csv
import io
import json
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


@pytest.mark.parametrize("argv", [
    ("constants",),
    ("mode-scan", "--formula", "K", "--kmax", "3"),
    ("quotient", "--test-function"),
])
def test_exact_value_beyond_float_range_exits_precondition(capsys, argv):
    # At N = 1e200 the exact rationals exceed double range: float() of them
    # escaped as an OverflowError traceback (exit 1).
    code, out, err = run(capsys, *argv, "--n", "1" + "0" * 200)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "exceeds double-precision range" in err


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


def test_quotient_coefficient_file(capsys, tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0, 0.5, 0.25\n")
    doc = run_json(capsys, "quotient", "--coeffs", str(path), "--n", "5",
                   "--alpha", "0", "--k", "1")
    assert doc["report"]["quadrature_value"] > 10.24  # exact k=1 bound


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


def test_selftest_json_stdout_is_one_document(capsys, monkeypatch):
    import cknlab.acceptance as acceptance

    fake = tuple((i, f"fake criterion {i}", 1.0, lambda: (True, "ok")) for i in (1, 2))
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out, err = run(capsys, "selftest", "--format", "json")
    assert code == 0, err
    assert [r["index"] for r in json.loads(out)["results"]] == [1, 2]
    assert "criterion  1 PASS" in err and "criterion  2 PASS" in err


def _modules_loaded_by(statement):
    """The numpy, scipy and cknlab modules a fresh interpreter holds after
    running ``statement``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (f"import sys, contextlib, io\nwith contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {statement}\nprint(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('numpy', 'scipy', 'cknlab')))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return set(ast.literal_eval(done.stdout.strip()))


def test_cli_import_leaves_out_scipy_linalg_and_optimize():
    # scipy is a test dependency only: importing scipy.special alone took
    # more than half of a cold CLI start and about 25 MB of peak RSS.  The
    # exact commands load no numpy either, which took about half of the
    # rest of it.
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
    # The numeric commands load numpy, but neither scipy nor
    # numpy.polynomial, whose import took about 4 ms of each of them.
    numeric_path = (
        "import cknlab; cknlab.mode_quotient",
        "from cknlab.cli import main; main(['minimize', '--n', '4', '--k', '1', "
        "'--basis', '4,8'])",
        "from cknlab.cli import main; main(['quotient', '--test-function', '--n', '3'])",
    )
    for statement in numeric_path:
        loaded = _modules_loaded_by(statement)
        assert "numpy" in loaded and "cknlab.quadrature" in loaded, statement
        assert not any(m.startswith(("scipy", "numpy.polynomial")) for m in loaded), statement
    assert numeric <= _modules_loaded_by(numeric_path[0])


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


def test_minimize_reports_convergence(capsys):
    doc = run_json(capsys, "minimize", "--n", "5", "--k", "0", "--basis", "8,16,24,32")
    diagnostics = doc["report"]["diagnostics"]
    assert diagnostics["converged"] is True
    assert doc["report"]["variational_estimate"] == pytest.approx(9.0, rel=1e-12)


def test_minimize_below_lower_bound_exits_consistency(capsys, monkeypatch):
    import dataclasses

    import cknlab.variational as variational

    original = variational.build_gram

    def halved_a(*args, **kwargs):
        gram = original(*args, **kwargs)
        return dataclasses.replace(gram, m_a=gram.m_a / 2.0)

    monkeypatch.setattr(variational, "build_gram", halved_a)
    code, _, err = run(capsys, "minimize", "--n", "5", "--k", "1", "--basis", "4")
    assert code == 4
    assert "lower bound" in err


def test_minimizer_has_no_seed(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    code, _, err = run(capsys, "minimize", "--n", "5", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err
