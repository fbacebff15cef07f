"""Golden corpora of CLI commands, and the script that rewrites them.

Each record of ``exact_commands.json`` holds one argv of ``cknlab
constants`` or ``cknlab mode-scan``, the config files that argv reads, and
the exit code, stdout and stderr of ``cli.main`` run on it in-process.
These commands compute in ``Fraction`` arithmetic and print floats by
``repr``, so their bytes are the same on every machine;
``tests/test_golden.py`` compares them byte for byte.

Each record of ``numeric_commands.json`` holds one argv of the commands
that compute in floats (``quotient``, ``minimize``, ``probe-conjecture``)
and its files, exit code and stderr as above, with stdout parsed as the
JSON document it is.  Their last digits may move with the platform's
libm and BLAS, so ``tests/test_golden.py`` compares every float of the
document to ``NUMERIC_REL_TOL`` relative (a float of rounding-noise size,
such as a gradient norm or a route gap near 1e-16, to ``NUMERIC_ABS_TOL``
absolute) and every other field exactly.

After a deliberate change of output, rewrite both corpora from the
repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

and list every record it changed.  ``--help`` is left out: its wrapping
depends on the terminal width and its wording on the Python version;
``selftest`` is left out as it times itself.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Sequence

CORPUS = Path(__file__).with_name("exact_commands.json")
NUMERIC_CORPUS = Path(__file__).with_name("numeric_commands.json")
NUMERIC_REL_TOL = 1e-10
NUMERIC_ABS_TOL = 1e-12

BIG80 = "1" + "0" * 80
BIG200 = "1" + "0" * 200

SCAN_CFG = {"scan.cfg": "n = 3\nkmax = 4\nformat = csv\n"}

# (argv, config files written into the working directory first)
CASES = [
    # The distinct exact-command argvs of bench seeds 1-5 (closed-forms).
    (("constants", "--n", "7", "--alpha", "0.25"), {}),
    (("constants", "--n", "1", "--alpha", "-0.625"), {}),
    (("constants", "--n", "2"), {}),
    (("constants", "--n", "3"), {}),
    (("constants", "--n", "4"), {}),
    (("constants", "--n", "5", "--alpha", "-0.75"), {}),
    (("constants", "--n", "8", "--alpha", "0.25"), {}),
    (("constants", "--n", "1", "--alpha", "1.25"), {}),
    (("constants", "--n", "8", "--alpha", "-0.375"), {}),
    (("constants", "--n", "1", "--alpha", "-0.5"), {}),
    (("constants", "--n", "9", "--alpha", "0.5"), {}),
    (("constants", "--n", "1", "--alpha", "0.5"), {}),
    (("mode-scan", "--formula", "J", "--n", "6", "--kmax", "5"), {}),
    (("mode-scan", "--formula", "K", "--n", "9", "--alpha", "0.875", "--kmax", "17"), {}),
    (("mode-scan", "--formula", "J", "--n", "7", "--kmax", "28"), {}),
    (("mode-scan", "--formula", "K", "--n", "4", "--alpha", "2.0", "--kmax", "27"), {}),
    (("mode-scan", "--formula", "J", "--n", "4", "--kmax", "13"), {}),
    (("mode-scan", "--formula", "K", "--n", "11", "--alpha", "1.0", "--kmax", "22"), {}),
    (("mode-scan", "--formula", "J", "--n", "8", "--kmax", "17"), {}),
    (("mode-scan", "--formula", "K", "--n", "4", "--alpha", "-0.625", "--kmax", "4"), {}),
    (("mode-scan", "--formula", "J", "--n", "12", "--kmax", "18"), {}),
    (("mode-scan", "--formula", "K", "--n", "2", "--alpha", "0.875", "--kmax", "26"), {}),
    # Formats, weights and edge values.
    (("constants", "--n", "5", "--alpha", "0", "--format", "csv"), {}),
    (("constants", "--n", "5", "--alpha", "0", "--format", "plot-data"), {}),
    (("constants", "--n", "3", "--format", "csv"), {}),
    (("constants", "--n", "4", "--format", "plot-data"), {}),
    (("constants", "--n", "7", "--alpha", "0.25", "--beta", "0.5"), {}),
    (("constants", "--n", "5", "--beta", "1"), {}),
    (("constants", "--n", "8", "--alpha", "0.6", "--beta", "2.5", "--format", "csv"), {}),
    (("constants", "--n", "1", "--alpha", "-0.75", "--format", "plot-data"), {}),
    (("constants", "--n", "100000000000000000000"), {}),
    (("mode-scan", "--formula", "J", "--n", "3"), {}),
    (("mode-scan", "--formula", "J", "--n", "2", "--format", "csv"), {}),
    (("mode-scan", "--formula", "J", "--n", "5", "--format", "plot-data"), {}),
    (("mode-scan", "--formula", "K", "--n", "12", "--alpha", "1", "--format", "csv"), {}),
    (("mode-scan", "--formula", "K", "--n", "7", "--alpha", "0.25", "--kmax", "30"), {}),
    (("mode-scan", "--formula", "K", "--n", "5", "--alpha", "0.25", "--kmax", "8",
      "--format", "plot-data"), {}),
    (("mode-scan", "--formula", "K", "--n", "10", "--alpha", "2.5625", "--kmax", "40"), {}),
    (("mode-scan", "--formula", "K", "--n", "2", "--alpha", "1", "--kmax", "4"), {}),
    (("mode-scan", "--formula", "K", "--n", "3", "--alpha", "-0.5", "--format", "csv"), {}),
    (("mode-scan", "--formula", "K", "--n", "9", "--alpha", "-0.95", "--kmax", "6"), {}),
    (("mode-scan", "--formula", "K", "--n", "6", "--alpha", "0.2", "--beta", "0.5"), {}),
    (("mode-scan", "--formula", "K", "--n", "100000000000000000000", "--alpha", "0.5",
      "--kmax", "3"), {}),
    (("mode-scan", "--formula", "J", "--n", "3", "--alpha", "0.5"), {}),
    # Config files.
    (("mode-scan", "--formula", "J", "--config", "scan.cfg"), SCAN_CFG),
    (("mode-scan", "--formula", "J", "--config", "scan.cfg", "--kmax", "6",
      "--format", "json"), SCAN_CFG),
    (("constants", "--config", "case.cfg"),
     {"case.cfg": "# radial case\nn = 7\nalpha = 0.25\nformat = plot-data\n"}),
    (("mode-scan", "--formula", "K", "--config", "bad.cfg"), {"bad.cfg": "n = 3\nkmx = 4\n"}),
    # Exit 2.
    (("constants",), {}),
    (("constants", "--n", "3", "--alpha", "0.5"), {}),
    (("constants", "--n", "1", "--alpha", "-1.5"), {}),
    (("constants", "--n", BIG200), {}),
    (("constants", "--n", "3", "--beta", "1e300"), {}),
    (("mode-scan", "--formula", "J", "--n", "3", "--kmax", "1"), {}),
    (("mode-scan", "--formula", "J", "--n", "1"), {}),
    (("mode-scan", "--formula", "K", "--n", "3", "--alpha", "-1"), {}),
    (("mode-scan", "--formula", "J", "--n", BIG80, "--kmax", "3"), {}),
    (("mode-scan", "--formula", "K", "--n", BIG80, "--kmax", "3"), {}),
    (("mode-scan", "--formula", "K", "--kmax", "3", "--n", BIG200), {}),
    (("mode-scan", "--formula", "J", "--n", BIG200, "--kmax", "3"), {}),
]


COEFFS = {"coeffs.txt": "1.0 -0.5 0.25\n"}

NUMERIC_CASES = [
    # Every extremal family at modes 0 and 1 (the one-dimensional families
    # have no modes).
    (("quotient", "--family", "thmA", "--n", "7", "--k", "0"), {}),
    (("quotient", "--family", "thmA", "--n", "7", "--k", "1"), {}),
    (("quotient", "--family", "thm1.2-1a", "--n", "1", "--alpha", "-0.5"), {}),
    (("quotient", "--family", "thm1.2-1b", "--n", "1", "--alpha", "0.5"), {}),
    (("quotient", "--family", "thm1.2-2", "--n", "7", "--alpha", "0.25", "--k", "0"), {}),
    (("quotient", "--family", "thm1.2-2", "--n", "7", "--alpha", "0.25", "--k", "1"), {}),
    (("quotient", "--family", "thmB", "--n", "5", "--beta", "0.5", "--k", "0"), {}),
    (("quotient", "--family", "thmB", "--n", "5", "--beta", "0.5", "--k", "1"), {}),
    (("quotient", "--family", "thmC-1", "--n", "5", "--beta", "0.5", "--k", "0"), {}),
    (("quotient", "--family", "thmC-1", "--n", "5", "--beta", "0.5", "--k", "1"), {}),
    (("quotient", "--family", "thmC-2", "--n", "5", "--beta", "1.5", "--b", "-1", "--k", "0"),
     {}),
    (("quotient", "--family", "thmC-2", "--n", "5", "--beta", "1.5", "--b", "-1", "--k", "1"),
     {}),
    (("quotient", "--family", "thmD", "--n", "7", "--alpha", "0.5", "--k", "0"), {}),
    (("quotient", "--family", "thmD", "--n", "7", "--alpha", "0.5", "--k", "1"), {}),
    # The exp-profile test function, symmetry breaking at N = 2, 3 and not
    # at N = 5, and coefficient profiles.
    (("quotient", "--test-function", "--n", "2"), {}),
    (("quotient", "--test-function", "--n", "3"), {}),
    (("quotient", "--test-function", "--n", "5"), {}),
    (("quotient", "--coeffs", "coeffs.txt", "--n", "6", "--alpha", "0.25", "--k", "0"), COEFFS),
    (("quotient", "--coeffs", "coeffs.txt", "--n", "6", "--alpha", "0.25", "--k", "2"), COEFFS),
    # The probe workload's commands of bench seeds 1-5.
    (("probe-conjecture",), {}),
    (("minimize", "--n", "5", "--alpha", "0.0", "--k", "0"), {}),
    (("minimize", "--n", "3", "--alpha", "0.0", "--k", "1"), {}),
    (("minimize", "--n", "7", "--alpha", "0.375", "--k", "1"), {}),
    (("minimize", "--n", "6", "--alpha", "0.125", "--k", "1"), {}),
    (("minimize", "--n", "7", "--alpha", "0.25", "--k", "0"), {}),
    (("minimize", "--n", "7", "--alpha", "0.0", "--k", "0"), {}),
]


def run(argv: Sequence[str], files: Dict[str, str]) -> Dict[str, object]:
    """One record: ``cli.main(argv)`` run in a fresh working directory that
    holds ``files``, with the config environment variable unset."""
    from cknlab.cli import ENV_CONFIG, main

    out, err = io.StringIO(), io.StringIO()
    cwd, saved = os.getcwd(), os.environ.pop(ENV_CONFIG, None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            os.chdir(tmp)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(list(argv))
            finally:
                os.chdir(cwd)
    finally:
        if saved is not None:
            os.environ[ENV_CONFIG] = saved
    return {"argv": list(argv), "files": files, "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_numeric(argv: Sequence[str], files: Dict[str, str]) -> Dict[str, object]:
    """One numeric record: ``run`` with stdout parsed as JSON."""
    record = run(argv, files)
    record["stdout"] = json.loads(record["stdout"])
    return record


def _write(corpus: Path, records: List[Dict[str, object]]) -> None:
    old = json.loads(corpus.read_text(encoding="utf-8")) if corpus.exists() else []
    before = {json.dumps([r["argv"], r["files"]]): r for r in old}
    for record in records:
        if before.get(json.dumps([record["argv"], record["files"]])) != record:
            print("changed:", " ".join(record["argv"]), file=sys.stderr)
    corpus.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    _write(CORPUS, [run(argv, files) for argv, files in CASES])
    _write(NUMERIC_CORPUS, [run_numeric(argv, files) for argv, files in NUMERIC_CASES])


if __name__ == "__main__":
    main()
