"""Command-line front end.

Every computation is exposed as a subcommand with structured output:

* ``constants``         closed-form sharp constants, bounds, references
* ``mode-scan``         per-mode closed-form table with argmin marker
* ``quotient``          quotient of a named extremal family, the explicit
                        test profile, or a coefficient file
* ``minimize``          variational estimate over nested trial spaces
* ``probe-conjecture``  the open n=4 case, reported as evidence only
* ``selftest``          the acceptance suite; nonzero exit on failure

Output formats: ``json`` (default), ``csv`` (17 significant digits), and
``plot-data`` (two-column blocks separated by blank lines).  Flags may be
preloaded from a flat key=value config file (``--config`` or the
CKNLAB_CONFIG environment variable); explicit flags win.  Reports are
written atomically when ``--out`` is given.

Exit codes: 0 success, 2 precondition violation, 3 numerical
non-convergence, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Sequence, Tuple

import json

from .constants import (
    DEFAULT_SCAN_SIZES,
    FAMILY_IDS,
    FORMULA_PLAIN,
    FORMULA_WEIGHTED,
    InequalityParams,
    exact_to_float,
    exponential_profile_quotient,
    mode_infimum,
    mode_quotient_plain,
    mode_quotient_weighted,
    reference_constants,
    sharp_constant_closed_form,
    symmetry_breaking_bounds,
)
from .errors import (
    CknLabError,
    ConsistencyError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
    UnsupportedRegimeError,
)

if TYPE_CHECKING:  # the numeric layer loads only in the commands that integrate
    from .quadrature import QuadratureSpec

__all__ = [
    "RunConfig",
    "SharpConstantReport",
    "cmd_constants",
    "cmd_mode_scan",
    "cmd_quotient",
    "cmd_minimize",
    "cmd_probe_conjecture",
    "cmd_selftest",
    "main",
]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3
EXIT_CONSISTENCY = 4

ENV_CONFIG = "CKNLAB_CONFIG"
OUTPUT_FORMATS = ("csv", "json", "plot-data")

MODE_SCAN_K_MAX = 10
QUOTIENT_AGREEMENT_RTOL = 1e-8

# The one-dimensional families, each with the formula of the sharp constant it attains.
_ONE_DIM_FORMULAS = {"thm1.2-1a": "alpha^2 / 4", "thm1.2-1b": "(3 alpha + 2)^2 / 4"}


class _RunConfig(NamedTuple):
    command: str
    params: Optional[InequalityParams] = None
    quadrature: Optional[QuadratureSpec] = None
    basis_sizes: Tuple[int, ...] = DEFAULT_SCAN_SIZES
    k: int = 0
    k_max: int = MODE_SCAN_K_MAX
    output_format: str = "json"
    output_path: Optional[str] = None
    formula: str = FORMULA_PLAIN
    family: Optional[str] = None
    test_function: bool = False
    coeffs_path: Optional[str] = None
    amplitude: float = 1.0
    rate: float = 1.0


class RunConfig(_RunConfig):
    """One reproducible run: subcommand plus every knob it reads.

    ``quadrature`` of None means the default ``QuadratureSpec()``, built
    only by the commands that integrate (see ``_quadrature``).  A
    construction, a ``_replace`` and an unpickling all validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in _COMMANDS:
            raise PreconditionError(f"unknown command {self.command!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise PreconditionError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> "RunConfig":
        return cls(*iterable)


class _SharpConstantReport(NamedTuple):
    closed_form: Optional[float]
    quadrature_value: Optional[float]
    variational_estimate: Optional[float]
    bounds: Optional[Dict[str, object]]
    diagnostics: Dict[str, object]
    provenance: Dict[str, str]


class SharpConstantReport(_SharpConstantReport):
    """One constant, by whichever routes produced a value.

    Every command fills at least one of ``closed_form``,
    ``quadrature_value``, ``variational_estimate`` or ``bounds``, or
    raises.  When several value routes are present they are compared;
    disagreement beyond the declared tolerance sets
    ``diagnostics["discrepancy"]``.  ``diagnostics`` and ``provenance``
    default to a fresh dict each.
    """

    __slots__ = ()

    def __new__(
        cls,
        closed_form: Optional[float] = None,
        quadrature_value: Optional[float] = None,
        variational_estimate: Optional[float] = None,
        bounds: Optional[Dict[str, object]] = None,
        diagnostics: Optional[Dict[str, object]] = None,
        provenance: Optional[Dict[str, str]] = None,
    ) -> "SharpConstantReport":
        return super().__new__(
            cls, closed_form, quadrature_value, variational_estimate, bounds,
            {} if diagnostics is None else diagnostics,
            {} if provenance is None else provenance,
        )


class Document(NamedTuple):
    """A rendered-format-independent command result."""

    payload: Dict[str, object]
    table_header: Tuple[str, ...]
    table_rows: Tuple[tuple, ...]
    series: Tuple[Tuple[Tuple[float, float], ...], ...]
    exit_code: int = EXIT_OK


# ----------------------------------------------------------------------
# Serialization


def _to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConsistencyError("report contains a non-finite number")
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    np = sys.modules.get("numpy")  # no numpy value exists unless numpy is loaded
    if np is not None and isinstance(obj, (np.generic, np.ndarray)):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a NamedTuple record
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(key): _to_jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    raise DomainError(f"cannot serialize a {type(obj).__name__} into a report")


def _num17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    np = sys.modules.get("numpy")  # no numpy value exists unless numpy is loaded
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return _num17(value)
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render(document: Document, output_format: str) -> str:
    """Serialize a command result into one of the output formats."""
    if output_format == "json":
        return json.dumps(
            _to_jsonable(document.payload),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        ) + "\n"
    if output_format == "csv":
        lines = [",".join(document.table_header)]
        lines.extend(
            ",".join(_csv_cell(cell) for cell in row) for row in document.table_rows
        )
        return "\n".join(lines) + "\n"
    if output_format == "plot-data":
        blocks = []
        for block in document.series:
            if not block:
                continue
            blocks.append(
                "\n".join(f"{_num17(x)} {_num17(y)}" for x, y in block)
            )
        return "\n\n".join(blocks) + "\n"
    raise PreconditionError(f"unknown output format {output_format!r}")


def write_atomic(path: str, text: str) -> None:
    """Write a report so that the target never holds a partial file.

    A target that cannot be written, such as one in a missing directory,
    is a bad argument; the message leaves out the temporary file's random
    name, so that it is the same on every run.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        handle, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".cknlab-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as fh:
                fh.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise PreconditionError(f"cannot write {path!r}: {exc.strerror}") from None


# ----------------------------------------------------------------------
# Commands


def _bounds_dict(n: int) -> Dict[str, object]:
    b = symmetry_breaking_bounds(n)
    return {
        "lower": b.lower,
        "upper": b.upper,
        "conjectured": b.conjectured,
        "exact_lower": str(b.exact_lower),
        "exact_upper": str(b.exact_upper),
        "exact_conjectured": str(b.exact_conjectured),
        "flag": b.flag,
    }


def _report_document(
    command: str,
    params: Optional[InequalityParams],
    report: SharpConstantReport,
    series_x: float,
    exit_code: int = EXIT_OK,
) -> Document:
    payload = {
        "command": command,
        "params": params,
        "report": report,
    }
    rows = []
    for name in ("closed_form", "quadrature_value", "variational_estimate"):
        value = getattr(report, name)
        if value is not None:
            rows.append((name, value))
    if report.bounds is not None:
        for key in ("lower", "upper", "conjectured"):
            rows.append((f"bounds.{key}", report.bounds[key]))
    series = tuple(
        ((series_x, value),) for _, value in rows if isinstance(value, float)
    )
    return Document(
        payload=payload,
        table_header=("field", "value"),
        table_rows=tuple(rows),
        series=series,
        exit_code=exit_code,
    )


def _table_document(
    payload: Dict[str, object],
    rows: Sequence[Dict[str, object]],
    header: Tuple[str, ...],
    plotted: Tuple[str, ...],
    exit_code: int = EXIT_OK,
) -> Document:
    """A document whose table holds the ``header`` columns of ``rows``
    (one record per row), with one plot series of (x, row[name]) per name
    in ``plotted``, x the first column and rows where it is None left out."""
    return Document(
        payload=payload,
        table_header=header,
        table_rows=tuple(tuple(row[name] for name in header) for row in rows),
        series=tuple(
            tuple((float(row[header[0]]), row[name]) for row in rows if row[name] is not None)
            for name in plotted
        ),
        exit_code=exit_code,
    )


def _quadrature(config: RunConfig) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    return QuadratureSpec() if config.quadrature is None else config.quadrature


def _require_params(config: RunConfig) -> InequalityParams:
    if config.params is None:
        raise PreconditionError(f"the {config.command} command requires --n")
    return config.params


def cmd_constants(config: RunConfig) -> Document:
    """Closed-form constant, bounds and reference constants for one case."""
    params = _require_params(config)
    closed = None
    provenance: Dict[str, str] = {}
    diagnostics: Dict[str, object] = {}
    regime_note = None
    try:
        cf = sharp_constant_closed_form(params)
        closed = cf.value
        provenance = {"case": cf.case, "family": cf.family_id}
        diagnostics["exact"] = str(cf.exact)
    except UnsupportedRegimeError as exc:
        regime_note = str(exc)
    bounds = None
    if params.n in (2, 3, 4) and params.alpha == 0.0:
        bounds = _bounds_dict(params.n)
    if closed is None and bounds is None:
        raise UnsupportedRegimeError(regime_note or "no closed form for these parameters")
    if regime_note is not None:
        diagnostics["regime_note"] = regime_note
    diagnostics["references"] = reference_constants(params)
    report = SharpConstantReport(
        closed_form=closed,
        bounds=bounds,
        diagnostics=diagnostics,
        provenance=provenance,
    )
    return _report_document("constants", params, report, float(params.n))


def cmd_mode_scan(config: RunConfig) -> Document:
    """Closed-form per-mode table with argmin and tail-certificate flags."""
    params = _require_params(config)
    if config.k_max < 2:
        raise PreconditionError(f"mode-scan requires --kmax >= 2, got {config.k_max}")
    if config.formula not in (FORMULA_PLAIN, FORMULA_WEIGHTED):
        raise PreconditionError(
            f"--formula must be {FORMULA_PLAIN!r} or {FORMULA_WEIGHTED!r}, "
            f"got {config.formula!r}"
        )
    inf = mode_infimum(config.formula, params, k_max=config.k_max)
    rows = []
    for k in range(config.k_max + 1):
        if config.formula == FORMULA_PLAIN:
            q = mode_quotient_plain(params.n, k)
        else:
            q = mode_quotient_weighted(params.n, params.alpha, k)
        rows.append({"k": k, "value": q.value, "formula": q.formula,
                     "argmin": k == inf.argmin_k, "tail_verified": inf.tail_verified})
    payload = {
        "command": "mode-scan",
        "params": params,
        "formula": config.formula,
        "k_max": config.k_max,
        "rows": rows,
        "infimum": {
            "value": inf.value,
            "argmin_k": inf.argmin_k,
            "exact": str(inf.exact) if inf.exact is not None else None,
            "tail_verified": inf.tail_verified,
        },
    }
    return _table_document(payload, rows, ("k", "value", "formula", "argmin", "tail_verified"),
                           ("value",))


def _read_coefficients(path: str) -> Tuple[float, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read coefficient file: {exc}") from None
    tokens = text.replace(",", " ").split()
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise PreconditionError(f"bad coefficient file {path!r}: {exc}") from None
    for tok, value in zip(tokens, values):
        if not math.isfinite(value):
            raise PreconditionError(
                f"bad coefficient file {path!r}: coefficient {tok!r} is not a finite number")
    if not values:
        raise PreconditionError(f"coefficient file {path!r} is empty")
    return values


def cmd_quotient(config: RunConfig) -> Document:
    """Quotient of one profile: a named family, the explicit test profile
    on the first harmonic, or a coefficient file in the trial basis."""
    from .exppoly import ExpPoly
    from .functionals import (
        TEST_FUNCTION_RTOL,
        ExtremalFamily,
        exponential_profile,
        extremal_profile,
        mode_quotient,
        one_dim_quotient,
        profile_from_exppoly,
    )

    params = _require_params(config)
    selected = [
        bool(config.test_function),
        config.family is not None,
        config.coeffs_path is not None,
    ]
    if sum(selected) != 1:
        raise PreconditionError(
            "select exactly one of --test-function, --family, --coeffs"
        )
    spec = _quadrature(config)
    closed: Optional[float] = None
    provenance: Dict[str, str] = {}
    diagnostics: Dict[str, object] = {}
    rtol = QUOTIENT_AGREEMENT_RTOL

    if config.test_function:
        if params.n < 2:
            raise PreconditionError("--test-function requires --n >= 2")
        # test_function_quotient's check, on this command's one quadrature run.
        closed = exact_to_float(exponential_profile_quotient(params.n),
                                "the test-function quotient")
        rtol = TEST_FUNCTION_RTOL
        value = mode_quotient(exponential_profile(1.0), InequalityParams(params.n, 0.0), 1, spec,
                              method="quadrature")
        provenance = {
            "profile": "v = exp(-r) on the first harmonic",
            "closed_formula": "N(N+4)(N^2-1)^2 / (4(N^2-N+4)^2)",
        }
    elif config.family is not None:
        fam = ExtremalFamily(
            family_id=config.family,
            a=config.amplitude,
            b=config.rate,
            params=params,
        )
        profile = extremal_profile(fam, spec)
        if config.family in _ONE_DIM_FORMULAS:
            if params.n != 1:
                raise PreconditionError(
                    f"family {config.family!r} is one-dimensional; pass --n 1"
                )
            value = one_dim_quotient(profile, params.alpha, spec)
            cf = sharp_constant_closed_form(params)
            # The family attains the sharp constant in its own case; the two
            # cases meet at alpha = -1/2, where both formulas give 1/16.
            if cf.family_id == config.family or params.alpha == -0.5:
                closed = cf.value
                provenance = {"closed_formula": _ONE_DIM_FORMULAS[config.family]}
        else:
            if params.n < 2:
                raise PreconditionError(
                    f"family {config.family!r} lives on modes; pass --n >= 2"
                )
            value = mode_quotient(profile, params, config.k, spec)
            if config.family == "thm1.2-2" and config.k == 0:
                closed = mode_quotient_weighted(params.n, params.alpha, 0).value
                provenance = {"closed_formula": "(N + 3 alpha + 1)^2 / 4"}
        provenance["family"] = config.family
        diagnostics["k"] = config.k if config.family not in _ONE_DIM_FORMULAS else None
    else:
        if params.n < 2:
            raise PreconditionError("--coeffs requires --n >= 2")
        coeffs = _read_coefficients(config.coeffs_path)
        q = params.alpha + 1.0
        if q <= 0:
            raise PreconditionError("--coeffs requires alpha > -1")
        poly = ExpPoly(tuple((j * q, c) for j, c in enumerate(coeffs)), 1.0, q)
        if poly.is_zero:
            raise PreconditionError("coefficient file describes the zero profile")
        profile = profile_from_exppoly(poly)
        value = mode_quotient(profile, params, config.k, spec)
        provenance = {
            "profile": "coefficient file",
            "basis": "r^(j q) exp(-r^q), q = alpha + 1",
        }
        diagnostics["k"] = config.k
        diagnostics["coefficients"] = list(coeffs)

    exit_code = EXIT_OK
    if closed is not None:
        rel = abs(value - closed) / max(abs(closed), 1e-300)
        diagnostics["closed_vs_quadrature_rel"] = rel
        if rel > rtol:
            diagnostics["discrepancy"] = True
            exit_code = EXIT_CONSISTENCY
    report = SharpConstantReport(
        closed_form=closed,
        quadrature_value=value,
        diagnostics=diagnostics,
        provenance=provenance,
    )
    return _report_document(
        "quotient", params, report, float(params.n), exit_code=exit_code
    )


def cmd_minimize(config: RunConfig) -> Document:
    """Variational estimate of one per-mode constant."""
    from .variational import estimate_mode_constant

    params = _require_params(config)
    if params.n < 2:
        raise PreconditionError("minimize requires --n >= 2")
    est = estimate_mode_constant(
        params,
        config.k,
        config.basis_sizes,
        spec=_quadrature(config),
    )
    diagnostics: Dict[str, object] = {
        "trace": list(est.trace),
        "basis_sizes": list(est.basis_sizes),
        "formulation": "profile",
        "converged": est.final.converged,
        "gradient_norm": est.final.gradient_norm,
        "iterations": est.final.iterations,
        "warnings": list(est.final.warnings),
        "mode_lower_bound": est.lower_bound.value,
        "mode_lower_bound_exact": (
            str(est.lower_bound.exact) if est.lower_bound.exact is not None else None
        ),
    }
    if params.n == 4 and params.alpha == 0.0:
        diagnostics["flag"] = "conjecture-open"
    report = SharpConstantReport(
        variational_estimate=est.value,
        diagnostics=diagnostics,
        provenance={
            "estimate": "minimum of (A B)/C^2 over nested trial spaces",
            "trial_space": "r^gamma0 exp(-x) L_j^(a)(2x), x = r^q",
            "minimizer": "grid and Brent search over t of "
                         "(lambda_1(t M_A + M_B/t; M_C)/2)^2",
        },
    )
    payload = {
        "command": "minimize",
        "params": params,
        "k": config.k,
        "report": report,
    }
    rows = [{"basis_size": size, "value": value}
            for size, value in zip(est.basis_sizes, est.trace)]
    return _table_document(payload, rows, ("basis_size", "value"), ("value",))


def cmd_probe_conjecture(config: RunConfig) -> Document:
    """Evidence-only probe of the open four-dimensional case."""
    from .functionals import test_function_quotient
    from .variational import symmetry_breaking_scan

    params = _require_params(config)
    if params.n != 4:
        raise PreconditionError(
            "the conjecture probe is specific to n=4; "
            "use the minimize command for other dimensions"
        )
    if params.alpha != 0.0:
        raise PreconditionError(
            "the conjecture probe is specific to alpha=0; "
            "use the minimize command for weighted cases"
        )
    spec = _quadrature(config)
    scan = symmetry_breaking_scan(
        4,
        0.0,
        k_max=config.k_max,
        basis_sizes=config.basis_sizes,
        spec=spec,
    )
    bounds = _bounds_dict(4)
    rows = [row._asdict() for row in scan.rows]
    payload = {
        "command": "probe-conjecture",
        "banner": "numerical evidence only",
        "params": params,
        "verdict": scan.verdict,
        "flag": scan.flag,
        "best_estimate": scan.best_value,
        "lower_bound": bounds["lower"],
        "lower_bound_exact": bounds["exact_lower"],
        "upper_bound": bounds["upper"],
        "conjectured": bounds["conjectured"],
        "test_profile_mode1_quotient": test_function_quotient(4, spec),
        "basis_sizes": list(config.basis_sizes),
        "k_max": config.k_max,
        "rows": rows,
    }
    header = ("k", "raw_value", "hardy_factor", "effective_value", "full_value", "verdict_value")
    return _table_document(payload, rows, header, ("verdict_value", "effective_value"))


def cmd_selftest(config: RunConfig) -> Document:
    """Run the acceptance suite; one line per criterion."""
    from dataclasses import asdict

    from .acceptance import run_all

    results = [asdict(r) for r in run_all(verbose=True)]
    passed = all(r["passed"] for r in results)
    payload = {"command": "selftest", "passed": passed, "results": results}
    rows = [dict(r, criterion=r["index"]) for r in results]
    return _table_document(payload, rows, ("criterion", "passed", "seconds", "description"),
                           ("seconds",), EXIT_OK if passed else 1)


_COMMANDS = {
    "constants": (cmd_constants, "closed-form constants, bounds, references"),
    "mode-scan": (cmd_mode_scan, "closed-form per-mode table"),
    "quotient": (cmd_quotient, "quotient of one profile"),
    "minimize": (cmd_minimize, "variational estimate over nested trial spaces"),
    "probe-conjecture": (cmd_probe_conjecture, "evidence-only probe of the open n=4 case"),
    "selftest": (cmd_selftest, "run the acceptance suite"),
}


# ----------------------------------------------------------------------
# Options: one table serves the flags and the config file


class _Option(NamedTuple):
    """The long flag ``--<flag>``, also a config-file key unless it is
    ``--config``.  ``field`` names the RunConfig field it sets, except for
    config and for n, alpha, beta and rel_tol, which ``build_config`` turns
    into ``params`` and ``quadrature``.  A ``cast`` of None makes it a
    switch; a ``command`` of None offers it to every subcommand."""

    flag: str
    field: str
    cast: Optional[type]
    help: str
    choices: Optional[Tuple[str, ...]] = None
    command: Optional[str] = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.cast is None:
            parser.add_argument(f"--{self.flag}", action="store_true", default=None,
                                dest=self.field, help=self.help)
            return
        metavar = None if self.choices else self.flag.upper().replace("-", "_")
        parser.add_argument(f"--{self.flag}", type=self.cast, choices=self.choices,
                            dest=self.field, metavar=metavar, help=self.help)


_OPTIONS = (
    _Option("n", "n", int, "dimension N"),
    _Option("alpha", "alpha", float, "weight exponent alpha"),
    _Option("beta", "beta", float, "second weight exponent"),
    _Option("k", "k", int, "mode index"),
    _Option("kmax", "k_max", int, "largest mode index scanned"),
    _Option("basis", "basis_sizes", str, "comma list of basis sizes"),
    _Option("a", "amplitude", float, "family amplitude"),
    _Option("b", "rate", float, "family rate"),
    _Option("format", "output_format", str, "output format", OUTPUT_FORMATS),
    _Option("out", "output_path", str, "output path (atomic write)"),
    _Option("config", "config", str, "key=value config file"),
    _Option("rel-tol", "rel_tol", float, "quadrature relative tolerance"),
    _Option("formula", "formula", str, "which per-mode formula to scan",
            (FORMULA_PLAIN, FORMULA_WEIGHTED), "mode-scan"),
    _Option("family", "family", str, "extremal family id", FAMILY_IDS, "quotient"),
    _Option("test-function", "test_function", None,
            "use the explicit first-harmonic test profile", command="quotient"),
    _Option("coeffs", "coeffs_path", str, "file of trial-basis coefficients",
            command="quotient"),
)
_CONFIG_KEYS = {opt.flag: opt for opt in _OPTIONS if opt.flag != "config"}
# Where probe-conjecture's defaults differ from RunConfig's: the open case n = 4, modes 0..3.
_PROBE_DEFAULTS = {"n": 4, "k_max": 3}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_config_file(path: str) -> Dict[str, object]:
    """The option values of a config file, keyed by their ``_Option.field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise PreconditionError(f"cannot read config file: {exc}") from None
    values: Dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise PreconditionError(
                f"{path}:{lineno}: expected key=value, got {text!r}"
            )
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        opt = _CONFIG_KEYS.get(key)
        if opt is None:
            raise PreconditionError(f"{path}:{lineno}: unknown config key {key!r}")
        if opt.cast is None:
            if raw.lower() not in _TRUE_WORDS + _FALSE_WORDS:
                raise PreconditionError(
                    f"{path}:{lineno}: {key!r} expects a boolean, got {raw!r}"
                )
            values[opt.field] = raw.lower() in _TRUE_WORDS
            continue
        try:
            values[opt.field] = opt.cast(raw)
        except ValueError:
            raise PreconditionError(
                f"{path}:{lineno}: bad value for {key!r}: {raw!r}"
            ) from None
    return values


def _parse_basis(text: str) -> Tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise PreconditionError(f"--basis expects a comma list of integers, got {text!r}") from None
    if not sizes:
        raise PreconditionError("--basis list is empty")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknlab",
        description="Sharp constants, mode quotients and extremal families "
        "of second-order weighted uncertainty inequalities.",
    )
    common = argparse.ArgumentParser(add_help=False)  # built once, copied into each subcommand
    for opt in _OPTIONS:
        if opt.command is None:
            opt.add_to(common)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        command_parser = sub.add_parser(command, parents=[common], help=help_text)
        for opt in _OPTIONS:
            if opt.command == command:
                opt.add_to(command_parser)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """A RunConfig from the flags, then the config file, then the defaults:
    RunConfig's and InequalityParams', or ``_PROBE_DEFAULTS`` first for
    probe-conjecture."""
    flags = dict(vars(args))
    command = flags.pop("command")
    config_path = flags.pop("config") or os.environ.get(ENV_CONFIG)
    values = dict(_PROBE_DEFAULTS) if command == "probe-conjecture" else {}
    if config_path:
        values.update(_parse_config_file(config_path))
    values.update((name, value) for name, value in flags.items() if value is not None)
    given = {name: values.pop(name) for name in ("n", "alpha", "beta") if name in values}
    params = InequalityParams(**given) if "n" in given else None
    if "basis_sizes" in values:
        values["basis_sizes"] = _parse_basis(values["basis_sizes"])
    if "rel_tol" in values:
        from .quadrature import QuadratureSpec

        values["quadrature"] = QuadratureSpec(rel_tol=values.pop("rel_tol"))
    return RunConfig(command=command, params=params, **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        document = _COMMANDS[config.command][0](config)
        text = render(document, config.output_format)
        if config.output_path:
            write_atomic(config.output_path, text)
        else:
            sys.stdout.write(text)
        return document.exit_code
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NonConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ConsistencyError as exc:
        print(f"error: consistency check failed: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except CknLabError as exc:
        # Remaining library errors (e.g. range overflow) are argument-level.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
