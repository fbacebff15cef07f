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
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

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
SUBCOMMANDS = (
    "constants",
    "mode-scan",
    "quotient",
    "minimize",
    "probe-conjecture",
    "selftest",
)

DEFAULT_SCAN_K_MAX = 10
PROBE_K_MAX = 3
QUOTIENT_AGREEMENT_RTOL = 1e-8

_ONE_DIM_FAMILIES = ("thm1.2-1a", "thm1.2-1b")


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: subcommand plus every knob it reads.

    ``quadrature`` of None means the default ``QuadratureSpec()``, built
    only by the commands that integrate (see ``_quadrature``).
    """

    command: str
    params: Optional[InequalityParams] = None
    quadrature: Optional[QuadratureSpec] = None
    basis_sizes: Tuple[int, ...] = DEFAULT_SCAN_SIZES
    k: int = 0
    k_max: int = DEFAULT_SCAN_K_MAX
    output_format: str = "json"
    output_path: Optional[str] = None
    formula: str = FORMULA_PLAIN
    family: Optional[str] = None
    test_function: bool = False
    coeffs_path: Optional[str] = None
    amplitude: float = 1.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.command not in SUBCOMMANDS:
            raise PreconditionError(f"unknown command {self.command!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise PreconditionError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )


@dataclass(frozen=True)
class SharpConstantReport:
    """One constant, by whichever routes produced a value.

    At least one of ``closed_form``, ``quadrature_value``,
    ``variational_estimate`` or ``bounds`` must be present.  When several
    value routes are present they are compared; disagreement beyond the
    declared tolerance sets ``diagnostics["discrepancy"]``.
    """

    closed_form: Optional[float] = None
    quadrature_value: Optional[float] = None
    variational_estimate: Optional[float] = None
    bounds: Optional[Dict[str, object]] = None
    diagnostics: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        present = (
            self.closed_form,
            self.quadrature_value,
            self.variational_estimate,
            self.bounds,
        )
        if all(v is None for v in present):
            raise ConsistencyError("report carries no value, estimate, or bounds")


@dataclass(frozen=True)
class Document:
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
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
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
    """Write a report so that the target never holds a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
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


# ----------------------------------------------------------------------
# Commands


def _params_dict(params: InequalityParams) -> Dict[str, object]:
    return {"n": params.n, "alpha": params.alpha, "beta": params.beta}


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
        "params": _params_dict(params) if params is not None else None,
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
        rows.append(
            (k, q.value, q.formula, k == inf.argmin_k, inf.tail_verified)
        )
    payload = {
        "command": "mode-scan",
        "params": _params_dict(params),
        "formula": config.formula,
        "k_max": config.k_max,
        "rows": [
            {
                "k": k,
                "value": value,
                "formula": formula,
                "argmin": argmin,
                "tail_verified": tail,
            }
            for k, value, formula, argmin, tail in rows
        ],
        "infimum": {
            "value": inf.value,
            "argmin_k": inf.argmin_k,
            "exact": str(inf.exact) if inf.exact is not None else None,
            "tail_verified": inf.tail_verified,
        },
    }
    return Document(
        payload=payload,
        table_header=("k", "value", "formula", "argmin", "tail_verified"),
        table_rows=tuple(rows),
        series=(tuple((float(k), value) for k, value, *_ in rows),),
    )


def _read_coefficients(path: str) -> Tuple[float, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read coefficient file: {exc}") from None
    try:
        values = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise PreconditionError(f"bad coefficient file {path!r}: {exc}") from None
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
        if config.family in _ONE_DIM_FAMILIES:
            if params.n != 1:
                raise PreconditionError(
                    f"family {config.family!r} is one-dimensional; pass --n 1"
                )
            value = one_dim_quotient(profile, params.alpha, spec)
            if config.family == "thm1.2-1a":
                closed = params.alpha**2 / 4.0
                provenance = {"closed_formula": "alpha^2 / 4"}
            else:
                closed = (3.0 * params.alpha + 2.0) ** 2 / 4.0
                provenance = {"closed_formula": "(3 alpha + 2)^2 / 4"}
        else:
            if params.n < 2:
                raise PreconditionError(
                    f"family {config.family!r} lives on modes; pass --n >= 2"
                )
            value = mode_quotient(profile, params, config.k, spec)
            if config.family == "thm1.2-2" and config.k == 0:
                closed = (params.n + 3.0 * params.alpha + 1.0) ** 2 / 4.0
                provenance = {"closed_formula": "(N + 3 alpha + 1)^2 / 4"}
        provenance["family"] = config.family
        diagnostics["k"] = config.k if config.family not in _ONE_DIM_FAMILIES else None
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
    }
    try:
        lower = mode_quotient_weighted(params.n, params.alpha, config.k)
        diagnostics["mode_lower_bound"] = lower.value
        diagnostics["mode_lower_bound_exact"] = (
            str(lower.exact) if lower.exact is not None else None
        )
    except (DomainError, UnsupportedRegimeError, ZeroDivisionError):
        diagnostics["mode_lower_bound"] = None
    if params.n == 4 and params.alpha == 0.0:
        diagnostics["flag"] = "conjecture-open"
    report = SharpConstantReport(
        variational_estimate=est.value,
        diagnostics=diagnostics,
        provenance={
            "estimate": "minimum of (A B)/C^2 over nested trial spaces",
            "trial_space": "r^gamma0 exp(-x) L_j^(a)(2x), x = r^q",
            "minimizer": "grid and golden-section search over t of "
                         "(lambda_1(t M_A + M_B/t; M_C)/2)^2",
        },
    )
    payload = {
        "command": "minimize",
        "params": _params_dict(params),
        "k": config.k,
        "report": report,
    }
    trace_rows = tuple(
        (size, value) for size, value in zip(est.basis_sizes, est.trace)
    )
    return Document(
        payload=payload,
        table_header=("basis_size", "value"),
        table_rows=trace_rows,
        series=(tuple((float(s), v) for s, v in trace_rows),),
    )


def cmd_probe_conjecture(config: RunConfig) -> Document:
    """Evidence-only probe of the open four-dimensional case."""
    from .functionals import test_function_quotient
    from .variational import symmetry_breaking_scan

    params = config.params if config.params is not None else InequalityParams(4, 0.0)
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
    rows = tuple(
        (
            row.k,
            row.raw_value,
            row.hardy_factor,
            row.effective_value,
            row.full_value,
            row.verdict_value,
        )
        for row in scan.rows
    )
    payload = {
        "command": "probe-conjecture",
        "banner": "numerical evidence only",
        "params": _params_dict(params),
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
        "rows": [
            {
                "k": row.k,
                "raw_value": row.raw_value,
                "hardy_factor": row.hardy_factor,
                "effective_value": row.effective_value,
                "full_value": row.full_value,
                "verdict_value": row.verdict_value,
                "full_converged": row.full_converged,
            }
            for row in scan.rows
        ],
    }
    series_full = tuple((float(r[0]), r[5]) for r in rows)
    series_eff = tuple((float(r[0]), r[3]) for r in rows if r[3] is not None)
    return Document(
        payload=payload,
        table_header=(
            "k",
            "raw_value",
            "hardy_factor",
            "effective_value",
            "full_value",
            "verdict_value",
        ),
        table_rows=rows,
        series=(series_full, series_eff),
    )


def cmd_selftest(config: RunConfig) -> Document:
    """Run the acceptance suite; one line per criterion."""
    from .acceptance import run_all

    results = run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    payload = {
        "command": "selftest",
        "passed": not failed,
        "results": [
            {
                "index": r.index,
                "description": r.description,
                "passed": r.passed,
                "seconds": r.seconds,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    rows = tuple(
        (r.index, r.passed, r.seconds, r.description) for r in results
    )
    return Document(
        payload=payload,
        table_header=("criterion", "passed", "seconds", "description"),
        table_rows=rows,
        series=(tuple((float(r.index), float(r.seconds)) for r in results),),
        exit_code=EXIT_OK if not failed else 1,
    )


_DISPATCH = {
    "constants": cmd_constants,
    "mode-scan": cmd_mode_scan,
    "quotient": cmd_quotient,
    "minimize": cmd_minimize,
    "probe-conjecture": cmd_probe_conjecture,
    "selftest": cmd_selftest,
}


# ----------------------------------------------------------------------
# Argument and config-file handling

_CONFIG_CASTS = {
    "n": int,
    "alpha": float,
    "beta": float,
    "k": int,
    "kmax": int,
    "basis": str,
    "a": float,
    "b": float,
    "format": str,
    "out": str,
    "rel-tol": float,
    "formula": str,
    "family": str,
    "coeffs": str,
    "test-function": None,  # parsed as a boolean below
}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_config_file(path: str) -> Dict[str, object]:
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
        if key not in _CONFIG_CASTS:
            raise PreconditionError(f"{path}:{lineno}: unknown config key {key!r}")
        cast = _CONFIG_CASTS[key]
        if cast is None:
            low = raw.lower()
            if low in _TRUE_WORDS:
                values[key] = True
            elif low in _FALSE_WORDS:
                values[key] = False
            else:
                raise PreconditionError(
                    f"{path}:{lineno}: {key!r} expects a boolean, got {raw!r}"
                )
            continue
        try:
            values[key] = cast(raw)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="dimension N")
    common.add_argument("--alpha", type=float, help="weight exponent alpha")
    common.add_argument("--beta", type=float, help="second weight exponent")
    common.add_argument("--k", type=int, help="mode index")
    common.add_argument("--kmax", type=int, help="largest mode index scanned")
    common.add_argument("--basis", type=str, help="comma list of basis sizes")
    common.add_argument("--a", type=float, help="family amplitude")
    common.add_argument("--b", type=float, help="family rate")
    common.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
    common.add_argument("--out", type=str, help="output path (atomic write)")
    common.add_argument("--config", type=str, help="key=value config file")
    common.add_argument("--rel-tol", type=float, dest="rel_tol",
                        help="quadrature relative tolerance")

    parser = argparse.ArgumentParser(
        prog="cknlab",
        description="Sharp constants, mode quotients and extremal families "
        "of second-order weighted uncertainty inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("constants", parents=[common],
                   help="closed-form constants, bounds, references")
    scan = sub.add_parser("mode-scan", parents=[common],
                          help="closed-form per-mode table")
    scan.add_argument("--formula", choices=(FORMULA_PLAIN, FORMULA_WEIGHTED),
                      help="which per-mode formula to scan")
    quot = sub.add_parser("quotient", parents=[common],
                          help="quotient of one profile")
    quot.add_argument("--family", choices=FAMILY_IDS, help="extremal family id")
    quot.add_argument("--test-function", action="store_true", default=None,
                      dest="test_function",
                      help="use the explicit first-harmonic test profile")
    quot.add_argument("--coeffs", type=str, dest="coeffs",
                      help="file of trial-basis coefficients")
    sub.add_parser("minimize", parents=[common],
                   help="variational estimate over nested trial spaces")
    sub.add_parser("probe-conjecture", parents=[common],
                   help="evidence-only probe of the open n=4 case")
    sub.add_parser("selftest", parents=[common],
                   help="run the acceptance suite")
    return parser


def _merge(args: argparse.Namespace, file_cfg: Dict[str, object]):
    def pick(flag_name: str, file_key: str, default):
        value = getattr(args, flag_name, None)
        if value is not None:
            return value
        if file_key in file_cfg:
            return file_cfg[file_key]
        return default

    return pick


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags, config file, and per-command defaults into a RunConfig."""
    config_path = args.config or os.environ.get(ENV_CONFIG)
    file_cfg = _parse_config_file(config_path) if config_path else {}
    pick = _merge(args, file_cfg)

    command = args.command
    n = pick("n", "n", 4 if command == "probe-conjecture" else None)
    alpha = pick("alpha", "alpha", 0.0)
    beta = pick("beta", "beta", None)
    params = InequalityParams(n, float(alpha), beta) if n is not None else None

    basis = pick("basis", "basis", None)
    if isinstance(basis, str):
        basis_sizes = _parse_basis(basis)
    elif basis is None:
        basis_sizes = DEFAULT_SCAN_SIZES
    else:
        basis_sizes = tuple(basis)

    rel_tol = pick("rel_tol", "rel-tol", None)
    quadrature = None
    if rel_tol is not None:
        from .quadrature import QuadratureSpec

        quadrature = QuadratureSpec(rel_tol=rel_tol)

    default_k_max = PROBE_K_MAX if command == "probe-conjecture" else DEFAULT_SCAN_K_MAX
    return RunConfig(
        command=command,
        params=params,
        quadrature=quadrature,
        basis_sizes=basis_sizes,
        k=pick("k", "k", 0),
        k_max=pick("kmax", "kmax", default_k_max),
        output_format=pick("format", "format", "json"),
        output_path=pick("out", "out", None),
        formula=pick("formula", "formula", FORMULA_PLAIN),
        family=pick("family", "family", None),
        test_function=bool(pick("test_function", "test-function", False)),
        coeffs_path=pick("coeffs", "coeffs", None),
        amplitude=pick("a", "a", 1.0),
        rate=pick("b", "b", 1.0),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        document = _DISPATCH[config.command](config)
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
