"""Every exported name resolves, so a deleted function cannot stay listed,
and so does every binding the benchmark's per-layer trace
(``bench/tracer.py``) wraps or reads, so its counts cannot silently drop
to zero."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import cknlab
from cknlab.constants import InequalityParams
from cknlab.quadrature import QuadratureResult, integrate
from cknlab.variational import build_gram, make_basis, minimize_quotient

MODULES = sorted(info.name for info in pkgutil.iter_modules(cknlab.__path__)
                 if not info.name.startswith("_"))


def _traced_layers():
    """(module, attribute or Class.method) of each layer the trace wraps,
    read from its own table."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr, _ in tracer.LAYERS]


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = cknlab if module is None else importlib.import_module(f"cknlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module, attr", _traced_layers())
def test_traced_layers_resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_integrate_is_bound_where_the_checks_call_it():
    # The trace wraps a function at every module binding of the same object.
    for module in ("cknlab.functionals", "cknlab.variational"):
        assert importlib.import_module(module).integrate is integrate


def test_traced_counts_are_fields_of_the_results():
    assert "nodes_used" in QuadratureResult._fields
    params = InequalityParams(5, 0.0)
    gram = build_gram(params, 1, make_basis(params, 1, 3))
    assert gram.m == 3
    result = minimize_quotient(gram)
    assert result.iterations > 0 and isinstance(result.converged, bool)
