"""The exact CLI commands reproduce their golden corpus byte for byte, and
the numeric ones theirs to a stated tolerance."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

RECORDS = json.loads(golden.CORPUS.read_text(encoding="utf-8"))
NUMERIC_RECORDS = json.loads(golden.NUMERIC_CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert [(r["argv"], r["files"]) for r in RECORDS] == [
        (list(argv), files) for argv, files in golden.CASES]


def _record_id(record):
    """The argv, with each power of ten past 1e20 written as 1eX."""
    return " ".join(f"1e{len(a) - 1}" if len(a) > 21 and a.rstrip("0") == "1" else a
                    for a in record["argv"])


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_exact_command_matches_its_record(record):
    assert golden.run(record["argv"], record["files"]) == record


def test_numeric_corpus_holds_every_case():
    assert [(r["argv"], r["files"]) for r in NUMERIC_RECORDS] == [
        (list(argv), files) for argv, files in golden.NUMERIC_CASES]


def _mismatches(got, want, path="$"):
    """Where ``got`` differs from ``want``: a float by more than the
    corpus tolerance, any other value at all (a bool or an int is never
    a float here)."""
    if type(got) is float and type(want) is float:
        close = math.isclose(got, want, rel_tol=golden.NUMERIC_REL_TOL,
                             abs_tol=golden.NUMERIC_ABS_TOL)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]


def test_tolerance_compares_floats_only():
    doc = {"a": [1.0, 2, "x"], "b": True}
    assert _mismatches({"a": [1.0 + 1e-12, 2, "x"], "b": True}, doc) == []
    assert _mismatches({"a": [1.0 + 1e-9, 2, "x"], "b": True}, doc) == ["$.a[0]: 1.000000001 != 1.0"]
    assert _mismatches({"a": [1.0, 2.0, "x"], "b": True}, doc) == ["$.a[1]: 2.0 != 2"]
    assert _mismatches({"a": [1.0, 2, "y"], "b": 1}, doc) == ["$.a[2]: 'y' != 'x'", "$.b: 1 != True"]
    assert _mismatches({"a": [1e-16], "b": 3e-15}, {"a": [0.0], "b": 1e-15}) == []


@pytest.mark.parametrize("record", NUMERIC_RECORDS, ids=_record_id)
def test_numeric_command_matches_its_record(record):
    assert _mismatches(golden.run_numeric(record["argv"], record["files"]), record) == []
