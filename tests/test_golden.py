"""The exact CLI commands reproduce their golden corpus byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

RECORDS = json.loads(golden.CORPUS.read_text(encoding="utf-8"))


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
