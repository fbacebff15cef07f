"""Acceptance gate: each criterion runs at its stated tolerance and
time budget, printing one pass/fail line (run pytest with -s or check
the captured output on failure)."""

import pytest

from cknlab.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "index,description",
    [(idx, desc) for idx, desc, *_ in CRITERIA],
    ids=[f"criterion_{idx:02d}" for idx, *_ in CRITERIA],
)
def test_acceptance_criterion(index, description):
    result = run_criterion(index)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {result.index:2d} {status} ({result.seconds:7.3f}s) "
        f"{result.description}: {result.detail}"
    )
    assert result.passed, f"criterion {index} ({description}): {result.detail}"


def test_criterion_1_is_timed_as_its_fastest_of_five_runs(monkeypatch):
    # A slow first run (a loaded machine) does not fail the 1 ms budget;
    # every run is a full check, and a failing run fails the criterion.
    import time

    import cknlab.acceptance as acceptance

    runs = []

    def check():
        runs.append(time.perf_counter())
        if len(runs) == 1:
            time.sleep(0.005)
        return len(runs) != 7, f"run {len(runs)}"

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "one", 0.001, check),))
    result = acceptance.run_criterion(1)
    assert len(runs) == 5 and result.passed and result.seconds < 0.001
    result = acceptance.run_criterion(1)
    assert len(runs) == 7 and not result.passed and result.detail == "run 7"
