"""The harness itself: BENCHMARK.json matches what run.py prints, the
tracer wraps every binding of a layer function, nests spans and restores
the program afterwards, program processes report their own peak memory,
and times are scaled by the reference speed around them.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402

import cknlab  # noqa: E402
import cknlab.functionals  # noqa: E402
import cknlab.quadrature  # noqa: E402


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_it():
    original = cknlab.quadrature.integrate
    profile = cknlab.functionals.exponential_profile(1.0)
    params = cknlab.InequalityParams(5, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cknlab.functionals.integrate is not original
        assert cknlab.integrate is cknlab.quadrature.integrate is cknlab.functionals.integrate
        tracer.run("op.test", cknlab.mode_quotient, profile, params, 1)
    finally:
        tracer.uninstall()
    assert cknlab.functionals.integrate is original
    assert cknlab.ExpPoly.__mul__.__name__ == "__mul__"
    metrics = tracer.layer_metrics()
    assert metrics["functionals.mode_energies.calls"] == 1
    assert metrics["quadrature.integrate.calls"] >= 3
    assert metrics["quadrature.integrate.nodes"] > 0
    assert metrics["exppoly.ExpPoly.moment.calls"] >= 3
    root = tracer.spans[0]
    assert root[0] == "op.test" and root[3] == -1
    energies = [s for s in tracer.spans if s[0] == "functionals.mode_energies"][0]
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < total <= root[2] - root[1]
    assert all(s[3] == tracer.spans.index(energies)
               for s in tracer.spans if s[0] == "quadrature.integrate")


def test_import_split_reads_importtime_output():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |       2500 |     scipy",
        "import time:       500 |        500 |       scipy.linalg",
        "import time:       300 |       3500 | cknlab",
        "import time:       700 |        700 | cknlab.cli",
    ])
    assert tracing.import_split(stderr) == {"cli.import.scipy_s": 0.0025,
                                            "cli.import.cknlab_s": 0.0042}


def test_spawned_process_reports_its_own_peak_memory(tmp_path):
    ballast = b"x" * (128 << 20)  # written, so it raises this process's RSS
    argv = [sys.executable, "-c", "pass"]
    proc = subprocess.Popen(argv)
    _, _, usage = os.wait4(proc.pid, 0)
    proc.returncode = 0
    # Started from here, the child reports at least this process's peak ...
    assert usage.ru_maxrss >= len(ballast) // 1024
    with run.spawn.Spawner(tmp_path) as spawner:
        seconds, code, out, err, maxrss_kib = spawner.run(argv, tmp_path, dict(os.environ), 60)
    # ... but through the spawner it reports its own.
    assert code == 0 and out == b"" and seconds > 0
    assert 0 < maxrss_kib < 64 << 10
    del ballast


def test_times_are_scaled_by_the_reference_around_them():
    speed = run.Speed()
    speed._starts = [0.0, 10.0, 12.0]
    speed._seconds = [2 * run.REFERENCE_S, 2 * run.REFERENCE_S, run.REFERENCE_S]
    # Marks at 0 and 10 s bracket an operation from 0.1 to 9.9 s: the
    # machine ran at half the reference speed, so 9.8 s count as 4.9.
    assert speed.scaled(0.1, 9.8) == pytest.approx(4.9)
    # From 10.2 to 11.2 s only the marks at 10 and 12 s count.
    assert speed.scaled(10.2, 1.0) == pytest.approx(1.0 / 1.5)
    speed.mark()
    assert len(speed.reference_s()) == 4 and speed.reference_s()[-1] > 0
