"""Benchmark of cknlab: one workload, one seed, one result line.

    python3 bench/run.py --workload closed-forms|probe \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
run from ``src`` of that checkout (``python -m cknlab.cli`` with ``src``
on PYTHONPATH, and in-process library calls).  A single client runs one
``cknlab`` process or library call at a time (closed loop, CLI defaults,
nothing concurrent); its processes are started through ``spawn.py``, so
that each reports its own peak memory.  Whole rounds of the workload run
while the next one is expected to end within --seconds of the start,
set-up included, with at least two rounds so that every invocation is
repeated and its output compared byte for byte.  Everything runs on one
core, and every time is reported at a reference speed measured on that
core between the operations (see ``Speed``).

--trace 0 prints the end-to-end metrics.  --trace 1 replays the same
inputs in-process, once plain and once with spans around each layer's
public functions, and prints the per-layer metrics and the tracing
overhead; the spans are written to bench/out/.  The last line of
standard output is the JSON result; a readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spawn  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
OP_TIMEOUT_S = 150.0
# One BLAS thread: the single client then occupies one of the two cores.
# OpenBLAS's default second thread spins on these small matrices, doubling
# CPU time without shortening wall time, and turns any disturbance of the
# other core into a stall (see README, "Environment").
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# Reported times are at the speed at which one pass of ``Speed.mark`` takes
# REFERENCE_S, its median on the machine of the README's figures.
REFERENCE_S = 0.0082

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cli_query_p50_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "probe_s": "s",
    "estimate_p50_s": "s",
}

PER_LAYER = {
    "cli.import.scipy_s": "s",
    "cli.import.cknlab_s": "s",
    **{f"{name}.{kind}": unit
       for name, *_ in tracing.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "quadrature.integrate.nodes": "count",
    "variational.build_gram.entries": "count",
    "variational.build_gram.spot_checked_entries": "count",
    "variational.build_gram.spot_check_s": "s",
    "variational.minimize_quotient.iterations": "count",
    "variational.minimize_quotient.converged_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed, and whether every output passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)

    def judge(self, what: str, check, value) -> None:
        try:
            check(value)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.correct = False
            print(f"WRONG {what}: {exc!r}", file=sys.stderr)


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **PROGRAM_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(spawner: spawn.Spawner, args: List[str]):
    """Run ``python <args>`` in the checkout; (seconds, exit code, stdout,
    stderr, max RSS in KiB)."""
    return spawner.run([sys.executable, *args], ROOT, child_env(), OP_TIMEOUT_S)


def run_rounds(deadline: float, min_rounds: int, body) -> None:
    """Run ``body(round)`` while the next round, as long as the mean round
    so far, would end by ``deadline`` (a ``perf_counter`` time)."""
    walls, r = [], 0
    while True:
        t0 = time.perf_counter()
        body(r)
        walls.append(time.perf_counter() - t0)
        r += 1
        if r >= min_rounds and time.perf_counter() + statistics.mean(walls) > deadline:
            return


def interleave(plan: workloads.Plan, r: int):
    """Round ``r`` as (CLI op, library chunk) pairs: the library queries
    are spread in order between the CLI invocations, so that both kinds
    sample the machine over the whole run."""
    lib = plan.library_round(r) if plan.library_round is not None else []
    n = len(plan.cli_ops)
    return [(op, lib[i * len(lib) // n:(i + 1) * len(lib) // n])
            for i, op in enumerate(plan.cli_ops)]


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def library_op(tally: Tally, op) -> float:
    """Time one library query, then check its value; returns the seconds."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # noqa: BLE001 - a failed query is counted, the run goes on
        tally.fail(op.label, repr(exc))
        return time.perf_counter() - start
    seconds = time.perf_counter() - start
    tally.judge(op.label, op.check, value)
    return seconds


class Speed:
    """The machine's speed around each operation, from a fixed reference
    computation timed between operations (README, "Reference speed").

    The cores of the shared host this benchmark was tuned on ran 10-40 %
    slower or faster from one stretch of seconds to the next, so a time
    taken as it comes measures the neighbours as much as the program.  A
    time is reported at the reference speed instead: multiplied by
    ``REFERENCE_S`` over the mean of the reference's times taken right
    before and right after the operation.  The reference is harness code,
    so no change to the program moves it.
    """

    def __init__(self) -> None:
        import numpy  # here, not at the top: after main() has set PROGRAM_ENV

        self._np = numpy
        self._a = numpy.random.default_rng(0).random((40, 40)) + 40 * numpy.eye(40)
        self._starts: List[float] = []
        self._seconds: List[float] = []

    def mark(self) -> None:
        """Time one pass of the reference now: small dense linear algebra,
        like the program's Gram matrices and minimiser."""
        np, a = self._np, self._a
        start = time.perf_counter()
        for _ in range(50):
            np.linalg.cholesky(a @ a.T)
            np.linalg.eigvalsh(a + a.T)
        self._seconds.append(time.perf_counter() - start)
        self._starts.append(start)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed; a
        mark must have been taken before ``start`` and another after it."""
        i = bisect.bisect_right(self._starts, start)
        return seconds * REFERENCE_S * 2 / (self._seconds[i - 1] + self._seconds[i])

    def reference_s(self) -> List[float]:
        return list(self._seconds)


def timed_run(plan: workloads.Plan, seconds: float, tally: Tally,
              spawner: spawn.Spawner) -> Dict[str, float]:
    """Every time is taken as (start, seconds) and scaled once the run ends."""
    deadline = time.perf_counter() + seconds
    speed = Speed()
    setup = []
    for _ in range(SETUP_REPEATS):
        speed.mark()
        start = time.perf_counter()
        dt, code, _, err, _ = run_process(spawner, ["-c", "import cknlab.cli"])
        if code != 0:
            raise SystemExit(f"import cknlab.cli failed:\n{err}")
        setup.append((start, dt))

    cli_s: List[Tuple[float, float]] = []
    role_s: Dict[str, List[Tuple[float, float]]] = {workloads.OPEN_CASE: [],
                                                    workloads.ESTIMATE: []}
    lib_s: List[Tuple[float, float]] = []
    walls: List[List[Tuple[float, float]]] = []
    first_out: Dict[int, bytes] = {}
    peak_kib = 0

    def one_round(r: int) -> None:
        nonlocal peak_kib
        wall: List[Tuple[float, float]] = []
        for i, (op, chunk) in enumerate(interleave(plan, r)):
            speed.mark()
            for lib_op in chunk:
                start = time.perf_counter()
                lib_s.append((start, library_op(tally, lib_op)))
                wall.append(lib_s[-1])
            speed.mark()
            what = op.label
            tally.attempted += 1
            start = time.perf_counter()
            dt, code, out, err, rss = run_process(spawner, ["-m", "cknlab.cli", *op.argv])
            wall.append((start, dt))
            if code != 0:
                tally.fail(what, f"exit {code}: {err.strip()[-400:]}")
                continue
            cli_s.append((start, dt))
            for role in op.roles:
                role_s[role].append((start, dt))
            peak_kib = max(peak_kib, rss)
            tally.judge(what, lambda o: op.check(json.loads(o)), out)
            tally.judge(what, lambda o: checks.same_bytes(first_out.setdefault(i, o), o, what), out)
        walls.append(wall)

    run_rounds(deadline, 2, one_round)
    speed.mark()

    def at_speed(times: List[Tuple[float, float]]) -> List[float]:
        return [speed.scaled(start, dt) for start, dt in times]

    queries = at_speed(lib_s or cli_s)
    ref = speed.reference_s()
    print(f"reference: median {statistics.median(ref):.6f} s over {len(ref)} passes "
          f"({min(ref):.6f}-{max(ref):.6f}); raw medians: setup "
          f"{statistics.median(dt for _, dt in setup):.6g} s, CLI query "
          f"{statistics.median(dt for _, dt in cli_s):.6g} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(at_speed(setup)),
        "wall_s": statistics.median(sum(at_speed(w)) for w in walls),
        "peak_rss_mb": peak_kib / 1024.0,
        "cli_query_p50_s": statistics.median(at_speed(cli_s)),
        "query_p50_s": statistics.median(queries),
        "query_p90_s": p90(queries),
        "probe_s": statistics.median(at_speed(role_s[workloads.OPEN_CASE])),
        "estimate_p50_s": statistics.median(at_speed(role_s[workloads.ESTIMATE])),
    }


def traced_run(plan: workloads.Plan, seconds: float, tally: Tally, spawner: spawn.Spawner,
               trace_path: Path):
    import cknlab.cli

    deadline = time.perf_counter() + seconds
    splits = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err, _ = run_process(
            spawner, ["-X", "importtime", "-c", "import cknlab.cli"])
        if code != 0:
            raise SystemExit(f"import cknlab.cli failed:\n{err}")
        splits.append(tracing.import_split(err))

    def replay(round_ops, tracer) -> tuple:
        """One pass over the round's inputs, in-process; (seconds, outputs)."""
        outputs = []
        start = time.perf_counter()
        for op, chunk in round_ops:
            for lib_op in chunk:
                if tracer:
                    tracer.run("op." + lib_op.label.split()[0], library_op, tally, lib_op)
                else:
                    library_op(tally, lib_op)
            what = op.label
            tally.attempted += 1
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = (tracer.run(f"op.{op.argv[0]}", cknlab.cli.main, list(op.argv))
                            if tracer else cknlab.cli.main(list(op.argv)))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                code = repr(exc)
            outputs.append(buf.getvalue().encode())
            if code != 0:
                tally.fail(what, f"exit {code}")
                continue
            tally.judge(what, lambda o: op.check(json.loads(o)), outputs[-1])
        return time.perf_counter() - start, outputs

    passes: List[Dict[str, float]] = []
    overheads: List[float] = []
    with open(trace_path, "w") as handle:
        def one_round(r: int) -> None:
            round_ops = interleave(plan, r)
            plain_s, plain_out = replay(round_ops, None)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, traced_out = replay(round_ops, tracer)
            finally:
                tracer.uninstall()
            for op, a, b in zip(plan.cli_ops, plain_out, traced_out):
                what = op.label
                tally.judge(what, lambda o: checks.same_bytes(a, o, what), b)
            metrics = tracer.layer_metrics()
            metrics["trace.wall_s"] = traced_s
            passes.append(metrics)
            overheads.append(traced_s / plain_s - 1.0)
            tracer.dump(handle, r)

        run_rounds(deadline, 1, one_round)

    result = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    for key in PER_LAYER:
        if key not in result:
            result[key] = statistics.median(p.get(key, 0) for p in passes)
    result["trace.overhead_ratio"] = statistics.median(overheads)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cknlab" / "cli.py").is_file():
        print(f"error: no cknlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One core for the harness, the spawn server and every program process,
    # so that the reference of Speed runs on the program's core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update(PROGRAM_ENV)  # before numpy loads, for in-process calls
    sys.path.insert(0, str(SRC))
    import cknlab

    if Path(cknlab.__file__).resolve().parent != SRC / "cknlab":
        print(f"error: cknlab imported from {cknlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    plan = workloads.build(args.workload, args.seed, str(workdir.relative_to(ROOT)))
    for path, text in plan.files:
        (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
        (ROOT / path).write_text(text)

    tally = Tally()
    with spawn.Spawner(workdir) as spawner:
        if args.trace:
            values = traced_run(plan, args.seconds, tally, spawner,
                                OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER
        else:
            values = timed_run(plan, args.seconds, tally, spawner)
            units = END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:>12} {name:<48} {values[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
