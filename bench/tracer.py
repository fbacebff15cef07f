"""Spans around the public functions of each cknlab layer, for the traced run.

Each function below is wrapped at every module binding through which
callers reach it (``integrate``, for one, is bound in ``quadrature``,
``functionals``, ``variational`` and the package root), and the two
``ExpPoly`` methods on the class.  A span is (name, start, end, parent);
spans are kept in memory and written out when the traced run ends.  A
layer's self time is its spans' duration minus that of their child spans.
Counts are read from the wrapped functions' public return values.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _count_integrate(counts, result) -> None:
    counts["quadrature.integrate.nodes"] += result.nodes_used


def _count_gram(counts, gram) -> None:
    m = gram.m
    counts["variational.build_gram.entries"] += 3 * m * (m + 1) // 2
    counts["variational.build_gram.spot_checked_entries"] += gram.diagnostics.get(
        "spot_checked_entries", 0)


def _count_minimize(counts, result) -> None:
    counts["variational.minimize_quotient.iterations"] += result.iterations
    counts["variational.minimize_quotient.converged"] += bool(result.converged)


# (span name, module, attribute or Class.method, counter of the return value)
LAYERS = (
    ("constants.mode_infimum", "cknlab.constants", "mode_infimum", None),
    ("special.weighted_exp_integral", "cknlab.special", "weighted_exp_integral", None),
    ("exppoly.ExpPoly.moment", "cknlab.exppoly", "ExpPoly.moment", None),
    ("exppoly.ExpPoly.mul", "cknlab.exppoly", "ExpPoly.__mul__", None),
    ("quadrature.integrate", "cknlab.quadrature", "integrate", _count_integrate),
    ("functionals.mode_energies", "cknlab.functionals", "mode_energies", None),
    ("variational.build_gram", "cknlab.variational", "build_gram", _count_gram),
    ("variational.minimize_quotient", "cknlab.variational", "minimize_quotient",
     _count_minimize),
    ("variational.estimate_mode_constant", "cknlab.variational", "estimate_mode_constant",
     None),
    ("variational.symmetry_breaking_scan", "cknlab.variational", "symmetry_breaking_scan",
     None),
)

SPOT_CHECK_PARENT = "variational.build_gram"
SPOT_CHECK_CHILD = "quadrature.integrate"


class Tracer:
    """Records spans of one traced pass while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a root span (the benchmark's own operations)."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "cknlab" or key.startswith("cknlab.")]
        for name, module, attr, count in LAYERS:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:  # a method: patch the class
                owner = getattr(sys.modules[module], owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original, count))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> Dict[str, float]:
        """Calls, self time and counts per layer for the recorded spans."""
        child = [0.0] * len(self.spans)
        under_gram = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under_gram[i] = (self.spans[parent][0] == SPOT_CHECK_PARENT
                                 or under_gram[parent])
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        spot_check_s = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == SPOT_CHECK_CHILD and under_gram[i]:
                spot_check_s += end - start
        out: Dict[str, float] = {}
        for name, *_ in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["variational.build_gram.spot_check_s"] = spot_check_s
        minimize_calls = calls["variational.minimize_quotient"]
        out["variational.minimize_quotient.converged_ratio"] = (
            out.pop("variational.minimize_quotient.converged", 0) / minimize_calls
            if minimize_calls else 0.0)
        return out

    def dump(self, handle, pass_index: int) -> None:
        """Append this pass's spans to an open JSON-lines file."""
        for name, start, end, parent in self.spans:
            handle.write(json.dumps([pass_index, name, start, end, parent]) + "\n")


def import_split(stderr: str) -> Dict[str, float]:
    """Seconds of ``import cknlab.cli`` from ``python -X importtime``: the
    whole import (top-level ``cknlab`` and ``cknlab.cli`` entries,
    cumulative) and the part of it spent in scipy's own modules."""
    scipy_us = cknlab_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        label = name.strip()
        if label == "scipy" or label.startswith("scipy."):
            scipy_us += int(self_us)
        top_level = not name[1:].startswith(" ")
        if top_level and (label == "cknlab" or label.startswith("cknlab.")):
            cknlab_us += int(cumulative_us)
    return {"cli.import.scipy_s": scipy_us / 1e6, "cli.import.cknlab_s": cknlab_us / 1e6}
