"""In-memory span tracing around the public functions of each layer.

The benchmark measures the program from outside: :func:`install_layer_spans`
replaces a fixed set of functions and methods of :mod:`repro` with thin
wrappers for the lifetime of a ``with`` block and restores the originals on
exit.  Nothing under ``src/`` knows about it.

A span records its name, start, end, its parent span and the run id; spans
stay in memory and :meth:`Tracer.write` dumps them when the run ends.  A
span's *self* time is its duration minus the part covered by its child
spans; a layer's self time is the sum over its spans (the layer is the name
up to the first dot: ``models.alc`` belongs to ``models``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers measured from outside, in report order.
LAYERS = ("spapt", "machine", "measurement", "models", "core", "experiments")


class Tracer:
    """Spans of one run, kept in memory until :meth:`write`.

    Only calls made on the thread that created the tracer are recorded (the
    runner's claim heartbeat thread never enters a traced layer, but a span
    stack shared across threads would be wrong if it did).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # One [name, start, end, parent-index] list per span, in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        # Percentiles only count spans that start in the timed window (the
        # self times cover set-up too).
        self.window_start = float("-inf")
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        function: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``function`` timed as span ``name``; ``after(args, result)`` runs
        once the span has closed, so its bookkeeping is not timed."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, and the durations
        of the spans that started in the timed window."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: Dict[str, dict] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[index]
            if start >= self.window_start:
                entry["durations"].append(duration)
        return table

    def write(self, path) -> None:
        """Dump every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


@contextlib.contextmanager
def patched(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``target.attribute`` for the duration of the block."""
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)


def _wrap_each(
    stack: contextlib.ExitStack,
    tracer: Tracer,
    targets: List[Tuple[Any, str, str, Optional[Callable]]],
) -> None:
    for target, attribute, name, after in targets:
        original = getattr(target, attribute)
        stack.enter_context(
            patched(target, attribute, tracer.wrap(name, original, after))
        )


def install_layer_spans(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Wrap the public entry points of every layer for the stack's lifetime.

    Module-level functions are patched in every module that imported them
    by name, so callers that hold the name see the wrapper too.  The
    property shares (revisitable rows, leaves per particle) come from the
    workloads, which measure them on every run.
    """
    from repro.core import evaluation, session
    from repro.core.candidates import CandidatePool
    from repro.core.session import TuningSession
    from repro.experiments import registry, runner
    from repro.experiments.runner import ExperimentRunner, _FileUnitContext
    from repro.experiments.table1 import Table1Spec
    from repro.machine.cost_model import MachineCostModel
    from repro.measurement.broker import ProfilerBroker
    from repro.measurement.profiler import Profiler
    from repro.models.dynamic_tree import DynamicTreeRegressor
    from repro.spapt.suite import SpaptBenchmark

    def count_rows(args, _result):
        tracer.count("models.alc.rows", len(args[1]))

    def count_runs(_args, result):
        tracer.count("measurement.runs", len(result))

    def count_checkpoint(args, _result):
        size = args[0]._checkpoint_path.stat().st_size
        tracer.count("experiments.checkpoint.bytes", size)

    _wrap_each(
        stack,
        tracer,
        [
            (MachineCostModel, "runtime_seconds", "machine.runtime_seconds", None),
            (SpaptBenchmark, "true_runtime", "spapt.true_runtime", None),
            (SpaptBenchmark, "noise_sensitivity", "spapt.noise_sensitivity", None),
            (SpaptBenchmark, "features", "spapt.features", None),
            (SpaptBenchmark, "features_many", "spapt.features", None),
            (Profiler, "measure", "measurement.measure", count_runs),
            (ProfilerBroker, "measure", "measurement.broker", None),
            (
                DynamicTreeRegressor,
                "expected_average_variance",
                "models.alc",
                count_rows,
            ),
            (DynamicTreeRegressor, "update", "models.update", None),
            (DynamicTreeRegressor, "predict", "models.predict", None),
            (DynamicTreeRegressor, "fit", "models.fit", None),
            (TuningSession, "ask", "core.ask", None),
            (TuningSession, "tell", "core.tell", None),
            (CandidatePool, "draw", "core.pool_draw", None),
            (ExperimentRunner, "run", "experiments.runner", None),
            (ExperimentRunner, "_fold_artifact", "experiments.fold", None),
            (runner, "_execute_unit", "experiments.runner", None),
            (Table1Spec, "execute_unit", "experiments.unit", None),
            (
                _FileUnitContext,
                "save_checkpoint",
                "experiments.checkpoint",
                count_checkpoint,
            ),
            (evaluation, "build_test_set", "core.test_set", None),
            (registry, "build_test_set", "core.test_set", None),
            (evaluation, "evaluate_rmse", "core.evaluate", None),
            (session, "evaluate_rmse", "core.evaluate", None),
        ],
    )


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def layer_metrics(tracer: Tracer, models: List[Any]) -> Dict[str, float]:
    """The per-layer metrics the traced run reports (see README.md);
    ``models`` are the dynamic trees the traced pass fitted, whose
    ``phase_timings`` split the update time."""
    table = tracer.summary()

    def entry(name: str) -> dict:
        return table.get(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )

    counters = tracer.counters
    metrics: Dict[str, float] = {
        "models.alc.self_s": entry("models.alc")["self_s"],
        "models.alc.calls": entry("models.alc")["calls"],
        "models.alc.rows": counters.get("models.alc.rows", 0),
        "models.update.self_s": entry("models.update")["self_s"],
        "models.update.calls": entry("models.update")["calls"],
        "models.predict.self_s": entry("models.predict")["self_s"],
        "models.fit.self_s": entry("models.fit")["self_s"],
        "core.ask_s.p50": quantile(entry("core.ask")["durations"], 0.5),
        "core.ask_s.p90": quantile(entry("core.ask")["durations"], 0.9),
        "core.tell_s.p50": quantile(entry("core.tell")["durations"], 0.5),
        "core.tell_s.p90": quantile(entry("core.tell")["durations"], 0.9),
        "core.ask.self_s": entry("core.ask")["self_s"],
        "core.pool_draw.self_s": entry("core.pool_draw")["self_s"],
        "core.test_set.self_s": entry("core.test_set")["self_s"],
        "core.evaluate.self_s": entry("core.evaluate")["self_s"],
        "measurement.measure.calls": entry("measurement.measure")["calls"],
        "measurement.measure.self_s": (
            entry("measurement.measure")["self_s"]
            + entry("measurement.broker")["self_s"]
        ),
        "measurement.runs": counters.get("measurement.runs", 0),
        "spapt.true_runtime.calls": entry("spapt.true_runtime")["calls"],
        "spapt.true_runtime.self_s": entry("spapt.true_runtime")["self_s"],
        "spapt.noise_sensitivity.self_s": entry("spapt.noise_sensitivity")["self_s"],
        "spapt.features.self_s": entry("spapt.features")["self_s"],
        "machine.runtime_seconds.self_s": entry("machine.runtime_seconds")["self_s"],
        "experiments.checkpoint_s.p50": quantile(
            entry("experiments.checkpoint")["durations"], 0.5
        ),
        "experiments.checkpoint.bytes": counters.get(
            "experiments.checkpoint.bytes", 0
        ),
        "experiments.checkpoint.count": entry("experiments.checkpoint")["calls"],
        "experiments.unit_s.p50": quantile(
            entry("experiments.unit")["durations"], 0.5
        ),
        "experiments.runner.self_s": entry("experiments.runner")["self_s"],
        "experiments.fold_s": entry("experiments.fold")["total_s"],
        "trace.spans": len(tracer.spans),
    }
    for phase in ("reweight", "resample", "propagate-score", "propagate-apply"):
        metrics[f"models.update.{phase.replace('-', '_')}_s"] = sum(
            model.phase_timings.get(phase, 0.0) for model in models
        )
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            row["self_s"]
            for name, row in table.items()
            if name.split(".", 1)[0] == layer
        )
    return metrics
