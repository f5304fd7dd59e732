"""The benchmark's workloads: paper-scale learner loops and a Table 1 grid.

``paper-variable`` and ``paper-fixed35`` drive one paper-scale
:class:`~repro.core.session.TuningSession` on ``mm`` through the
benchmark's own ask -> ``ProfilerBroker.measure`` -> tell loop, seeded like
:func:`repro.experiments.registry.execute_learner_run`, checkpointing the
way the sharded runner does.  ``laptop-table1`` runs the ``table1`` artifact
at laptop scale (one repetition) through the sharded
:class:`~repro.experiments.runner.ExperimentRunner` with one worker.

Every workload returns a :class:`Outcome`: end-to-end metrics, the output
checks, the trajectory digest, the property shares and, for a traced run,
the per-layer metrics.  See README.md for the reasons behind each workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import evaluation
from repro.core.candidates import CandidatePool
from repro.core.comparison import resolve_acquisition
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import make_plan, standard_plans
from repro.core.session import TuningSession
from repro.experiments import registry
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import WorkUnit
from repro.experiments.runner import (
    ExperimentRunner,
    PartialArtifactResult,
    _FileUnitContext,
)
from repro.experiments.table1 import Table1Spec
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.models.dynamic_tree import DynamicTreeRegressor
from repro.spapt.suite import get_benchmark

from spans import Tracer, install_layer_spans, layer_metrics, patched, quantile

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3

PAPER_PLANS = {
    "paper-variable": "variable-observations",
    "paper-fixed35": "all-observations",
}


@dataclass(frozen=True)
class PaperShape:
    """Sizes of a paper workload.

    ``budget`` is the example budget every run must complete: learning
    examples past seeding up to the first learning-curve point, which also
    triggers the first checkpoint.  The digest, ``final_rmse`` and
    ``checkpoint_mb`` are read at that fixed point, so they do not depend
    on how many more examples the timed window happens to fit.
    """

    learner: LearnerConfig
    test_size: int
    test_observations: int
    budget: int
    checkpoint_interval: int


def paper_shape(short: bool) -> PaperShape:
    if short:
        learner = LearnerConfig(
            n_initial=5,
            seed_observations=5,
            n_candidates=40,
            max_training_examples=500,
            reference_size=10,
            evaluation_interval=15,
            tree_particles=50,
        )
        return PaperShape(learner, 60, 3, budget=15, checkpoint_interval=15)
    return PaperShape(
        LearnerConfig.paper_scale(), 300, 5, budget=25, checkpoint_interval=25
    )


def laptop_scale(seed: int, short: bool) -> Tuple[ExperimentScale, int]:
    """The Table 1 scale and the runner's checkpoint interval."""
    scale = dataclasses.replace(ExperimentScale.laptop(), repetitions=1, seed=seed)
    if not short:
        return scale, 25
    learner = LearnerConfig(
        n_initial=3,
        seed_observations=5,
        n_candidates=15,
        max_training_examples=20,
        reference_size=8,
        evaluation_interval=4,
        tree_particles=8,
    )
    return dataclasses.replace(scale, learner=learner, test_size=40, test_observations=3), 8


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    checks: List[Tuple[str, bool, str]]
    digest: str
    properties: Dict[str, float]
    # Printed with every run but not bounded: final_rmse, speedup_geomean
    # and checkpoint_mb move with the seed by more than any bound allows.
    reported: Dict[str, float]
    attempted: int
    failed: int
    samples: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    learner: Optional[LearnerConfig] = None


def mean_leaves(model: Any) -> float:
    """Mean number of leaves per particle of a dynamic-tree model."""
    counts = model.leaf_counts()
    return sum(counts) / len(counts)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(parts: List[Any]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _curve_rows(curve, limit: Optional[int] = None) -> List[tuple]:
    return [
        (p.training_examples, p.cost_seconds, p.rmse, p.observations)
        for p in curve.points
        if limit is None or p.training_examples <= limit
    ]


def _constant_rmse(test_set, level: float) -> float:
    """RMSE of the constant predictor ``level`` on a held-out set."""
    errors = np.asarray(test_set.mean_runtimes, dtype=float) - level
    return float(np.sqrt(np.mean(errors * errors)))


def unit_context(
    run_dir: pathlib.Path, unit_id: str, checkpoint_interval: int
) -> _FileUnitContext:
    """The sharded runner's file-backed unit context, so a paper run
    checkpoints through the runner's own code: pickle at the highest
    protocol, atomic write, sha256 sidecar, claim renewal."""
    for sub in ("checkpoints", "claims"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    return _FileUnitContext(
        run_dir,
        WorkUnit(artifact="perfbench", key=(unit_id,)),
        checkpoint_interval=checkpoint_interval,
        lease_seconds=900.0,
    )


def checkpoint_size(context: _FileUnitContext) -> int:
    return context._checkpoint_path.stat().st_size


# ------------------------------------------------------------ paper workloads


class LedgerAudit:
    """The driver's own account of the results the broker returned.

    Sums compile charges and run charges separately, in the order they
    were told, so the total must equal the session ledger's.  It also
    keeps the training targets the learner was fed — a seed configuration's
    mean, then per example either the mean of its runs (plans that
    aggregate) or every run — for the constant training-mean predictor.
    """

    def __init__(self) -> None:
        self.compile_seconds = 0.0
        self.run_seconds = 0.0
        self.targets: List[float] = []

    def add(self, result, seeding: bool, aggregate_mean: bool) -> None:
        for seconds in result.compile_seconds:
            self.compile_seconds += seconds
        for runtime in result.runtimes:
            self.run_seconds += runtime
        if seeding or aggregate_mean:
            self.targets.append(float(np.mean(result.runtimes)))
        else:
            self.targets.extend(result.runtimes)

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.run_seconds

    @property
    def training_mean(self) -> float:
        return float(np.mean(self.targets))


@dataclass
class PaperRun:
    session: Any
    broker: ProfilerBroker
    audit: LedgerAudit
    trajectory: List[Any]
    space_size: int
    # Mean of the training targets when the example budget was reached.
    training_mean: Optional[float] = None


def paper_setup(workload: str, seed: int, shape: PaperShape) -> PaperRun:
    """Benchmark, held-out test set and seeding: everything before the window.

    Seeds exactly like ``execute_learner_run`` for repetition 0 with the
    plan's index in :func:`~repro.core.plans.standard_plans`.
    """
    plan = make_plan(PAPER_PLANS[workload])
    plan_index = [p.name for p in standard_plans()].index(plan.name)
    benchmark = get_benchmark("mm")
    test_set = evaluation.build_test_set(
        benchmark,
        size=shape.test_size,
        observations=shape.test_observations,
        rng=np.random.default_rng(seed),
    )
    learner = ActiveLearner(
        benchmark,
        plan=plan,
        acquisition=resolve_acquisition(None),
        config=shape.learner,
        rng=np.random.default_rng(seed + 1299709 * plan_index + 1),
    )
    session = learner.start_session(test_set)
    run = PaperRun(
        session=session,
        broker=ProfilerBroker(Profiler(benchmark, rng=session.rng)),
        audit=LedgerAudit(),
        trajectory=[],
        space_size=benchmark.search_space.size,
    )
    while session.phase == "seeding":
        request = session.ask()
        result = run.broker.measure(request)
        session.tell(result)
        run.audit.add(result, seeding=True, aggregate_mean=True)
        run.trajectory.append((request.configuration, result.runtimes))
    return run


@dataclass
class PaperWindow:
    leaves_start: float
    started: float = 0.0
    elapsed: float = 0.0
    examples: int = 0
    failed: int = 0
    revisitable_rows: int = 0
    candidate_rows: int = 0
    leaves_end: float = 0.0
    example_s: List[float] = field(default_factory=list)
    checkpoint_bytes: List[int] = field(default_factory=list)


def paper_window(
    run: PaperRun,
    shape: PaperShape,
    context: _FileUnitContext,
    seconds: Optional[float],
    examples: Optional[int] = None,
) -> PaperWindow:
    """Time learner examples until ``seconds`` have passed (and the example
    budget is done), or for exactly ``examples`` examples when given."""
    session = run.session
    space_size = run.space_size
    window = PaperWindow(leaves_start=mean_leaves(session.model))
    quality_point = session.n_seed + shape.budget
    start = window.started = time.perf_counter()
    deadline = start + (seconds or 0.0)
    while True:
        if examples is not None:
            if window.examples >= examples:
                break
        elif window.examples >= shape.budget and time.perf_counter() >= deadline:
            break
        pool = session.pool
        revisitable = len(pool.revisitable())
        fresh = min(shape.learner.n_candidates, space_size - len(pool.seen))
        began = time.perf_counter()
        try:
            request = session.ask()
            if request is None:
                break
            result = run.broker.measure(request)
            session.tell(result)
            if session.should_checkpoint(shape.checkpoint_interval):
                context.save_checkpoint(session)
                window.checkpoint_bytes.append(checkpoint_size(context))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            window.failed += 1
            break
        window.example_s.append(time.perf_counter() - began)
        window.examples += 1
        window.revisitable_rows += revisitable
        window.candidate_rows += fresh + revisitable
        run.audit.add(result, seeding=False, aggregate_mean=session.plan.aggregate_mean)
        if session.training_examples <= quality_point:
            run.trajectory.append((request.configuration, result.runtimes))
            if session.training_examples == quality_point:
                run.training_mean = run.audit.training_mean
    window.elapsed = time.perf_counter() - start
    window.leaves_end = mean_leaves(session.model)
    return window


def _paper_checks(
    run: PaperRun, window: PaperWindow, shape: PaperShape
) -> Tuple[List[Tuple[str, bool, str]], float, float]:
    session = run.session
    quality_point = session.n_seed + shape.budget
    checks = []
    checks.append(
        (
            "example budget completed",
            window.examples >= shape.budget and window.failed == 0,
            f"{window.examples} examples in the window, budget {shape.budget}",
        )
    )
    rmses = [point.rmse for point in session.curve.points]
    checks.append(
        (
            "curve RMSE finite",
            all(math.isfinite(value) for value in rmses),
            f"{len(rmses)} curve points",
        )
    )
    at_budget = [
        p for p in session.curve.points if p.training_examples == quality_point
    ]
    final_rmse = at_budget[0].rmse if at_budget else float("nan")
    constant = (
        _constant_rmse(session.test_set, run.training_mean)
        if run.training_mean is not None
        else float("nan")
    )
    checks.append(
        (
            "final RMSE below the constant training-mean predictor",
            final_rmse < constant,
            f"{final_rmse:.6g} vs {constant:.6g} at {quality_point} examples",
        )
    )
    ledger = session.ledger.total_seconds
    checks.append(
        (
            "ledger equals the broker's charges",
            math.isclose(ledger, run.audit.total_seconds, rel_tol=1e-12),
            f"{ledger!r} vs {run.audit.total_seconds!r}",
        )
    )
    return checks, final_rmse, constant


def _paper_digest(run: PaperRun, shape: PaperShape) -> str:
    limit = run.session.n_seed + shape.budget
    return _digest(run.trajectory + _curve_rows(run.session.curve, limit))


def run_paper(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    short: bool,
    workdir: pathlib.Path,
    import_s: float,
    trace_path: pathlib.Path,
) -> Outcome:
    shape = paper_shape(short)
    context = unit_context(workdir, workload, shape.checkpoint_interval)
    setups = []
    run = None
    for _ in range(1 if trace else SETUP_ROUNDS):
        run = None
        gc.collect()
        began = time.perf_counter()
        run = paper_setup(workload, seed, shape)
        setups.append(time.perf_counter() - began)
    window = paper_window(run, shape, context, seconds)
    checks, final_rmse, constant = _paper_checks(run, window, shape)
    digest = _paper_digest(run, shape)
    quality_point = run.session.n_seed + shape.budget
    layers: Dict[str, float] = {}
    if trace:
        untraced = window
        run = None
        gc.collect()
        tracer = Tracer(f"{workload}-seed{seed}-traced")
        with contextlib.ExitStack() as stack:
            install_layer_spans(stack, tracer)
            traced_run = paper_setup(workload, seed, shape)
            window = paper_window(
                traced_run,
                shape,
                context,
                None,
                examples=untraced.examples,
            )
        tracer.window_start = window.started
        traced_checks, _, _ = _paper_checks(traced_run, window, shape)
        checks += [(f"traced: {name}", ok, detail) for name, ok, detail in traced_checks]
        traced_digest = _paper_digest(traced_run, shape)
        checks.append(
            (
                "tracing leaves the trajectory unchanged",
                traced_digest == digest,
                traced_digest,
            )
        )
        layers = layer_metrics(tracer, [traced_run.session.model])
        layers.update(
            _overhead(
                untraced.examples / untraced.elapsed,
                window.examples / window.elapsed,
            )
        )
        tracer.write(trace_path)
        window = untraced
    times = window.example_s
    metrics = {
        "examples_per_s": window.examples / window.elapsed,
        "example_s.p50": quantile(times, 0.5),
        "example_s.p90": quantile(times, 0.9),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
    }
    properties = {
        "core.revisitable_share": window.revisitable_rows / max(window.candidate_rows, 1),
        "models.leaves_per_particle.start": window.leaves_start,
        "models.leaves_per_particle.end": window.leaves_end,
    }
    attempted = window.examples + window.failed + len(window.checkpoint_bytes)
    return Outcome(
        metrics=metrics,
        checks=checks,
        digest=digest,
        properties=properties,
        reported={
            "final_rmse": final_rmse,
            "constant_rmse": constant,
            "quality_point_examples": quality_point,
            "checkpoint_mb": (
                window.checkpoint_bytes[0] / 2**20 if window.checkpoint_bytes else 0.0
            ),
        },
        attempted=attempted,
        failed=window.failed,
        samples={"example_s": len(times), "setup_s": len(setups)},
        layers=layers,
        learner=shape.learner,
    )


def _overhead(untraced_eps: float, traced_eps: float) -> Dict[str, float]:
    return {
        "trace.untraced_examples_per_s": untraced_eps,
        "trace.traced_examples_per_s": traced_eps,
        "trace.overhead_share": 1.0 - traced_eps / untraced_eps,
    }


# ------------------------------------------------------------- laptop-table1


@dataclass
class UnitAudit:
    """What the driver saw of one Table 1 unit, independently of the learner."""

    n_seed: int
    aggregate_mean: bool
    results: int = 0
    examples: int = 0
    ledger_seconds: float = 0.0
    charges: LedgerAudit = field(default_factory=LedgerAudit)
    test_set: Any = None
    curve: Any = None


class Table1Audit:
    """Light hooks around a Table 1 run: example timing, broker charges,
    test sets, checkpoint sizes and the property shares.  A few calls per
    unit plus a few per example, so the untraced run carries them too."""

    def __init__(self) -> None:
        self.units: Dict[str, UnitAudit] = {}
        self.checkpoint_bytes: List[int] = []
        self.candidate_rows = 0
        self.revisitable_rows = 0
        self.models: List[Any] = []
        self.leaves_start: List[float] = []
        self.example_s: List[float] = []
        self._asked = 0.0
        self._current: Optional[UnitAudit] = None

    @property
    def properties(self) -> Dict[str, float]:
        return {
            "core.revisitable_share": self.revisitable_rows / max(self.candidate_rows, 1),
            "models.leaves_per_particle.start": float(np.mean(self.leaves_start)),
            "models.leaves_per_particle.end": float(
                np.mean([mean_leaves(model) for model in self.models])
            ),
        }

    def install(self, stack: contextlib.ExitStack) -> None:
        audit = self
        execute_unit = Table1Spec.execute_unit
        measure = ProfilerBroker.measure
        build_test_set = registry.build_test_set
        checkpoint = _FileUnitContext.save_checkpoint
        draw = CandidatePool.draw
        fit = DynamicTreeRegressor.fit
        ask = TuningSession.ask
        tell = TuningSession.tell

        # One example is ask -> measure -> tell; the learner asks only
        # after the previous tell, so one start time suffices.
        def audited_ask(session, k=1):
            audit._asked = time.perf_counter()
            return ask(session, k)

        def audited_tell(session, result):
            tell(session, result)
            audit.example_s.append(time.perf_counter() - audit._asked)

        def audited_unit(spec, unit, scale, context):
            # A unit that raises is left out: the runner records the failure
            # and the missing unit fails the budget check.
            record = audit._current = UnitAudit(
                n_seed=scale.learner.n_initial,
                aggregate_mean=standard_plans()[
                    int(unit.params["plan_index"])
                ].aggregate_mean,
            )
            try:
                result = execute_unit(spec, unit, scale, context)
            finally:
                audit._current = None
            record.examples = result.training_examples
            record.ledger_seconds = result.ledger.total_seconds
            record.curve = result.curve
            audit.units[unit.unit_id] = record
            return result

        def audited_measure(broker, request):
            result = measure(broker, request)
            record = audit._current
            if record is not None:
                record.charges.add(
                    result,
                    seeding=record.results < record.n_seed,
                    aggregate_mean=record.aggregate_mean,
                )
                record.results += 1
            return result

        def audited_test_set(*args, **kwargs):
            test_set = build_test_set(*args, **kwargs)
            if audit._current is not None:
                audit._current.test_set = test_set
            return test_set

        def audited_checkpoint(context, state):
            checkpoint(context, state)
            audit.checkpoint_bytes.append(checkpoint_size(context))

        def audited_draw(pool, n_fresh, rng):
            rows = draw(pool, n_fresh, rng)
            audit.candidate_rows += len(rows)
            audit.revisitable_rows += len(pool.revisitable())
            return rows

        def audited_fit(model, features, targets):
            fit(model, features, targets)
            audit.models.append(model)
            audit.leaves_start.append(mean_leaves(model))

        stack.enter_context(patched(TuningSession, "ask", audited_ask))
        stack.enter_context(patched(TuningSession, "tell", audited_tell))
        stack.enter_context(patched(CandidatePool, "draw", audited_draw))
        stack.enter_context(patched(DynamicTreeRegressor, "fit", audited_fit))
        stack.enter_context(patched(Table1Spec, "execute_unit", audited_unit))
        stack.enter_context(patched(ProfilerBroker, "measure", audited_measure))
        stack.enter_context(patched(registry, "build_test_set", audited_test_set))
        stack.enter_context(
            patched(_FileUnitContext, "save_checkpoint", audited_checkpoint)
        )


@dataclass
class Table1Window:
    elapsed: float
    audit: Table1Audit
    result: Any


def table1_window(
    scale: ExperimentScale,
    checkpoint_interval: int,
    run_dir: pathlib.Path,
    tracer: Optional[Tracer] = None,
) -> Table1Window:
    audit = Table1Audit()
    with contextlib.ExitStack() as stack:
        audit.install(stack)
        if tracer is not None:
            install_layer_spans(stack, tracer)
        runner = ExperimentRunner(
            run_dir, scale, artifacts=["table1"], checkpoint_interval=checkpoint_interval
        )
        began = time.perf_counter()
        results = runner.run(workers=1)
        elapsed = time.perf_counter() - began
    return Table1Window(elapsed, audit, results["table1"])


def _table1_checks(
    window: Table1Window, scale: ExperimentScale
) -> Tuple[List[Tuple[str, bool, str]], Dict[str, float]]:
    table = window.result
    units = window.audit.units
    expected_units = _expected_units(scale)
    budget = scale.learner.max_training_examples
    checks = []
    short = [uid for uid, unit in units.items() if unit.examples != budget]
    checks.append(
        (
            "example budget completed",
            len(units) == expected_units and not short,
            f"{len(units)}/{expected_units} units, {len(short)} short of {budget} examples",
        )
    )
    points = [p.rmse for unit in units.values() if unit.curve for p in unit.curve.points]
    checks.append(
        (
            "curve RMSE finite",
            bool(points) and all(math.isfinite(value) for value in points),
            f"{len(points)} curve points",
        )
    )
    # Units differ in runtime scale, so final_rmse is the geometric mean
    # over units, checked against the same mean of each unit's constant
    # training-mean predictor.
    # Sorted: the runner's claim order, and so the audit's, varies by process.
    ordered = [units[uid] for uid in sorted(units)]
    finals = [unit.curve.points[-1].rmse for unit in ordered]
    constants = [
        _constant_rmse(unit.test_set, unit.charges.training_mean) for unit in ordered
    ]
    final_rmse = _geometric_mean(finals)
    constant = _geometric_mean(constants)
    behind = sum(1 for final, level in zip(finals, constants) if not final < level)
    checks.append(
        (
            "final RMSE below the constant training-mean predictor",
            final_rmse < constant,
            f"{final_rmse:.6g} vs {constant:.6g} (geometric means over units; "
            f"{behind} unit(s) not below their own)",
        )
    )
    off = [
        uid
        for uid, unit in units.items()
        if not math.isclose(unit.ledger_seconds, unit.charges.total_seconds, rel_tol=1e-12)
    ]
    checks.append(
        (
            "ledger equals the broker's charges",
            not off,
            "every unit" if not off else "not in " + ", ".join(sorted(off)),
        )
    )
    rendered = table.render()
    checks.append(
        (
            "Table 1 report complete",
            not isinstance(table, PartialArtifactResult)
            and len(table.rows) == len(scale.benchmarks)
            and "PARTIAL RESULT" not in rendered
            and "Quarantined" not in rendered,
            f"{len(getattr(table, 'rows', []))} rows",
        )
    )
    reported = {
        "final_rmse": final_rmse,
        "constant_rmse": constant,
        "speedup_geomean": table.geometric_mean_speedup,
    }
    return checks, reported


def _geometric_mean(values: List[float]) -> float:
    if not values or min(values) <= 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def _expected_units(scale: ExperimentScale) -> int:
    return len(scale.benchmarks) * len(standard_plans()) * scale.repetitions


def _table1_digest(window: Table1Window) -> str:
    parts: List[Any] = []
    for name, comparison in window.result.comparisons.items():
        for plan_name, results in comparison.results.items():
            for result in results:
                parts.append((name, plan_name, list(result.observation_counts.items())))
                parts.extend(_curve_rows(result.curve))
    return _digest(parts)


def run_table1(
    seed: int,
    seconds: float,
    trace: bool,
    short: bool,
    workdir: pathlib.Path,
    import_s: float,
    trace_path: pathlib.Path,
) -> Outcome:
    """One complete Table 1 grid is the timed window: its checks need every
    unit, so the window is the grid whatever ``seconds`` says."""
    scale, interval = laptop_scale(seed, short)
    setups = []
    for index in range(SETUP_ROUNDS):
        began = time.perf_counter()
        ExperimentRunner(
            workdir / f"setup-{index}", scale, artifacts=["table1"]
        ).prepare()
        setups.append(time.perf_counter() - began)
    window = table1_window(scale, interval, workdir / "run")
    checks, reported = _table1_checks(window, scale)
    digest = _table1_digest(window)
    units = window.audit.units.values()
    examples = sum(unit.examples for unit in units)
    layers: Dict[str, float] = {}
    if trace:
        untraced = window
        tracer = Tracer(f"laptop-table1-seed{seed}-traced")
        window = table1_window(scale, interval, workdir / "run-traced", tracer)
        traced_checks, _ = _table1_checks(window, scale)
        checks += [(f"traced: {name}", ok, detail) for name, ok, detail in traced_checks]
        checks.append(
            (
                "tracing leaves the trajectory unchanged",
                _table1_digest(window) == digest,
                _table1_digest(window),
            )
        )
        layers = layer_metrics(tracer, window.audit.models)
        traced_examples = sum(unit.examples for unit in window.audit.units.values())
        layers.update(
            _overhead(examples / untraced.elapsed, traced_examples / window.elapsed)
        )
        tracer.write(trace_path)
        window = untraced
    per_example = window.audit.example_s
    sizes = window.audit.checkpoint_bytes
    metrics = {
        "examples_per_s": examples / window.elapsed,
        "example_s.p50": quantile(per_example, 0.5),
        "example_s.p90": quantile(per_example, 0.9),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
    }
    reported["checkpoint_mb"] = (max(sizes) if sizes else 0) / 2**20
    failed_units = _expected_units(scale) - len(window.audit.units)
    return Outcome(
        metrics=metrics,
        checks=checks,
        digest=digest,
        properties=window.audit.properties,
        reported=reported,
        attempted=len(window.audit.units) + failed_units + len(sizes),
        failed=failed_units,
        samples={"example_s": len(per_example), "setup_s": len(setups)},
        layers=layers,
        learner=scale.learner,
    )
