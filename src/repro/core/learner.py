"""Algorithm 1: active learning with sequential analysis.

This module is the paper's primary contribution.  :class:`ActiveLearner`
drives the learning loop of Algorithm 1 generalised over a
:class:`~repro.core.plans.SamplingPlan`, so the same code runs the baseline
fixed-35 plan, the single-observation plan and the paper's variable
(sequential-analysis) plan:

1. Seed the model with ``n_initial`` random configurations, each profiled
   ``seed_observations`` times (good-quality data for the initial model).
2. Repeat until the completion criterion (``max_training_examples``
   selections, or a cost budget):

   a. assemble the candidate set — ``n_candidates`` never-observed random
      configurations plus, under a revisiting plan, every configuration seen
      fewer than ``max_observations_per_example`` times;
   b. score the candidates with the acquisition function (ALC by default)
      and select the most useful one;
   c. compile-and-run it according to the plan (one observation for the
      sequential plan, ``nobs`` for the fixed plans) and charge the cost;
   d. feed the observation(s) to the model and update the bookkeeping.

3. Periodically evaluate the intermediate model's RMSE on a held-out test
   set; the resulting :class:`~repro.core.curves.LearningCurve` is the raw
   material of Table 1 and Figures 5-6.

The loop itself lives in :class:`~repro.core.session.TuningSession`, an
inverted-control ask/tell state machine: the session proposes
:class:`~repro.measurement.broker.MeasurementRequest`\\ s and a
:class:`~repro.measurement.broker.MeasurementBroker` satisfies them.
:meth:`ActiveLearner.run` is the thin driver wiring the two together with
a live profiler (or, through ``broker_factory``, a replaying broker), and
its trajectory — curve, ledger, RNG stream — is bit-identical to the
pre-refactor inline loop.

The loop is *checkpointable*: a mid-run pickle of the session captures
everything the loop state depends on — the model (with its own generator),
the shared session generator, the cost ledger and per-configuration
statistics, the candidate pool, the curve, the held-out test set — while
the benchmark itself is reattached on resume (its memoised cost caches are
pure functions; the one piece of *stateful* benchmark state, the noise
model's frequency-drift walk, rides along in the session for
:meth:`~repro.core.session.TuningSession.attach_benchmark` to restore).
The sharded experiment backend (:mod:`repro.experiments.runner`) uses this
to survive killed paper-scale runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..measurement.broker import MeasurementBroker, ProfilerBroker, measure_batch
from ..measurement.profiler import CostLedger, Profiler
from ..models.base import SurrogateModel
from ..models.compiled_kernels import BACKENDS
from ..models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from ..spapt.suite import SpaptBenchmark
from .acquisition import AcquisitionFunction, ALCAcquisition
from .curves import LearningCurve
from .evaluation import TestSet
from .plans import SamplingPlan, sequential_plan
from .session import TuningSession

__all__ = ["LearnerConfig", "LearningResult", "ActiveLearner"]

ModelFactory = Callable[[np.random.Generator], SurrogateModel]

#: A hook replacing the live broker: called with the default
#: :class:`ProfilerBroker` and the session's generator, it returns the
#: broker the run should use (e.g. a ReplayBroker recording into a trace).
BrokerFactory = Callable[
    [ProfilerBroker, np.random.Generator], MeasurementBroker
]


@dataclass(frozen=True)
class LearnerConfig:
    """Parameters of the active-learning loop (Section 4.4 of the paper).

    The paper's values are ``n_initial=5``, ``seed_observations=35``,
    ``n_candidates=500``, ``max_training_examples=2500`` and 5 000 dynamic
    tree particles; the defaults here are scaled down so a full comparison
    runs in minutes on a laptop, and :meth:`paper_scale` restores the paper's
    values.
    """

    n_initial: int = 5
    seed_observations: int = 35
    n_candidates: int = 60
    max_training_examples: int = 200
    reference_size: int = 40
    evaluation_interval: int = 10
    max_cost_seconds: Optional[float] = None
    tree_particles: int = 30
    tree_backend: str = "numpy"
    tree_float_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.n_initial < 1:
            raise ValueError("n_initial must be at least 1")
        if self.seed_observations < 1:
            raise ValueError("seed_observations must be at least 1")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if self.max_training_examples <= self.n_initial:
            raise ValueError("max_training_examples must exceed n_initial")
        if self.reference_size < 1:
            raise ValueError("reference_size must be at least 1")
        if self.evaluation_interval < 1:
            raise ValueError("evaluation_interval must be at least 1")
        if self.max_cost_seconds is not None and self.max_cost_seconds <= 0:
            raise ValueError("max_cost_seconds must be positive when given")
        if self.tree_particles < 1:
            raise ValueError("tree_particles must be at least 1")
        if self.tree_backend not in BACKENDS:
            raise ValueError(f"tree_backend must be one of {BACKENDS}")
        if self.tree_float_mode not in ("exact", "fast"):
            raise ValueError('tree_float_mode must be "exact" or "fast"')

    @classmethod
    def paper_scale(cls, **overrides) -> "LearnerConfig":
        """The configuration used by the paper's experiments (Section 4.4).

        Keyword overrides are forwarded to the constructor, so callers can
        keep the paper's loop parameters while adjusting orthogonal knobs
        (``tree_backend``, ``max_cost_seconds``, ...)::

            LearnerConfig.paper_scale(tree_backend="numba")
        """
        params = dict(
            n_initial=5,
            seed_observations=35,
            n_candidates=500,
            max_training_examples=2500,
            reference_size=100,
            evaluation_interval=25,
            tree_particles=5000,
        )
        params.update(overrides)
        return cls(**params)


@dataclass
class LearningResult:
    """Everything produced by one active-learning run."""

    plan_name: str
    curve: LearningCurve
    ledger: CostLedger
    observation_counts: Dict[Tuple[int, ...], int]
    training_examples: int
    model: SurrogateModel

    @property
    def total_cost_seconds(self) -> float:
        return self.ledger.total_seconds

    @property
    def distinct_configurations(self) -> int:
        return len(self.observation_counts)

    @property
    def total_observations(self) -> int:
        return sum(self.observation_counts.values())


class ActiveLearner:
    """The Algorithm-1 learning loop for one benchmark and one sampling plan."""

    def __init__(
        self,
        benchmark: SpaptBenchmark,
        plan: Optional[SamplingPlan] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        config: Optional[LearnerConfig] = None,
        model_factory: Optional[ModelFactory] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._benchmark = benchmark
        self._plan = plan if plan is not None else sequential_plan()
        self._acquisition = acquisition if acquisition is not None else ALCAcquisition()
        self._config = config if config is not None else LearnerConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._model_factory = model_factory

    @property
    def plan(self) -> SamplingPlan:
        return self._plan

    @property
    def config(self) -> LearnerConfig:
        return self._config

    def _default_model_factory(self, rng: np.random.Generator) -> SurrogateModel:
        return DynamicTreeRegressor(
            DynamicTreeConfig(
                n_particles=self._config.tree_particles,
                backend=self._config.tree_backend,
                float_mode=self._config.tree_float_mode,
            ),
            rng=rng,
        )

    # ------------------------------------------------------------------ run

    def start_session(self, test_set: TestSet) -> TuningSession:
        """A fresh :class:`TuningSession` for this learner's configuration.

        The session receives a *copy* of the learner's generator, so the
        learner instance stays stateless across runs: calling :meth:`run`
        (or driving a started session) twice produces identical
        trajectories instead of mutating the learner's own stream.
        """
        return TuningSession(
            self._benchmark,
            plan=self._plan,
            acquisition=self._acquisition,
            config=self._config,
            model_factory=self._model_factory,
            rng=copy.deepcopy(self._rng),
            test_set=test_set,
        )

    def run(
        self,
        test_set: TestSet,
        resume: Optional[TuningSession] = None,
        checkpoint_interval: Optional[int] = None,
        checkpoint_sink: Optional[Callable[[TuningSession], None]] = None,
        broker_factory: Optional[BrokerFactory] = None,
        batch_size: int = 1,
    ) -> LearningResult:
        """Execute the learning loop and return its learning curve and costs.

        The loop is the ask/tell drive of a :class:`TuningSession` against
        a live :class:`~repro.measurement.broker.ProfilerBroker` (or
        whatever ``broker_factory`` wraps around it — e.g. a
        :class:`~repro.measurement.broker.ReplayBroker` serving a recorded
        trace).  ``checkpoint_sink`` (with a positive
        ``checkpoint_interval``) is called with the session every
        ``checkpoint_interval`` training examples; the sink must serialise
        the snapshot before returning.  ``resume`` restarts from such a
        pickled session — the continued trajectory (curve, costs, model
        state, RNG stream) is bit-identical to the uninterrupted run; the
        session carries its own plan, configuration and test set, and the
        benchmark (rebuilt by the caller) is reattached with its noise
        state restored.  A session pickled mid-batch resumes by measuring
        its still-pending requests before asking again.

        ``batch_size > 1`` drives batch acquisition: every round asks the
        session for up to ``batch_size`` requests at once, measures them
        through :func:`~repro.measurement.broker.measure_batch`, and tells
        the results back.  ``batch_size=1`` is the sequential path,
        bit-identical to the pre-batch loop.
        """
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive when given")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if resume is not None:
            if resume.plan_name != self._plan.name:
                raise ValueError(
                    f"checkpoint is for plan {resume.plan_name!r}, "
                    f"not {self._plan.name!r}"
                )
            session = resume
            session.attach_benchmark(self._benchmark)
        else:
            session = self.start_session(test_set)
        broker: MeasurementBroker = ProfilerBroker(
            Profiler(self._benchmark, rng=session.rng)
        )
        if broker_factory is not None:
            broker = broker_factory(broker, session.rng)
        # A session checkpointed mid-batch still owes measurements for the
        # requests it had already handed out; serve those before asking.
        pending = list(session.pending_requests)
        while True:
            if pending:
                requests = pending
                pending = []
            elif batch_size == 1:
                request = session.ask()
                if request is None:
                    break
                requests = [request]
            else:
                requests = session.ask(batch_size)
                if not requests:
                    break
            for result in measure_batch(broker, requests):
                session.tell(result)
            if (
                checkpoint_sink is not None
                and checkpoint_interval is not None
                and session.should_checkpoint(checkpoint_interval)
            ):
                checkpoint_sink(session)
        return session.result()
