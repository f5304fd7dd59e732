"""Cross-module integration tests.

These exercise the whole stack — SPAPT kernel -> transformations -> machine
model -> noisy profiler -> dynamic tree -> active learner -> comparison —
and assert the qualitative properties the paper's evaluation rests on.
They are deliberately small (smoke scale) so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.comparison import ComparisonConfig, assemble_comparison
from repro.core.evaluation import build_test_set, evaluate_rmse
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import fixed_plan, sequential_plan, standard_plans
from repro.experiments.registry import execute_learner_run
from repro.ir.transforms import CacheTile, LoopUnroll, TransformPipeline, UnrollAndJam
from repro.machine.cost_model import MachineCostModel
from repro.measurement.profiler import Profiler
from repro.spapt.suite import get_benchmark

CONFIG = LearnerConfig(
    n_initial=4,
    seed_observations=5,
    n_candidates=20,
    max_training_examples=45,
    reference_size=12,
    evaluation_interval=8,
    tree_particles=12,
)


class TestTransformToCostPipeline:
    def test_transformed_ir_and_cost_model_agree_on_structure(self, mm_benchmark):
        """Lowering a configuration through the real IR passes matches the
        closed forms the cost model uses for the same configuration."""
        space = mm_benchmark.search_space
        names = [p.name for p in space.parameters]
        configuration = list(space.default_configuration())
        configuration[names.index("U_k")] = 4
        configuration[names.index("RT_i")] = 2
        configuration[names.index("T_j")] = 64
        lowered = space.to_transform_configuration(configuration)

        pipeline = TransformPipeline(
            [
                CacheTile(("j",), (64,)),
                UnrollAndJam("i", 2),
                LoopUnroll("k", 4),
            ]
        )
        transformed = pipeline(mm_benchmark.kernel)
        from repro.ir.analysis import innermost_bodies

        generated_statements = innermost_bodies(transformed)[0].statements
        model = MachineCostModel(mm_benchmark.kernel)
        assert generated_statements == model._unroll_product(model._bodies[0], lowered)

    def test_profiler_cost_reflects_runtime_and_compile_scale(self, mm_benchmark):
        profiler = Profiler(mm_benchmark, rng=np.random.default_rng(0))
        configuration = mm_benchmark.search_space.default_configuration()
        profiler.measure(configuration, repetitions=5)
        expected_runtime = 5 * mm_benchmark.true_runtime(configuration)
        assert profiler.ledger.runtime_seconds == pytest.approx(expected_runtime, rel=0.2)
        assert profiler.ledger.compile_seconds == pytest.approx(
            mm_benchmark.compile_time(configuration)
        )


class TestLearningQuality:
    def test_active_learner_produces_useful_model(self, mm_benchmark):
        """After a short run the model must predict clearly better than a
        global-mean predictor on held-out configurations."""
        rng = np.random.default_rng(21)
        test_set = build_test_set(mm_benchmark, size=60, observations=4, rng=rng)
        learner = ActiveLearner(
            mm_benchmark, plan=sequential_plan(8), config=CONFIG, rng=rng
        )
        result = learner.run(test_set)
        final_rmse = result.curve.points[-1].rmse
        baseline_rmse = float(np.std(test_set.mean_runtimes))
        assert final_rmse < baseline_rmse

    def test_variable_plan_costs_less_than_fixed_35(self, mm_benchmark):
        """For the same number of training examples the variable plan must
        charge far less profiling cost than the 35-observation baseline."""
        rng = np.random.default_rng(5)
        test_set = build_test_set(mm_benchmark, size=40, observations=3, rng=rng)
        fixed_result = ActiveLearner(
            mm_benchmark, plan=fixed_plan(35), config=CONFIG, rng=np.random.default_rng(1)
        ).run(test_set)
        variable_result = ActiveLearner(
            mm_benchmark, plan=sequential_plan(35), config=CONFIG, rng=np.random.default_rng(1)
        ).run(test_set)
        assert variable_result.total_cost_seconds < fixed_result.total_cost_seconds
        assert variable_result.total_observations < fixed_result.total_observations

    def test_comparison_speedup_positive_on_quiet_benchmark(self):
        config = ComparisonConfig(
            learner=CONFIG, repetitions=1, test_size=40, test_observations=3, seed=3
        )
        plans = standard_plans()
        comparison = assemble_comparison(
            "lu",
            [plan.name for plan in plans],
            {
                plan.name: [
                    execute_learner_run(get_benchmark("lu"), plan, index, 0, config)
                ]
                for index, plan in enumerate(plans)
            },
        )
        # On a near-noise-free benchmark the variable plan must reach the
        # common error level at least as cheaply as the 35-sample baseline.
        assert comparison.speedup("all observations", "variable observations") >= 1.0

    def test_noisy_benchmark_single_observation_struggles(self):
        """On the noisiest benchmark (correlation), the final error of the
        single-observation plan should not beat the 35-observation baseline
        (Figure 6c's qualitative message)."""
        correlation = get_benchmark("correlation")
        rng = np.random.default_rng(17)
        test_set = build_test_set(correlation, size=50, observations=10, rng=rng)
        config = LearnerConfig(
            n_initial=4,
            seed_observations=10,
            n_candidates=20,
            max_training_examples=50,
            reference_size=12,
            evaluation_interval=10,
            tree_particles=12,
        )
        one = ActiveLearner(
            correlation, plan=fixed_plan(1), config=config, rng=np.random.default_rng(2)
        ).run(test_set)
        many = ActiveLearner(
            correlation, plan=fixed_plan(10), config=config, rng=np.random.default_rng(2)
        ).run(test_set)
        assert many.curve.best_error <= one.curve.best_error * 1.5

    def test_rmse_of_final_model_close_to_truth_on_quiet_benchmark(self):
        mvt = get_benchmark("mvt")
        rng = np.random.default_rng(8)
        test_set = build_test_set(mvt, size=50, observations=3, rng=rng)
        learner = ActiveLearner(mvt, plan=sequential_plan(5), config=CONFIG, rng=rng)
        result = learner.run(test_set)
        spread = float(test_set.mean_runtimes.max() - test_set.mean_runtimes.min())
        assert result.curve.best_error < spread
