"""Tests for the active-learning loop (Algorithm 1) and the plan comparison.

Plan comparisons are built the way the registry builds them: one
:func:`~repro.experiments.registry.execute_learner_run` unit per plan,
folded by :func:`~repro.core.comparison.assemble_comparison`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acquisition import ALMAcquisition, RandomAcquisition
from repro.core.comparison import ComparisonConfig, assemble_comparison
from repro.core.evaluation import TestSet, build_test_set, evaluate_rmse
from repro.core.learner import ActiveLearner, LearnerConfig, LearningResult
from repro.core.plans import fixed_plan, sequential_plan, standard_plans
from repro.experiments.registry import execute_learner_run
from repro.models.baselines import KNNRegressor
from repro.spapt.suite import get_benchmark

SMALL = LearnerConfig(
    n_initial=4,
    seed_observations=4,
    n_candidates=15,
    max_training_examples=24,
    reference_size=10,
    evaluation_interval=5,
    tree_particles=8,
)


@pytest.fixture(scope="module")
def mm():
    return get_benchmark("mm")


@pytest.fixture(scope="module")
def small_test_set(mm):
    return build_test_set(mm, size=40, observations=3, rng=np.random.default_rng(9))


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(n_initial=0)
        with pytest.raises(ValueError):
            LearnerConfig(max_training_examples=5, n_initial=5)
        with pytest.raises(ValueError):
            LearnerConfig(evaluation_interval=0)
        with pytest.raises(ValueError):
            LearnerConfig(max_cost_seconds=0.0)

    def test_paper_scale_matches_section_4_4(self):
        config = LearnerConfig.paper_scale()
        assert config.n_initial == 5
        assert config.seed_observations == 35
        assert config.n_candidates == 500
        assert config.max_training_examples == 2500
        assert config.tree_particles == 5000

    def test_paper_scale_forwards_overrides(self):
        config = LearnerConfig.paper_scale(
            tree_backend="numba", max_cost_seconds=3600.0, tree_particles=100
        )
        # Overrides land on the constructor; the untouched fields keep
        # the paper's Section 4.4 values.
        assert config.tree_backend == "numba"
        assert config.max_cost_seconds == 3600.0
        assert config.tree_particles == 100
        assert config.n_initial == 5
        assert config.seed_observations == 35
        assert config.max_training_examples == 2500

    def test_paper_scale_overrides_are_validated(self):
        with pytest.raises(ValueError):
            LearnerConfig.paper_scale(n_initial=0)
        with pytest.raises(TypeError):
            LearnerConfig.paper_scale(not_a_field=1)


class TestEvaluation:
    def test_build_test_set_shapes(self, mm):
        test_set = build_test_set(mm, size=20, observations=2, rng=np.random.default_rng(1))
        assert len(test_set) == 20
        assert test_set.features.shape == (20, mm.search_space.dimensions)
        assert np.all(test_set.mean_runtimes > 0)

    def test_build_test_set_excludes(self, mm):
        exclude = [mm.search_space.default_configuration()]
        test_set = build_test_set(
            mm, size=10, observations=1, rng=np.random.default_rng(2), exclude=exclude
        )
        assert tuple(exclude[0]) not in test_set.configurations

    def test_test_set_validation(self, mm):
        with pytest.raises(ValueError):
            build_test_set(mm, size=0)
        with pytest.raises(ValueError):
            TestSet(configurations=(), features=np.zeros((0, 2)), mean_runtimes=np.zeros(0))

    def test_evaluate_rmse_perfect_model(self, mm, small_test_set):
        class Oracle:
            def predict(self, features):
                from repro.models.base import Prediction

                return Prediction(
                    mean=small_test_set.mean_runtimes.copy(),
                    variance=np.ones(len(small_test_set)),
                )

        assert evaluate_rmse(Oracle(), small_test_set) == 0.0


class TestActiveLearner:
    def test_sequential_plan_run(self, mm, small_test_set):
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL, rng=np.random.default_rng(0)
        )
        result = learner.run(small_test_set)
        assert isinstance(result, LearningResult)
        assert result.plan_name == "variable observations"
        assert result.training_examples == SMALL.max_training_examples
        assert len(result.curve) >= 2
        assert result.total_cost_seconds > 0
        # Sequential plan: selections after seeding take one observation each.
        expected_obs = SMALL.n_initial * SMALL.seed_observations + (
            SMALL.max_training_examples - SMALL.n_initial
        )
        assert result.total_observations == expected_obs

    def test_fixed_plan_takes_nobs_per_example(self, mm, small_test_set):
        learner = ActiveLearner(
            mm, plan=fixed_plan(3), config=SMALL, rng=np.random.default_rng(1)
        )
        result = learner.run(small_test_set)
        selections = SMALL.max_training_examples - SMALL.n_initial
        assert result.total_observations == SMALL.n_initial * SMALL.seed_observations + 3 * selections
        # Fixed plans never revisit, so every selection is a distinct configuration.
        assert result.distinct_configurations == SMALL.max_training_examples

    def test_sequential_plan_can_revisit(self, mm, small_test_set):
        config = LearnerConfig(
            n_initial=4,
            seed_observations=2,
            n_candidates=3,  # few fresh candidates => revisits are likely
            max_training_examples=40,
            reference_size=5,
            evaluation_interval=10,
            tree_particles=8,
        )
        learner = ActiveLearner(
            mm, plan=sequential_plan(10), config=config, rng=np.random.default_rng(3)
        )
        result = learner.run(small_test_set)
        assert result.distinct_configurations <= result.training_examples

    def test_observation_counts_respect_cap(self, mm, small_test_set):
        cap = 4
        learner = ActiveLearner(
            mm, plan=sequential_plan(cap), config=SMALL, rng=np.random.default_rng(4)
        )
        result = learner.run(small_test_set)
        for configuration, count in result.observation_counts.items():
            assert count <= max(cap, SMALL.seed_observations)

    def test_cost_budget_stops_early(self, mm, small_test_set):
        config = LearnerConfig(
            n_initial=4,
            seed_observations=4,
            n_candidates=10,
            max_training_examples=500,
            reference_size=8,
            evaluation_interval=5,
            tree_particles=8,
            max_cost_seconds=100.0,
        )
        learner = ActiveLearner(
            mm, plan=fixed_plan(1), config=config, rng=np.random.default_rng(5)
        )
        result = learner.run(small_test_set)
        assert result.training_examples < 500
        # One extra selection may land after the budget check; allow slack.
        assert result.total_cost_seconds < 200.0

    def test_curve_costs_are_monotone(self, mm, small_test_set):
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL, rng=np.random.default_rng(6)
        )
        result = learner.run(small_test_set)
        costs = result.curve.costs()
        assert np.all(np.diff(costs) >= 0)

    def test_custom_model_factory_and_acquisition(self, mm, small_test_set):
        learner = ActiveLearner(
            mm,
            plan=fixed_plan(1),
            acquisition=ALMAcquisition(),
            config=SMALL,
            model_factory=lambda rng: KNNRegressor(k=3),
            rng=np.random.default_rng(7),
        )
        result = learner.run(small_test_set)
        assert isinstance(result.model, KNNRegressor)
        assert len(result.curve) >= 2

    def test_random_acquisition_runs(self, mm, small_test_set):
        learner = ActiveLearner(
            mm,
            plan=sequential_plan(5),
            acquisition=RandomAcquisition(),
            config=SMALL,
            rng=np.random.default_rng(8),
        )
        result = learner.run(small_test_set)
        assert result.training_examples == SMALL.max_training_examples

    def test_learning_reduces_error(self, mm, small_test_set):
        """The final model must beat the seed-only model on the test set."""
        config = LearnerConfig(
            n_initial=5,
            seed_observations=4,
            n_candidates=25,
            max_training_examples=60,
            reference_size=15,
            evaluation_interval=10,
            tree_particles=15,
        )
        learner = ActiveLearner(
            mm, plan=sequential_plan(10), config=config, rng=np.random.default_rng(11)
        )
        result = learner.run(small_test_set)
        first_rmse = result.curve.points[0].rmse
        assert result.curve.best_error < first_rmse


def _compare(name, plans, config):
    """One learner unit per plan (repetition 0), folded into a comparison."""
    results = {
        plan.name: [
            execute_learner_run(get_benchmark(name), plan, index, 0, config)
        ]
        for index, plan in enumerate(plans)
    }
    return assemble_comparison(name, [plan.name for plan in plans], results)


class TestComparison:
    def test_compare_sampling_plans_structure(self):
        config = ComparisonConfig(
            learner=SMALL, repetitions=1, test_size=30, test_observations=2, seed=5
        )
        comparison = _compare("mm", standard_plans(), config)
        assert set(comparison.curves) == {
            "all observations",
            "one observation",
            "variable observations",
        }
        assert comparison.lowest_common_rmse > 0
        for cost in comparison.cost_to_reach.values():
            assert cost > 0
        speedup = comparison.speedup("all observations", "variable observations")
        assert speedup > 0
        assert speedup == (
            comparison.cost_to_reach["all observations"]
            / comparison.cost_to_reach["variable observations"]
        )

    def test_comparison_validation(self):
        with pytest.raises(ValueError):
            ComparisonConfig(repetitions=0)
        with pytest.raises(ValueError):
            ComparisonConfig(test_size=0)

    def test_unknown_plan_name_raises(self):
        config = ComparisonConfig(
            learner=SMALL, repetitions=1, test_size=20, test_observations=2
        )
        comparison = _compare("mm", [fixed_plan(1)], config)
        with pytest.raises(KeyError):
            comparison.speedup("all observations", "one observation")

    def test_paper_scale_config(self):
        config = ComparisonConfig.paper_scale()
        assert config.repetitions == 10
        assert config.test_size == 2500
