"""Compare the paper's three sampling plans on one benchmark.

Reproduces, for a single benchmark, the comparison behind Table 1 and
Figure 6 of the paper: the 35-observation baseline, the single-observation
plan and the variable (sequential analysis) plan are each driven by the same
active learner, and we report the lowest error level all of them reach, the
profiling cost each needed to get there, and the speed-up of the variable
plan over the baseline.

Run with::

    python examples/compare_sampling_plans.py [benchmark]

where ``benchmark`` is one of the 11 SPAPT names (default: gemver, the
paper's best case at 26x).
"""

from __future__ import annotations

import sys

from repro.core import LearnerConfig
from repro.experiments import ExperimentScale, run_artifacts
from repro.spapt import benchmark_names


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gemver"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; choose from {benchmark_names()}")

    # Table 1 restricted to one benchmark: one learner run per
    # (sampling plan x repetition) work unit, folded into a comparison.
    scale = ExperimentScale(
        name="example",
        benchmarks=(name,),
        learner=LearnerConfig(
            n_initial=5,
            seed_observations=20,
            n_candidates=40,
            max_training_examples=100,
            reference_size=25,
            evaluation_interval=10,
            tree_particles=20,
        ),
        repetitions=2,
        test_size=200,
        test_observations=10,
        dataset_configurations=200,
        dataset_observations=10,
        figure1_grid=10,
        seed=2017,
    )
    print(f"comparing sampling plans on {name} (this runs {scale.repetitions} repetitions)...")
    comparison = run_artifacts(scale, ["table1"])["table1"].comparisons[name]

    print()
    print(f"lowest common RMSE: {comparison.lowest_common_rmse:.4f} s")
    for plan_name, cost in sorted(comparison.cost_to_reach.items(), key=lambda kv: kv[1]):
        print(f"  {plan_name:<24} reaches it after {cost:12.1f} simulated seconds")
    speedup = comparison.speedup("all observations", "variable observations")
    print()
    print(f"speed-up of variable observations over the 35-sample baseline: {speedup:.2f}x")

    print()
    print("learning curves (sampled):")
    for plan_name, curve in comparison.curves.items():
        step = max(len(curve.points) // 6, 1)
        series = ", ".join(
            f"({p.cost_seconds:.0f}s, {p.rmse:.3f})" for p in curve.points[::step]
        )
        print(f"  {plan_name:<24} {series}")


if __name__ == "__main__":
    main()
