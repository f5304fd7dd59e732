"""Comparison configuration and the fold behind Table 1, Figures 5 and 6.

One learner run per (benchmark × sampling plan × repetition) is a registry
work unit (:func:`repro.experiments.registry.execute_learner_run`); this
module holds the scale knobs those runs share (:class:`ComparisonConfig`)
and :func:`assemble_comparison`, which folds the finished runs of one
benchmark into averaged learning curves and the Table 1 metrics — the
lowest error level every plan reaches, the cost each plan needs to first
reach it, and the resulting speed-up of one plan over another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .acquisition import AcquisitionFunction, ALCAcquisition, make_acquisition
from .curves import LearningCurve, average_curves, lowest_common_error, time_to_reach
from .learner import LearnerConfig, LearningResult

__all__ = [
    "ComparisonConfig",
    "PlanComparison",
    "assemble_comparison",
    "resolve_acquisition",
]


def resolve_acquisition(
    acquisition: Optional[object],
) -> AcquisitionFunction:
    """Normalise an acquisition axis: ``None`` → ALC, strings → lookup."""
    if acquisition is None:
        return ALCAcquisition()
    if isinstance(acquisition, str):
        return make_acquisition(acquisition)
    return acquisition


@dataclass(frozen=True)
class ComparisonConfig:
    """Scale knobs for a plan comparison.

    The paper repeats every experiment ten times with fresh random seeds and
    tests on 2 500 held-out configurations; the defaults here are laptop
    sized and every knob is explicit so the harness (and the user) can dial
    the experiment up to paper scale.
    """

    learner: LearnerConfig = field(default_factory=LearnerConfig)
    repetitions: int = 2
    test_size: int = 300
    test_observations: int = 35
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.test_size < 1:
            raise ValueError("test_size must be at least 1")
        if self.test_observations < 1:
            raise ValueError("test_observations must be at least 1")

    @classmethod
    def paper_scale(cls) -> "ComparisonConfig":
        """The experimental scale used by the paper (Sections 4.4-4.5)."""
        return cls(
            learner=LearnerConfig.paper_scale(),
            repetitions=10,
            test_size=2500,
            test_observations=35,
        )


@dataclass
class PlanComparison:
    """Outcome of comparing several sampling plans on one benchmark."""

    benchmark_name: str
    curves: Dict[str, LearningCurve]
    results: Dict[str, List[LearningResult]]
    lowest_common_rmse: float
    cost_to_reach: Dict[str, float]

    def speedup(self, baseline: str, contender: str) -> float:
        """Cost of ``baseline`` divided by cost of ``contender`` (>1 means faster)."""
        if baseline not in self.cost_to_reach or contender not in self.cost_to_reach:
            raise KeyError("unknown plan name")
        contender_cost = self.cost_to_reach[contender]
        if contender_cost <= 0:
            raise ValueError("contender cost must be positive")
        return self.cost_to_reach[baseline] / contender_cost


def assemble_comparison(
    benchmark_name: str,
    plan_names: Sequence[str],
    per_plan_results: Dict[str, List[LearningResult]],
) -> PlanComparison:
    """Fold per-run results into the averaged curves and Table 1 metrics.

    ``plan_names`` are plain labels, so the same fold serves the sampling
    plan comparison and any other single-axis comparison of learner runs
    (the ablation specs group runs by acquisition or model name).
    """
    per_plan_curves = {
        name: [result.curve for result in per_plan_results[name]]
        for name in plan_names
    }
    averaged = {
        name: average_curves(curves) for name, curves in per_plan_curves.items()
    }
    common_rmse = lowest_common_error(averaged.values())
    cost_to_reach = {
        name: time_to_reach(curve, common_rmse) for name, curve in averaged.items()
    }
    return PlanComparison(
        benchmark_name=benchmark_name,
        curves=averaged,
        results=per_plan_results,
        lowest_common_rmse=common_rmse,
        cost_to_reach=cost_to_reach,
    )
