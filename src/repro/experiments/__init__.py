"""Experiment harness: a declarative registry of the paper's artifacts.

==================  ====================================================
Artifact            Registry name
==================  ====================================================
Table 1             ``table1``
Table 2             ``table2``
Figure 1            ``figure1`` (sweep body: :func:`~repro.experiments.figure1.run_figure1`)
Figure 2            ``figure2`` (sweep body: :func:`~repro.experiments.figure2.run_figure2`)
Figure 5            ``figure5`` (derived from Table 1)
Figure 6            ``figure6`` (derived from Table 1)
Noise robustness    ``noise_robustness``
Acquisition study   ``acquisition-ablation`` (ALC vs ALM vs random)
Model study         ``model-ablation`` (dynamic tree vs GP vs k-NN)
Batch study         ``batch-acquisition`` (k ∈ {1, 2, 5} × batch strategies)
==================  ====================================================

Every artifact registers an :class:`~repro.experiments.registry.ExperimentSpec`
declaring how it decomposes into seeded, order-independent,
checkpointable work units and how completed units fold into its report.
Registry work units are the only way an experiment runs, on one of two
executors: :func:`~repro.experiments.registry.run_artifacts` runs them
serially in this process (``run_artifacts(scale, [name])[name]`` is the
programmatic form of ``run_all --only name``), and the sharded,
resumable, multi-host task queue of :mod:`repro.experiments.runner`
(``run_all --paper-run``) is the only one that runs them in parallel.
Every artifact takes an :class:`repro.experiments.config.ExperimentScale`
(``smoke``, ``laptop`` or ``paper``) and folds into a result with a
``render()`` method that prints the same rows/series the paper reports.
"""

from .ablations import AblationResult, AblationRow
from .config import ExperimentScale
from .figure1 import Figure1Result, run_figure1
from .figure2 import Figure2Result, run_figure2
from .figure5 import Figure5Result, figure5_from_table1
from .figure6 import PAPER_FIGURE6_BENCHMARKS, Figure6Result
from .noise_robustness import NoiseRobustnessResult, scaled_benchmark
from .paper_scale import PaperScaleSmokeResult, run_paper_scale_smoke
from .registry import (
    DEFAULT_ARTIFACTS,
    ExperimentSpec,
    UnitContext,
    WorkUnit,
    get_spec,
    run_artifacts,
    spec_names,
)
from .run_all import run_all
from .runner import ExperimentRunner, RunManifest, RunnerError, run_paper_run
from .table1 import PAPER_TABLE1_SPEEDUPS, Table1Result, table1_from_comparisons
from .table2 import Table2Result

__all__ = [
    "ExperimentScale",
    "Figure1Result",
    "run_figure1",
    "Figure2Result",
    "run_figure2",
    "Figure5Result",
    "figure5_from_table1",
    "PAPER_FIGURE6_BENCHMARKS",
    "Figure6Result",
    "NoiseRobustnessResult",
    "scaled_benchmark",
    "AblationResult",
    "AblationRow",
    "PaperScaleSmokeResult",
    "run_paper_scale_smoke",
    "run_all",
    "DEFAULT_ARTIFACTS",
    "ExperimentSpec",
    "UnitContext",
    "WorkUnit",
    "get_spec",
    "run_artifacts",
    "spec_names",
    "ExperimentRunner",
    "RunManifest",
    "RunnerError",
    "run_paper_run",
    "PAPER_TABLE1_SPEEDUPS",
    "Table1Result",
    "table1_from_comparisons",
    "Table2Result",
]
