"""End-to-end tuner benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-variable --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload laptop-table1 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload paper-fixed35 --seed 1 --seconds 1 --trace 0 --short

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload untraced, then again with span wrappers installed around
each layer, and prints the per-layer metrics and the tracing overhead.
``--short`` shrinks every workload to a few seconds (the benchmark's own
tests use it).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, the trajectory digest, the property shares,
the unbounded figures (learning quality, checkpoint size) and every output
check.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the program's sources are
missing (no result is printed then).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

#: BLAS threads; the box the benchmark was calibrated on has 2 cores and one
#: workload runs per process.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "examples_per_s": "1/s",
    "example_s.p50": "s",
    "example_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric (``--trace 1``), from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".p50", ".p90")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_share"):
        return "ratio"
    if name.startswith("models.leaves_per_particle"):
        return "leaves"
    return "count"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = root / ".git" / "HEAD"
    try:
        head = head_path.read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = root / ".git" / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = (root / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-variable", "paper-fixed35", "laptop-table1"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true", help="a few particles and examples"
    )
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {source}; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

    import numpy as np

    import workloads

    import_s = time.perf_counter() - _STARTED

    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (work / "traces").mkdir(exist_ok=True)
    trace_path = work / "traces" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    trace = bool(args.trace)
    try:
        if args.workload == "laptop-table1":
            outcome = workloads.run_table1(
                args.seed, args.seconds, trace, args.short, workdir, import_s, trace_path
            )
        else:
            outcome = workloads.run_paper(
                args.workload,
                args.seed,
                args.seconds,
                trace,
                args.short,
                workdir,
                import_s,
                trace_path,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    learner = outcome.learner
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "git_commit": _git_commit(root),
        "model_backend": learner.tree_backend,
        "float_mode": learner.tree_float_mode,
        "particles": learner.tree_particles,
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"digest: {outcome.digest}")
    print("properties: " + json.dumps(outcome.properties, sort_keys=True))
    reported = dict(outcome.reported)
    reported["failed_share"] = outcome.failed / max(outcome.attempted, 1)
    print("reported: " + json.dumps(reported, sort_keys=True))
    print("samples: " + json.dumps(outcome.samples, sort_keys=True))
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    failed_checks = sum(1 for _name, ok, _detail in outcome.checks if not ok)
    if trace:
        layers = {**outcome.layers, **outcome.properties}
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(layers.items())
        }
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = failed_checks == 0 and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted + len(outcome.checks),
        "failed": outcome.failed + failed_checks,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
