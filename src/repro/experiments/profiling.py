"""cProfile plumbing for the experiment backends (``run_all --profile``).

Hot-path claims about the learner ("the SMC update dominates", "scoring is
30% of a unit") should be reproducible from the repository without ad-hoc
scripts.  ``--profile`` wraps every work unit's execution in a
:class:`cProfile.Profile` and dumps one binary stats file per unit into a
profile directory; when the run completes the driver merges them and writes
``profile.txt`` — the top functions by cumulative time across the whole
run.  The per-unit ``.prof`` files stay behind for ad-hoc drilling
(``python -m pstats <file>``).

Both executors thread the same directory through: the serial in-memory
executor of :mod:`repro.experiments.registry` and the sharded task queue of
:mod:`repro.experiments.runner` (where the directory lives inside the run
dir, next to the results it explains).  Profiles are additive across
worker processes because each unit writes its own file keyed by unit id —
no cross-process aggregation happens until the final merge.
"""

from __future__ import annotations

import cProfile
import io
import os
import pathlib
import pstats
from typing import Any, Callable, Optional

__all__ = ["profile_unit_call", "write_profile_summary", "PROFILE_TOP_N"]

#: Number of functions the merged ``profile.txt`` lists (by cumulative time).
PROFILE_TOP_N = 25


def profile_unit_call(
    profile_dir: Optional[str],
    unit_id: str,
    call: Callable[[], Any],
) -> Any:
    """Run ``call`` and, when profiling is on, dump its stats.

    With ``profile_dir`` set, executes ``call`` under :class:`cProfile`
    and writes ``<profile_dir>/<unit_id>.prof`` (binary ``pstats`` format);
    with ``None`` it is a transparent passthrough, so call sites need no
    branching.  Exceptions propagate either way — a failed unit leaves no
    partial profile behind.
    """
    if profile_dir is None:
        return call()
    path = pathlib.Path(profile_dir)
    path.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    profiler.dump_stats(str(path / f"{unit_id}.prof"))
    return result


def write_profile_summary(
    profile_dir: os.PathLike, top: int = PROFILE_TOP_N
) -> Optional[pathlib.Path]:
    """Merge every ``.prof`` in ``profile_dir`` into ``profile.txt``.

    Returns the summary path, or ``None`` when the directory holds no
    profiles (e.g. a resumed run where every unit was already published —
    nothing executed, nothing to profile).  The summary lists the ``top``
    functions by cumulative time over all units and workers combined.
    """
    base = pathlib.Path(profile_dir)
    dumps = sorted(base.glob("*.prof")) if base.is_dir() else []
    if not dumps:
        return None
    stats = pstats.Stats(str(dumps[0]))
    for extra in dumps[1:]:
        stats.add(str(extra))
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(top)
    summary = base / "profile.txt"
    header = (
        f"Merged cProfile summary over {len(dumps)} work unit(s); "
        f"top {top} by cumulative time.\n"
        f"Per-unit binaries: {base}/<unit_id>.prof "
        f"(inspect with `python -m pstats`).\n\n"
    )
    summary.write_text(header + buffer.getvalue(), encoding="utf-8")
    return summary
