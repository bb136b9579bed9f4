"""The one process pool: forked workers, at most one per available CPU.

Cross-validation trains its folds in it, and extraction parses Java files
and reads class files in it. ``multiprocessing`` and
``concurrent.futures`` are imported only when a pool opens, so commands
that never open one do not pay for them at start-up.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


class WorkerDied(RuntimeError):
    """A worker process ended before it returned a result."""


@contextmanager
def fork_pool(jobs: int | None = None):
    """A ``ProcessPoolExecutor`` of forked workers: one per available CPU,
    and no more than ``jobs`` (but at least one) when given.

    Leaving the block cancels every job not yet started and waits for the
    workers to exit, so none outlives it. A dead worker that escapes the
    block as ``BrokenProcessPool`` leaves it as ``WorkerDied``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = len(os.sched_getaffinity(0))
    # fork: a worker starts with the package imported, where spawn would import it again
    pool = ProcessPoolExecutor(
        max_workers=workers if jobs is None else max(1, min(jobs, workers)),
        mp_context=multiprocessing.get_context("fork"),
    )
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)
