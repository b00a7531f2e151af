"""A thread's budget of cores, and the fan-out that spends it.

A stage that splits its work into independent contiguous parts asks
``parts`` how many the calling thread's budget allows and runs them
through ``fan_out``: part 0 on the calling thread, each other part on a
thread of its own. With a budget of 1 there is one part, run inline, so
the serial path is the same loop. The budget is thread-local and 1 unless
a caller sets it with ``budget``; the threads of a fan-out keep 1, so
fan-outs never nest. The parts must not depend on each other's results.
Each stage allocates its parts' buffers before the fan-out, on the
calling thread, so that no worker thread grows an allocator arena of its
own.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_LOCAL = threading.local()


def threads() -> int:
    """The calling thread's budget: how many threads a fan-out may use."""
    return getattr(_LOCAL, "threads", 1)


@contextmanager
def budget(count: int):
    """Give the calling thread a budget of ``count`` threads inside the block."""
    saved = threads()
    _LOCAL.threads = count
    try:
        yield
    finally:
        _LOCAL.threads = saved


def parts(total: int, least: int, count: int | None = None) -> list[tuple[int, int]]:
    """Contiguous (start, stop) parts that tile range(total), in order.

    There are as many parts as the budget (or ``count``) allows, but no
    more than leave each part ``least`` items; their sizes differ by at
    most one. Fewer than 2 * least items make one part.
    """
    count = threads() if count is None else count
    count = max(1, min(count, total // least))
    edges = [total * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def fan_out(work, jobs) -> list:
    """``[work(job) for job in jobs]`` for a nonempty sequence of jobs, the
    first on the calling thread and each other one on a thread of its own.

    Every thread is joined before this returns or raises; the first job's
    exception, or else the lowest-numbered failed job's, is raised.
    """
    results = [None] * len(jobs)
    errors = [None] * len(jobs)

    def run(j):
        try:
            results[j] = work(jobs[j])
        except BaseException as exc:  # noqa: BLE001 - re-raised on the calling thread
            errors[j] = exc

    others = [threading.Thread(target=run, args=(j,)) for j in range(1, len(jobs))]
    for t in others:
        t.start()
    try:
        results[0] = work(jobs[0])
    finally:
        for t in others:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
