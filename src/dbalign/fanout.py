"""A thread's budget of cores, and the fan-out that spends it.

``cores`` pins the OpenBLAS that numpy loaded to one thread, so that no
idle BLAS thread spins on a core that a part needs, and sets the calling
thread's budget to each concurrent job's share of the count it had. A
stage that splits its work into independent contiguous parts asks
``parts`` how many the calling thread's budget allows, as the memory
bound that sizes it does, and runs them through ``fan_out``: part 0 on
the calling thread, each other part on a thread of its own. With a
budget of 1 there is one part, run inline, so the serial path is the
same loop. The budget is thread-local and 1 unless ``budget`` or
``cores`` sets it; a fan-out's threads start at 1, and a job that sets
its own may fan out inside it, as an experiment's trial parts do around
their stages. The parts must not depend on each other's results. Each
stage allocates the buffers sized by a part before the fan-out, on the
calling thread. Per-chunk and per-tile transients, such as the channel's
positions and the matcher's candidate lists and recheck chunks, are
allocated on the worker, whose allocator arena keeps their high-water
mark.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_LOCAL = threading.local()

# numpy's bundled OpenBLAS as each wheel names it, newest first:
# (library glob under numpy.libs, get symbol, set symbol).
OPENBLAS_NAMES = (
    (
        "libscipy_openblas*.so*",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
    ("libopenblas*.so*", "openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

_PIN_LOCK = threading.Lock()
_holders = _saved = 0  # the process-wide pin's holders, and the count it saved


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


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None where there is none under a known name.

    Only a library already in the process is opened (RTLD_NOLOAD), so no
    second OpenBLAS, with a thread pool of its own, is ever loaded.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for pattern, get_name, set_name in OPENBLAS_NAMES:
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def cores(concurrent: int):
    """Pin numpy's OpenBLAS to one thread inside the block, and set the
    calling thread's budget there to each of ``concurrent`` jobs' share of
    the count it had, ``max(1, count // concurrent)``; where it is not
    found, BLAS is left alone and the count is taken as 1. The first of
    nested or concurrent blocks saves the count and the last restores it."""
    global _holders, _saved
    get, put = openblas_threads() or (lambda: 1, lambda count: None)
    with _PIN_LOCK:
        if _holders == 0:
            _saved = get()
            put(1)
        _holders += 1
        count = _saved
    try:
        with budget(max(1, count // concurrent)):
            yield
    finally:
        with _PIN_LOCK:
            _holders -= 1
            if _holders == 0:
                put(_saved)


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
