"""A thread's budget of cores, the fan-out that spends it, and the
workspace whose buffers the fanned-out parts borrow.

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
their stages. The parts must not depend on each other's results.

A stage takes every buffer sized by a part, and the large transients of
its calling thread, from ``borrow``, on the calling thread before the
fan-out, inside a ``scope`` that returns them when it ends. Inside
``workspace`` a borrow is carved from the calling thread's workspace: a
bump arena, one byte buffer that is reserved once and reused by every
part, stage and trial, so that no stage frees and faults back in its
buffers from one trial to the next. All of a stage's parts carve from
the one arena, because only the calling thread borrows. A workspace
outlives the block, in a pool that the next block takes it from,
because the fan-outs start fresh threads and a caller may run one trial
per experiment. Outside a workspace, and where it is full, a borrow is a
plain ``np.empty``, so direct library calls run the same code. Per-chunk
and per-tile transients of the worker threads, such as the channel's
positions and the matcher's candidate lists and recheck chunks, are
allocated on the worker, whose allocator arena keeps their high-water
mark.

One rule says where a result lives: inside a workspace, an array that a
function borrows and returns, such as an instance or the seed counts,
lives until its caller's innermost scope ends; outside one it is a plain
array. A stage whose results outlive it returns every borrow first.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import threading
from contextlib import ContextDecorator, contextmanager
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

# Every borrow starts on a cache line: a carve wastes at most ALIGN - 1
# bytes, which the memory bounds count per borrow.
ALIGN = 64

_POOL_LOCK = threading.Lock()
_pool: list["Workspace"] = []  # workspaces kept for the next block that lends one


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


def _mapping(nbytes: int) -> np.ndarray:
    """``nbytes`` of an anonymous private mapping, as uint8. Its pages are
    zero-filled on first touch and stay until it is unmapped: no allocator
    trims them, and numpy advises no huge pages on them, so a page that a
    borrow touches costs 4 KiB and one that none touches costs nothing."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), np.uint8)


class Workspace:
    """A bump arena: a byte buffer, the offset of its first free byte, the
    most bytes ever carved from it (its resident part) and the offsets that
    the open scopes return to. The buffer is only ever replaced by a larger
    one between blocks, when no borrow is out, so no borrow ever moves."""

    def __init__(self):
        self.buffer = np.empty(0, np.uint8)
        self.base = self.top = self.peak = 0
        self.marks: list[int] = []

    def reserve(self, nbytes: int) -> None:
        """A buffer of at least ``nbytes``."""
        if self.buffer.size < nbytes:
            self.buffer = np.empty(0, np.uint8)  # unmapped before its successor
            self.buffer, self.peak = _mapping(nbytes), 0
            self.base = self.buffer.ctypes.data

    def take(self, shape, dtype) -> np.ndarray | None:
        """An array of ``shape``, read as ``np.empty`` reads it, carved on an
        ALIGN-byte boundary, or None where it does not fit."""
        dtype = np.dtype(dtype)
        shape = (shape,) if hasattr(shape, "__index__") else tuple(shape)
        start = -(-(self.base + self.top) // ALIGN) * ALIGN - self.base
        stop = start + math.prod(shape) * dtype.itemsize
        if stop > self.buffer.size:
            return None
        out = np.ndarray(shape, dtype, self.buffer, start)
        self.top, self.peak = stop, max(self.peak, stop)
        return out


def borrow(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised array carved from the calling thread's workspace,
    valid until the innermost enclosing ``scope`` ends; a plain ``np.empty``
    outside a workspace or where it is full."""
    ws = getattr(_LOCAL, "workspace", None)
    out = None if ws is None else ws.take(shape, dtype)
    return np.empty(shape, dtype) if out is None else out


class scope(ContextDecorator):
    """Return every borrow made inside the block, or the decorated call, to
    the workspace when it ends, last in first out. No borrowed array may
    outlive it."""

    def __enter__(self):
        ws = getattr(_LOCAL, "workspace", None)
        if ws is not None:
            ws.marks.append(ws.top)

    def __exit__(self, *exc):
        ws = getattr(_LOCAL, "workspace", None)
        if ws is not None:
            ws.top = ws.marks.pop()


@contextmanager
def workspace(nbytes: int):
    """Lend the calling thread a workspace of at least ``nbytes`` from the
    pool inside the block; it goes back to the pool, with its buffer, when
    the block ends."""
    with _POOL_LOCK:
        ws = _pool.pop() if _pool else Workspace()
    ws.reserve(nbytes)
    saved = getattr(_LOCAL, "workspace", None)
    _LOCAL.workspace = ws
    try:
        yield ws
    finally:
        _LOCAL.workspace = saved
        ws.top, ws.marks = 0, []
        with _POOL_LOCK:
            _pool.append(ws)


def held() -> int:
    """Bytes that the pooled workspaces hold resident."""
    with _POOL_LOCK:
        return sum(ws.peak for ws in _pool)


def release() -> None:
    """Free every pooled workspace."""
    with _POOL_LOCK:
        _pool.clear()
