"""The worker pool that DCA/MIA scoring runs on.

A thread pool, created on first use, with one worker per CPU this process may
run on (os.sched_getaffinity, else os.cpu_count), at most MAX_WORKERS.  Its
tasks are NumPy calls that release the interpreter lock, so they run on the
other cores.  A task never submits or waits on another task, so one
`ordered_map` nested in the item generator of another cannot deadlock.

Under glibc, once the pool is made, new threads share the existing malloc
arena instead of each getting its own (mallopt M_ARENA_MAX = 1), and
`malloc_trim` hands what the tasks freed back to the system when a map that
used the pool ends.  With an arena per thread, each worker kept the top of its
arena, which malloc_trim does not release: the process held about 10 MB
more than a serial run, and it peaked that much higher in the next analysis."""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

MAX_WORKERS = 8

_lock = threading.Lock()
_executor = None
_malloc_trim = None  # glibc's, bound when the pool is made; None where there is none
_M_ARENA_MAX = -8  # the mallopt parameter, from glibc's malloc.h


def worker_count() -> int:
    """Pool size: the CPUs in this process's affinity mask, 1..MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def _pool() -> ThreadPoolExecutor:
    global _executor, _malloc_trim
    with _lock:
        if _executor is None:
            libc = ctypes.CDLL(None)
            if hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim"):
                libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
                libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
                libc.mallopt(_M_ARENA_MAX, 1)
                _malloc_trim = libc.malloc_trim
            _executor = ThreadPoolExecutor(worker_count(), thread_name_prefix="balaes")
        return _executor


def ordered_map(fn, items):
    """Yield fn(item) for each item, in item order.

    Items are taken lazily, and at most worker_count() + 1 tasks are in
    flight.  With one worker every call runs in the caller's thread.  When a
    task raises, or the generator is closed early, the tasks not yet started
    are cancelled and the running ones waited for before the generator exits,
    and the memory the workers freed is handed back to the system."""
    workers = worker_count()
    if workers == 1:
        yield from map(fn, items)
        return
    executor = _pool()
    pending = deque()
    try:
        for item in items:
            pending.append(executor.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
        if _malloc_trim is not None:
            _malloc_trim(0)
