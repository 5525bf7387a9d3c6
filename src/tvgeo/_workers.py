"""One map of a per-item function over forked worker processes.

The solver's rounds and the GPS seeding both map a pure-Python function over
independent items: candidates against a frozen snapshot, users over their
own events. fork_map runs that map in forked worker processes, not threads
(the median and Vincenty kernels are pure Python, so threads would serialize
on the interpreter lock), and returns exactly what the serial list
comprehension returns: one result per item, in item order.

The pool has no more workers than usable CPUs, nor than one per 32 items,
and each worker takes about 8 chunks of the items. A map that would get
fewer than two workers, or that has no fork to use, runs serially. The
function and its context reach the workers as the pool initializer's
arguments, inherited at fork and never pickled; only the items and the
results cross the pipes. The pool forks all its workers before it starts
its own manager thread, so it forks a process with no other threads unless
its caller started some. A worker exits when its parent process dies.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# A worker's (fn, context), set by its initializer; the parent never sets it.
_CONTEXT: tuple | None = None


def usable_cpus() -> int:
    """The CPUs this process may run on, often fewer than os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable, items: Sequence, context: tuple, threads: int) -> list:
    """[fn(item, *context) for item in items], in up to threads forked
    workers."""
    # A worker takes about 8 chunks and at least 32 items, so a map of fewer
    # than 64 items runs serially, as does any one-worker pool.
    workers = min(threads, usable_cpus(), len(items) // 32)
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(item, *context) for item in items]
    # Imported here: the process-pool modules add ~2 MB of resident memory
    # that serial runs never use.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_enter,
        initargs=(fn, context),
    ) as pool:
        chunksize = -(-len(items) // (8 * workers))
        return list(pool.map(_call, items, chunksize=chunksize))


def _enter(fn: Callable, context: tuple) -> None:
    """Worker initializer: keep fn and its context, inherited at fork and
    never pickled, and exit as soon as the parent process is gone."""
    import multiprocessing
    import threading

    global _CONTEXT
    _CONTEXT = (fn, context)
    sentinel = multiprocessing.parent_process().sentinel

    def exit_with_parent() -> None:
        # EOF once the parent, and every sibling forked after this worker
        # (each holds a copy of the pipe's write end), has exited.
        os.read(sentinel, 1)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _call(item):
    """Worker entry point: fn(item, *context). Results come back pickled;
    GeoPoints unpickle through the dataclass __setstate__, so longitudes
    come back bit-exact, never re-normalized."""
    fn, context = _CONTEXT
    return fn(item, *context)
