"""Per-thread CPU time from Linux's /proc/self/task/*/schedstat: the check
that warm calls run on the calling thread alone.  OpenBLAS threads a LAPACK
call from about 9,000 entries here, and the worker's spin shows only as CPU
time on another thread."""

import os
import sys
import threading
import time

import pytest

needs_schedstat = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not os.path.exists("/proc/self/schedstat"),
    reason="reads per-thread CPU time from Linux /proc/self/task/*/schedstat",
)


def _other_threads_cpu_ns() -> int:
    main = threading.get_native_id()
    total = 0
    for task in os.listdir("/proc/self/task"):
        if int(task) != main:
            try:
                with open(f"/proc/self/task/{task}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # the thread exited
                pass
    return total


def other_threads_cpu_ms(run) -> float:
    """CPU time, in ms, that threads other than the caller's gain while a
    warm ``run()`` runs: it runs once to warm up, then again once any worker
    that earlier tests woke has gone idle."""
    if len(os.listdir("/proc/self/task")) == 1:
        pytest.skip("the process has only one thread, so no BLAS worker to wake")
    run()
    for _ in range(60):
        before = _other_threads_cpu_ns()
        time.sleep(0.05)
        if _other_threads_cpu_ns() == before:
            break
    before = _other_threads_cpu_ns()
    run()
    return (_other_threads_cpu_ns() - before) / 1e6
