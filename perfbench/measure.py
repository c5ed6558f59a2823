"""Child-process measurement, sample summaries and the run environment."""
from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples a reported percentile must have above it
SPAWN = Path(__file__).resolve().with_name("spawn.py")


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_child(argv, env=None, stderr=subprocess.DEVNULL) -> Child:
    """Run one command to completion and measure that process alone.

    spawn.py forks the command from a small interpreter and reads its rusage
    with os.wait4, so neither this process's size nor any other child's peak
    leaks into the reading. getrusage(RUSAGE_CHILDREN) would report the
    largest RSS of any child reaped so far.
    """
    proc = subprocess.Popen([sys.executable, "-S", str(SPAWN), *map(str, argv)], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # spawn.py passes it on to the command
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited {proc.returncode} running {argv}")
    return Child(**json.loads(out))


def tail(samples) -> tuple[float, float] | None:
    """(q, value) for the highest q in TAIL_LADDER with >= TAIL_BEYOND samples above it.

    Nearest-rank percentiles; None when there are too few samples for any.
    """
    s = sorted(samples)
    for q in TAIL_LADDER:
        idx = max(math.ceil(q / 100.0 * len(s)) - 1, 0)
        if len(s) - 1 - idx >= TAIL_BEYOND:
            return q, s[idx]
    return None


def summarize(samples) -> dict:
    return {"median": statistics.median(samples), "n": len(samples), "tail": tail(samples),
            "samples": list(samples)}


def cap_blas_threads(environ) -> None:
    """Limit every BLAS thread variable to the CPUs this process may use."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(environ.get(var, cap))
        except ValueError:
            want = cap
        environ[var] = str(min(max(want, 1), cap))


def environment() -> dict:
    import numpy
    import scipy

    def openblas(show_config) -> str | None:
        blas = show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return blas.get("openblas configuration") or blas.get("name")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy_openblas": openblas(numpy.show_config),
        "scipy_openblas": openblas(scipy.show_config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
