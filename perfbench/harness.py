"""Process running, statistics and the environment block of the benchmark.

The CLI under test runs as a child process of this one, one run at a time.
`os.wait4` reports the child's CPU time summed with that of every
descendant it reaped (the process-pool workers), so a run's CPU cost
includes the pool; its peak RSS is the largest of any single one of those
processes, not their sum.
"""
from __future__ import annotations

import ctypes
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Thread-count variables of the BLAS/OpenMP runtimes. They are recorded as
# found and never set: pinning them would hide the process-pool slowdown.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_THREAD_LIMIT",
)

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so that they can be killed and reaped.

    Without this, pool workers left behind by a killed CLI run would be
    re-parented outside the benchmark and could not be waited for.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


@dataclass(frozen=True)
class ProcessRun:
    """Cost and outcome of one child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool
    stdout: Path
    stderr: Path


def _kill_group(pgid: int) -> bool:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _reap_adopted() -> None:
    """Wait for every adopted orphan; they were killed just before."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_process(argv, env: dict, cwd: Path, log_stem: Path, timeout_s: float) -> ProcessRun:
    """Run argv to completion and measure it; kill its process group on timeout.

    Standard output and error go to files next to `log_stem`, so a chatty
    child can never block on a full pipe.
    """
    stdout = log_stem.with_suffix(".stdout")
    stderr = log_stem.with_suffix(".stderr")
    fired = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(timeout_s, lambda: (fired.set(), _kill_group(proc.pid)))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Anything of the run still alive (only possible after a kill) dies here.
    if _kill_group(proc.pid):
        _reap_adopted()
    return ProcessRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        timed_out=fired.is_set(),
        stdout=stdout,
        stderr=stderr,
    )


def summarize(values) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def blas_info(np) -> dict:
    """BLAS name, version and build configuration as numpy reports them."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its configuration
        return {"name": "unknown", "version": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "configuration": blas.get("openblas configuration")}


def environment(np) -> dict:
    """The environment block written into every result."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
        "system": platform.system(),
    }
