"""Thread pinning, the source path, and the environment recorded with every result.

Import this before numpy: ``pin_threads`` only takes effect if it runs before
the BLAS library loads.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pinned_env() -> dict:
    """os.environ with BLAS/OpenMP pinned to THREADS and src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_source() -> None:
    """Exit with code 2 unless this checkout holds the phasegas sources."""
    if not os.path.isfile(os.path.join(SRC, "phasegas", "cli.py")):
        print(f"perfbench: no phasegas sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git (None outside a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """nproc, BLAS, library versions, thread pinning, commit and seed of this run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }
