"""Speed calibration and the environment record.

The CPU speed of a shared sandbox drifts by up to 2x between 10 s windows,
so raw seconds do not repeat.  A fixed reference kernel is timed next to
every measurement; the ratio of its time to REF_NOMINAL_S is the speed
factor of that moment, and calibrated seconds are raw seconds divided by
it.  The kernel mixes three kinds of work the
workloads do: an interpreter loop, many small numpy calls, and mid-size
LAPACK factorizations.  (String formatting and large allocations were left
out: their times swing further than the commands' times do.)  It uses numpy
and the standard library only, so it does not move when the package
changes.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

# BLAS threads the benchmark pins before numpy loads: one, so timings do not
# depend on how many CPUs are idle.  Never more than nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Nominal time of one reference-kernel pass; calibrated seconds are seconds
# on a machine where the kernel takes exactly this long.
REF_NOMINAL_S = 0.010


def pin_blas_threads(environ) -> None:
    """Set the BLAS thread count in ``environ``; call before numpy loads."""
    for key in BLAS_ENV:
        environ[key] = str(BLAS_THREADS)


class ReferenceKernel:
    """A fixed mix of interpreter, small-numpy and LAPACK work."""

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20121204)
        self._small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        n = 96
        self._big = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 10 * np.eye(n)
        self._eye = np.eye(n, dtype=complex)

    def run(self) -> None:
        np = self._np
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        s = self._small
        for _ in range(150):
            np.linalg.svd(s.conj().T @ s - s, compute_uv=False)
        np.linalg.svd(self._big, compute_uv=False)
        np.linalg.svd(self._big, compute_uv=False)
        np.linalg.solve(self._big, self._eye)

    def seconds(self, reps: int = 3) -> float:
        """Median wall time of ``reps`` passes."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]


def speed(ref_s: float) -> float:
    """Speed factor of a moment whose reference pass took ``ref_s`` seconds."""
    return ref_s / REF_NOMINAL_S


def _blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _openblas_call(symbols: tuple[str, ...], restype) -> dict:
    """Call the first of ``symbols`` each loaded OpenBLAS exports, by library file."""
    out = {}
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, sym) for sym in symbols if hasattr(lib, sym)), None)
        if fn is not None:
            fn.restype = restype
            out[os.path.basename(path)] = fn()
    return out


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    return _openblas_call(("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)


def blas_versions() -> dict[str, str]:
    configs = _openblas_call(("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                              "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
    return {name: config.decode() for name, config in configs.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_versions(),
        "blas_threads": blas_threads(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "ref_nominal_s": REF_NOMINAL_S,
    }
