"""Fast fixed-step integration kernels for the momentum equation.

The momentum flow is integrated in the inertia eigenframe, where the
momentum-to-velocity map is an entrywise division by the pairwise
eigenvalue sums. One RK4 loop has two implementations, and
`rk4_momentum` runs the first usable one:

1. C: the loop in `_rk4.c`. The first call builds it once with the system
   C compiler (``cc`` or ``gcc``) into this package's ``__pycache__`` and
   loads it with ctypes; later processes load the cached shared object.
2. numpy: the vectorized twin `rk4_momentum_numpy`, about 100x slower.
   It runs, after one UserWarning per process that names the reason, when
   the C kernel is unusable; tests use it as the reference.

Importing this module neither compiles nor loads the C kernel.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

_C_SOURCE = Path(__file__).with_name("_rk4.c")
# No -march=native and no -ffast-math: results must not depend on the host CPU
# or on reassociation, and -ffp-contract=off forbids fused multiply-adds.
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc")
_CACHE_DIR = Path(__file__).with_name("__pycache__")


def rk4_momentum_numpy(m0: np.ndarray, pair_sums: np.ndarray, dt: float,
                       nsteps: int, record_every: int) -> np.ndarray:
    """Classical RK4 on dM/dt = [M, M / pair_sums] (eigenframe coordinates).

    Returns an array of shape (nsteps // record_every + 1, n, n) holding
    the state every `record_every` steps, starting with m0.
    """

    def field(m):
        om = m / pair_sums
        p = m @ om
        return p - p.T

    nrec = nsteps // record_every
    out = np.empty((nrec + 1,) + m0.shape)
    out[0] = m0
    m = m0.copy()
    r = 1
    for step in range(nsteps):
        k1 = field(m)
        k2 = field(m + (0.5 * dt) * k1)
        k3 = field(m + (0.5 * dt) * k2)
        k4 = field(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (step + 1) % record_every == 0:
            out[r] = m
            r += 1
    return out


# perfbench/workloads.py::backend() reads this name on every benchmark run and
# fails with AttributeError without it, until it reads `backend()` instead.
# There is no numba kernel, so it is always None.
rk4_momentum_numba = None


class _BuildError(Exception):
    """The C kernel could not be built; the message says why."""


def _build_c_kernel() -> Path:
    """The shared object built from `_C_SOURCE`, compiled on a cache miss.

    Its name hashes the source, the flags and the compiler, so changing any
    of them builds anew. The compiler writes into a temporary directory and
    the result is renamed into place, so a concurrent process never loads a
    partial file.
    """
    # Imported here, not at module level, so that `import freetop` does not
    # pay for them (about 10 ms).
    import hashlib
    import subprocess

    found = [path for path in map(shutil.which, _COMPILERS) if path]
    if not found:
        raise _BuildError(f"no C compiler found (looked for {', '.join(_COMPILERS)})")
    cc = os.path.realpath(found[0])
    cc_stat = os.stat(cc)
    key = hashlib.sha256(_C_SOURCE.read_bytes())
    key.update(repr((_C_FLAGS, cc, cc_stat.st_size, cc_stat.st_mtime_ns)).encode())
    target = _CACHE_DIR / f"_rk4-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    _CACHE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=_CACHE_DIR) as tmp:
        built = os.path.join(tmp, target.name)
        proc = subprocess.run([cc, *_C_FLAGS, "-o", built, str(_C_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise _BuildError(
                f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        os.replace(built, target)
    return target


@functools.cache
def _c_kernel():
    """The C kernel as a ctypes function, built or loaded on the first call.

    None, after one UserWarning, when it cannot be built or loaded.
    """
    try:
        fn = ctypes.CDLL(str(_build_c_kernel())).freetop_rk4_momentum
    except (_BuildError, OSError) as exc:
        warnings.warn(
            f"the C RK4 kernel is unusable ({exc}); "
            "integrating with the numpy kernel, about 100x slower",
            UserWarning,
        )
        return None
    buf = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [buf, buf, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_int64, buf, buf]
    fn.restype = None
    return fn


def rk4_momentum_c(m0, pair_sums, dt, nsteps, record_every):
    """The C kernel; same contract as `rk4_momentum_numpy`."""
    kernel = _c_kernel()
    if kernel is None:
        raise RuntimeError("the C RK4 kernel is not available")
    m0 = np.ascontiguousarray(m0, dtype=np.float64)
    pair_sums = np.ascontiguousarray(pair_sums, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != m0.shape[1] or pair_sums.shape != m0.shape:
        raise ValueError(
            f"m0 and pair_sums must be square and of one shape, got {m0.shape} "
            f"and {pair_sums.shape}"
        )
    if nsteps < 0 or record_every < 1:
        raise ValueError("nsteps must be >= 0 and record_every >= 1")
    n = m0.shape[0]
    out = np.empty((nsteps // record_every + 1, n, n))
    work = np.empty((7, n, n))
    kernel(m0, pair_sums, float(dt), n, nsteps, record_every, out, work)
    return out


def backend() -> str:
    """Name of the kernel `rk4_momentum` runs: "c" or "numpy".

    The first call builds or loads the C kernel.
    """
    return "c" if _c_kernel() is not None else "numpy"


def rk4_momentum(m0, pair_sums, dt, nsteps, record_every):
    """Run the C kernel if it is usable, else the numpy twin (see `backend`)."""
    kernel = rk4_momentum_c if backend() == "c" else rk4_momentum_numpy
    return kernel(m0, pair_sums, float(dt), nsteps, record_every)
