"""The fixed-step RK4 kernel for the momentum equation.

The momentum flow is integrated in the inertia eigenframe, where the
momentum-to-velocity map is an entrywise division by the pairwise
eigenvalue sums and the field [M, W] is [J, W^2], entrywise
(lambda_i - lambda_j) (W^2)_ij. Both are skew, so the kernel steps the
strict upper triangle of M and records full, exactly skew matrices.
`rk4_momentum` runs the one RK4 loop, in `_rk4.c`. The first call builds
it once with the system C compiler (``cc`` or ``gcc``) into this
package's ``__pycache__`` and loads it with ctypes; later processes load
the cached shared object. It is built at -O3 with a separate,
constant-size copy of the loop for each n = 2..8, which the compiler
unrolls and vectorizes (the first build takes about 1 s, once). Its
results are bit for bit those of its -O2 build and of the scalar loops
in `tests/oracles.py`.

The loop runs once for each axis set of two or more axes of the exact
nonzero support of m0 (`linalg._axis_sets`, no tolerance), with the copy
of that set's size. An
entry between two sets has a field that is exactly gap * (+0.0) at every
stage, which the kernel writes in closed form, and a set's sums drop only
such exact +-0 terms, so finite records keep every bit of the
whole-matrix loop. A stage costs the sum over the sets of s (s - 1) / 2
divisions and s^2 (s - 1) / 2 multiply-adds, s the set's size, in place
of n^2 (n - 1) / 2. An equilibrium on a diagonal body is block diagonal
in the eigenframe, so it has several sets; on a rotated body the
eigenframe momentum holds rounding, not zeros, and is one set, which takes
the whole-matrix loop as it is.

Where the kernel cannot be built or loaded, `rk4_momentum` raises
KernelUnavailable with the reason. A failed build is not cached, so each
call tries again. Importing this module neither compiles nor loads the
kernel.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .linalg import _axis_sets

_C_SOURCE = Path(__file__).with_name("_rk4.c")
# No -march, no -ffast-math and no -Ofast: results must not depend on the host
# CPU or on reassociation, and -ffp-contract=off forbids fused multiply-adds.
# At -O3 GCC then vectorizes only element-wise loops, never a sum.
_C_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc")
_CACHE_DIR = Path(__file__).with_name("__pycache__")

# perfbench/workloads.py::backend() reads this name on every benchmark run and
# fails with AttributeError without it, until perfbench stops reading it
# (ROADMAP item 1). There is no numba kernel, so it is always None.
rk4_momentum_numba = None


class KernelUnavailable(RuntimeError):
    """The C kernel could not be built or loaded; the message says why."""


def _build_c_kernel() -> Path:
    """The shared object built from `_C_SOURCE`, compiled on a cache miss.

    Its name checksums the source, the flags and the machine architecture,
    so changing any of them builds anew, and a cache hit needs no compiler.
    The compiler writes into a temporary directory and the result is renamed
    into place, so a concurrent process never loads a partial file.
    """
    key = _C_SOURCE.read_bytes() + repr((_C_FLAGS, os.uname().machine)).encode()
    # Two checksums name the file; they do not guard it. zlib is loaded at
    # interpreter start-up, and importing hashlib and subprocess here made a
    # cache hit about 10 ms slower.
    target = _CACHE_DIR / f"_rk4-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if target.exists():
        return target
    # The compiler finds its assembler and linker through PATH, so it runs
    # with the search path that found it: the default one where PATH is unset.
    search = os.pathsep.join(os.get_exec_path())
    found = [path for path in (shutil.which(c, path=search) for c in _COMPILERS) if path]
    if not found:
        raise KernelUnavailable(f"no C compiler found (looked for {', '.join(_COMPILERS)})")
    cc = found[0]
    import subprocess

    _CACHE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=_CACHE_DIR) as tmp:
        built = os.path.join(tmp, target.name)
        proc = subprocess.run([cc, *_C_FLAGS, "-o", built, str(_C_SOURCE)],
                              capture_output=True, text=True,
                              env={**os.environ, "PATH": search})
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        os.replace(built, target)
    return target


@functools.cache
def _c_kernel():
    """The C kernel as a ctypes function, built or loaded on the first call.

    Raises KernelUnavailable when it cannot be built or loaded. The cache
    keeps no exception, so the next call tries again.
    """
    try:
        fn = ctypes.CDLL(str(_build_c_kernel())).freetop_rk4_momentum
    except OSError as exc:
        raise KernelUnavailable(str(exc)) from exc
    buf = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    # The axes and set sizes go as plain pointers, NULL for one set: an
    # ndpointer argument costs about 3 us a call, which a whole matrix would pay.
    fn.argtypes = [buf, buf, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                   buf, buf]
    fn.restype = None
    return fn


def _decoupled_sets(m0, pair_sums):
    """(axes, sizes), both int64, of the axis sets of the exact nonzero support
    of m0, the axes grouped by set and ascending within each; None for one set.
    """
    n = m0.shape[0]
    # A full row 0 joins every axis in one set, so it needs no search.
    if n < 2 or np.count_nonzero(m0[0]) == n - 1:
        return None
    # m / p is NaN, not +-0, where a pair sum is 0: such a pair joins too.
    label = _axis_sets((m0 != 0) | (pair_sums == 0))
    if not label.any():
        return None
    return (np.argsort(label, kind="stable").astype(np.int64),
            np.unique(label, return_counts=True)[1].astype(np.int64))


def rk4_momentum(m0, pair_sums, dt, nsteps, record_every):
    """Classical RK4 on dM/dt = [M, M / pair_sums] (eigenframe coordinates).

    m0 must be exactly skew, since the kernel reads only its upper triangle.
    pair_sums must be exactly 0.5 * (p_ii + p_jj), that is lambda_i +
    lambda_j for the moments lambda_i = p_ii / 2, since the kernel takes
    lambda_i - lambda_j as 0.5 * (p_ii - p_jj). Returns an array of shape
    (nsteps // record_every + 1, n, n) holding the state every
    `record_every` steps, starting with m0, each exactly skew with a zero
    diagonal. Each exactly decoupled axis set of m0 is integrated on its
    own, with the same bits. Raises KernelUnavailable where the C kernel
    cannot be built or loaded.
    """
    m0 = np.ascontiguousarray(m0, dtype=np.float64)
    pair_sums = np.ascontiguousarray(pair_sums, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != m0.shape[1] or pair_sums.shape != m0.shape:
        raise ValueError(
            f"m0 and pair_sums must be square and of one shape, got {m0.shape} "
            f"and {pair_sums.shape}"
        )
    # The C loop takes both counts as int64_t, and ctypes would wrap larger ones.
    if not (0 <= nsteps < 2**63 and 1 <= record_every < 2**63):
        raise ValueError("nsteps must be >= 0 and record_every >= 1, both below 2**63")
    if not np.array_equal(m0, -m0.T):
        raise ValueError("m0 must be exactly skew: the kernel reads only its upper triangle")
    diag = np.diagonal(pair_sums)
    if not np.array_equal(pair_sums, 0.5 * (diag[:, None] + diag[None, :])):
        raise ValueError("pair_sums must be exactly 0.5 * (p_ii + p_jj): the kernel takes "
                         "lambda_i - lambda_j as 0.5 * (p_ii - p_jj)")
    n = m0.shape[0]
    records = nsteps // record_every + 1
    out = np.empty((records, n, n))
    sets = _decoupled_sets(m0, pair_sums)
    if sets is None:
        work = np.empty(9 * (n * (n - 1) // 2) + n * n)
        split = (None, None, 1)
    else:
        axes, sizes = sets
        s = int(sizes.max())
        # The largest set's m0, pair sums and records, and its loop's scratch.
        work = np.empty((records + 3) * s * s + 9 * (s * (s - 1) // 2))
        split = (axes.ctypes.data, sizes.ctypes.data, sizes.size)
    # Looked up last, so arguments too large to record still raise MemoryError.
    _c_kernel()(m0, pair_sums, float(dt), n, nsteps, record_every, *split, out, work)
    return out
