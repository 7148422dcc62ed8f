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

`rk4_momentum` integrates each axis set of the exact nonzero support of
m0 (`linalg._axis_sets`, no tolerance) on its own. An entry between two
sets, or in a set of two axes, has the field gap * (+0.0) at every stage
and is written here in closed form; each set of three or more runs the
loop of its size on its own entries, whose sums drop only exact +-0
terms. Finite records keep every bit of the whole-matrix loop. A regular
equilibrium on a diagonal body has only pairs and lone axes, so it runs
no loop; a rotated body's eigenframe momentum holds rounding, not zeros,
and is one set.

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

from .linalg import _axis_sets, _pair_table

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
    # Plain pointers: an ndpointer argument costs about 3 us a call.
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = None
    return fn


def _decoupled_sets(m0, pair_sums):
    """(axes, sizes) of the axis sets of the exact nonzero support of m0, the
    axes grouped by set and ascending within each; None for one set.
    """
    n = m0.shape[0]
    # A full row 0 joins every axis in one set, so it needs no search.
    if n < 2 or np.count_nonzero(m0[0]) == n - 1:
        return None
    # m / p is NaN, not +-0, where a pair sum is 0: such a pair joins too.
    label = _axis_sets((m0 != 0) | (pair_sums == 0))
    if not label.any():
        return None
    counts = np.bincount(label)
    return np.argsort(label, kind="stable"), counts[counts > 0]


def _closed_form(m0, pair_sums, dt, out):
    """Every record as the whole-matrix loop leaves an entry whose stages are
    all z = gap * (+0.0): m0, then m0 + (dt/6) * (z + 2 * (z + z) + z) from
    its first step on, a -0 included; lower entries negated, diagonal +0.0.
    """
    n = m0.shape[0]
    p = pair_sums.diagonal()
    z = 0.5 * (p[:, None] - p) * 0.0
    upper = _pair_table(n).upper
    for rec, x in ((out[:1], m0), (out[1:], m0 + (dt / 6.0) * (z + 2.0 * (z + z) + z))):
        rec[:] = np.where(upper, x, -x.T)
    out.reshape(out.shape[0], -1)[:, ::n + 1] = 0.0  # out is C-contiguous


def _run(kernel, m0, pair_sums, dt, nsteps, record_every, out):
    """The C loop on m0; each array stays referenced until the call returns."""
    n = m0.shape[0]
    work = np.empty(9 * (n * (n - 1) // 2) + n * n)
    kernel(m0.ctypes.data, pair_sums.ctypes.data, dt, n, nsteps, record_every,
           out.ctypes.data, work.ctypes.data)


def rk4_momentum(m0, pair_sums, dt, nsteps, record_every):
    """Classical RK4 on dM/dt = [M, M / pair_sums] (eigenframe coordinates).

    m0 must be exactly skew, since the kernel reads only its upper triangle.
    pair_sums must be exactly 0.5 * p_ii + 0.5 * p_jj, that is lambda_i +
    lambda_j for the moments lambda_i = p_ii / 2, since the kernel takes
    lambda_i - lambda_j as 0.5 * (p_ii - p_jj). Returns an array of shape
    (nsteps // record_every + 1, n, n) holding the state every
    `record_every` steps, starting with m0, each exactly skew with a zero
    diagonal. Each exactly decoupled axis set of m0 is integrated on its
    own, with the same bits, and a set of one or two axes needs no loop.
    Raises KernelUnavailable where the C kernel cannot be built or loaded.
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
    if not (m0 == -m0.T).all():
        raise ValueError("m0 must be exactly skew: the kernel reads only its upper triangle")
    # Halved before the sum, which cannot overflow then; halving is exact.
    half = 0.5 * np.diagonal(pair_sums)
    if not (pair_sums == half[:, None] + half).all():
        raise ValueError("pair_sums must be exactly 0.5 * p_ii + 0.5 * p_jj: the kernel "
                         "takes lambda_i - lambda_j as 0.5 * (p_ii - p_jj)")
    dt = float(dt)
    out = np.empty((nsteps // record_every + 1, *m0.shape))
    # Looked up after `out` is made, so arguments too large to record still
    # raise MemoryError, and on every path, a split with no loop included.
    kernel = _c_kernel()
    sets = _decoupled_sets(m0, pair_sums)
    if sets is None:
        _run(kernel, m0, pair_sums, dt, nsteps, record_every, out)
        return out
    _closed_form(m0, pair_sums, dt, out)
    axes, sizes = sets
    for ax in np.split(axes, np.cumsum(sizes)[:-1]):
        # A pair's loop skips l = i, j, so it computes the closed form.
        if ax.size > 2:
            rows = ax[:, None]
            sub = np.empty((out.shape[0], ax.size, ax.size))
            _run(kernel, m0[rows, ax], pair_sums[rows, ax], dt, nsteps, record_every, sub)
            out[:, rows, ax] = sub
    return out
