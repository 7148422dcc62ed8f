"""Stability probes for stationary rotations.

Three views of an equilibrium momentum: the spectrum of the linearized
flow, the kernel of the first-order equilibrium-residual map along orbit
directions (an excess kernel beyond the stabilizer certifies that the
equilibrium is not isolated on its orbit), and a direct perturbation
experiment watching the deviation grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .body import InertiaSpec, _check_step, _invert_array, _step_count
from .equilibria import DEFAULT_TOL, _require_stationary
from .linalg import _unit

__all__ = [
    "LinearizationReport",
    "OrbitKernelReport",
    "ProbeResult",
    "skew_to_vec",
    "vec_to_skew",
    "linearize",
    "orbit_kernel",
    "stabilizer_dimension",
    "instability_probe",
]

DEFAULT_RANK_TOL = 1e-8


def skew_to_vec(m) -> np.ndarray:
    """Coordinates in the basis (E_ij - E_ji) / sqrt(2), pairs i < j
    lexicographic: an isometry for the Frobenius inner product. Leading
    axes of a stack are kept."""
    arr = np.asarray(m, dtype=float)
    iu = np.triu_indices(arr.shape[-1], k=1)
    return np.sqrt(2.0) * arr[..., iu[0], iu[1]]


def vec_to_skew(c, n: int) -> np.ndarray:
    """Inverse of skew_to_vec; a (..., d) stack gives (..., n, n)."""
    vec = np.asarray(c, dtype=float)
    out = np.zeros(vec.shape[:-1] + (n, n))
    iu = np.triu_indices(n, k=1)
    out[..., iu[0], iu[1]] = vec / np.sqrt(2.0)
    return out - np.swapaxes(out, -2, -1)


def _so_basis(n: int) -> np.ndarray:
    """The orthonormal so(n) basis as a (d, n, n) stack, in skew_to_vec order."""
    d = n * (n - 1) // 2
    return vec_to_skew(np.eye(d), n)


def _kernel_dim(svals: np.ndarray, rank_tol: float) -> int:
    """Number of singular values counted as zero: those at most
    rank_tol * sigma_max, so all of them when the map is zero."""
    return int(np.sum(svals <= rank_tol * svals.max(initial=0.0)))


def _sorted_spectrum(eigs: np.ndarray) -> np.ndarray:
    order = np.lexsort((-eigs.imag, -eigs.real))
    return eigs[order]


@dataclass(frozen=True)
class LinearizationReport:
    """Linearized momentum flow at an equilibrium, as an operator on so(n)
    in the orthonormal basis (E_ij - E_ji)/sqrt(2), pairs lexicographic."""

    dim: int
    matrix: np.ndarray
    spectrum: np.ndarray
    max_real_part: float


@dataclass(frozen=True)
class OrbitKernelReport:
    """Rank data of the first-order equilibrium-residual map along orbit
    directions. kernel_dim counts singular values at most
    rank_tol * sigma_max; stabilizer_dim is the same count for ad_M, and
    excess_kernel_dim = kernel_dim - stabilizer_dim."""

    map_rank: int
    kernel_dim: int
    singular_values: np.ndarray
    rank_tol: float
    stabilizer_dim: int
    excess_kernel_dim: int


def _linearization_matrix(m: np.ndarray, body: InertiaSpec) -> np.ndarray:
    """Exact directional derivative dM -> [dM, W] + [M, Jinv(dM)],
    applied once to the whole so(n) basis stack."""
    om = _invert_array(m, body)
    e = _so_basis(body.n)
    d_om = _invert_array(e, body)
    return skew_to_vec((e @ om - om @ e) + (m @ d_om - d_om @ m)).T


def linearize(m_eq, body: InertiaSpec, tol: float = DEFAULT_TOL) -> LinearizationReport:
    """Spectrum of the linearized flow at a stationary momentum."""
    arr = _require_stationary(m_eq, body, tol)[0]
    mat = _linearization_matrix(arr, body)
    eigs = _sorted_spectrum(np.linalg.eigvals(mat))
    return LinearizationReport(
        dim=mat.shape[0],
        matrix=mat,
        spectrum=eigs,
        max_real_part=float(eigs.real.max()),
    )


def _ad_matrix(m: np.ndarray, n: int) -> np.ndarray:
    """Matrix of xi -> [xi, m] over the so(n) basis."""
    e = _so_basis(n)
    return skew_to_vec(e @ m - m @ e).T


def orbit_kernel(m_eq, body: InertiaSpec, rank_tol: float = DEFAULT_RANK_TOL,
                 tol: float = DEFAULT_TOL) -> OrbitKernelReport:
    """Kernel of xi -> D(field)(M) [xi, M] at a stationary momentum.

    The kernel always contains the stabilizer of M; any excess direction
    moves M along its orbit while preserving stationarity to first order,
    certifying a positive-dimensional set of equilibria on the orbit.
    """
    if not 0 < rank_tol < np.inf:
        raise ValueError("rank_tol must be positive")
    arr = _require_stationary(m_eq, body, tol)[0]
    ad = _ad_matrix(arr, body.n)
    svals = np.linalg.svd(_linearization_matrix(arr, body) @ ad, compute_uv=False)
    kernel_dim = _kernel_dim(svals, rank_tol)
    stabilizer_dim = _kernel_dim(np.linalg.svd(ad, compute_uv=False), rank_tol)
    return OrbitKernelReport(
        map_rank=svals.size - kernel_dim,
        kernel_dim=kernel_dim,
        singular_values=svals,
        rank_tol=rank_tol,
        stabilizer_dim=stabilizer_dim,
        excess_kernel_dim=kernel_dim - stabilizer_dim,
    )


def stabilizer_dimension(m, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of {xi in so(n) : [xi, m] = 0} for an n x n matrix m."""
    arr = np.asarray(m, dtype=float)
    return _kernel_dim(np.linalg.svd(_ad_matrix(arr, arr.shape[-1]), compute_uv=False),
                       rank_tol)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a perturbation-growth experiment."""

    escaped: bool
    exit_time: float | None
    times: np.ndarray
    deviations: np.ndarray


def _unit_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    out[iu] = rng.standard_normal(iu[0].size)
    out = out - out.T
    return out / np.linalg.norm(out)


def instability_probe(m_eq, body: InertiaSpec, eps: float, horizon: float,
                      exit_factor: float, *, seed: int = 0, dt: float = 1e-2,
                      tol: float = DEFAULT_TOL) -> ProbeResult:
    """Integrate from a seeded random perturbation of size eps and watch
    the deviation ||M(t) - M_eq||.

    m_eq must be stationary to within tol (NotAnEquilibrium otherwise).
    The probe stops and escapes at the first record whose deviation is not
    below exit_factor * eps, NaN and inf included; exit_time is its time.
    The curve holds the finite deviations. They are measured in units of
    the power of two above the largest entry of M~(0) and M~_eq, an exact
    scaling, so they cannot overflow. Records come about every 0.1 time
    units: every round(0.1 / dt) steps (at least 1), which must divide the
    step count horizon / dt.
    Like integrate, the probe rejects a step with dt * ||W||_2 above
    STEP_GUARD (IntegrationAbort), W the angular velocity of the perturbed
    start.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive")
    if not exit_factor > 1:
        raise ValueError("exit_factor must exceed 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    record_every = max(1, int(round(0.1 / dt)))
    total = _step_count(horizon, dt, record_every, name="horizon")
    arr = _require_stationary(m_eq, body, tol)[0]
    rng = np.random.default_rng(seed)
    m0 = arr + eps * _unit_skew(body.n, rng)
    _check_step(m0, body, dt)

    threshold = exit_factor * eps

    meq_t = body.to_eigenframe(arr)
    m_t = body.to_eigenframe(m0)
    unit = _unit(max(np.abs(m_t).max(), np.abs(meq_t).max()))

    def deviation(m):  # a state that blows up gives inf or NaN, which escapes
        return float(np.linalg.norm((m - meq_t) * unit) / unit)

    times = [0.0]
    devs = [deviation(m_t)]
    exit_time = None
    done = 0
    chunk_records = 32
    while done < total and exit_time is None:
        nsteps = min(chunk_records * record_every, total - done)
        rec = _kernels.rk4_momentum(m_t, body.pair_sums, dt, nsteps, record_every)
        for r in range(1, rec.shape[0]):
            t = (done + r * record_every) * dt
            dev = deviation(rec[r])
            if np.isfinite(dev):
                times.append(t)
                devs.append(dev)
            if not dev < threshold:
                exit_time = t
                break
        m_t = rec[-1]
        done += nsteps
    return ProbeResult(
        escaped=exit_time is not None,
        exit_time=exit_time,
        times=np.array(times),
        deviations=np.array(devs),
    )
