"""Stability probes for stationary rotations.

Three views of an equilibrium momentum: the spectrum of the linearized
flow, the kernel of the first-order equilibrium-residual map along orbit
directions (an excess kernel beyond the stabilizer certifies that the
equilibrium is not isolated on its orbit), and a direct perturbation
experiment watching the deviation grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .body import InertiaSpec, _check_step, _step_count
from .equilibria import DEFAULT_TOL, _require_stationary
from .linalg import _axis_sets, _double, _positive, _unit

__all__ = [
    "LinearizationReport",
    "OrbitKernelReport",
    "ProbeResult",
    "linearize",
    "orbit_kernel",
    "stabilizer_dimension",
    "instability_probe",
]

DEFAULT_RANK_TOL = 1e-8


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


def _ad_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of xi -> [xi, x] over the so(n) basis, in closed form.

    [E_ij - E_ji, x] has +x[j] in row i, -x[i] in row j, -x[:, i] in
    column j and +x[:, j] in column i; its upper triangle is the column of
    basis element (i, j). So every entry is exactly one entry of x, but for
    x[j, j] - x[i, i] at (i, j), which is 0 for a skew x."""
    i, j = np.triu_indices(n, k=1)
    p = np.arange(i.size)
    image = np.zeros((i.size, n, n))
    image[p, i] = x[j]
    image[p, j] = -x[i]
    image[p, :, j] -= x[:, i].T
    image[p, :, i] += x[:, j].T
    return image[:, i, j].T


def _eigenframe_operators(wt: np.ndarray, pair_sums: np.ndarray):
    """(L~, ad_M~) in the so(n) basis of the inertia eigenframe, for the angular
    velocity W~ there and M~ = W~ * P, P the pair sums: L~ = ad_W~ - ad_M~ D^-1
    is X -> [X, W~] + [M~, X / P], D the pair sums in basis order."""
    n = wt.shape[0]
    ad_m = _ad_matrix(wt * pair_sums, n)
    return _ad_matrix(wt, n) - ad_m / pair_sums[np.triu_indices(n, k=1)], ad_m


def _second_compound(q: np.ndarray) -> np.ndarray:
    """R with R[(k, l), (i, j)] = q_ki q_lj - q_kj q_li: column (i, j) holds the
    so(n) coordinates of q (E_ij - E_ji) q^T / sqrt(2)."""
    i, j = np.triu_indices(q.shape[0], k=1)
    qi, qj = q[i], q[j]
    return qi[:, i] * qj[:, j] - qi[:, j] * qj[:, i]


def _pair_blocks(w: np.ndarray, tol: float):
    """Split so(n) by the W~-invariant axis sets of an eigenframe velocity w.

    Entries with |w_ij| <= tol * ||w||_F are zeroed; the sets are the
    connected components of the support left, a zero axis alone. Basis
    element (i, j) belongs to the block of the unordered pair of sets of i
    and j, so operators built from the zeroed w are block-diagonal. Returns
    (zeroed w, groups): groups[k] is a (blocks, size) array of basis
    indices, one row per block, one array per block size.
    """
    n = w.shape[0]
    w = np.where(np.abs(w) <= tol * np.linalg.norm(w), 0.0, w)
    label = _axis_sets(w != 0.0)
    i, j = np.triu_indices(n, k=1)
    key = np.minimum(label[i], label[j]) * n + np.maximum(label[i], label[j])
    _, block, size = np.unique(key, return_inverse=True, return_counts=True)
    order = np.lexsort((block, size[block]))
    groups, start = [], 0
    for s, count in zip(*np.unique(size, return_counts=True)):
        groups.append(order[start:start + s * count].reshape(count, s))
        start += s * count
    return w, groups


def _blocks(op: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The diagonal blocks of op on the index rows of group, as a stack."""
    return op[group[:, :, None], group[:, None, :]]


def linearize(m_eq, body: InertiaSpec, tol: float = DEFAULT_TOL) -> LinearizationReport:
    """Spectrum of the linearized flow at a stationary momentum: that of
    L~ in the inertia eigenframe, solved on its pair blocks (_pair_blocks,
    with this tol). matrix is R L~ R^T in the ambient basis, R the second
    compound of the eigenvectors."""
    _, w, _, e, _ = _require_stationary(m_eq, body, tol)
    w, groups = _pair_blocks(w, tol)
    lin, _ = _eigenframe_operators(np.ldexp(w, e), body.pair_sums)
    rot = _second_compound(body.basis)
    eigs = _sorted_spectrum(np.concatenate(
        [np.linalg.eigvals(_blocks(lin, g)).ravel() for g in groups]))
    return LinearizationReport(
        dim=lin.shape[0],
        matrix=rot @ lin @ rot.T,
        spectrum=eigs,
        max_real_part=float(eigs.real.max()),
    )


def orbit_kernel(m_eq, body: InertiaSpec, rank_tol: float = DEFAULT_RANK_TOL,
                 tol: float = DEFAULT_TOL) -> OrbitKernelReport:
    """Kernel of xi -> D(field)(M) [xi, M] at a stationary momentum.

    The kernel always contains the stabilizer of M; any excess direction
    moves M along its orbit while preserving stationarity to first order,
    certifying a positive-dimensional set of equilibria on the orbit.
    The singular values are those of L~ ad_M~ and ad_M~ in the inertia
    eigenframe, which an orthogonal change to the ambient basis keeps,
    taken on their pair blocks (_pair_blocks, with this tol); the rank
    rule applies to all blocks together.
    """
    _positive(rank_tol, "rank_tol")
    _, w, _, e, _ = _require_stationary(m_eq, body, tol)
    w, groups = _pair_blocks(w, tol)
    lin, ad = _eigenframe_operators(np.ldexp(w, e), body.pair_sums)
    svals, stab = [], []
    for g in groups:
        ad_b = _blocks(ad, g)
        svals.append(np.linalg.svd(_blocks(lin, g) @ ad_b, compute_uv=False).ravel())
        stab.append(np.linalg.svd(ad_b, compute_uv=False).ravel())
    svals = np.sort(np.concatenate(svals))[::-1]
    kernel_dim = _kernel_dim(svals, rank_tol)
    stabilizer_dim = _kernel_dim(np.concatenate(stab), rank_tol)
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
                       _positive(rank_tol, "rank_tol"))


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
    scaling, so they cannot overflow. horizon / dt is checked as integrate
    checks t_end / dt. Records come every gcd(steps, k) steps, k = 0.1 / dt
    rounded and clipped to 1..steps, so the last one is at the horizon.
    Like integrate, the probe rejects a step with dt * ||W||_2 above
    STEP_GUARD (IntegrationAbort), W the angular velocity of the perturbed
    start, and raises KernelUnavailable where the C kernel of
    `freetop._kernels` cannot be built or loaded.
    """
    _positive(eps, "eps")
    if not _double(exit_factor, "exit_factor") > 1:
        raise ValueError("exit_factor must exceed 1")
    if exit_factor == math.inf:
        raise ValueError("exit_factor must be finite")
    total = _step_count(horizon, dt, 1, name="horizon")
    record_every = math.gcd(total, max(1, round(min(0.1 / dt, total))))
    arr = _require_stationary(m_eq, body, tol)[0]
    rng = np.random.default_rng(seed)
    m0 = arr + eps * _unit_skew(body.n, rng)
    _check_step(m0, body, dt)

    threshold = exit_factor * eps

    meq_t = body.eigenframe_momentum(arr)
    m_t = body.eigenframe_momentum(m0)
    unit = _unit(max(np.abs(m_t).max(), np.abs(meq_t).max()))

    def deviations(m):
        # Each row times itself is a BLAS dot, as np.linalg.norm of one matrix
        # is, so the bits are that norm's. A blown-up state gives inf or NaN,
        # which escapes, also past the first escape, where none is kept.
        with np.errstate(over="ignore"):
            d = ((m - meq_t) * unit).reshape(len(m), 1, -1)
            return np.sqrt((d @ d.transpose(0, 2, 1))[:, 0, 0]) / unit

    times = [np.zeros(1)]
    devs = [deviations(m_t[None])]
    exit_time = None
    done = 0
    chunk_records = 32
    while done < total and exit_time is None:
        nsteps = min(chunk_records * record_every, total - done)
        rec = _kernels.rk4_momentum(m_t, body.pair_sums, dt, nsteps, record_every)
        t = (done + record_every * np.arange(1, len(rec))) * dt
        dev = deviations(rec[1:])
        escape = np.flatnonzero(~(dev < threshold))
        if escape.size:
            exit_time = float(t[escape[0]])
            t, dev = t[:escape[0] + 1], dev[:escape[0] + 1]
        finite = np.isfinite(dev)
        times.append(t[finite])
        devs.append(dev[finite])
        m_t = rec[-1]
        done += nsteps
    return ProbeResult(
        escaped=exit_time is not None,
        exit_time=exit_time,
        times=np.concatenate(times),
        deviations=np.concatenate(devs),
    )
