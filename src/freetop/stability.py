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
from .body import InertiaSpec, _check_pair_sums, _check_step, _step_count
from .equilibria import DEFAULT_TOL, _require_stationary
from .linalg import _axis_sets, _double, _pair_table, _positive, _unit, skew

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


def _stabilizer_dim(m: np.ndarray, rank_tol: float) -> int:
    """_kernel_dim of ad_m, m exactly skew, on its singular values |nu_a + nu_b|, a < b."""
    nu = np.linalg.eigvalsh(1j * m * _unit(np.abs(m).max(initial=0.0)))
    t = _pair_table(nu.size)
    return _kernel_dim(np.abs(nu[t.i] + nu[t.j]), rank_tol)


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
    directions. kernel_dim counts singular values at most rank_tol * sigma_max;
    stabilizer_dim is that count on |nu_a + nu_b| (_stabilizer_dim), the
    singular values of ad_M, and excess_kernel_dim = kernel_dim - stabilizer_dim."""

    map_rank: int
    kernel_dim: int
    singular_values: np.ndarray
    rank_tol: float
    stabilizer_dim: int
    excess_kernel_dim: int


def _ad_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of xi -> [xi, x] over the so(n) basis, in closed form: every
    entry is one entry of x, read through the plan of _pair_table, but for
    x[j, j] - x[i, i] on the diagonal, which is 0 for a skew x."""
    t = _pair_table(n)
    d = t.i.size
    neg, col, end = t.ad_bounds
    terms = x.take(t.ad_src)
    terms[neg:end] *= -1.0
    terms[col:] += 0.0
    out = np.zeros(d * d)
    out[t.ad_flat] = terms
    diag = x.diagonal()
    out[::d + 1] = diag[t.j] - diag[t.i]
    return out.reshape(d, d)


def _eigenframe_operators(wt: np.ndarray, pair_sums: np.ndarray):
    """(L~, ad_M~) in the so(n) basis of the inertia eigenframe, for the angular
    velocity W~ there and M~ = W~ * P, P the pair sums: L~ = ad_W~ - ad_M~ D^-1
    is X -> [X, W~] + [M~, X / P], D the pair sums in basis order. P may be
    scaled by a power of two, body.scaled_pair_sums, which cannot overflow:
    in range, L~ keeps its bits and ad_M~ is scaled by that power."""
    n = wt.shape[0]
    t = _pair_table(n)
    ad_m = _ad_matrix(wt * pair_sums, n)
    return _ad_matrix(wt, n) - ad_m / pair_sums[t.i, t.j], ad_m


def _second_compound(q: np.ndarray) -> np.ndarray:
    """R with R[(k, l), (i, j)] = q_ki q_lj - q_kj q_li: column (i, j) holds the
    so(n) coordinates of q (E_ij - E_ji) q^T / sqrt(2)."""
    t = _pair_table(q.shape[0])
    qi, qj = q[t.i], q[t.j]
    return qi[:, t.i] * qj[:, t.j] - qi[:, t.j] * qj[:, t.i]


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
    t = _pair_table(n)
    key = np.minimum(label[t.i], label[t.j]) * n + np.maximum(label[t.i], label[t.j])
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
    compound of the eigenvectors. L~ is built from body.scaled_pair_sums, so
    a body whose pair sums overflow has one too."""
    _, w, _, e, _ = _require_stationary(m_eq, body, tol)
    w, groups = _pair_blocks(w, tol)
    lin, _ = _eigenframe_operators(np.ldexp(w, e), body.scaled_pair_sums)
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
    The singular values are those of L~ ad_M~ in the inertia eigenframe, which
    an orthogonal change to the ambient basis keeps, taken on its pair blocks
    (_pair_blocks, with this tol) in units 2**e of W~ and 2**b of the moments
    (body.scaled_pair_sums), where the rank rule applies to all blocks
    together; outside the double range they read 0 or inf.
    """
    _positive(rank_tol, "rank_tol")
    _, w, _, e, _ = _require_stationary(m_eq, body, tol)
    w, groups = _pair_blocks(w, tol)
    lin, ad = _eigenframe_operators(w, body.scaled_pair_sums)
    svals = [np.linalg.svd(_blocks(lin, g) @ _blocks(ad, g), compute_uv=False).ravel()
             for g in groups]
    svals = np.sort(np.concatenate(svals))[::-1]
    kernel_dim = _kernel_dim(svals, rank_tol)
    stabilizer_dim = _stabilizer_dim(w * body.scaled_pair_sums, rank_tol)
    with np.errstate(over="ignore"):
        return OrbitKernelReport(
            map_rank=svals.size - kernel_dim,
            kernel_dim=kernel_dim,
            singular_values=np.ldexp(svals, 2 * e + body.scale_exponent),
            rank_tol=rank_tol,
            stabilizer_dim=stabilizer_dim,
            excess_kernel_dim=kernel_dim - stabilizer_dim,
        )


def stabilizer_dimension(m, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of {xi in so(n) : [xi, m] = 0} for skew(m); public only because
    perfbench's tracer resolves it by name (ROADMAP items 1 and 14)."""
    return _stabilizer_dim(skew(m), _positive(rank_tol, "rank_tol"))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a perturbation-growth experiment."""

    escaped: bool
    exit_time: float | None
    times: np.ndarray
    deviations: np.ndarray


def _unit_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros((n, n))
    t = _pair_table(n)
    out[t.i, t.j] = rng.standard_normal(t.i.size)
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
    start, refuses a body whose pair sums overflow (ValueError), and raises
    KernelUnavailable where the C kernel of
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
    _check_pair_sums(body)
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
