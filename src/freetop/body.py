"""Free rigid body dynamics on so(n).

The state is the angular momentum matrix M, related to the angular
velocity matrix W by the inertia operator M = W J + J W for a symmetric
positive-definite J with pairwise-distinct eigenvalues. The reduced
equations of motion are dM/dt = [M, W].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import _check_structure, _readonly, eigen_symmetric, skew, sym

__all__ = [
    "InertiaSpec",
    "Trajectory",
    "IntegrationAbort",
    "casimirs",
    "manakov_labels",
    "compute_invariants",
    "integrate",
]

# Eigenvalue gaps below GAP_TOL * max(eigenvalue) make a body degenerate.
GAP_TOL = 1e-8

# dt * ||W||_2 above this is rejected (or warned about) by integrate().
STEP_GUARD = 0.5


class IntegrationAbort(RuntimeError):
    """Integration produced a non-finite state."""


class InertiaSpec:
    """Inertia matrix J together with its eigenframe.

    J must be symmetric positive-definite with at least two axes and
    pairwise-distinct eigenvalues: positivity makes every pairwise
    eigenvalue sum positive, so the momentum-to-velocity map is invertible;
    distinctness is what the equilibrium classifier relies on. Eigenvalue
    gaps below GAP_TOL * max(eigenvalue) are rejected as degenerate.

    J, eigenvalues (ascending), basis (the matching eigenvectors as columns)
    and pair_sums (lambda_i + lambda_j) are read-only arrays fixed here.
    """

    def __init__(self, j):
        # A read-only copy of its own: J, its eigenframe and pair_sums cannot disagree.
        self.J = sym(j)
        if self.n < 2:
            raise ValueError(f"a body needs at least two axes, got {self.n}")
        lam, self.basis = eigen_symmetric(self.J)
        if lam[0] <= 0.0:
            raise ValueError(
                f"inertia matrix must be positive definite (smallest eigenvalue {lam[0]:.3e})"
            )
        gap = float(np.diff(lam).min())
        limit = GAP_TOL * float(np.abs(lam).max())
        if gap < limit:
            raise ValueError(
                f"inertia eigenvalues too close: gap {gap:.3e} below {limit:.3e}; "
                "bodies with repeated moments are not supported"
            )
        self.eigenvalues = lam
        self.pair_sums = _readonly(lam[:, None] + lam[None, :])

    @classmethod
    def from_eigenvalues(cls, values) -> "InertiaSpec":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:  # np.diag would read a 2-d list as its diagonal
            raise ValueError("expected a 1-d list of diagonal values")
        return cls(np.diag(vals))

    @property
    def n(self) -> int:
        return self.J.shape[0]

    def to_eigenframe(self, a) -> np.ndarray:
        q = self.basis
        return q.T @ np.asarray(a, dtype=float) @ q

    def from_eigenframe(self, a) -> np.ndarray:
        q = self.basis
        return q @ np.asarray(a, dtype=float) @ q.T

    def __repr__(self):
        return f"InertiaSpec(n={self.n}, eigenvalues={self.eigenvalues.tolist()})"


def _check_dims(arr: np.ndarray, body: InertiaSpec) -> None:
    if arr.shape[0] != body.n:
        raise ValueError(f"dimension mismatch: state is {arr.shape[0]}, body is {body.n}")


def _scaled_velocity(m: np.ndarray, body: InertiaSpec):
    """Angular velocity of one momentum in the inertia eigenframe, in range.

    Returns (w, lam, e): W~ = Q^T W Q equals w * 2**e, with the largest
    entry of w in [0.5, 1) (w = 0 for the zero momentum), and lam is the
    moments scaled so that the largest is in [0.5, 1). M is scaled the same
    way before it is rotated and made exactly skew, so no step overflows or
    underflows, and every scaling is by a power of two, hence exact.
    """
    _, a = math.frexp(np.abs(m).max())
    mt = body.to_eigenframe(np.ldexp(m, -a))
    _, b = math.frexp(body.eigenvalues[-1])
    lam = np.ldexp(body.eigenvalues, -b)
    pair = lam[:, None] + lam[None, :]
    # GAP_TOL keeps every other pair sum above 5e-9 in these units; only
    # 2 * lam[0] can underflow to 0, where M~ is exactly 0.
    pair[0, 0] = 1.0
    w = 0.5 * (mt - mt.T) / pair
    _, c = math.frexp(np.abs(w).max())
    return np.ldexp(w, -c), lam, a - b + c


def casimirs(m) -> np.ndarray:
    """Traces of even powers tr(M^(2k)) for k = 1 .. n // 2, in any frame.

    m may be one momentum or a stack (..., n, n); the traces are the last axis.
    """
    arr = np.asarray(m, dtype=float)
    m2 = arr @ arr
    out = []
    acc = m2
    for _ in range(arr.shape[-1] // 2):
        out.append(np.trace(acc, axis1=-2, axis2=-1))
        acc = acc @ m2
    return np.stack(out, axis=-1)


def _check_max_power(max_power: int, n: int) -> None:
    if max_power < 2:
        raise ValueError("max_power must be at least 2")
    if max_power > n:
        raise ValueError(f"max_power {max_power} exceeds the dimension {n}")


def _manakov(mt: np.ndarray, body: InertiaSpec, max_power: int) -> np.ndarray:
    """Coefficients of z^j in tr((M + z J^2)^k) for k = 2 .. max_power and
    j = 0 .. k, ascending k then ascending j, of eigenframe momenta mt
    (..., n, n). Every coefficient is a first integral of the motion. In
    the eigenframe J^2 = diag(lambda^2), so a product with it scales columns.
    """
    lam2 = body.eigenvalues ** 2
    power = [np.eye(body.n)]  # coefficients of (M + z J^2)^k, ascending in z
    out = []
    for k in range(1, max_power + 1):
        nxt = [0.0] * (len(power) + 1)
        for a, pa in enumerate(power):
            nxt[a] = nxt[a] + pa @ mt
            nxt[a + 1] = nxt[a + 1] + pa * lam2
        power = nxt
        if k >= 2:
            out.extend(np.broadcast_to(np.trace(p, axis1=-2, axis2=-1), mt.shape[:-2])
                       for p in power)
    return np.stack(out, axis=-1)


def manakov_labels(max_power: int) -> list[str]:
    """Labels of the Manakov columns of compute_invariants, in order."""
    return [f"manakov_{k}_{j}" for k in range(2, max_power + 1) for j in range(k + 1)]


def compute_invariants(m, body: InertiaSpec, max_power: int) -> np.ndarray:
    """Energy, Casimirs and Manakov coefficients of one momentum or a stack.

    Returns an array (..., k) whose last axis follows invariant_labels(n,
    max_power); a stack (S, n, n) takes one batched pass, and each momentum
    is checked like skew. The energy -tr(M W) / 4 is evaluated as
    sum(M~^2 / pair_sums) / 4 in the inertia eigenframe (docs/conventions.md).
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim < 2 or arr.shape[-2:] != (body.n, body.n):
        raise ValueError(f"dimension mismatch: state is {arr.shape}, body is {body.n}")
    _check_structure(arr, -1.0)
    _check_max_power(max_power, body.n)
    mt = body.to_eigenframe(arr)
    # exactly skew, so rounding in the rotation leaves no diagonal behind
    mt = 0.5 * (mt - np.swapaxes(mt, -2, -1))
    energy = 0.25 * np.sum(mt * mt / body.pair_sums, axis=(-2, -1))
    return np.concatenate(
        (energy[..., None], casimirs(mt), _manakov(mt, body, max_power)), axis=-1)


def invariant_labels(n: int, max_power: int) -> list[str]:
    casimir = [f"casimir_{k}" for k in range(1, n // 2 + 1)]
    return ["energy"] + casimir + manakov_labels(max_power)


@dataclass
class Trajectory:
    """Uniformly sampled trajectory stored as arrays.

    times (S,), momenta (S, n, n) in the ambient frame and invariants
    (S, k) with columns invariant_labels(n, manakov_max_power). step is
    the RK4 step; samples are spaced step * record_every apart in time.
    """

    times: np.ndarray
    momenta: np.ndarray
    invariants: np.ndarray
    step: float
    record_every: int = 1
    manakov_max_power: int = 2

    def momentum_displacement(self) -> float:
        """Max over samples of ||M(t) - M(0)|| / ||M(0)|| (absolute if M(0) = 0)."""
        m0 = self.momenta[0]
        scale = np.linalg.norm(m0)
        worst = np.linalg.norm(self.momenta - m0, axis=(1, 2)).max()
        return float(worst / scale) if scale > 0 else float(worst)

    def drift_summary(self) -> dict[str, float]:
        """Max relative drift |f(t) - f(0)| / max(1, |f(0)|) per invariant."""
        labels = invariant_labels(self.momenta.shape[-1], self.manakov_max_power)
        f0 = self.invariants[0]
        drift = np.abs(self.invariants - f0).max(axis=0) / np.maximum(1.0, np.abs(f0))
        return {label: float(d) for label, d in zip(labels, drift)}


def _double(value, field: str) -> float:
    """float(value), for a numeric parameter's range check; an integer beyond
    the double range, which float() refuses, is a ValueError naming field."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} is an integer too large for a double") from None


def _step_count(span: float, dt: float, record_every: int, name: str = "t_end") -> int:
    """Steps of size dt in span, the one check of every step grid. Rejects a
    dt, span or record_every that is not positive, 2**63 steps or more, a span
    not a multiple of dt, a record_every that does not divide the steps, and
    an integer dt or span beyond the double range."""
    if not _double(dt, "dt") > 0:
        raise ValueError("dt must be positive")
    if not _double(span, name) > 0:
        raise ValueError(f"{name} must be positive")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")
    if not span / dt < 2**63:
        raise ValueError(f"{name}={span} is too many steps of dt={dt}")
    nsteps = int(round(span / dt))
    if nsteps < 1:
        raise ValueError(f"{name} shorter than one step")
    if abs(nsteps * dt - span) > 1e-6 * dt:
        raise ValueError(f"{name}={span} is not an integer multiple of dt={dt}")
    if nsteps % record_every != 0:
        raise ValueError(
            f"record_every={record_every} must divide the step count {nsteps}"
        )
    return nsteps


def _check_step(m: np.ndarray, body: InertiaSpec, dt: float, guard: str = "reject") -> None:
    """Reject (guard="reject") or warn about (guard="warn") a step with
    dt * ||W||_2 above STEP_GUARD, W the angular velocity of m."""
    w, _, e = _scaled_velocity(m, body)
    speed = float(np.ldexp(np.linalg.norm(w, 2), e))
    if dt * speed > STEP_GUARD:
        msg = (
            f"dt * ||W|| = {dt * speed:.3f} exceeds the stability guard {STEP_GUARD}; "
            "reduce dt"
        )
        if guard == "reject":
            raise IntegrationAbort(msg)
        warnings.warn(msg)


def _require_finite(what: str, samples: np.ndarray, times: np.ndarray) -> None:
    """Raise IntegrationAbort at the first sample that is not all finite."""
    finite = np.isfinite(samples.reshape(times.size, -1)).all(axis=1)
    if not finite.all():
        raise IntegrationAbort(f"{what} became non-finite near t = {times[np.argmin(finite)]:.6g}")


def integrate(state, body: InertiaSpec, dt: float, t_end: float,
              record_every: int = 1, *, manakov_max_power: int | None = None,
              guard: str = "reject") -> Trajectory:
    """Fixed-step RK4 integration of the momentum equation.

    state is anything accepted by skew. Samples are recorded every
    `record_every` steps, which must divide the total step count
    round(t_end / dt), and their invariants are computed in one batched
    pass. Steps with dt * ||W(0)||_2 above 0.5 are rejected
    (guard="reject") or allowed with a warning (guard="warn"). A recorded
    momentum or invariant that is not finite raises IntegrationAbort.

    The flow runs in the inertia eigenframe through the C kernel of
    `freetop._kernels`, which raises KernelUnavailable where it cannot be
    built or loaded.
    """
    m0 = skew(state)
    nsteps = _step_count(t_end, dt, record_every)
    if guard not in ("reject", "warn"):
        raise ValueError("guard must be 'reject' or 'warn'")

    _check_dims(m0, body)
    _check_step(m0, body, dt, guard)

    if manakov_max_power is None:
        manakov_max_power = max(2, min(body.n, 4))
    _check_max_power(manakov_max_power, body.n)

    # the kernel records in the eigenframe; rotated back once below
    momenta = _kernels.rk4_momentum(body.to_eigenframe(m0), body.pair_sums, dt,
                                    nsteps, record_every)
    times = np.arange(momenta.shape[0]) * record_every * dt
    _require_finite("momentum", momenta, times)
    momenta = body.from_eigenframe(momenta)
    momenta = 0.5 * (momenta - momenta.transpose(0, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        invariants = compute_invariants(momenta, body, manakov_max_power)
    _require_finite("invariants", invariants, times)
    return Trajectory(
        times=times, momenta=momenta, invariants=invariants,
        step=dt, record_every=record_every, manakov_max_power=manakov_max_power)
