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
from .linalg import (
    EigenFrame,
    SkewMatrix,
    SymMatrix,
    _check_structure,
    eigen_symmetric,
)

__all__ = [
    "InertiaSpec",
    "Trajectory",
    "IntegrationAbort",
    "inertia_apply",
    "inertia_invert",
    "vector_field",
    "energy",
    "casimirs",
    "manakov_integrals",
    "manakov_labels",
    "casimir_labels",
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

    J must be symmetric positive-definite with pairwise-distinct
    eigenvalues: positivity makes every pairwise eigenvalue sum positive,
    so the momentum-to-velocity map is invertible; distinctness is what
    the equilibrium classifier relies on. Eigenvalue gaps below
    GAP_TOL * max(eigenvalue) are rejected as degenerate.
    """

    def __init__(self, j):
        # A read-only copy of its own: J, the frame and pair_sums cannot disagree.
        self.J = SymMatrix(j)
        self.frame: EigenFrame = eigen_symmetric(self.J)
        lam = self.frame.eigenvalues
        if lam[0] <= 0.0:
            raise ValueError(
                f"inertia matrix must be positive definite (smallest eigenvalue {lam[0]:.3e})"
            )
        if len(lam) > 1:
            gap = float(np.diff(lam).min())
            limit = GAP_TOL * float(np.abs(lam).max())
            if gap < limit:
                raise ValueError(
                    f"inertia eigenvalues too close: gap {gap:.3e} below {limit:.3e}; "
                    "bodies with repeated moments are not supported"
                )
        pair = lam[:, None] + lam[None, :]
        pair.flags.writeable = False
        self._pair_sums = pair

    @classmethod
    def from_eigenvalues(cls, values) -> "InertiaSpec":
        return cls(SymMatrix.diagonal(values))

    @property
    def n(self) -> int:
        return self.J.n

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.frame.eigenvalues

    @property
    def basis(self) -> np.ndarray:
        return self.frame.basis

    @property
    def pair_sums(self) -> np.ndarray:
        """Matrix of pairwise eigenvalue sums lambda_i + lambda_j."""
        return self._pair_sums

    def to_eigenframe(self, a) -> np.ndarray:
        q = self.frame.basis
        return q.T @ np.asarray(a, dtype=float) @ q

    def from_eigenframe(self, a) -> np.ndarray:
        q = self.frame.basis
        return q @ np.asarray(a, dtype=float) @ q.T

    def __repr__(self):
        return f"InertiaSpec(n={self.n}, eigenvalues={self.eigenvalues.tolist()})"


def _skew_array(m) -> np.ndarray:
    if isinstance(m, SkewMatrix):
        return m.array
    return SkewMatrix(m).array


def _check_dims(arr: np.ndarray, body: InertiaSpec) -> None:
    if arr.shape[0] != body.n:
        raise ValueError(f"dimension mismatch: state is {arr.shape[0]}, body is {body.n}")


def inertia_apply(omega, body: InertiaSpec) -> SkewMatrix:
    """Momentum of an angular velocity: W J + J W."""
    w = _skew_array(omega)
    _check_dims(w, body)
    j = body.J.array
    return SkewMatrix(w @ j + j @ w)


def _invert_array(m: np.ndarray, body: InertiaSpec) -> np.ndarray:
    mt = body.to_eigenframe(m)
    ot = mt / body._pair_sums
    o = body.from_eigenframe(ot)
    return 0.5 * (o - np.swapaxes(o, -2, -1))


def inertia_invert(m, body: InertiaSpec) -> SkewMatrix:
    """Angular velocity of a momentum: entrywise division by the pairwise
    eigenvalue sums in the inertia eigenframe, rotated back."""
    arr = _skew_array(m)
    _check_dims(arr, body)
    return SkewMatrix(_invert_array(arr, body))


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


def _field_array(m: np.ndarray, body: InertiaSpec) -> np.ndarray:
    om = _invert_array(m, body)
    p = m @ om
    return p - p.T  # [M, W]; the transpose trick is exact for skew factors


def vector_field(m, body: InertiaSpec) -> SkewMatrix:
    """Right-hand side of the momentum equation, [M, W] with W = inverse inertia of M."""
    arr = _skew_array(m)
    _check_dims(arr, body)
    return SkewMatrix(_field_array(arr, body))


def _eigenframe_stack(m, body: InertiaSpec) -> np.ndarray:
    """Momenta (..., n, n) of the body's dimension, in the inertia eigenframe.

    Like SkewMatrix, rejects entries that are not finite or not
    skew-symmetric. The rotated stack is made exactly skew, so rounding in
    the rotation leaves no diagonal behind.
    """
    checked = isinstance(m, SkewMatrix)
    arr = m.array if checked else np.asarray(m, dtype=float)
    if arr.ndim < 2 or arr.shape[-2:] != (body.n, body.n):
        raise ValueError(f"dimension mismatch: state is {arr.shape}, body is {body.n}")
    if not checked:
        _check_structure(arr, -1.0)
    mt = body.to_eigenframe(arr)
    return 0.5 * (mt - np.swapaxes(mt, -2, -1))


def _energy(mt: np.ndarray, body: InertiaSpec) -> np.ndarray:
    return 0.25 * np.sum(mt * mt / body.pair_sums, axis=(-2, -1))


def energy(m, body: InertiaSpec):
    """Kinetic energy -tr(M W) / 4, evaluated as sum(M~^2 / pair_sums) / 4
    in the inertia eigenframe.

    The normalization makes n = 3 reduce to the familiar sum of
    (moment * rate^2) / 2 over the principal axes. m may be one momentum
    or a stack (..., n, n).
    """
    return _energy(_eigenframe_stack(m, body), body)


def casimirs(m) -> np.ndarray:
    """Traces of even powers tr(M^(2k)) for k = 1 .. n // 2, in any frame.

    m may be one momentum or a stack (..., n, n); the traces are the last axis.
    """
    arr = m.array if isinstance(m, SkewMatrix) else np.asarray(m, dtype=float)
    m2 = arr @ arr
    out = []
    acc = m2
    for _ in range(arr.shape[-1] // 2):
        out.append(np.trace(acc, axis1=-2, axis2=-1))
        acc = acc @ m2
    return np.stack(out, axis=-1)


def casimir_labels(n: int) -> list[str]:
    return [f"casimir_{k}" for k in range(1, n // 2 + 1)]


def _manakov(mt: np.ndarray, body: InertiaSpec, max_power: int) -> np.ndarray:
    if max_power < 2:
        raise ValueError("max_power must be at least 2")
    if max_power > body.n:
        raise ValueError(f"max_power {max_power} exceeds the dimension {body.n}")
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


def manakov_integrals(m, body: InertiaSpec, max_power: int) -> np.ndarray:
    """Conserved spectral coefficients of the momentum flow.

    For the matrix pencil M + z * J^2, returns the coefficient of z^j in
    tr((M + z J^2)^k) for every k = 2 .. max_power and j = 0 .. k, ordered
    by ascending k then ascending j. Every coefficient is a first integral
    of the motion. The traces are taken in the inertia eigenframe, where
    J^2 = diag(lambda^2) and a product with it scales columns. m may be one
    momentum or a stack (..., n, n); the coefficients are the last axis.
    """
    return _manakov(_eigenframe_stack(m, body), body, max_power)


def manakov_labels(max_power: int) -> list[str]:
    """Column labels matching manakov_integrals ordering."""
    return [f"manakov_{k}_{j}" for k in range(2, max_power + 1) for j in range(k + 1)]


def compute_invariants(m, body: InertiaSpec, max_power: int) -> np.ndarray:
    """Energy, Casimirs and Manakov coefficients of one momentum or a stack.

    Returns an array (..., k) whose last axis follows invariant_labels(n,
    max_power); a stack (S, n, n) takes one batched pass.
    """
    mt = _eigenframe_stack(m, body)
    return np.concatenate(
        (_energy(mt, body)[..., None], casimirs(mt), _manakov(mt, body, max_power)),
        axis=-1)


def invariant_labels(n: int, max_power: int) -> list[str]:
    return ["energy"] + casimir_labels(n) + manakov_labels(max_power)


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


def _step_count(span: float, dt: float, record_every: int, name: str = "t_end") -> int:
    """Steps of size dt in span; rejects a span that is not a multiple of
    dt and a record_every that does not divide the step count."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if span <= 0:
        raise ValueError(f"{name} must be positive")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")
    if not np.isfinite(span / dt):
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


def integrate(state, body: InertiaSpec, dt: float, t_end: float,
              record_every: int = 1, *, manakov_max_power: int | None = None,
              guard: str = "reject") -> Trajectory:
    """Fixed-step RK4 integration of the momentum equation.

    state is anything accepted by SkewMatrix. Samples are recorded every
    `record_every` steps, which must divide the total step count
    round(t_end / dt), and their invariants are computed in one batched
    pass. Steps with dt * ||W(0)||_2 above 0.5 are rejected
    (guard="reject") or allowed with a warning (guard="warn").

    The flow runs in the inertia eigenframe through the C kernel, or the
    numpy twin where the C kernel cannot be built (see `freetop._kernels`).
    """
    m0 = _skew_array(state)
    nsteps = _step_count(t_end, dt, record_every)
    if guard not in ("reject", "warn"):
        raise ValueError("guard must be 'reject' or 'warn'")

    _check_dims(m0, body)
    _check_step(m0, body, dt, guard)

    if manakov_max_power is None:
        manakov_max_power = max(2, min(body.n, 4))

    # the kernel records in the eigenframe; rotated back once below
    momenta = _kernels.rk4_momentum(body.to_eigenframe(m0), np.asarray(body._pair_sums), dt,
                                    nsteps, record_every)
    times = np.arange(momenta.shape[0]) * record_every * dt
    finite = np.isfinite(momenta).all(axis=(1, 2))
    if not finite.all():
        raise IntegrationAbort(
            f"momentum became non-finite near t = {times[np.argmin(finite)]:.6g}")
    momenta = body.from_eigenframe(momenta)
    momenta = 0.5 * (momenta - momenta.transpose(0, 2, 1))
    return Trajectory(
        times=times, momenta=momenta,
        invariants=compute_invariants(momenta, body, manakov_max_power),
        step=dt, record_every=record_every, manakov_max_power=manakov_max_power)
