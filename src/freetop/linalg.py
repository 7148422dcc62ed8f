"""Dense linear algebra for small symmetric and skew-symmetric matrices.

Everything is double precision and deterministic: fixed iteration orders,
fixed sign conventions, no randomized algorithms. Dimensions are expected
to stay small (n up to a few dozen); there is no sparse or blocked path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SymMatrix",
    "SkewMatrix",
    "EigenFrame",
    "commutator",
    "eigen_symmetric",
]

# Relative structural defect tolerated when ingesting nearly symmetric /
# nearly skew arrays; storage is exact after ingestion.
STRUCTURE_TOL = 1e-9

_EPS = np.finfo(float).eps


def _as_square(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _StructuredMatrix:
    """Shared storage for SymMatrix / SkewMatrix.

    The invariant entries[j, i] == sign * entries[i, j] holds exactly:
    construction projects onto the structured part (after checking the
    input is structured up to `tol`), and item assignment writes both
    mirror entries.
    """

    __slots__ = ("_a",)
    _sign: float  # +1.0 symmetric, -1.0 skew

    def __init__(self, entries, tol: float = STRUCTURE_TOL):
        arr = _as_square(entries)
        defect = np.linalg.norm(arr - self._sign * arr.T)
        scale = max(1.0, np.linalg.norm(arr))
        if defect > tol * scale:
            kind = "symmetric" if self._sign > 0 else "skew-symmetric"
            raise ValueError(
                f"matrix is not {kind}: structural defect {defect:.3e} "
                f"exceeds {tol:.1e} * {scale:.3e}"
            )
        sym = 0.5 * (arr + self._sign * arr.T)
        if self._sign < 0:
            np.fill_diagonal(sym, 0.0)
        self._a = sym

    @classmethod
    def zeros(cls, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        obj = cls.__new__(cls)
        obj._a = np.zeros((n, n))
        return obj

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying storage (no copy)."""
        v = self._a.view()
        return _readonly(v)

    def to_array(self) -> np.ndarray:
        return self._a.copy()

    def __array__(self, dtype=None, copy=None):
        out = self._a.copy()
        return out if dtype is None else out.astype(dtype)

    def __getitem__(self, idx):
        return self._a[idx]

    def __setitem__(self, idx, value):
        i, j = idx
        v = float(value)
        if not np.isfinite(v):
            raise ValueError("matrix entries must be finite")
        if self._sign < 0 and i == j and v != 0.0:
            raise ValueError("diagonal of a skew-symmetric matrix is zero")
        self._a[i, j] = v
        self._a[j, i] = self._sign * v

    def copy(self):
        obj = type(self).__new__(type(self))
        obj._a = self._a.copy()
        return obj

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.all(self._a == other._a))

    __hash__ = None

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(n={self.n})\n{self._a!r}"


class SymMatrix(_StructuredMatrix):
    """Real symmetric matrix with structurally enforced symmetry."""

    _sign = 1.0

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("expected a nonempty 1-d list of diagonal values")
        return cls(np.diag(vals))


class SkewMatrix(_StructuredMatrix):
    """Real skew-symmetric matrix with structurally enforced antisymmetry."""

    _sign = -1.0

    @classmethod
    def rotation_generator(cls, n: int, i: int, j: int, omega: float = 1.0) -> "SkewMatrix":
        """Generator of a rotation in the (i, j) coordinate plane.

        The (i, j) entry is +omega, so exp(t * G) rotates e_j toward e_i.
        """
        if i == j:
            raise ValueError("plane axes must differ")
        g = cls.zeros(n)
        g[i, j] = omega
        return g


@dataclass(frozen=True)
class EigenFrame:
    """Orthonormal eigenbasis of a symmetric matrix.

    eigenvalues are ascending; basis columns are the matching eigenvectors,
    each with its first non-negligible component positive.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.basis, dtype=float)
        n = q.shape[0]
        if q.shape != (n, n) or lam.shape != (n,):
            raise ValueError("inconsistent eigenframe shapes")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be ascending")
        defect = np.linalg.norm(q.T @ q - np.eye(n))
        if defect > 1e-12 * n:
            raise ValueError(f"basis not orthonormal: defect {defect:.3e}")
        object.__setattr__(self, "eigenvalues", _readonly(lam.copy()))
        object.__setattr__(self, "basis", _readonly(q.copy()))

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def commutator(a, b) -> np.ndarray:
    """Matrix commutator a @ b - b @ a.

    Returns the raw product matrix; callers assert structure (the result
    is skew when both arguments are skew or both are symmetric).
    """
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if aa.shape != bb.shape or aa.ndim != 2 or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    return aa @ bb - bb @ aa


def _fix_column_signs(q: np.ndarray) -> None:
    """Flip columns so the first component larger than 1e-12 is positive."""
    lead = q[np.argmax(np.abs(q) > 1e-12, axis=0), np.arange(q.shape[1])]
    flip = lead < -1e-12  # a column with no such component has |lead| <= 1e-12
    q[:, flip] = -q[:, flip]


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin Jacobi order (Brent & Luk, 1985): per round, (p, q) index
    arrays of floor(n/2) disjoint pairs p < q sorted by p. One sweep's rounds
    cover every pair once: n - 1 rounds for even n, n for odd n (one index
    per round idles, paired with a phantom index n)."""
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted((min(i, j), max(i, j)) for i, j in zip(ring[: m // 2], ring[::-1])
                       if max(i, j) < n)
        if pairs:
            rounds.append(tuple(_readonly(np.array(x, dtype=np.intp)) for x in zip(*pairs)))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def eigen_symmetric(s, max_sweeps: int = 64) -> EigenFrame:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    Deterministic: each sweep runs the fixed rounds of `_round_robin`, and
    a round rotates all its disjoint pairs in one update A <- G^T A G,
    V <- V G (a pair with negligible a_pq gets the identity). Eigenvalues
    are sorted ascending with a stable sort, eigenvector signs fixed by
    the first non-negligible component.

    Raises ArithmeticError if the off-diagonal mass has not converged
    after `max_sweeps` sweeps.
    """
    src = np.asarray(s, dtype=float) if not isinstance(s, SymMatrix) else s.array
    a = SymMatrix(src).to_array()  # validates symmetry, copies
    n = a.shape[0]
    v = np.eye(n)
    norm = np.linalg.norm(a)
    if norm > 0.0:
        stop = n * _EPS * norm
        skip = 0.1 * _EPS * norm
        # Flat indices of (p, p), (q, q), (p, q), (q, p) for each round.
        rounds = [(p.size, np.concatenate((p * n + p, q * n + q, p * n + q, q * n + p)))
                  for p, q in _round_robin(n)]
        for _ in range(max_sweeps):
            off = np.linalg.norm(a - np.diag(np.diag(a)))
            if off <= stop:
                break
            for k, flat in rounds:
                app, aqq, apq = a.take(flat[: 3 * k]).reshape(3, k)
                rot = np.abs(apq) > skip
                if not rot.any():
                    continue
                tau = (aqq - app) / (2.0 * np.where(rot, apq, 1.0))
                t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
                t = np.where(rot, t, 0.0)
                c = 1.0 / np.hypot(1.0, t)
                sn = t * c
                g = np.eye(n)
                g.put(flat, np.concatenate((c, c, sn, -sn)))
                a = g.T @ a @ g
                apq = np.where(rot, 0.0, apq)  # the rotation annihilates a_pq
                a.put(flat[2 * k:], np.concatenate((apq, apq)))
                v = v @ g
        else:
            raise ArithmeticError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps "
                "(degenerate or ill-scaled input)"
            )
    lam = np.diag(a).copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    v = v[:, order]
    _fix_column_signs(v)
    frame = EigenFrame(eigenvalues=lam, basis=v)
    resid = np.linalg.norm(v @ np.diag(lam) @ v.T - src)
    if norm > 0.0 and resid > 1e-10 * norm:
        raise ArithmeticError(f"eigendecomposition residual {resid:.3e} too large")
    return frame
