"""Dense linear algebra for small symmetric and skew-symmetric matrices.

Everything is double precision and deterministic: the eigenframe is one
LAPACK `eigh` call through numpy's BLAS followed by a fixed eigenvector
sign convention, and no algorithm is randomized. Dimensions are expected
to stay small (n up to a few dozen); there is no sparse or blocked path.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries too large: their structured part overflows")
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


def eigen_symmetric(s) -> EigenFrame:
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Eigenvalues are ascending; eigenvector signs are fixed by the first
    non-negligible component. Raises ArithmeticError if the reconstruction
    residual exceeds 1e-10 times the norm of the (symmetrized) input.
    """
    a = s.array if isinstance(s, SymMatrix) else SymMatrix(s).array
    lam, v = np.linalg.eigh(a)
    _fix_column_signs(v)
    frame = EigenFrame(eigenvalues=lam, basis=v)
    resid = np.linalg.norm(v @ np.diag(lam) @ v.T - a)
    if resid > 1e-10 * np.linalg.norm(a):
        raise ArithmeticError(f"eigendecomposition residual {resid:.3e} too large")
    return frame
