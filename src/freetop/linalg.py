"""Dense linear algebra for small symmetric and skew-symmetric matrices.

Everything is double precision and deterministic: the eigenframe is one
LAPACK `eigh` call through numpy's BLAS followed by a fixed eigenvector
sign convention, and no algorithm is randomized. Dimensions are expected
to stay small (n up to a few dozen); there is no sparse or blocked path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SymMatrix",
    "SkewMatrix",
    "eigen_symmetric",
]

# Relative structural defect tolerated when ingesting nearly symmetric /
# nearly skew arrays; storage is exact after ingestion.
STRUCTURE_TOL = 1e-9


def _as_square(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _unit(largest):
    """The power of two that brings `largest` below 1, or 1 if it is below
    1/2 already: a factor that scales exactly and keeps norms finite."""
    _, exponent = np.frexp(np.maximum(largest, 0.5))
    return np.ldexp(1.0, -exponent)


def _check_structure(arr: np.ndarray, sign: float) -> None:
    """Raise ValueError unless arr, one matrix or a stack (..., n, n), is
    finite and each matrix a equals sign * a.T within STRUCTURE_TOL of
    max(1, ||a||), Frobenius norms.

    A matrix whose largest entry is 1 or more is first scaled by a power of
    two that brings that entry below 1, so the norms cannot overflow; the
    scaling is exact, so wherever the unscaled norms are finite the decision
    is theirs.
    """
    largest = np.abs(arr).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(largest).all():
        raise ValueError("matrix entries must be finite")
    unit = _unit(largest)  # 1 in the scaled units; 1 when nothing is scaled
    scaled = arr * unit[..., None, None]
    d = scaled - sign * np.swapaxes(scaled, -2, -1)
    defect = np.sqrt((d * d).sum(axis=(-2, -1)))
    scale = np.maximum(unit, np.sqrt((scaled * scaled).sum(axis=(-2, -1))))
    if np.any(defect > STRUCTURE_TOL * scale):
        kind = "symmetric" if sign > 0 else "skew-symmetric"
        raise ValueError(
            f"matrix is not {kind}: structural defect {np.max(defect / scale):.3e} "
            f"relative to max(1, its norm) exceeds {STRUCTURE_TOL:.1e}"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _StructuredMatrix:
    """Shared read-only storage for SymMatrix / SkewMatrix.

    The invariant entries[j, i] == sign * entries[i, j] holds exactly:
    construction checks the input is structured up to STRUCTURE_TOL,
    projects it onto its structured part and makes that storage read-only.
    """

    __slots__ = ("_a",)
    _sign: float  # +1.0 symmetric, -1.0 skew

    def __init__(self, entries):
        arr = _as_square(entries)
        _check_structure(arr, self._sign)
        sym = 0.5 * (arr + self._sign * arr.T)
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries too large: their structured part overflows")
        if self._sign < 0:
            np.fill_diagonal(sym, 0.0)
        self._a = _readonly(sym)

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The read-only underlying storage (no copy)."""
        return self._a

    def __array__(self, dtype=None, copy=None):
        out = self._a.copy()
        return out if dtype is None else out.astype(dtype)

    def __getitem__(self, idx):
        return self._a[idx]

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


def _fix_column_signs(q: np.ndarray) -> None:
    """Flip columns so the first component larger than 1e-12 is positive."""
    lead = q[np.argmax(np.abs(q) > 1e-12, axis=0), np.arange(q.shape[1])]
    flip = lead < -1e-12  # a column with no such component has |lead| <= 1e-12
    q[:, flip] = -q[:, flip]


def eigen_symmetric(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (eigenvalues, basis) as read-only arrays, like `np.linalg.eigh`:
    eigenvalues ascending, basis columns the matching orthonormal
    eigenvectors, each with its first non-negligible component positive.
    Raises ArithmeticError if the basis is not orthonormal to 1e-12 * n or
    the reconstruction residual exceeds 1e-10 times the norm of the
    (symmetrized) input. Both residual norms are taken after one exact
    power-of-two scaling (as in `_check_structure`), so they cannot overflow.
    """
    a = s.array if isinstance(s, SymMatrix) else SymMatrix(s).array
    lam, v = np.linalg.eigh(a)
    _fix_column_signs(v)
    n = a.shape[0]
    if np.any(np.diff(lam) < 0):
        raise ArithmeticError("eigenvalues are not ascending")
    defect = np.linalg.norm(v.T @ v - np.eye(n))
    if defect > 1e-12 * n:
        raise ArithmeticError(f"eigenbasis not orthonormal: defect {defect:.3e}")
    unit = _unit(np.abs(a).max())
    scaled = a * unit
    resid = np.linalg.norm(v @ np.diag(lam * unit) @ v.T - scaled)
    norm = np.linalg.norm(scaled)
    if resid > 1e-10 * norm:
        raise ArithmeticError(
            f"relative eigendecomposition residual {resid / norm:.3e} exceeds 1e-10")
    return _readonly(lam), _readonly(v)
