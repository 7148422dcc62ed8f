"""Dense linear algebra for small symmetric and skew-symmetric matrices.

Everything is double precision and deterministic: the eigenframe is one
LAPACK `eigh` call through numpy's BLAS followed by a fixed eigenvector
sign convention, and no algorithm is randomized. Dimensions are expected
to stay small (n up to a few dozen); there is no sparse or blocked path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sym",
    "skew",
    "SkewMatrix",
    "eigen_symmetric",
]

# Relative structural defect tolerated when ingesting nearly symmetric /
# nearly skew arrays; storage is exact after ingestion.
STRUCTURE_TOL = 1e-9


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
    is theirs. An exactly structured input skips the norms (its defect is 0).
    """
    largest = np.abs(arr).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(largest).all():
        raise ValueError("matrix entries must be finite")
    if (arr == sign * np.swapaxes(arr, -2, -1)).all():
        return
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


def _double(value, field: str, array: bool = False):
    """float(value), or a float array if array, for a range check; an integer
    beyond the double range, which both refuse, is a ValueError naming field."""
    try:
        return np.array(value, dtype=float) if array else float(value)
    except OverflowError:
        raise ValueError(f"{field} is an integer too large for a double") from None


def _positive(value, field: str) -> float:
    """_double(value, field), refused by name unless positive and finite."""
    if not 0 < (value := _double(value, field)) < np.inf:
        raise ValueError(f"{field} must be positive")
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _axis_sets(support: np.ndarray) -> np.ndarray:
    """Each axis labelled by the smallest axis of its set: the sets are the
    connected components of a symmetric boolean n x n support, an axis with
    no entry off the diagonal alone."""
    reach = support | np.eye(support.shape[0], dtype=bool)
    while not np.array_equal(step := reach @ reach, reach):
        reach = step
    return np.argmax(reach, axis=1)


def _structured(entries, sign: float) -> np.ndarray:
    arr = _double(entries, "a matrix entry", array=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    _check_structure(arr, sign)
    # arr is finite here, so a skew part's diagonal x + (-x) is exactly +0
    out = 0.5 * (arr + sign * arr.T)
    if not np.isfinite(out).all():
        raise ValueError("matrix entries too large: their structured part overflows")
    return _readonly(out)


def sym(a) -> np.ndarray:
    """The symmetric part of a square matrix that is symmetric within
    STRUCTURE_TOL (see `_check_structure`), as a new read-only float64
    array; raises ValueError otherwise."""
    return _structured(a, 1.0)


def skew(a) -> np.ndarray:
    """The skew part of a square matrix that is skew-symmetric within
    STRUCTURE_TOL, with an exactly zero diagonal, as a new read-only float64
    array; raises ValueError otherwise. A SkewMatrix gives its storage."""
    if isinstance(a, SkewMatrix):
        return a.array
    return _structured(a, -1.0)


class SkewMatrix:
    """A momentum checked once: `array` is skew(entries), which skew gives
    back without a second check. `generate` returns one; everything else
    takes and returns plain arrays."""

    __slots__ = ("array",)

    def __init__(self, entries):
        self.array = skew(entries)

    def __array__(self, dtype=None, copy=None):
        out = self.array.copy()
        return out if dtype is None else out.astype(dtype)


def _fix_column_signs(q: np.ndarray) -> None:
    """Flip columns so the first component larger than 1e-12 is positive."""
    lead = q[np.argmax(np.abs(q) > 1e-12, axis=0), np.arange(q.shape[1])]
    flip = lead < -1e-12  # a column with no such component has |lead| <= 1e-12
    q[:, flip] = -q[:, flip]


def eigen_symmetric(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Decomposes sym(s), so raises ValueError where sym does. Returns
    (eigenvalues, basis) as read-only arrays, like `np.linalg.eigh`:
    eigenvalues ascending, basis columns the matching orthonormal
    eigenvectors, each with its first non-negligible component positive.
    Raises ArithmeticError if the basis is not orthonormal to 1e-12 * n or
    the reconstruction residual exceeds 1e-10 times the norm of sym(s). Both residual norms are taken after one exact
    power-of-two scaling (as in `_check_structure`), so they cannot overflow.
    """
    a = sym(s)
    lam, v = np.linalg.eigh(a)
    _fix_column_signs(v)
    n = a.shape[0]
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
