"""Stationary rotations of the free n-dimensional body.

A momentum M is stationary exactly when the square of its angular
velocity commutes with the inertia matrix. In the inertia eigenframe
every stationary W is block-diagonal: for each distinct rotation rate
w_i an even-sized block w_i * A_i where A_i is an orthogonal skew matrix
with A_i^2 = -I (a complex structure), plus a zero block on the fixed
axes. An equilibrium is *regular* when every A_i is a signed permutation
matrix, i.e. the rotation planes are spanned by principal axes; otherwise
it is *exotic*. Exotic equilibria require a repeated rotation rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .body import InertiaSpec, _check_dims, _scaled_velocity
from .linalg import SkewMatrix, _double, _positive, skew

__all__ = [
    "ClassificationError",
    "NotAnEquilibrium",
    "AmbiguousClustering",
    "FrequencyBlock",
    "standard_structure",
    "random_structure",
    "EquilibriumStructure",
    "is_equilibrium",
    "classify",
    "generate",
]

DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6

# Entries of a block structure are snapped to {0, +1, -1} within this
# tolerance when deciding regular vs exotic.
SIGNED_PERM_TOL = 1e-8

# EquilibriumStructure.matches(): relative tolerance on the rates and
# absolute tolerance on the entries of the block structures.
MATCH_TOL = 1e-8

# Type-level tolerance on A^T A = I and A^2 = -I.
STRUCTURE_DEFECT_TOL = 1e-10


class ClassificationError(Exception):
    """Base class for classification failures."""


class NotAnEquilibrium(ClassificationError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class AmbiguousClustering(ClassificationError):
    """Classification undecided: a stationary momentum whose normal form
    fails a check of classify, such as two rates closer than cluster_tol or
    a frequency group with an odd number of axes."""


def _structure_defect(a: np.ndarray) -> float:
    """||A^T A - I|| of an exactly skew matrix A of even dimension, which is
    ||A^2 + I|| too (A^T = -A); raises ValueError unless A is a complex
    structure within STRUCTURE_DEFECT_TOL."""
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError(f"complex structures need even dimension, got {n}")
    defect = float(np.linalg.norm(a.T @ a - np.eye(n)))
    if defect > STRUCTURE_DEFECT_TOL:
        raise ValueError(f"not orthogonal: defect {defect:.3e}")
    return defect


def standard_structure(m: int) -> np.ndarray:
    """Block-diagonal quarter-turn in m consecutive coordinate pairs: the
    2m x 2m complex structure with +1 at (2k, 2k+1), -1 at (2k+1, 2k)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    k = np.zeros((2 * m, 2 * m))
    even = np.arange(0, 2 * m, 2)
    k[even, even + 1] = 1.0
    k[even + 1, even] = -1.0
    return k


def random_structure(m: int, rng: np.random.Generator) -> np.ndarray:
    """The standard structure conjugated by an orthogonal matrix drawn from
    rng via QR of a Gaussian matrix with the positive-diagonal convention
    (uniform over the complex structures of dimension 2m), projected onto
    its exactly skew part and read-only."""
    k = standard_structure(m)
    g = rng.standard_normal((2 * m, 2 * m))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    return skew(q @ k @ q.T)


def _is_signed_permutation(a: np.ndarray) -> bool:
    """True when every entry is 0 or +-1 within SIGNED_PERM_TOL, one
    nonzero per row and column."""
    near_zero = np.abs(a) <= SIGNED_PERM_TOL
    near_unit = np.abs(np.abs(a) - 1.0) <= SIGNED_PERM_TOL
    if not np.all(near_zero | near_unit):
        return False
    support = ~near_zero
    return bool(np.all(support.sum(axis=0) == 1) and np.all(support.sum(axis=1) == 1))


@dataclass(frozen=True, eq=False)
class FrequencyBlock:
    """One rotation rate with its axes and block structure.

    axes are indices into the ascending eigenvalue order of the inertia
    matrix, stored ascending; A, the block's complex structure (orthogonal,
    skew, A^2 = -I), is expressed in that axis order and stored as an
    exactly skew read-only array; defect is its measured distance from a
    complex structure (see _structure_defect). Blocks compare by identity;
    compare structures with EquilibriumStructure.matches.
    """

    omega: float
    axes: tuple
    A: np.ndarray
    defect: float = field(init=False, repr=False)

    def __post_init__(self):
        axes = tuple(int(a) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        a = skew(self.A)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "defect", _structure_defect(a))
        if not self.omega > 0:
            raise ValueError("block frequency must be positive")
        if len(axes) != a.shape[0]:
            raise ValueError(
                f"block has {len(axes)} axes but a structure of dimension {a.shape[0]}"
            )
        if len(set(axes)) != len(axes) or list(axes) != sorted(axes):
            raise ValueError("block axes must be strictly ascending")


def _check_rate_gaps(rates, cluster_tol: float) -> None:
    """Raise ValueError unless each rate of a descending list is distinct
    from the next: 1 - (w2 / w1)^2 >= cluster_tol."""
    for w1, w2 in zip(rates, rates[1:]):
        gap = 1.0 - (w2 / w1) ** 2
        if gap < cluster_tol:
            raise ValueError(f"block rates {w1:.9g} and {w2:.9g} too close "
                             f"(squared gap {gap:.3e} < {cluster_tol:.1e})")


class EquilibriumStructure:
    """Canonical description of a stationary rotation.

    Blocks are sorted by descending rate, axes ascending inside each
    block; the regular flag is computed, not supplied: it is true exactly
    when every block structure is a signed permutation matrix.
    """

    def __init__(self, blocks, fixed_axes, n: int, residual: float = 0.0,
                 cluster_tol: float = DEFAULT_CLUSTER_TOL):
        cluster_tol = _positive(cluster_tol, "cluster_tol")
        blocks = tuple(sorted(blocks, key=lambda b: -b.omega))
        fixed_axes = tuple(sorted(int(a) for a in fixed_axes))
        used = [a for b in blocks for a in b.axes] + list(fixed_axes)
        if sorted(used) != list(range(n)):
            raise ValueError(
                f"block and fixed axes must partition 0..{n - 1}, got {sorted(used)}"
            )
        _check_rate_gaps([b.omega for b in blocks], cluster_tol)
        self.blocks = blocks
        self.fixed_axes = fixed_axes
        self.n = n
        self.residual = float(residual)
        self.regular = all(_is_signed_permutation(b.A) for b in blocks)

    def matches(self, other: "EquilibriumStructure") -> bool:
        """Canonical-form equality up to MATCH_TOL."""
        if self.n != other.n or self.regular != other.regular:
            return False
        if self.fixed_axes != other.fixed_axes or len(self.blocks) != len(other.blocks):
            return False
        for a, b in zip(self.blocks, other.blocks):
            if a.axes != b.axes:
                return False
            if abs(a.omega - b.omega) > MATCH_TOL * max(a.omega, b.omega):
                return False
            if np.max(np.abs(a.A - b.A)) > MATCH_TOL:
                return False
        return True

    def __repr__(self):
        kind = "regular" if self.regular else "exotic"
        parts = ", ".join(f"w={b.omega:.6g} axes={b.axes}" for b in self.blocks)
        return f"EquilibriumStructure(n={self.n}, {kind}, [{parts}], fixed={self.fixed_axes})"


def _stationarity(m, body: InertiaSpec, tol: float):
    """(arr, w, s, e, residual) of a momentum: its checked skew array,
    W~ = w * 2**e from _scaled_velocity, s = w^2, and the stationarity
    residual, which is 0 for the zero momentum."""
    _positive(tol, "tol")
    arr = skew(m)
    _check_dims(arr, body)
    w, lam, e = _scaled_velocity(arr, body)
    s = w @ w
    s = 0.5 * (s + s.T)
    if not arr.any():
        return arr, w, s, e, 0.0
    c = (lam[:, None] - lam[None, :]) * s  # [J, W^2] in the eigenframe
    residual = np.linalg.norm(c) / (np.linalg.norm(lam) * np.linalg.norm(w) ** 2)
    return arr, w, s, e, float(residual)


def is_equilibrium(m, body: InertiaSpec, tol: float = DEFAULT_TOL):
    """Test whether a momentum is a stationary rotation.

    Returns (flag, residual) with residual = ||[J, W^2]|| / (||J|| ||W||^2),
    all norms Frobenius, taken in the inertia eigenframe as
    ||(lambda_i - lambda_j) (W~^2)_ij|| / (||lambda|| ||W~||^2) on W~ and
    lambda scaled by powers of two (see docs/conventions.md), so a finite
    momentum always gives a finite residual.
    """
    residual = _stationarity(m, body, tol)[4]
    return residual <= tol, residual


def _require_stationary(m, body: InertiaSpec, tol: float):
    """_stationarity of a momentum stationary within tol; raises
    NotAnEquilibrium otherwise."""
    out = _stationarity(m, body, tol)
    if out[4] > tol:
        raise NotAnEquilibrium(
            f"momentum is not stationary (residual {out[4]:.3e} > tol {tol:.1e})", out[4])
    return out


def _cluster_rates(values: np.ndarray, tol: float):
    """Group squared rates into frequency clusters: values, positive and
    sorted descending, join the cluster whose head (its largest value)
    they are within tol * head of, and start a new one otherwise."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and values[groups[-1][0]] - v <= tol * values[groups[-1][0]]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def classify(m, body: InertiaSpec, tol: float = DEFAULT_TOL,
             cluster_tol: float = DEFAULT_CLUSTER_TOL) -> EquilibriumStructure:
    """Normal form of a stationary rotation.

    In the inertia eigenframe: checks that W^2 is diagonal, groups its
    diagonal into frequency clusters (plus a zero group), and builds a
    FrequencyBlock from the block of W on each cluster and an
    EquilibriumStructure from the blocks; those types own the
    complex-structure and rate-gap rules.

    Raises NotAnEquilibrium exactly when is_equilibrium(m, body, tol) is
    false; then AmbiguousClustering when W^2 is not diagonal or W has
    off-block entries beyond tol, a group has an odd number of axes or a
    block that is not a complex structure, or two group rates fail the
    rate-gap rule. Raises ArithmeticError for a rate outside the double range.
    """
    cluster_tol = _positive(cluster_tol, "cluster_tol")
    if not 0 < _double(tol, "tol") < cluster_tol:
        raise ValueError("need 0 < tol < cluster_tol")
    _, om_t, s, e, r_eq = _require_stationary(m, body, tol)
    n = body.n
    if not om_t.any():
        return EquilibriumStructure((), tuple(range(n)), n=n, residual=0.0,
                                    cluster_tol=cluster_tol)

    # om_t is W~ scaled by 2**-e; every test below is relative to its norm.
    scale_w = np.linalg.norm(om_t)
    scale_s = scale_w ** 2

    off = s - np.diag(np.diag(s))
    r_diag = float(np.max(np.abs(off)) / scale_s)
    if r_diag > tol:
        raise AmbiguousClustering("W^2 is not diagonal in the inertia eigenframe: "
                                  f"off-diagonal {r_diag:.3e} > tol {tol:.1e}")

    d = np.diag(s)
    zero_mask = np.abs(d) <= tol * scale_s
    zero_axes = [int(i) for i in np.flatnonzero(zero_mask)]
    live = np.flatnonzero(~zero_mask)
    vals = -d[live]  # squared rates, positive

    order = np.argsort(-vals, kind="stable")
    vals_sorted = vals[order]
    axes_sorted = live[order]

    # Entries of W outside the diagonal blocks (and on zero-group rows)
    # must vanish.
    allowed = np.zeros((n, n), dtype=bool)
    blocks = []
    for g in _cluster_rates(vals_sorted, tol):
        axes = np.sort(axes_sorted[g])
        if len(axes) % 2 != 0:
            raise AmbiguousClustering(
                f"frequency group on axes {axes.tolist()} has odd size; "
                "nonzero rates pair up, so the tolerances are misconfigured"
            )
        allowed[np.ix_(axes, axes)] = True
        rate = np.sqrt(np.mean(vals_sorted[g]))
        with np.errstate(over="ignore"):
            omega = float(np.ldexp(rate, e))
        if not 0.0 < omega < np.inf:
            raise ArithmeticError(
                f"rotation rate {rate:.6g} * 2**{e} on axes {axes.tolist()} "
                "is outside the double range")
        a = om_t[np.ix_(axes, axes)] / rate  # exactly skew, as om_t is
        try:
            blocks.append(FrequencyBlock(omega=omega, axes=axes, A=a))
        except ValueError as exc:
            # Stationary within tol, but the squared rates joined within tol
            # are not one rate within STRUCTURE_DEFECT_TOL: neither one block
            # nor two.
            hi, lo = vals_sorted[g[0]], vals_sorted[g[-1]]
            with np.errstate(over="ignore"):
                w_hi, w_lo = np.ldexp(np.sqrt([hi, lo]), e)
            raise AmbiguousClustering(
                f"group on axes {axes.tolist()} joins rates {w_hi:.12g} and "
                f"{w_lo:.12g} (squared gap {1.0 - lo / hi:.3e}), but its block "
                f"is not a complex structure: {exc}") from exc

    r_stray = float(np.max(np.abs(np.where(allowed, 0.0, om_t))) / scale_w)
    if r_stray > tol:
        raise AmbiguousClustering(
            f"W has off-block entries of relative size {r_stray:.3e} > tol {tol:.1e}")

    try:
        return EquilibriumStructure(blocks, zero_axes, n=n, cluster_tol=cluster_tol,
                                    residual=max(r_eq, r_diag, r_stray,
                                                 *(b.defect for b in blocks)))
    except ValueError as exc:
        raise AmbiguousClustering(str(exc)) from exc


def generate(structure: EquilibriumStructure, body: InertiaSpec):
    """Realize a structure as a stationary momentum of body.

    Returns (momentum, structure): the momentum M = W J + J W as a
    SkewMatrix, W the structure's angular velocity rotated out of the
    inertia eigenframe, and structure with its residual set to the
    momentum's stationarity residual. Standard structures give regular
    equilibria, random structures on blocks of four or more axes exotic
    ones (up to a measure-zero set of draws). Raises ValueError when the
    structure's dimension is not the body's.
    """
    if structure.n != body.n:
        raise ValueError(f"structure is {structure.n}-dimensional, body is {body.n}")
    w = np.zeros((body.n, body.n))
    for b in structure.blocks:
        w[np.ix_(b.axes, b.axes)] = b.omega * b.A
    w = body.from_eigenframe(w)
    w = 0.5 * (w - w.T)  # skew's projection, unchecked: SkewMatrix checks M
    momentum = SkewMatrix(w @ body.J + body.J @ w)
    ok, residual = is_equilibrium(momentum, body, 1e-10)
    if not ok:
        raise ArithmeticError(
            f"generated momentum misses the stationarity residual: {residual:.3e}"
        )
    structure.residual = residual
    return momentum, structure
