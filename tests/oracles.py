"""Independent reference implementations used to pin expected values.

Everything here stays deliberately separate from the package internals:
the classical three-dimensional top is integrated through scipy from the
textbook vector equations, derivative operators are rebuilt by plain
finite differencing, and ranks are taken from Gram-matrix eigenvalues
rather than the SVD path the package uses. inertia_apply is the inertia
map skew(W J + J W) in the ambient frame, with no eigenframe in it; the
ambient-frame operators invert_array, inertia_invert and vector_field are
the inverse inertia map and momentum field the package once shipped, and
ambient_linearization is the linearization built from them, through the
so(n) coordinate maps skew_to_vec and vec_to_skew that the package once
shipped too. Only the tests and the references here use them.
pair_block_spectrum predicts the linearization spectrum of a regular
equilibrium from its normal form alone.
dumps_per_item is the canonical JSON writer as it was before float arrays
went through one template: it turns an array into lists and formats a list
item by item or row by row. rows_per_entry is the matrix-row reader as it
was before rows of plain numbers went through one np.array call, and
structure_check_by_norms is the structure check with no short-circuit for
exactly structured input: both always take their slow path.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_sylvester
from scipy.sparse.csgraph import connected_components

import freetop as ft
from freetop.linalg import STRUCTURE_TOL, _unit
from freetop.serialize import SchemaError, _number


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


def commutator(a, b):
    """Matrix commutator a @ b - b @ a of two square matrices of one shape."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if aa.shape != bb.shape or aa.ndim != 2 or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    return aa @ bb - bb @ aa


# -- classical three-dimensional top ----------------------------------------

def hat(m):
    """Vector to skew matrix; m1 = M[2,1], m2 = M[0,2], m3 = M[1,0]."""
    return np.array([
        [0.0, -m[2], m[1]],
        [m[2], 0.0, -m[0]],
        [-m[1], m[0], 0.0],
    ])


def unhat(M):
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def moments_of(eigenvalues):
    """Principal moments of the vector form: I_k = tr(J) - lambda_k."""
    lam = np.asarray(eigenvalues, dtype=float)
    return lam.sum() - lam


def euler3d_rhs(m, moments):
    return np.cross(m, m / moments)


def euler3d_solve(m0, moments, t_end):
    """High-accuracy dense solution of dm/dt = m x (m / I)."""
    sol = solve_ivp(
        lambda t, m: euler3d_rhs(m, moments),
        (0.0, t_end),
        np.asarray(m0, dtype=float),
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    assert sol.success
    return sol.sol


# -- momentum flow in the ambient frame --------------------------------------

def _skew_of_body(m, body):
    arr = ft.skew(m)
    if arr.shape[0] != body.n:
        raise ValueError(f"dimension mismatch: state is {arr.shape[0]}, body is {body.n}")
    return arr


def inertia_apply(omega, body):
    """Momentum of an angular velocity: skew(W J + J W), in the ambient frame."""
    w = _skew_of_body(omega, body)
    return ft.skew(w @ body.J + body.J @ w)


def invert_array(m, body):
    """Angular velocity of a momentum or a stack (..., n, n), unchecked:
    entrywise division by the pairwise eigenvalue sums in the inertia
    eigenframe, rotated back and made exactly skew."""
    mt = body.to_eigenframe(m)
    ot = mt / body.pair_sums
    o = body.from_eigenframe(ot)
    return 0.5 * (o - np.swapaxes(o, -2, -1))


def inertia_invert(m, body):
    """Angular velocity of a momentum: invert_array of a checked momentum."""
    return ft.skew(invert_array(_skew_of_body(m, body), body))


def vector_field(m, body):
    """Right-hand side of the momentum equation, [M, W] with W = inverse inertia of M."""
    arr = _skew_of_body(m, body)
    p = arr @ invert_array(arr, body)
    return ft.skew(p - p.T)  # [M, W]; the transpose trick is exact for skew factors


def ambient_linearization(m, body):
    """Matrix of dM -> [dM, W] + [M, Jinv(dM)] in the ambient so(n) basis,
    applied once to the whole basis stack, all in the ambient frame."""
    m = np.asarray(m, dtype=float)
    om = invert_array(m, body)
    d = body.n * (body.n - 1) // 2
    e = vec_to_skew(np.eye(d), body.n)
    d_om = invert_array(e, body)
    return skew_to_vec((e @ om - om @ e) + (m @ d_om - d_om @ m)).T


def rk4_ambient(m0, body, dt, nsteps):
    """Classical RK4 on dM/dt = [M, W] in the ambient frame, one
    vector_field call per stage; returns the momentum after nsteps."""
    m = np.asarray(m0, dtype=float)

    def field(y):
        return vector_field(y, body)

    for _ in range(nsteps):
        k1 = field(m)
        k2 = field(m + (0.5 * dt) * k1)
        k3 = field(m + (0.5 * dt) * k2)
        k4 = field(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return m


# -- momentum flow in the eigenframe -----------------------------------------

def rk4_momentum_numpy(m0: np.ndarray, pair_sums: np.ndarray, dt: float,
                       nsteps: int, record_every: int) -> np.ndarray:
    """Classical RK4 on dM/dt = [M, M / pair_sums] (eigenframe coordinates).

    Returns an array of shape (nsteps // record_every + 1, n, n) holding
    the state every `record_every` steps, starting with m0.
    """

    def field(m):
        om = m / pair_sums
        p = m @ om
        return p - p.T

    nrec = nsteps // record_every
    out = np.empty((nrec + 1,) + m0.shape)
    out[0] = m0
    m = m0.copy()
    r = 1
    for step in range(nsteps):
        k1 = field(m)
        k2 = field(m + (0.5 * dt) * k1)
        k3 = field(m + (0.5 * dt) * k2)
        k4 = field(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (step + 1) % record_every == 0:
            out[r] = m
            r += 1
    return out


def rk4_momentum_loops(m0, pair_sums, dt, nsteps, record_every):
    """RK4 in the eigenframe as plain scalar loops, in the operation order of
    the C kernel (`_rk4.c`), so the two agree bit for bit."""
    n = m0.shape[0]
    nrec = nsteps // record_every
    out = np.empty((nrec + 1, n, n))
    for i in range(n):
        for j in range(n):
            out[0, i, j] = m0[i, j]
    m = m0.copy()
    y = np.empty((n, n))
    om = np.empty((n, n))
    k1 = np.empty((n, n))
    k2 = np.empty((n, n))
    k3 = np.empty((n, n))
    k4 = np.empty((n, n))

    def field(src, dst):
        for i in range(n):
            for j in range(n):
                om[i, j] = src[i, j] / pair_sums[i, j]
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for l in range(n):
                    acc += src[i, l] * om[l, j]
                dst[i, j] = acc
        for i in range(n):
            dst[i, i] = 0.0
            for j in range(i + 1, n):
                c = dst[i, j] - dst[j, i]
                dst[i, j] = c
                dst[j, i] = -c

    r = 1
    for step in range(nsteps):
        field(m, k1)
        for i in range(n):
            for j in range(n):
                y[i, j] = m[i, j] + 0.5 * dt * k1[i, j]
        field(y, k2)
        for i in range(n):
            for j in range(n):
                y[i, j] = m[i, j] + 0.5 * dt * k2[i, j]
        field(y, k3)
        for i in range(n):
            for j in range(n):
                y[i, j] = m[i, j] + dt * k3[i, j]
        field(y, k4)
        for i in range(n):
            for j in range(n):
                m[i, j] += (dt / 6.0) * (k1[i, j] + 2.0 * (k2[i, j] + k3[i, j]) + k4[i, j])
        if (step + 1) % record_every == 0:
            for i in range(n):
                for j in range(n):
                    out[r, i, j] = m[i, j]
            r += 1
    return out


def euler3d_linearization(m_star, moments, h=1e-7):
    """Jacobian of the classical vector field by central differences."""
    m_star = np.asarray(m_star, dtype=float)
    jac = np.empty((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        jac[:, k] = (euler3d_rhs(m_star + e, moments)
                     - euler3d_rhs(m_star - e, moments)) / (2 * h)
    return jac


# -- generic finite-difference operators over so(n) --------------------------

def so_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def basis_element(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0 / np.sqrt(2.0)
    e[j, i] = -e[i, j]
    return e


def to_coords(m):
    n = m.shape[0]
    return np.array([np.sqrt(2.0) * m[i, j] for i, j in so_pairs(n)])


def unscaled_loop_operator(func, n):
    """Matrix of a linear map so(n) -> so(n) in the orthonormal basis, one
    basis element at a time, with the sqrt(2) of the basis cancelled
    analytically: column (i, j) is the upper triangle of func(E_ij - E_ji).
    For func a commutator with a matrix every product is by 0 or +-1, so
    the matrix is exact."""
    pairs = so_pairs(n)
    out = np.empty((len(pairs), len(pairs)))
    for k, (i, j) in enumerate(pairs):
        e = np.zeros((n, n))
        e[i, j], e[j, i] = 1.0, -1.0
        image = func(e)
        out[:, k] = [image[a, b] for a, b in pairs]
    return out


def fd_operator(func, n, h):
    """Central-difference matrix of a map so(n) -> so(n)."""
    pairs = so_pairs(n)
    dim = len(pairs)
    out = np.empty((dim, dim))
    for k, (i, j) in enumerate(pairs):
        step = h * basis_element(n, i, j)
        out[:, k] = to_coords((func(step) - func(-step)) / (2.0 * h))
    return out


def linearize_fd(m_eq, body, h=None):
    """Central finite differences of the momentum field over the so(n)
    basis; cross-check for the analytic linearization."""
    m = np.asarray(m_eq, dtype=float)
    if h is None:
        scale = np.linalg.norm(m)
        h = 1e-6 * scale if scale > 0 else 1e-6
    return fd_operator(lambda d: vector_field(m + d, body),
                       m.shape[0], h)


def pair_block_spectrum(structure, eigenvalues):
    """Linearization spectrum of a regular equilibrium from its normal form.

    In the inertia eigenframe W~ is omega * A on each block's axes, and
    M~ = W~ * P with P the pair sums. The axes split into W~-invariant sets
    S_a: the planes of each block (the connected components of the support
    of A, a signed permutation) and each fixed axis alone. The linearization
    maps the S_a x S_b part X of a perturbation to
    L_ab(X) = X W_b - W_a X + M_a (X / P_ab) - (X / P_ab) M_b. A plane
    {i, j} of rate omega against a fixed axis k gives the two roots of
    mu^2 = omega^2 (l_i - l_k)(l_k - l_j) / ((l_i + l_k)(l_j + l_k)); every
    other pair block is built entry by entry and its eigenvalues taken with
    np.linalg.eigvals. Returns the union, n (n - 1) / 2 complex values.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    w = np.zeros((n, n))
    rate = {}  # plane -> its rate
    for block in structure.blocks:
        axes = np.asarray(block.axes)
        for i, a in enumerate(axes):
            for j, b in enumerate(axes):
                w[a, b] = block.omega * block.A[i, j]
        count, labels = connected_components(np.abs(block.A) > 0, directed=False)
        for c in range(count):
            rate[tuple(int(a) for a in axes[labels == c])] = block.omega
    sets = list(rate) + [(int(k),) for k in structure.fixed_axes]
    psum = lam[:, None] + lam[None, :]
    m = w * psum

    def coeff(p, q, r, s):
        """d L(X)[p, q] / d X[r, s], X a full n x n matrix."""
        out = 0.0
        if p == r:
            out += w[s, q] - m[s, q] / psum[r, s]
        if q == s:
            out += m[p, r] / psum[r, s] - w[p, r]
        return out

    eigs = []
    for a, sa in enumerate(sets):
        for sb in sets[a:]:
            if sa is sb:  # skew X within one set: coordinates p < q
                coords = [(p, q) for p in sa for q in sa if p < q]
                mat = [[coeff(p, q, r, s) - coeff(p, q, s, r) for r, s in coords]
                       for p, q in coords]
            elif {len(sa), len(sb)} == {1, 2}:
                (i, j), (k,) = (sa, sb) if len(sa) == 2 else (sb, sa)
                mu2 = (rate[(i, j)] ** 2 * (lam[i] - lam[k]) * (lam[k] - lam[j])
                       / ((lam[i] + lam[k]) * (lam[j] + lam[k])))
                mu = np.sqrt(complex(mu2))
                eigs += [mu, -mu]
                continue
            else:
                coords = [(p, q) for p in sa for q in sb]
                mat = [[coeff(p, q, r, s) for r, s in coords] for p, q in coords]
            if coords:
                eigs += list(np.linalg.eigvals(np.array(mat)))
    return np.array(eigs, dtype=complex)


def gram_rank_kernel(mat, rank_tol):
    """(rank, kernel_dim) via eigenvalues of the Gram matrix."""
    g = mat.T @ mat
    ev = np.linalg.eigvalsh(g)
    smax2 = ev[-1]
    if smax2 <= 0.0:
        return 0, mat.shape[1]
    cut = (rank_tol ** 2) * smax2
    kernel = int(np.sum(ev <= cut))
    return mat.shape[1] - kernel, kernel


def two_kernel_dims(m_eq, body, h=1e-6, rank_tol=1e-6):
    """Independent (stabilizer_dim, orbit_kernel_dim) at an equilibrium.

    The orbit map is differenced through the full nonlinear composition
    xi -> field(exp(s xi) M exp(-s xi)) at s = 0; the stabilizer map is
    xi -> [xi, M]. Ranks come from Gram eigenvalues.
    """
    m = np.asarray(m_eq, dtype=float)
    n = m.shape[0]
    scale = np.linalg.norm(m)

    def orbit_residual(xi):
        g = expm(xi)
        return vector_field(g @ m @ g.T, body)

    pairs = so_pairs(n)
    dim = len(pairs)
    k_mat = np.empty((dim, dim))
    ad_mat = np.empty((dim, dim))
    step = h * max(1.0, scale)
    for k, (i, j) in enumerate(pairs):
        e = basis_element(n, i, j)
        k_mat[:, k] = to_coords((orbit_residual(step * e) - orbit_residual(-step * e))
                                / (2.0 * step))
        ad_mat[:, k] = to_coords(e @ m - m @ e)
    _, kernel_dim = gram_rank_kernel(k_mat, rank_tol)
    _, stab_dim = gram_rank_kernel(ad_mat, rank_tol)
    return stab_dim, kernel_dim


def expected_dims(structure):
    """(stabilizer_dim, excess_kernel_dim) of a stationary rotation, from
    its normal form alone.

    A block of 2k axes whose A splits them into c A-invariant axis sets
    (the connected components of A's support) adds k to the stabilizer
    and (k - 1)^2 + c - 1 to the excess kernel; z fixed axes add
    z (z - 1) / 2 to the stabilizer. The stabilizer count is that of a
    skew matrix whose nonzero eigenvalue pairs are distinct. The excess
    count is an observed rule: c = 1 (a generic random structure) gives
    (k - 1)^2, c = k (a standard one) gives k (k - 1), the dimension of
    the orthogonal complex structures on R^2k.
    """
    z = len(structure.fixed_axes)
    stabilizer, excess = z * (z - 1) // 2, 0
    for block in structure.blocks:
        k = len(block.axes) // 2
        c = connected_components(np.abs(block.A) > 1e-8, directed=False)[0]
        stabilizer += k
        excess += (k - 1) ** 2 + c - 1
    return stabilizer, excess


# -- conserved quantities, one sample at a time in the ambient frame --------

def invariants_reference(m, j, max_power):
    """Energy -tr(M W) / 4, traces tr(M^2k) and the coefficients of z^j in
    tr((M + z J^2)^k), in the column order of freetop's invariant table,
    with the size of the terms that make up each column.

    W solves the Sylvester equation J W + W J = M, so nothing here goes
    through the package's eigenframe. The size of the energy and of a trace
    is its magnitude; the coefficient of z^j in tr((M + z J^2)^k) is bounded
    by C(k, j) n ||M||^(k-j) ||J^2||^j (spectral norms), a scale that stays
    meaningful where the coefficient itself is zero.
    """
    m = np.asarray(m, dtype=float)
    j = np.asarray(j, dtype=float)
    n = m.shape[0]
    w = solve_sylvester(j, j, m)
    row = [-np.trace(m @ w) / 4.0]
    row += [np.trace(np.linalg.matrix_power(m, 2 * k)) for k in range(1, n // 2 + 1)]
    scales = [abs(x) for x in row]
    a, b = np.linalg.norm(m, 2), np.linalg.norm(j @ j, 2)
    pencil = [m, j @ j]
    power = [np.eye(n)]
    for k in range(1, max_power + 1):
        nxt = [np.zeros((n, n)) for _ in range(len(power) + 1)]
        for i, pa in enumerate(power):
            for d, pb in enumerate(pencil):
                nxt[i + d] = nxt[i + d] + pa @ pb
        power = nxt
        if k >= 2:
            row += [np.trace(p) for p in power]
            scales += [math.comb(k, i) * n * a ** (k - i) * b ** i for i in range(k + 1)]
    return np.array(row), np.array(scales)


# -- symmetric eigensolver ---------------------------------------------------

def fix_column_signs_loop(q):
    """Flip columns in place so the first component larger than 1e-12 is
    positive, one entry at a time."""
    for k in range(q.shape[1]):
        for i in range(q.shape[0]):
            if abs(q[i, k]) > 1e-12:
                if q[i, k] < 0:
                    q[:, k] = -q[:, k]
                break


def cyclic_jacobi(s, max_sweeps=64):
    """(eigenvalues, basis) by cyclic Jacobi: one rotation at a time in
    row-major order over the strict upper triangle, until the off-diagonal
    norm is at most n * eps * ||A|| (rotations with |a_pq| <= 0.1 * eps *
    ||A|| are skipped); ascending stable sort and the sign convention of
    freetop.eigen_symmetric."""
    a = np.array(s, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    eps = np.finfo(float).eps
    norm = np.linalg.norm(a)
    if norm > 0.0:
        stop = n * eps * norm
        skip = 0.1 * eps * norm
        for _ in range(max_sweeps):
            if np.linalg.norm(a - np.diag(np.diag(a))) <= stop:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= skip:
                        continue
                    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                    t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                    c = 1.0 / np.hypot(1.0, t)
                    sn = t * c
                    cp, cq = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * cp - sn * cq
                    a[:, q] = sn * cp + c * cq
                    rp, rq = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * rp - sn * rq
                    a[q, :] = sn * rp + c * rq
                    a[p, q] = a[q, p] = 0.0
                    vp, vq = v[:, p].copy(), v[:, q].copy()
                    v[:, p] = c * vp - sn * vq
                    v[:, q] = sn * vp + c * vq
        else:
            raise ArithmeticError(f"cyclic Jacobi did not converge in {max_sweeps} sweeps")
    lam = np.diag(a).copy()
    order = np.argsort(lam, kind="stable")
    v = v[:, order]
    fix_column_signs_loop(v)
    return lam[order], v


def _format_float_per_item(x: float) -> str:
    if not math.isfinite(x):
        raise ArithmeticError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _emit_per_item(obj, level: int) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float_per_item(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit_per_item(obj.tolist(), level)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        # A float-only list is formatted in one pass; one with a non-finite
        # value falls through so that format_float raises for it.
        if set(map(type, items)) == {float} and all(map(math.isfinite, items)):
            return "[" + ", ".join([format(x, ".17g") for x in items]) + "]"
        flat = all(not isinstance(it, (list, tuple, dict, np.ndarray)) for it in items)
        if flat:
            return "[" + ", ".join(_emit_per_item(it, 0) for it in items) + "]"
        pad = "  " * (level + 1)
        close = "  " * level
        inner = ",\n".join(pad + _emit_per_item(it, level + 1) for it in items)
        return "[\n" + inner + "\n" + close + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (level + 1)
        close = "  " * level
        inner = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_emit_per_item(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + close + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_per_item(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats via
    format_float, two-space indentation with lists of scalars on one line."""
    return _emit_per_item(obj, 0)


def rows_per_entry(value, n, path):
    """serialize._rows entry by entry: each row's shape, then each entry
    through serialize._number, in row-major order."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a list of {n} rows")
    out = np.empty((n, n))
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected a list of {n} numbers")
        for j, item in enumerate(row):
            out[i, j] = _number(item, f"{path}[{i}][{j}]")
    return out


def structure_check_by_norms(arr, sign):
    """linalg._check_structure with the scaled Frobenius defect always
    computed: ValueError unless each matrix of arr is finite and its defect
    ||a - sign a^T|| is within STRUCTURE_TOL of max(1, ||a||)."""
    largest = np.abs(arr).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(largest).all():
        raise ValueError("matrix entries must be finite")
    unit = _unit(largest)
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
