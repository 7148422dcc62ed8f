"""Independent reference implementations used to pin expected values.

Everything here stays deliberately separate from the package internals:
the classical three-dimensional top is integrated through scipy from the
textbook vector equations, derivative operators are rebuilt by plain
finite differencing, and ranks are taken from Gram-matrix eigenvalues
rather than the SVD path the package uses.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_sylvester

import freetop as ft


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

def rk4_ambient(m0, body, dt, nsteps):
    """Classical RK4 on dM/dt = [M, W] in the ambient frame, one
    ft.vector_field call per stage; returns the momentum after nsteps."""
    m = np.asarray(m0.array if isinstance(m0, ft.SkewMatrix) else m0, dtype=float)

    def field(y):
        return ft.vector_field(y, body).array

    for _ in range(nsteps):
        k1 = field(m)
        k2 = field(m + (0.5 * dt) * k1)
        k3 = field(m + (0.5 * dt) * k2)
        k4 = field(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return m


# -- momentum flow in the eigenframe -----------------------------------------

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


def loop_operator(func, n):
    """Matrix of a linear map so(n) -> so(n), one basis element at a time."""
    pairs = so_pairs(n)
    out = np.empty((len(pairs), len(pairs)))
    for k, (i, j) in enumerate(pairs):
        out[:, k] = to_coords(func(basis_element(n, i, j)))
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
    return fd_operator(lambda d: ft.vector_field(ft.SkewMatrix(m + d), body).array,
                       m.shape[0], h)


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
        return ft.vector_field(ft.SkewMatrix(g @ m @ g.T), body).array

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
