import numpy as np
import pytest
from hypothesis import settings

import freetop as ft

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")


def random_skew(n, rng, scale=1.0):
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = scale * rng.standard_normal()
    return ft.skew(m - m.T)


def rotation_generator(n, i, j, omega=1.0):
    """Generator of a rotation in the (i, j) coordinate plane: the (i, j)
    entry is +omega, so exp(t * G) rotates e_j toward e_i."""
    g = np.zeros((n, n))
    g[i, j] = omega
    g[j, i] = -omega
    return ft.skew(g)


def random_sym(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return ft.sym(0.5 * (a + a.T))


def random_body(n, rng, min_gap=0.1):
    """Positive-definite inertia with comfortably separated moments and a
    nontrivial eigenframe."""
    lam = 1.0 + np.cumsum(min_gap + rng.random(n))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return ft.InertiaSpec(ft.sym(q @ np.diag(lam) @ q.T))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def body3():
    return ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])


@pytest.fixture
def body4():
    return ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def body6():
    return ft.InertiaSpec.from_eigenvalues([1.0, 1.7, 2.6, 3.2, 4.1, 5.3])
