import numpy as np
import pytest
from hypothesis import given, strategies as st

import freetop as ft
from freetop.linalg import Plane

from conftest import random_skew, random_sym


def dims(lo=2, hi=8):
    return st.integers(min_value=lo, max_value=hi)


class TestStructuredStorage:
    def test_sym_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            ft.SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_skew_rejects_symmetric(self):
        with pytest.raises(ValueError, match="not skew"):
            ft.SkewMatrix([[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            ft.SymMatrix([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            ft.SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_set_item_mirrors(self):
        s = ft.SymMatrix.zeros(3)
        s[0, 2] = 4.5
        assert s[2, 0] == 4.5
        k = ft.SkewMatrix.zeros(3)
        k[0, 1] = 2.0
        assert k[1, 0] == -2.0

    def test_skew_diagonal_stays_zero(self):
        k = ft.SkewMatrix.zeros(3)
        with pytest.raises(ValueError):
            k[1, 1] = 1.0
        k[2, 2] = 0.0  # allowed no-op

    def test_near_structured_input_is_exactified(self):
        a = np.array([[0.0, 1.0], [-1.0 + 1e-13, 0.0]])
        k = ft.SkewMatrix(a)
        assert k[0, 1] == -k[1, 0]

    def test_array_view_is_readonly(self):
        s = ft.SymMatrix.zeros(2)
        with pytest.raises(ValueError):
            s.array[0, 0] = 1.0

    @given(dims(), st.integers(0, 10**6))
    def test_mutation_keeps_structure_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        s = ft.SymMatrix.zeros(n)
        k = ft.SkewMatrix.zeros(n)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            v = float(rng.standard_normal())
            s[i, j] = v
            if i != j:
                k[i, j] = v
        assert np.array_equal(s.array, s.array.T)
        assert np.array_equal(k.array, -k.array.T)
        assert np.all(np.diag(k.array) == 0.0)


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_skew(5, rng)
        assert np.all(ft.commutator(a, a) == 0.0)

    def test_hand_example_2x2(self):
        # a = diag(1, 2), b = quarter-turn generator:
        # ab = [[0, 1], [-2, 0]], ba = [[0, 2], [-1, 0]], ab - ba = [[0, -1], [-1, 0]]
        a = ft.SymMatrix.diagonal([1.0, 2.0])
        b = ft.SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(ft.commutator(a, b), expected)

    def test_scalar_matrix_commutes(self):
        j = ft.SymMatrix.diagonal([1.0, 2.0, 3.0])
        s = -4.0 * np.eye(3)
        assert np.all(ft.commutator(j, s) == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ft.commutator(np.eye(2), np.eye(3))

    def test_skew_pair_gives_skew(self, rng):
        for n in (3, 5, 8):
            a = random_skew(n, rng)
            b = random_skew(n, rng)
            c = ft.commutator(a, b)
            assert isinstance(c, np.ndarray)
            np.testing.assert_allclose(c, -c.T, atol=1e-13)


class TestEigenSymmetric:
    def test_diagonal_permutation(self):
        frame = ft.eigen_symmetric(ft.SymMatrix.diagonal([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(frame.eigenvalues, [1.0, 2.0, 3.0])
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_array_equal(frame.basis, expected)

    def test_identity(self):
        frame = ft.eigen_symmetric(np.eye(4))
        np.testing.assert_array_equal(frame.eigenvalues, np.ones(4))
        s = frame.basis @ np.diag(frame.eigenvalues) @ frame.basis.T
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_random_reconstruction(self, rng):
        s = random_sym(5, rng)
        frame = ft.eigen_symmetric(s)
        rec = frame.basis @ np.diag(frame.eigenvalues) @ frame.basis.T
        assert np.linalg.norm(rec - s.array) < 1e-10 * np.linalg.norm(s.array)

    @given(dims(), st.integers(0, 10**6))
    def test_invariants_random(self, n, seed):
        rng = np.random.default_rng(seed)
        s = random_sym(n, rng, scale=3.0)
        frame = ft.eigen_symmetric(s)
        assert np.all(np.diff(frame.eigenvalues) >= 0)
        assert np.linalg.norm(frame.basis.T @ frame.basis - np.eye(n)) <= 1e-12 * n
        rec = frame.basis @ np.diag(frame.eigenvalues) @ frame.basis.T
        assert np.linalg.norm(rec - s.array) <= 1e-10 * max(1e-30, np.linalg.norm(s.array))

    def test_sign_convention(self, rng):
        s = random_sym(6, rng)
        frame = ft.eigen_symmetric(s)
        for k in range(6):
            col = frame.basis[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_deterministic_bitwise(self, rng):
        s = random_sym(7, rng)
        f1 = ft.eigen_symmetric(s)
        f2 = ft.eigen_symmetric(s)
        assert np.array_equal(f1.eigenvalues, f2.eigenvalues)
        assert np.array_equal(f1.basis, f2.basis)


class TestCanonicalPlanes:
    def test_single_plane_n3(self):
        w = ft.SkewMatrix.rotation_generator(3, 1, 2, 1.0)
        dec = ft.canonical_planes(w)
        assert len(dec.planes) == 1
        plane = dec.planes[0]
        assert plane.omega == pytest.approx(1.0, abs=1e-14)
        # The plane spans e1, e2; the fixed subspace is e0.
        span = np.abs(np.column_stack([plane.u, plane.v]))
        assert span[0].max() < 1e-12
        np.testing.assert_allclose(np.abs(dec.fixed_subspace.ravel()), [1.0, 0.0, 0.0],
                                   atol=1e-12)

    def test_zero_matrix(self):
        dec = ft.canonical_planes(ft.SkewMatrix.zeros(4))
        assert dec.planes == ()
        np.testing.assert_array_equal(dec.fixed_subspace, np.eye(4))

    def test_double_frequency_n4(self):
        # The eigenvalue oracle: a scaled standard complex structure has
        # spectrum +-i*omega, each twice, and no kernel.
        omega = 1.7
        k = ft.ComplexStructure.standard(2).A
        eigs = np.linalg.eigvals(omega * k.array)
        np.testing.assert_allclose(np.sort(np.abs(eigs.imag)), [omega] * 4, atol=1e-12)
        dec = ft.canonical_planes(ft.SkewMatrix(omega * k.array))
        assert len(dec.planes) == 2
        for plane in dec.planes:
            assert plane.omega == pytest.approx(omega, rel=1e-12)
        assert dec.fixed_subspace.shape == (4, 0)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            ft.canonical_planes(ft.SkewMatrix.zeros(3), tol=0.0)

    @given(dims(2, 10), st.integers(0, 10**6))
    def test_reconstruction_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        w = random_skew(n, rng, scale=2.0)
        dec = ft.canonical_planes(w)
        norm = np.linalg.norm(w.array)
        assert np.linalg.norm(dec.reconstruct() - w.array) <= 1e-9 * max(norm, 1e-30)
        assert 2 * len(dec.planes) + dec.fixed_subspace.shape[1] == n
        vecs = [p.u for p in dec.planes] + [p.v for p in dec.planes]
        vecs += [dec.fixed_subspace[:, k] for k in range(dec.fixed_subspace.shape[1])]
        g = np.array([[float(np.dot(a, b)) for b in vecs] for a in vecs])
        assert np.linalg.norm(g - np.eye(n)) < 1e-10 * n

    def test_rank_deficient_roundtrip(self, rng):
        # Two planes, one shared frequency, plus a two-dimensional kernel.
        w = ft.SkewMatrix.zeros(6)
        w[0, 1] = 1.3
        w[2, 3] = 1.3
        dec = ft.canonical_planes(w)
        assert len(dec.planes) == 2
        assert dec.fixed_subspace.shape[1] == 2
        assert np.linalg.norm(dec.reconstruct() - w.array) <= 1e-9 * w.norm()

    def test_deterministic_bitwise(self, rng):
        w = random_skew(6, rng)
        d1 = ft.canonical_planes(w)
        d2 = ft.canonical_planes(w)
        assert all(np.array_equal(p.u, q.u) and np.array_equal(p.v, q.v)
                   and p.omega == q.omega for p, q in zip(d1.planes, d2.planes))
        assert np.array_equal(d1.fixed_subspace, d2.fixed_subspace)

    def test_plane_frequency_positive(self):
        with pytest.raises(ValueError):
            Plane(omega=0.0, u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))


class TestNormAndProjection:
    def test_identity_projects_to_itself(self):
        np.testing.assert_array_equal(ft.gram_project_orthonormal(np.eye(4)), np.eye(4))

    def test_projection_of_noisy_orthogonal(self, rng):
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        noisy = q + 1e-3 * rng.standard_normal((5, 5))
        p = ft.gram_project_orthonormal(noisy)
        assert np.linalg.norm(p.T @ p - np.eye(5)) <= 1e-12
        assert np.linalg.norm(p - q) < 1e-2

    def test_singular_input_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            ft.gram_project_orthonormal(np.zeros((3, 3)))
