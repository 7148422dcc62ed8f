import numpy as np
import pytest
from hypothesis import given, strategies as st

import freetop as ft

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
