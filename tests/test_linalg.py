import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import freetop as ft
from freetop import linalg
from freetop.linalg import STRUCTURE_TOL, _check_structure, _fix_column_signs

import oracles
from conftest import random_skew, random_sym


def dims(lo=2, hi=8):
    return st.integers(min_value=lo, max_value=hi)


class TestStructuredStorage:
    def test_sym_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            ft.sym([[1.0, 2.0], [0.0, 1.0]])
        # Unscaled Frobenius norms of these overflow, and inf > tol * inf is false.
        with pytest.raises(ValueError, match="not symmetric"):
            ft.sym([[1.0, 1e300], [-1e300, 1.0]])

    def test_skew_rejects_symmetric(self):
        with pytest.raises(ValueError, match="not skew"):
            ft.skew([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not skew"):
            ft.skew([[0.0, 1e300], [1e300, 0.0]])

    @pytest.mark.parametrize("call, field", [
        (lambda: ft.sym([[10**400]]), "a matrix entry"),
        (lambda: ft.skew([[0, 10**400], [-10**400, 0]]), "a matrix entry"),
        (lambda: ft.InertiaSpec([[1, 0], [0, 10**400]]), "a matrix entry"),
        (lambda: ft.InertiaSpec.from_eigenvalues([1, 2, 10**400]), "an eigenvalue"),
    ], ids=["sym", "skew", "InertiaSpec", "from_eigenvalues"])
    def test_integer_beyond_double_range(self, call, field):
        # np.array(..., dtype=float) raises OverflowError for such an int.
        with pytest.raises(ValueError, match=f"^{field} is an integer too large for a double$"):
            call()

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            ft.sym([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            ft.sym([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_overflowing_structured_part(self):
        # a_ij + a_ji overflows, so the stored part would hold inf.
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                ft.sym([[1e308, 0.0], [0.0, 1.0]])
            with pytest.raises(ValueError, match="overflows"):
                ft.skew([[0.0, 1e308], [-1e308, 0.0]])
            big = ft.sym([[8e307, 0.0], [0.0, 1.0]])  # 2 * 8e307 is still finite
        assert big[0, 0] == 8e307

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scaled_check_keeps_unscaled_decisions(self, rng, sign):
        # Scaling by a power of two is exact, so wherever the unscaled norms
        # are finite the decision is theirs; a stack is judged matrix by matrix.
        raw = rng.standard_normal((300, 5, 5))
        near = raw + sign * np.swapaxes(raw, -2, -1)
        defect = 10.0 ** rng.uniform(-11, -7, (300, 1, 1)) * rng.standard_normal((300, 5, 5))
        stack = (near + defect) * 10.0 ** rng.uniform(-100, 100, (300, 1, 1))
        unscaled = (np.linalg.norm(stack - sign * np.swapaxes(stack, -2, -1), axis=(-2, -1))
                    > STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1))))
        assert 0 < unscaled.sum() < 300
        for a, bad in zip(stack, unscaled):
            if bad:
                with pytest.raises(ValueError, match="structural defect"):
                    _check_structure(a, sign)
            else:
                _check_structure(a, sign)
        _check_structure(stack[~unscaled], sign)
        with pytest.raises(ValueError, match="structural defect"):
            _check_structure(stack, sign)

    @staticmethod
    def _cases(sign, rng):
        base = rng.standard_normal((4, 4))
        exact = base + sign * base.T
        within, beyond, nonfinite = exact.copy(), exact.copy(), exact.copy()
        within[0, 1] += 1e-11  # relative defect about 2e-12
        beyond[0, 1] += 1e-6
        nonfinite[1, 2], nonfinite[2, 1] = np.inf, sign * np.inf  # == its own transpose
        huge = 1e308 * np.array([[sign > 0, 1.0], [sign, 0.0]])  # above DBL_MAX / 2
        stack = np.stack([exact, 2.0 * exact, -exact])
        return {"exact": exact, "within": within, "beyond": beyond, "nonfinite": nonfinite,
                "huge": huge, "stack": stack, "stack-within": np.stack([exact, within]),
                "stack-beyond": np.stack([exact, beyond])}

    @pytest.mark.parametrize("case", ["exact", "within", "beyond", "nonfinite", "huge",
                                      "stack", "stack-within", "stack-beyond"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_structure_short_circuit_keeps_decision(self, rng, monkeypatch, sign,
                                                          case):
        # An exactly structured finite input skips the norms; every input gets
        # the decision, message and output bits of the tolerance path.
        a = self._cases(sign, rng)[case]
        exact = bool(np.isfinite(a).all() and np.array_equal(a, sign * np.swapaxes(a, -2, -1)))
        assert exact == (case in ("exact", "huge", "stack"))

        def outcome(check):
            try:
                check(a, sign)
            except ValueError as exc:
                return str(exc)

        expected = outcome(oracles.structure_check_by_norms)
        assert (expected is None) == (case not in ("beyond", "nonfinite", "stack-beyond"))
        if exact:  # the norms would need the power-of-two unit
            monkeypatch.setattr(linalg, "_unit", None)
        assert outcome(_check_structure) == expected
        monkeypatch.undo()
        if a.ndim == 2 and expected is None:
            part = ft.sym if sign > 0 else ft.skew
            with np.errstate(over="ignore"):
                want = 0.5 * (a + sign * a.T)
                if case == "huge":  # exact, but a_ij + a_ji overflows
                    with pytest.raises(ValueError, match="structured part overflows"):
                        part(a)
                else:
                    assert part(a).tobytes() == want.tobytes()

    def test_near_structured_input_is_exactified(self):
        a = np.array([[0.0, 1.0], [-1.0 + 1e-13, 0.0]])
        k = ft.skew(a)
        assert k[0, 1] == -k[1, 0]

    def test_array_view_is_readonly(self):
        a = np.array([[1.0, 2.0], [-2.0, 1.0]])
        for out in (ft.sym(a + a.T), ft.skew(a - a.T), ft.SkewMatrix(a - a.T).array):
            assert type(out) is np.ndarray and out.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0] = 1.0
        sym = ft.sym(a + a.T)
        assert not np.shares_memory(sym, a) and np.array_equal(sym, [[2.0, 0.0], [0.0, 2.0]])

    def test_structured_parts_are_exact(self, rng):
        a = rng.standard_normal((5, 5))
        s, k = ft.sym(a + a.T + 1e-12 * a), ft.skew(a - a.T + 1e-12 * a)
        assert np.array_equal(s, s.T) and np.array_equal(k, -k.T)
        assert np.all(np.diag(k) == 0.0)
        # Idempotent bit for bit.
        assert np.array_equal(ft.sym(s), s) and np.array_equal(ft.skew(k), k)

    def test_skew_matrix_is_its_checked_array(self):
        entries = [[0.0, 1.0], [-1.0 + 1e-13, 0.0]]
        m = ft.SkewMatrix(entries)
        np.testing.assert_array_equal(m.array, ft.skew(entries))
        assert ft.skew(m) is m.array  # checked once: no copy, no second check
        copy = np.asarray(m)
        np.testing.assert_array_equal(copy, m.array)
        copy[0, 1] = 5.0  # __array__ gives a copy of its own
        assert m.array[0, 1] == 0.5 * (1.0 + 1.0 - 1e-13)
        with pytest.raises(ValueError, match="not skew"):
            ft.SkewMatrix([[1.0, 0.0], [0.0, 1.0]])


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_skew(5, rng)
        assert np.all(oracles.commutator(a, a) == 0.0)

    def test_hand_example_2x2(self):
        # a = diag(1, 2), b = quarter-turn generator:
        # ab = [[0, 1], [-2, 0]], ba = [[0, 2], [-1, 0]], ab - ba = [[0, -1], [-1, 0]]
        a = np.diag([1.0, 2.0])
        b = ft.skew([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(oracles.commutator(a, b), expected)

    def test_scalar_matrix_commutes(self):
        j = np.diag([1.0, 2.0, 3.0])
        s = -4.0 * np.eye(3)
        assert np.all(oracles.commutator(j, s) == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            oracles.commutator(np.eye(2), np.eye(3))

    def test_skew_pair_gives_skew(self, rng):
        for n in (3, 5, 8):
            a = random_skew(n, rng)
            b = random_skew(n, rng)
            c = oracles.commutator(a, b)
            assert isinstance(c, np.ndarray)
            np.testing.assert_allclose(c, -c.T, atol=1e-13)


class TestAxisSets:
    # Each axis is labelled by the smallest axis of its set, the connected
    # components of a symmetric boolean support.
    @staticmethod
    def support(n, pairs):
        s = np.zeros((n, n), dtype=bool)
        for a, b in pairs:
            s[a, b] = s[b, a] = True
        return s

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_zero_support_leaves_every_axis_alone(self, n):
        assert linalg._axis_sets(np.zeros((n, n), dtype=bool)).tolist() == list(range(n))

    def test_chain_is_one_set(self):
        # A path 0-4-1-5-2-6-3, which takes more than one squaring to close.
        s = self.support(7, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3)])
        assert linalg._axis_sets(s).tolist() == [0] * 7

    def test_interleaved_sets_and_isolated_axes(self):
        s = self.support(8, [(0, 5), (5, 2), (1, 4), (6, 7)])
        assert linalg._axis_sets(s).tolist() == [0, 1, 0, 3, 1, 0, 6, 6]

    def test_negative_zero_counts_as_zero(self):
        m = np.array([[0.0, -0.0, 1.5], [0.0, -0.0, -0.0], [-1.5, 0.0, 0.0]])
        assert linalg._axis_sets(m != 0).tolist() == [0, 1, 0]


class TestEigenSymmetric:
    def test_diagonal_permutation(self):
        lam, basis = ft.eigen_symmetric(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(lam, [1.0, 2.0, 3.0])
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_array_equal(basis, expected)

    def test_identity(self):
        lam, basis = ft.eigen_symmetric(np.eye(4))
        np.testing.assert_array_equal(lam, np.ones(4))
        s = basis @ np.diag(lam) @ basis.T
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_random_reconstruction(self, rng):
        s = random_sym(5, rng)
        lam, basis = ft.eigen_symmetric(s)
        rec = basis @ np.diag(lam) @ basis.T
        assert np.linalg.norm(rec - s) < 1e-10 * np.linalg.norm(s)

    @given(dims(), st.integers(0, 10**6))
    def test_invariants_random(self, n, seed):
        rng = np.random.default_rng(seed)
        s = random_sym(n, rng, scale=3.0)
        lam, basis = ft.eigen_symmetric(s)
        assert np.all(np.diff(lam) >= 0)
        assert np.linalg.norm(basis.T @ basis - np.eye(n)) <= 1e-12 * n
        rec = basis @ np.diag(lam) @ basis.T
        assert np.linalg.norm(rec - s) <= 1e-10 * max(1e-30, np.linalg.norm(s))

    def test_sign_convention(self, rng):
        s = random_sym(6, rng)
        _, basis = ft.eigen_symmetric(s)
        for k in range(6):
            col = basis[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_deterministic_bitwise(self, rng):
        s = random_sym(7, rng)
        lam1, basis1 = ft.eigen_symmetric(s)
        lam2, basis2 = ft.eigen_symmetric(s)
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(basis1, basis2)

    def test_returns_read_only_arrays(self, rng):
        lam, basis = ft.eigen_symmetric(random_sym(4, rng))
        assert isinstance(lam, np.ndarray) and isinstance(basis, np.ndarray)
        assert lam.shape == (4,) and basis.shape == (4, 4)
        for arr in (lam, basis):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_orthonormality_check_rejects_skewed_basis(self, monkeypatch):
        # Columns of unit length that are not orthogonal: a LAPACK failure,
        # so ArithmeticError (a numerical failure, exit 3), not bad input.
        c = np.sqrt(0.5)
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda s: (np.array([1.0, 3.0]), np.array([[1.0, c], [0.0, c]])))
        with pytest.raises(ArithmeticError, match="orthonormal"):
            ft.eigen_symmetric([[2.0, 1.0], [1.0, 2.0]])

    def test_residual_check_scaled_on_huge_input(self):
        # Unscaled, the residual and ||A|| both overflow for entries above
        # about 1e154, and inf > 1e-10 * inf is false.
        a = [[1e200, 1e200, 0.0], [1e200, 3e200, 0.0], [0.0, 0.0, 5e200]]
        with np.errstate(over="raise"):
            lam, _ = ft.eigen_symmetric(a)
        lam_ref, _ = np.linalg.eigh(np.asarray(a) * 2.0 ** -700)
        np.testing.assert_allclose(lam * 2.0 ** -700, lam_ref, rtol=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_residual_check_rejects_wrong_decomposition(self, monkeypatch, scale):
        # A basis of unit vectors for a matrix that is not diagonal.
        a = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda s: (scale * np.array([1.0, 3.0]), np.eye(2)))
        with np.errstate(over="raise"):
            with pytest.raises(ArithmeticError, match="residual"):
                ft.eigen_symmetric(a)


def eigen_inputs(n, rng):
    """Diagonal, rotated (separated spectrum) and clustered (eigenvalues
    repeated in threes, split by 1e-9) symmetric inputs, all of norm >= 1."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]

    def rotated(values):
        a = q @ np.diag(values) @ q.T
        return 0.5 * (a + a.T)

    lam = 1.0 + np.cumsum(0.1 + rng.random(n))
    clustered = np.repeat(1.0 + 2.0 * np.arange(n), 3)[:n] + 1e-9 * rng.random(n)
    return {"diagonal": np.diag(rng.permutation(lam)), "rotated": rotated(lam),
            "clustered": rotated(clustered)}


class TestEigenAgainstReferences:
    """The LAPACK eigenframe against the cyclic Jacobi oracle and raw eigh."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_cyclic_and_eigh(self, n):
        rng = np.random.default_rng(1000 + n)
        for kind, a in eigen_inputs(n, rng).items():
            # Every comparison at 1e-12 * ||A|| (||A|| >= 1 for these inputs);
            # measured differences stay below 3e-14.
            tol = 1e-12 * np.linalg.norm(a)
            lam, basis = ft.eigen_symmetric(a)
            lam_c, basis_c = oracles.cyclic_jacobi(a)
            lam_e, basis_e = np.linalg.eigh(a)
            oracles.fix_column_signs_loop(basis_e)
            if kind == "diagonal":
                assert np.array_equal(lam, lam_c)
                assert np.array_equal(basis, basis_c)
            for lam_ref, basis_ref in ((lam_c, basis_c), (lam_e, basis_e)):
                assert np.max(np.abs(lam - lam_ref)) <= tol, kind
                if kind != "clustered":
                    assert np.max(np.abs(basis - basis_ref)) <= tol, kind
                    continue
                # Within a cluster the basis is not unique; its projector is.
                for idx in np.split(np.arange(n), np.flatnonzero(np.diff(lam_ref) > 1e-6) + 1):
                    proj = basis[:, idx] @ basis[:, idx].T
                    proj_ref = basis_ref[:, idx] @ basis_ref[:, idx].T
                    assert np.max(np.abs(proj - proj_ref)) <= tol, kind

    def test_decoupled_repeated_block_untouched(self, rng):
        # The 2*I block is decoupled from the rest, so its eigenvectors come
        # back as exact unit vectors.
        a = np.zeros((6, 6))
        a[:3, :3] = random_sym(3, rng) + 10.0 * np.eye(3)
        a[3:, 3:] = 2.0 * np.eye(3)
        lam, basis = ft.eigen_symmetric(a)
        np.testing.assert_array_equal(lam[:3], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(basis[:, :3], np.eye(6)[:, 3:])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_matrix(self, n):
        lam, basis = ft.eigen_symmetric(np.zeros((n, n)))
        np.testing.assert_array_equal(lam, np.zeros(n))
        np.testing.assert_array_equal(basis, np.eye(n))

    def test_nearly_symmetric_input_is_accepted(self):
        # Accepted as symmetric (defect 1e-9 within STRUCTURE_TOL), so it is
        # decomposed and checked as its symmetric part [[1, 5e-10], [5e-10, 2]].
        lam, _ = ft.eigen_symmetric([[1.0, 1e-9], [0.0, 2.0]])
        np.testing.assert_allclose(lam, [1.0, 2.0], rtol=1e-15)

    @pytest.mark.parametrize("value", [3.5, -2.0])
    def test_one_by_one(self, value):
        lam, basis = ft.eigen_symmetric([[value]])
        np.testing.assert_array_equal(lam, [value])
        np.testing.assert_array_equal(basis, [[1.0]])


# Reads rotated bodies for n = 2..64 from stdin, writes the eigenframes' bits.
_EIGENFRAME_BYTES = """
import sys
import numpy as np
import freetop as ft
raw = np.frombuffer(sys.stdin.buffer.read())
for n in range(2, 65):
    a, raw = raw[: n * n].reshape(n, n), raw[n * n:]
    lam, basis = ft.eigen_symmetric(a)
    sys.stdout.buffer.write(lam.tobytes() + basis.tobytes())
"""


def test_eigenframe_bits_independent_of_blas_threads():
    # The inputs are built here, once, so only eigen_symmetric runs under
    # each thread count.
    rng = np.random.default_rng(64)
    bodies = []
    for n in range(2, 65):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(1.0 + np.cumsum(0.1 + rng.random(n))) @ q.T
        bodies.append(0.5 * (a + a.T))
    stdin = b"".join(a.tobytes() for a in bodies)
    outputs = [
        subprocess.run([sys.executable, "-c", _EIGENFRAME_BYTES], input=stdin,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0]) == 8 * sum(n + n * n for n in range(2, 65))
    assert outputs[0] == outputs[1]


class TestColumnSigns:
    def test_matches_loop_below_threshold(self):
        # Leading entries at or below 1e-12 in magnitude do not decide the sign;
        # the last column has no entry above it and stays as it is.
        q = np.array([
            [-5e-13, 4e-13, 0.0, -1e-12, -3e-13],
            [-1e-12, -0.6, 1e-12, 0.8, 1e-12],
            [0.6, 0.8, -0.0, -0.6, -0.0],
            [-0.8, 0.0, 1.0, 0.0, 0.0],
        ])
        expected = q.copy()
        oracles.fix_column_signs_loop(expected)
        _fix_column_signs(q)
        assert q.tobytes() == expected.tobytes()
        assert [float(np.sign(v)) for v in q[[2, 1, 3, 1, 0], range(5)]] == [1, 1, 1, 1, -1]

    def test_matches_loop_on_eigenbases(self, rng):
        for n in (1, 3, 8, 16):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            q[0, : n // 2] = 1e-13  # leading entries under the threshold
            expected = q.copy()
            oracles.fix_column_signs_loop(expected)
            _fix_column_signs(q)
            assert q.tobytes() == expected.tobytes()

