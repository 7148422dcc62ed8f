import hashlib

import numpy as np
import pytest
from scipy.linalg import block_diag, expm
from scipy.optimize import linear_sum_assignment

import freetop as ft
from freetop import serialize as ser
from freetop.equilibria import _require_stationary
from freetop.stability import _ad_matrix, _eigenframe_operators, _kernel_dim

from conftest import random_body, random_skew
from recipes import random_recipe, read_recipe, spaced_rates
import oracles
from oracles import skew_to_vec, vec_to_skew


def assert_multisets_close(a, b, tol):
    """Match two complex multisets within tol, order-free."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max() if a.size else 0.0
    assert worst <= tol, f"multiset mismatch: worst pairing distance {worst:.3e}"


def seeded_body(n, rng, rotated):
    """random_body, or (rotated=False) a diagonal body with the same spacing."""
    if rotated:
        return random_body(n, rng)
    return ft.InertiaSpec.from_eigenvalues(1.0 + np.cumsum(0.1 + rng.random(n)))


def fixture_bodies():
    return (ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0]),
            ft.InertiaSpec.from_eigenvalues([1.0, 1.7, 2.6, 3.2, 4.1, 5.3]))


def make_fixture(name):
    body4, body6 = fixture_bodies()
    recipes = {
        "regular_n4": (read_recipe(((0, 1), 1.0), ((2, 3), 2.0)), body4),
        "exotic_n4": (read_recipe(((0, 1, 2, 3), 1.5, "random"), seed=42), body4),
        "regular_n6": (read_recipe(((0, 1), 1.0), ((2, 3), 2.0), ((4, 5), 3.0)), body6),
        "exotic_mixed_n6": (read_recipe(((0, 1, 2, 3), 1.0, "random"), ((4, 5), 2.0), seed=3),
                            body6),
        "exotic_full_n6": (read_recipe(((0, 1, 2, 3, 4, 5), 1.3, "random"), seed=5), body6),
    }
    recipe, body = recipes[name]
    m, structure = ft.generate(recipe, body)
    return m, structure, body


# Stabilizer and orbit-kernel dimensions pinned from the independent
# finite-difference / Gram-eigenvalue oracle (oracles.two_kernel_dims).
FROZEN_KERNELS = {
    "regular_n4": (2, 2),
    "exotic_n4": (2, 3),
    "regular_n6": (3, 3),
    "exotic_mixed_n6": (3, 4),
    "exotic_full_n6": (3, 7),
}

# Classical three-dimensional fixtures: J = diag(1, 2, 3) gives vector
# moments (5, 4, 3); the middle moment is axis 1 (vector e2).
MOMENTS_3D = oracles.moments_of([1.0, 2.0, 3.0])


def principal_momentum_3d(axis, rate=1.0):
    m_vec = np.zeros(3)
    m_vec[axis] = MOMENTS_3D[axis] * rate
    return ft.skew(oracles.hat(m_vec)), m_vec


class TestBasis:
    def test_isometry_roundtrip(self, rng):
        for n in (2, 4, 7):
            m = random_skew(n, rng)
            vec = skew_to_vec(m)
            assert vec.shape == (n * (n - 1) // 2,)
            assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(m), rel=1e-14)
            np.testing.assert_allclose(vec_to_skew(vec, n), m, atol=1e-15)
            # A (k, d) stack maps row for row exactly as single calls do.
            stack = rng.standard_normal((3, n * (n - 1) // 2))
            skews = vec_to_skew(stack, n)
            assert skews.shape == (3, n, n)
            for row, skew in zip(stack, skews):
                assert np.array_equal(skew, vec_to_skew(row, n))
            assert np.array_equal(skew_to_vec(skews),
                                  np.array([skew_to_vec(a) for a in skews]))

    def test_pairs_lexicographic(self):
        basis = vec_to_skew(np.eye(6), 4)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for k, (i, j) in enumerate(pairs):
            upper = np.argwhere(np.triu(basis[k]) != 0.0)
            assert upper.tolist() == [[i, j]]

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_stacked_operators_match_column_loop(self, n, rng):
        # L~ = ad_W~ - ad_M~ D^-1 in the eigenframe, column by column: the
        # basis element E_ij has the pair sum lambda_i + lambda_j. The
        # oracle's commutators with E_ij - E_ji are exact, so the closed
        # form must match them bit for bit.
        body = random_body(n, rng)
        wt = random_skew(n, rng)
        pair = np.asarray(body.pair_sums)
        mt = wt * pair
        ad_w = oracles.unscaled_loop_operator(lambda e: e @ wt - wt @ e, n)
        ad_mt = oracles.unscaled_loop_operator(lambda e: e @ mt - mt @ e, n)
        lin, ad_m = _eigenframe_operators(wt, pair)
        assert np.array_equal(lin, ad_w - ad_mt / pair[np.triu_indices(n, k=1)])
        assert np.array_equal(ad_m, ad_mt)
        m = random_skew(n, rng)
        assert np.array_equal(_ad_matrix(m, n),
                              oracles.unscaled_loop_operator(lambda e: e @ m - m @ e, n))
        # Each entry is one entry of m, or 0.
        assert set(np.abs(_ad_matrix(m, n)).ravel()) <= set(np.abs(m).ravel())


class TestLinearize:
    def test_zero_momentum_zero_operator(self, body4):
        rep = ft.linearize(ft.skew(np.zeros((4, 4))), body4)
        assert rep.dim == 6
        np.testing.assert_array_equal(rep.matrix, np.zeros((6, 6)))
        np.testing.assert_array_equal(rep.spectrum, np.zeros(6, dtype=complex))
        assert rep.max_real_part == 0.0

    def test_requires_equilibrium(self, body4, rng):
        with pytest.raises(ft.NotAnEquilibrium):
            ft.linearize(random_skew(4, rng), body4)

    def test_nan_tol_rejected(self, body4, rng):
        # NaN fails every comparison, so `tol <= 0` and `residual > tol`
        # both let it through to a report on a non-stationary momentum.
        with pytest.raises(ValueError, match="tol"):
            ft.linearize(random_skew(4, rng), body4, tol=float("nan"))

    def test_middle_axis_unstable_n3(self, body3):
        m, m_vec = principal_momentum_3d(1)
        rep = ft.linearize(m, body3)
        assert rep.max_real_part > 0.05
        # Eigenvalues agree with the classical vector-form linearization.
        oracle = np.linalg.eigvals(oracles.euler3d_linearization(m_vec, MOMENTS_3D))
        assert_multisets_close(rep.spectrum, oracle, tol=1e-6)

    @pytest.mark.parametrize("axis", [0, 2])
    def test_extreme_axes_spectrally_stable_n3(self, body3, axis):
        m, m_vec = principal_momentum_3d(axis)
        rep = ft.linearize(m, body3)
        assert abs(rep.max_real_part) < 1e-9
        assert np.max(np.abs(rep.spectrum.real)) < 1e-9
        oracle = np.linalg.eigvals(oracles.euler3d_linearization(m_vec, MOMENTS_3D))
        assert_multisets_close(rep.spectrum, oracle, tol=1e-6)

    @pytest.mark.parametrize("name", list(FROZEN_KERNELS))
    def test_matches_finite_differences(self, name):
        m, _, body = make_fixture(name)
        rep = ft.linearize(m, body)
        fd = oracles.linearize_fd(m, body)
        rel = np.linalg.norm(rep.matrix - fd) / np.linalg.norm(rep.matrix)
        assert rel <= 1e-5

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_matrix_matches_ambient_oracle(self, n, rotated):
        # matrix = R L~ R^T against the ambient stack product of the inverse
        # inertia map, within 1e-13 relative in the Frobenius norm (about
        # 1e-14 is seen).
        rng = np.random.default_rng(1000 * n + rotated)
        for _ in range(4):
            body = seeded_body(n, rng, rotated)
            m, _ = ft.generate(random_recipe(n, rng), body)
            ref = oracles.ambient_linearization(m.array, body)
            rep = ft.linearize(m, body)
            assert np.linalg.norm(rep.matrix - ref) <= 1e-13 * np.linalg.norm(ref)
            # The spectrum is that of L~, a similar matrix.
            assert np.linalg.norm(rep.spectrum) == pytest.approx(
                np.linalg.norm(np.linalg.eigvals(rep.matrix)), rel=1e-6)

    @pytest.mark.parametrize("name", ["regular_n4", "exotic_n4", "exotic_full_n6"])
    def test_orbit_tangent_spectrum_symmetry(self, name):
        # Restricted to the orbit tangent the linearization has a spectrum
        # symmetric under negation (and conjugation, being real).
        m, _, body = make_fixture(name)
        rep = ft.linearize(m, body)
        ad = _ad_matrix(m.array, body.n)
        u, svals, _ = np.linalg.svd(ad)
        tangent = u[:, svals > 1e-8 * svals[0]]
        restricted = tangent.T @ rep.matrix @ tangent
        eigs = np.linalg.eigvals(restricted)
        scale = max(1.0, np.abs(eigs).max())
        assert_multisets_close(eigs, -eigs, tol=1e-6 * scale)


class TestOrbitKernel:
    def test_zero_momentum_full_kernel(self, body4):
        rep = ft.orbit_kernel(ft.skew(np.zeros((4, 4))), body4)
        assert rep.kernel_dim == 6 and rep.map_rank == 0
        assert ft.stabilizer_dimension(np.zeros((4, 4))) == 6

    def test_requires_equilibrium(self, body4, rng):
        with pytest.raises(ft.NotAnEquilibrium):
            ft.orbit_kernel(random_skew(4, rng), body4)

    def test_rank_tol_positive(self, body4):
        for rank_tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                ft.orbit_kernel(ft.skew(np.zeros((4, 4))), body4, rank_tol=rank_tol)

    def test_dimension_mismatch(self, body4):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ft.orbit_kernel(ft.skew(np.zeros((3, 3))), body4)

    @pytest.mark.parametrize("name", list(FROZEN_KERNELS))
    def test_frozen_dimensions(self, name):
        stab_expected, kernel_expected = FROZEN_KERNELS[name]
        m, structure, body = make_fixture(name)
        rep = ft.orbit_kernel(m, body)
        stab = ft.stabilizer_dimension(m.array)
        assert stab == stab_expected
        assert rep.kernel_dim == kernel_expected
        gap = rep.kernel_dim - stab
        if structure.regular:
            assert gap == 0
        else:
            assert gap >= 1

    @pytest.mark.parametrize("name", ["regular_n4", "exotic_full_n6"])
    def test_report_invariants(self, name):
        m, _, body = make_fixture(name)
        rep = ft.orbit_kernel(m, body)
        dim = body.n * (body.n - 1) // 2
        assert rep.map_rank + rep.kernel_dim == dim
        svals = rep.singular_values
        assert np.all(np.diff(svals) <= 0) and np.all(svals >= 0)

    def test_dimensions_match_normal_form(self):
        # oracles.expected_dims against the rank rule on generated
        # equilibria: n = 4..16, diagonal and rotated bodies, moments and
        # rates drawn from continuous distributions.
        rng = np.random.default_rng(8016)
        seen = set()
        for case in range(156):
            n = 4 + case % 13
            if case % 2:
                body = random_body(n, rng)
            else:
                body = ft.InertiaSpec.from_eigenvalues(1.0 + np.cumsum(0.1 + rng.random(n)))
            structure, shapes = random_normal_form(n, rng)
            m, _ = ft.generate(structure, body)
            rep = ft.orbit_kernel(m, body)
            got = (rep.stabilizer_dim, rep.excess_kernel_dim)
            assert got == oracles.expected_dims(structure), (case, shapes)
            seen.update((k, kind) for _, k, kind in shapes)
        assert {(k, kind) for k in (2, 3, 4) for kind in ("standard", "random", "mixed")} <= seen

    def test_oracle_agreement(self):
        for name in FROZEN_KERNELS:
            m, _, body = make_fixture(name)
            stab, kernel = oracles.two_kernel_dims(m.array, body)
            assert (stab, kernel) == FROZEN_KERNELS[name], name


def shuffled_structure(k, kind, rng):
    """A complex structure on 2k axes, its axes shuffled: standard_structure,
    random_structure, or ("mixed") a block sum of random structures of
    random sizes (a random structure on one pair is a quarter turn)."""
    if kind == "standard":
        a = ft.standard_structure(k)
    elif kind == "random":
        a = ft.random_structure(k, rng)
    else:
        sizes = []
        while sum(sizes) < k:
            sizes.append(int(rng.integers(1, k - sum(sizes) + 1)))
        a = block_diag(*(ft.random_structure(s, rng) for s in sizes))
    p = rng.permutation(2 * k)
    return a[np.ix_(p, p)]


def random_normal_form(n, rng):
    """An EquilibriumStructure on n axes: blocks of 2..12 axes with shuffled
    standard, random or mixed structures, the other axes fixed."""
    axes = [int(a) for a in rng.permutation(n)]
    shapes = []
    while len(axes) >= 2 and not (shapes and rng.random() < 0.15):
        k = int(rng.integers(1, min(6, len(axes) // 2) + 1))
        shapes.append((sorted(axes[:2 * k]), k, str(rng.choice(["standard", "random", "mixed"]))))
        axes = axes[2 * k:]
    blocks = [ft.FrequencyBlock(omega=float(w), axes=tuple(block_axes),
                                A=shuffled_structure(k, kind, rng))
              for (block_axes, k, kind), w in zip(shapes, spaced_rates(len(shapes), rng))]
    return ft.EquilibriumStructure(blocks, fixed_axes=axes, n=n), shapes


def orbit_map(m, body):
    """The matrix whose singular values ft.orbit_kernel reports, in the
    ambient basis: the ambient oracle of the linearization times ad_M."""
    return oracles.ambient_linearization(m, body) @ _ad_matrix(m, body.n)


def orbit_kernel_directions(m, body):
    """Orthonormal basis (columns) of the orbit kernel of a stationary
    momentum, as so(n) vectors: the right singular vectors of the orbit map
    that ft.orbit_kernel counts as kernel."""
    kernel_dim = ft.orbit_kernel(m, body).kernel_dim
    _, _, vt = np.linalg.svd(orbit_map(ft.skew(m), body))
    return vt[vt.shape[0] - kernel_dim:].T


def residual_after_orbit_move(m, body, xi, s):
    g = expm(s * xi)
    moved = ft.skew(g @ m.array @ g.T)
    _, residual = ft.is_equilibrium(moved, body, tol=1.0)
    return residual


def regular_normal_form(n, rng):
    """An EquilibriumStructure on n axes whose blocks of 2, 4 or 6 axes carry
    shuffled standard structures (so it is regular), the other axes fixed."""
    axes = [int(a) for a in rng.permutation(n)]
    shapes = []
    while len(axes) >= 2 and not (shapes and rng.random() < 0.2):
        k = int(rng.integers(1, min(3, len(axes) // 2) + 1))
        shapes.append((sorted(axes[:2 * k]), k))
        axes = axes[2 * k:]
    blocks = [ft.FrequencyBlock(omega=float(w), axes=tuple(block_axes),
                                A=shuffled_structure(k, "standard", rng))
              for (block_axes, k), w in zip(shapes, spaced_rates(len(shapes), rng))]
    return ft.EquilibriumStructure(blocks, fixed_axes=axes, n=n)


class TestPairBlockSpectrum:
    @pytest.mark.parametrize("n", range(4, 17))
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_regular_spectrum_matches_normal_form(self, n, rotated):
        # The spectrum of linearize against oracles.pair_block_spectrum, which
        # shares no code with freetop.stability, as multisets within 1e-12 of
        # the largest eigenvalue (at least 1); about 5e-15 is seen.
        rng = np.random.default_rng(100 * n + rotated)
        for _ in range(3):
            body = seeded_body(n, rng, rotated)
            m, structure = ft.generate(regular_normal_form(n, rng), body)
            assert structure.regular
            rep = ft.linearize(m, body)
            predicted = oracles.pair_block_spectrum(structure, body.eigenvalues)
            tol = 1e-12 * max(1.0, np.abs(predicted).max())
            assert_multisets_close(rep.spectrum, predicted, tol=tol)
            # The middle-axis rule: a fixed axis whose moment lies strictly
            # between the two moments of a 2-axis block makes the rotation
            # linearly unstable, with the growth rate mu of the closed form.
            lam = body.eigenvalues
            for block in structure.blocks:
                if len(block.axes) != 2:
                    continue
                i, j = block.axes
                for k in structure.fixed_axes:
                    if lam[i] < lam[k] < lam[j]:
                        mu = block.omega * np.sqrt((lam[k] - lam[i]) * (lam[j] - lam[k])
                                                   / ((lam[i] + lam[k]) * (lam[j] + lam[k])))
                        assert rep.max_real_part >= mu - tol > 0


# Agreement of linearize with np.linalg.eigvals of the dense operator at
# exotic equilibria, relative to the largest eigenvalue (at least 1): their
# eigenvalues are defective, so either solve moves them by about the square
# root of the rounding error. docs/conventions.md records it.
EXOTIC_SPECTRUM_TOL = 1e-7


class TestPairBlockSolves:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_blocks_match_dense_oracle(self, n):
        # linearize and orbit_kernel solve on the pair blocks; np.linalg on
        # the dense ambient operators is the reference. Spectra agree as
        # multisets within 1e-12 of the largest eigenvalue (at least 1) for
        # regular equilibria (6e-15 at most here) and within
        # EXOTIC_SPECTRUM_TOL for exotic ones (1.5e-8 at most here); singular
        # values within 1e-13 of the largest (1.7e-14 at most); every integer
        # field is the rank rule's on the dense singular values.
        rng = np.random.default_rng(2500 + n)
        structures = [random_normal_form(n, rng)[0] for _ in range(8)]
        if n >= 3:  # one block on all but one or two axes, the rest fixed
            axes = sorted(int(a) for a in rng.permutation(n)[:2 * ((n - 1) // 2)])
            block = ft.FrequencyBlock(omega=1.0 + rng.random(), axes=axes,
                                      A=shuffled_structure(len(axes) // 2, "random", rng))
            structures.append(ft.EquilibriumStructure(
                [block], [a for a in range(n) if a not in axes], n=n))
        cases = [(np.zeros((n, n)), seeded_body(n, rng, rotated=True), True)]
        for case, structure in enumerate(structures):
            body = seeded_body(n, rng, rotated=bool(case % 2))
            m, structure = ft.generate(structure, body)
            cases.append((ft.skew(m), body, structure.regular))
        if n >= 4:
            assert {regular for _, _, regular in cases} == {True, False}
        for m, body, regular in cases:
            lin = oracles.ambient_linearization(m, body)
            ad = oracles.unscaled_loop_operator(lambda e: e @ m - m @ e, n)
            dense = np.linalg.eigvals(lin)
            rep = ft.linearize(m, body)
            scale = max(1.0, np.abs(dense).max())
            assert_multisets_close(rep.spectrum, dense,
                                   (1e-12 if regular else EXOTIC_SPECTRUM_TOL) * scale)
            assert rep.dim == dense.size
            kernel = ft.orbit_kernel(m, body)
            svals = np.linalg.svd(lin @ ad, compute_uv=False)
            assert np.abs(kernel.singular_values - svals).max() <= 1e-13 * svals[0]
            kernel_dim = _kernel_dim(svals, kernel.rank_tol)
            stabilizer_dim = _kernel_dim(np.linalg.svd(ad, compute_uv=False), kernel.rank_tol)
            assert (kernel.kernel_dim, kernel.map_rank, kernel.stabilizer_dim,
                    kernel.excess_kernel_dim) == (kernel_dim, svals.size - kernel_dim,
                                                  stabilizer_dim, kernel_dim - stabilizer_dim)

    @pytest.mark.parametrize("side", [1.0 + 1e-6, 1.0 - 1e-6], ids=["above", "below"])
    def test_partition_bound(self, side):
        # W~ = E02 + b E12 made skew on a diagonal body, whose eigenframe is
        # the ambient frame, so matrix is L~ itself; b puts the off-block
        # entry of W~ at side * tol * ||W~||_F. Above the bound that entry
        # joins axis 1 to the plane {0, 2}, one set, and the results are the
        # dense oracle's; below it the entry is dropped: sets {0, 2} and
        # {1}, so L~ has no entry between basis element (0, 2), index 1,
        # and (0, 1), (1, 2), indices 0 and 2.
        tol = 1e-9
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
        assert np.array_equal(body.basis, np.eye(3))
        w = np.zeros((3, 3))
        w[0, 2], w[1, 2] = 1.0, side * tol * np.sqrt(2.0)  # ||W~||_F = sqrt(2 (1 + b^2))
        w = w - w.T
        m = ft.skew(w @ body.J + body.J @ w)
        wt = _require_stationary(m, body, tol)[1]
        assert (abs(wt[1, 2]) > tol * np.linalg.norm(wt)) == (side > 1.0)
        rep = ft.linearize(m, body, tol=tol)
        coupling = np.concatenate((rep.matrix[1, [0, 2]], rep.matrix[[0, 2], 1]))
        if side < 1.0:
            assert not coupling.any()
            return
        assert coupling.any()
        lin = oracles.ambient_linearization(m, body)
        dense = np.linalg.eigvals(lin)
        assert_multisets_close(rep.spectrum, dense, 1e-12 * max(1.0, np.abs(dense).max()))
        assert np.linalg.norm(rep.matrix - lin) <= 1e-13 * np.linalg.norm(lin)
        ad = oracles.unscaled_loop_operator(lambda e: e @ m - m @ e, 3)
        svals = np.linalg.svd(lin @ ad, compute_uv=False)
        kernel = ft.orbit_kernel(m, body, tol=tol)
        assert np.abs(kernel.singular_values - svals).max() <= 1e-13 * svals[0]


class TestNonIsolationSlopes:
    def test_kernel_direction_second_order(self):
        m, _, body = make_fixture("exotic_n4")
        kern = orbit_kernel_directions(m, body)
        ad = _ad_matrix(m.array, body.n)
        _, svals, vt = np.linalg.svd(ad)
        stab_basis = vt[svals <= 1e-8 * svals[0]].T
        # Kernel direction outside the stabilizer: its orbit motion is
        # nonzero but preserves stationarity to first order.
        resid = kern - stab_basis @ (stab_basis.T @ kern)
        best = int(np.argmax(np.linalg.norm(resid, axis=0)))
        xi_vec = resid[:, best] / np.linalg.norm(resid[:, best])
        xi = vec_to_skew(xi_vec, body.n)
        assert np.linalg.norm(oracles.commutator(xi, m.array)) > 1e-6

        r1 = residual_after_orbit_move(m, body, xi, 1e-3)
        r2 = residual_after_orbit_move(m, body, xi, 5e-4)
        slope = np.log2(r1 / r2)
        assert slope >= 1.8

    def test_generic_direction_first_order(self):
        m, _, body = make_fixture("exotic_n4")
        k = orbit_map(m.array, body)
        _, _, vt = np.linalg.svd(k)
        xi = vec_to_skew(vt[0], body.n)  # direction of largest first-order response
        r1 = residual_after_orbit_move(m, body, xi, 1e-3)
        r2 = residual_after_orbit_move(m, body, xi, 5e-4)
        slope = np.log2(r1 / r2)
        assert 0.8 <= slope <= 1.2


def _two_blocks(cluster_tol):
    a = ft.standard_structure(1)
    return ft.EquilibriumStructure([ft.FrequencyBlock(omega=2.0, axes=(0, 1), A=a),
                                    ft.FrequencyBlock(omega=1.0, axes=(2, 3), A=a)],
                                   (), n=4, cluster_tol=cluster_tol)


class TestNumericParameters:
    @pytest.mark.parametrize("call, field", [
        (lambda m, body, big: ft.linearize(m, body, tol=big), "tol"),
        (lambda m, body, big: ft.orbit_kernel(m, body, rank_tol=big), "rank_tol"),
        (lambda m, body, big: ft.orbit_kernel(m, body, tol=big), "tol"),
        (lambda m, body, big: ft.instability_probe(m, body, big, 1.0, 100.0), "eps"),
        (lambda m, body, big: ft.instability_probe(m, body, 1e-6, 1.0, big), "exit_factor"),
        (lambda m, body, big: ft.instability_probe(m, body, 1e-6, 1.0, 100.0, tol=big), "tol"),
        (lambda m, body, big: ft.is_equilibrium(m, body, tol=big), "tol"),
        (lambda m, body, big: ft.classify(m, body, tol=big), "tol"),
        (lambda m, body, big: ft.classify(m, body, cluster_tol=big), "cluster_tol"),
        (lambda m, body, big: _two_blocks(big), "cluster_tol"),
        (lambda m, body, big: ft.stabilizer_dimension(m, rank_tol=big), "rank_tol"),
        (lambda m, body, big: ft.integrate(m, body, big, 1.0), "dt"),
    ], ids=["linearize-tol", "orbit_kernel-rank_tol", "orbit_kernel-tol", "probe-eps",
            "probe-exit_factor", "probe-tol", "is_equilibrium-tol", "classify-tol",
            "classify-cluster_tol", "structure-cluster_tol", "stabilizer-rank_tol",
            "integrate-dt"])
    def test_integer_beyond_double_range(self, body3, call, field):
        # float() of the int overflows; every numeric parameter refuses it by name.
        m = ft.skew([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ValueError,
                           match=f"^{field} is an integer too large for a double$"):
            call(m, body3, 10**400)

    @pytest.mark.parametrize("value", [np.nan, 0, -1], ids=["nan", "zero", "negative"])
    @pytest.mark.parametrize("call, field", [
        (lambda m, body, bad: _two_blocks(bad), "cluster_tol"),
        (lambda m, body, bad: ft.stabilizer_dimension(m, rank_tol=bad), "rank_tol"),
        (lambda m, body, bad: ft.orbit_kernel(m, body, rank_tol=bad), "rank_tol"),
        (lambda m, body, bad: ft.is_equilibrium(m, body, tol=bad), "tol"),
        (lambda m, body, bad: ft.instability_probe(m, body, bad, 1.0, 100.0), "eps"),
    ], ids=["structure-cluster_tol", "stabilizer-rank_tol", "orbit_kernel-rank_tol",
            "is_equilibrium-tol", "probe-eps"])
    def test_not_positive(self, body3, call, field, value):
        # Such a tolerance would switch off the rule it sets: two near rates
        # would stay two blocks, and the stabilizer of this nonzero skew
        # matrix, of dimension 1, would read 0.
        m = ft.skew([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            call(m, body3, value)

    @pytest.mark.parametrize("rate", [0.0, 1.0], ids=["zero", "nonzero"])
    def test_classify_refuses_infinite_cluster_tol(self, body3, rate):
        # On the zero momentum this used to be the ValueError of its
        # structure, on any other an AmbiguousClustering.
        m = ft.skew([[0.0, 0.0, rate], [0.0, 0.0, 0.0], [-rate, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^cluster_tol must be positive$"):
            ft.classify(m, body3, cluster_tol=np.inf)

    @pytest.mark.parametrize("factor, message", [
        (np.inf, "exit_factor must be finite"), (1.0, "exit_factor must exceed 1"),
        (0.5, "exit_factor must exceed 1"), (np.nan, "exit_factor must exceed 1")],
        ids=["inf", "one", "half", "nan"])
    def test_probe_refuses_exit_factor(self, body3, factor, message):
        # An infinite factor used to run, escaping only on a non-finite deviation.
        m = ft.skew([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            ft.instability_probe(m, body3, 1e-6, 1.0, factor)


class TestInstabilityProbe:
    def test_middle_axis_escapes(self, body3):
        m, _ = principal_momentum_3d(1)
        result = ft.instability_probe(m, body3, eps=1e-6, horizon=100.0,
                                      exit_factor=100.0, seed=1)
        assert result.escaped
        assert result.exit_time is not None and result.exit_time < 100.0
        assert result.deviations[-1] >= 1e-4

    @pytest.mark.parametrize("axis", [0, 2])
    def test_extreme_axes_bounded(self, body3, axis):
        m, _ = principal_momentum_3d(axis)
        result = ft.instability_probe(m, body3, eps=1e-6, horizon=100.0,
                                      exit_factor=100.0, seed=1)
        assert not result.escaped
        assert result.exit_time is None
        assert result.deviations.max() < 1e-4

    def test_non_finite_record_is_an_escape(self, body3, monkeypatch, tmp_path):
        # A kernel that returns a NaN record: the probe escapes at that
        # record's time and keeps the finite curve before it.
        real = ft._kernels.rk4_momentum

        def nan_at_record_5(*args):
            rec = real(*args).copy()
            rec[5] = np.nan
            return rec

        monkeypatch.setattr(ft._kernels, "rk4_momentum", nan_at_record_5)
        m, _ = principal_momentum_3d(0)
        result = ft.instability_probe(m, body3, eps=1e-6, horizon=10.0,
                                      exit_factor=100.0, seed=1, dt=0.01)
        assert result.escaped
        assert result.exit_time == 5 * 10 * 0.01  # record 5, one record every 10 steps
        assert result.times.size == 5 and result.times[-1] < result.exit_time
        assert np.all(np.isfinite(result.deviations))
        doc = ser.probe_to_doc(result, eps=1e-6, exit_factor=100.0)
        assert (doc["escaped"], doc["exit_time"], doc["samples"]) == (True, result.exit_time, 5)
        ser.write_probe_curve_csv(tmp_path / "curve.csv", result)
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == 6

    def test_deviation_beyond_the_norm_range_is_measured(self, tmp_path):
        # |M| is about 4e156, where a plain Frobenius norm of the deviation
        # overflows (above about 1.3e154) and an infinite deviation would
        # read as an escape at t = 1.9. In power-of-two units it is finite
        # and crosses exit_factor * eps = 1e156 later.
        body = ft.InertiaSpec.from_eigenvalues(np.array([1.0, 2.0, 3.0]) * 1e156)
        w = np.zeros((3, 3))
        w[0, 2], w[2, 0] = 1.0, -1.0
        m = ft.skew(w @ body.J + body.J @ w)
        result = ft.instability_probe(m, body, eps=1e154, horizon=100.0,
                                      exit_factor=100.0, dt=1e-2)
        assert np.all(np.isfinite(result.deviations))
        assert result.escaped and result.exit_time > 1.9
        assert result.times[-1] == result.exit_time
        assert result.deviations[-1] >= 1e156 > result.deviations[-2]
        doc = ser.probe_to_doc(result, eps=1e154, exit_factor=100.0)
        assert doc["max_deviation"] == result.deviations[-1]
        ser.write_probe_curve_csv(tmp_path / "curve.csv", result)
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == result.times.size + 1

    def test_exotic_probe_records_curve(self):
        m, _, body = make_fixture("exotic_n4")
        result = ft.instability_probe(m, body, eps=1e-6, horizon=20.0,
                                      exit_factor=100.0, seed=2)
        # Experiment output, not an assertion about escape: the curve must
        # be finite, time-ordered, and start at the perturbation size.
        assert np.all(np.isfinite(result.deviations))
        assert np.all(np.diff(result.times) > 0)
        assert result.deviations[0] == pytest.approx(1e-6, rel=1e-10)

    def test_step_guard(self, body3):
        # A stable rotation with ||W|| = 10: at dt = 1 the deviation blows up
        # numerically, which must not be reported as a physical escape.
        m = ft.skew([[0.0, 0.0, 0.0], [0.0, 0.0, 50.0], [0.0, -50.0, 0.0]])
        with pytest.raises(ft.IntegrationAbort, match="guard"):
            ft.instability_probe(m, body3, eps=1e-6, horizon=100.0, exit_factor=100.0,
                                 dt=1.0)

    def test_parameter_validation(self, body3):
        m, _ = principal_momentum_3d(0)
        with pytest.raises(ValueError):
            ft.instability_probe(m, body3, eps=0.0, horizon=1.0, exit_factor=10.0)
        with pytest.raises(ValueError):
            ft.instability_probe(m, body3, eps=1e-6, horizon=1.0, exit_factor=1.0)
        for bad in ({"eps": float("nan")}, {"exit_factor": float("nan")},
                    {"dt": float("nan")}, {"horizon": float("nan")}, {"tol": float("nan")}):
            args = {"eps": 1e-6, "horizon": 1.0, "exit_factor": 10.0, **bad}
            with pytest.raises(ValueError):
                ft.instability_probe(m, body3, **args)

    def test_horizon_must_be_step_multiple(self, body3):
        m, _ = principal_momentum_3d(1)
        with pytest.raises(ValueError, match="multiple"):
            ft.instability_probe(m, body3, eps=1e-6, horizon=1.055, exit_factor=100.0,
                                 dt=1e-2)

    def test_record_every_must_divide_step_count(self, body3):
        # 105 steps: records every round(0.1 / dt) = 10 steps would end the
        # curve at t = 1.0, short of the horizon. They come every
        # gcd(105, 10) = 5 steps instead, and the last one is at t = 1.05.
        m, _ = principal_momentum_3d(1)
        result = ft.instability_probe(m, body3, eps=1e-6, horizon=1.05, exit_factor=100.0,
                                      dt=1e-2)
        assert not result.escaped
        assert np.array_equal(result.times, np.arange(22) * 5 * 1e-2)
        assert result.times[-1] == 1.05

    @pytest.mark.parametrize("dt, horizon, spacing, digest", [
        # round(0.1 / dt) divides the steps: that spacing, and the curves
        # pinned bit for bit.
        (0.01, 100.0, 10, "0d9a1cdcc3276a8f919020cbb45373c33e584868b6e12e91cabe0c3219f00766"),
        (0.02, 30.0, 5, "d51318bebc5f0219814e907214dd6bda1a054a0237de600f360e601acedcf136"),
        (0.005, 20.0, 20, "4905f0564bab96f377d3a8f93106555777b840a51ff7d4be76f280c675a0ff91"),
        # It does not: every gcd(steps, round(0.1 / dt)) steps, with 0.1 / dt
        # held to at most the step count.
        (0.006, 60.0, 1, None),  # gcd(10000, 17)
        (0.01, 0.05, 5, None),  # 5 steps, fewer than round(0.1 / dt) = 10
        (0.01, 1.05, 5, None),  # gcd(105, 10)
        (2.0**-1070, 2.0**-1066, 16, None),  # 0.1 / dt overflows
    ], ids=["0.01-100", "0.02-30", "0.005-20", "0.006-60", "0.01-0.05", "0.01-1.05",
            "subnormal-dt"])
    def test_record_grid(self, body3, dt, horizon, spacing, digest):
        m, _ = principal_momentum_3d(1)
        result = ft.instability_probe(m, body3, eps=1e-6, horizon=horizon,
                                      exit_factor=100.0, seed=3, dt=dt)
        assert np.array_equal(result.times, np.arange(result.times.size) * spacing * dt)
        if result.escaped:
            assert result.times[-1] <= result.exit_time <= horizon
        else:
            assert result.times[-1] == horizon
        if digest is not None:
            curve = result.times.tobytes() + result.deviations.tobytes()
            assert hashlib.sha256(curve).hexdigest() == digest

    def test_requires_equilibrium(self, body3):
        m = np.zeros((3, 3))
        m[0, 2], m[0, 1] = 4.0, 3.0
        with pytest.raises(ft.NotAnEquilibrium):
            ft.instability_probe(ft.skew(m - m.T), body3, eps=1e-6, horizon=1.0,
                                 exit_factor=100.0)

    def test_deterministic(self, body3):
        m, _ = principal_momentum_3d(1)
        a = ft.instability_probe(m, body3, eps=1e-6, horizon=5.0,
                                 exit_factor=100.0, seed=7)
        b = ft.instability_probe(m, body3, eps=1e-6, horizon=5.0,
                                 exit_factor=100.0, seed=7)
        assert np.array_equal(a.deviations, b.deviations)


def _off_equilibrium_3d():
    m = np.zeros((3, 3))
    m[0, 2], m[0, 1] = 4.0, 3.0
    return ft.skew(m - m.T)


@pytest.mark.parametrize("call, message", [
    # An infinite tolerance would call this non-stationary momentum stationary.
    (lambda body: ft.is_equilibrium(_off_equilibrium_3d(), body, tol=np.inf),
     "tol must be positive"),
    # ... put every direction in the kernel ...
    (lambda body: ft.orbit_kernel(principal_momentum_3d(1)[0], body, rank_tol=np.inf),
     "rank_tol must be positive"),
    # ... and give NaN deviations.
    (lambda body: ft.instability_probe(principal_momentum_3d(1)[0], body, eps=np.inf,
                                       horizon=1.0, exit_factor=10.0),
     "eps must be positive"),
], ids=["is_equilibrium-tol", "orbit_kernel-rank_tol", "instability_probe-eps"])
def test_infinite_tolerance_rejected(body3, call, message):
    with pytest.raises(ValueError, match=message):
        call(body3)
