import numpy as np
import pytest
from scipy.linalg import block_diag, expm
from scipy.optimize import linear_sum_assignment

import freetop as ft
from freetop import serialize as ser
from freetop.body import _invert_array
from freetop.stability import skew_to_vec, vec_to_skew, _ad_matrix, _linearization_matrix

from conftest import random_body, random_skew
from recipes import read_recipe, spaced_rates
import oracles


def assert_multisets_close(a, b, tol):
    """Match two complex multisets within tol, order-free."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max() if a.size else 0.0
    assert worst <= tol, f"multiset mismatch: worst pairing distance {worst:.3e}"


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
        body = random_body(n, rng)
        m = random_skew(n, rng)
        om = _invert_array(m, body)

        def lin(e):
            d_om = _invert_array(e, body)
            return (e @ om - om @ e) + (m @ d_om - d_om @ m)

        assert np.array_equal(_linearization_matrix(m, body), oracles.loop_operator(lin, n))
        assert np.array_equal(_ad_matrix(m, n), oracles.loop_operator(lambda e: e @ m - m @ e, n))


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
    """The matrix whose singular values ft.orbit_kernel reports."""
    return _linearization_matrix(m, body) @ _ad_matrix(m, body.n)


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
        # 105 steps with the default record_every of 10 used to end the
        # curve at t = 1.0 without a message.
        m, _ = principal_momentum_3d(1)
        with pytest.raises(ValueError, match="divide"):
            ft.instability_probe(m, body3, eps=1e-6, horizon=1.05, exit_factor=100.0,
                                 dt=1e-2)

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
