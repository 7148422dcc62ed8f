import hashlib
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import freetop as ft
from freetop import _kernels
from freetop.body import casimirs, invariant_labels

from conftest import random_body, random_skew, rotation_generator
from recipes import read_recipe
import oracles

# The compiled RK4 kernel, run where it builds and compared with the numpy
# twin. Building the C kernel here is its availability check.
NEEDS_C_KERNEL = pytest.mark.skipif(
    _kernels._c_kernel() is None, reason="the C kernel could not be built")
COMPILED = [pytest.param("c", marks=NEEDS_C_KERNEL)]
NEEDS_CC = pytest.mark.skipif(
    not any(map(shutil.which, _kernels._COMPILERS)), reason="no C compiler")


class TestInertiaSpec:
    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            ft.InertiaSpec.from_eigenvalues([-1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive definite"):
            ft.InertiaSpec.from_eigenvalues([0.0, 2.0])

    def test_rejects_near_degenerate(self):
        with pytest.raises(ValueError, match="too close"):
            ft.InertiaSpec.from_eigenvalues([1.0, 1.0 + 1e-12, 3.0])
        # A gap above 1e-8 of the largest moment is accepted.
        ft.InertiaSpec.from_eigenvalues([1.0, 1.0 + 1e-7, 3.0])

    @pytest.mark.parametrize("ratio", [1e-6, 1e-10, 1e-13, 1e-15])
    def test_accepts_rotated_body_with_small_moment(self, ratio):
        # Smallest moment `ratio` times the largest (1.0); eigh's error on it
        # is of order eps * ||J||, so it must stay positive down to 1e-15.
        # Below about 1e-16 the sign can be decided by rounding, so no row there.
        rng = np.random.default_rng(round(-np.log10(ratio)))
        for k in range(20):
            n = 3 + k % 6
            lam = np.concatenate(([ratio], np.sort(rng.uniform(0.1, 1.0, n - 2)), [1.0]))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = q @ np.diag(lam) @ q.T
            body = ft.InertiaSpec(ft.sym(0.5 * (a + a.T)))
            assert abs(body.eigenvalues[0] - ratio) <= 1e-14

    @pytest.mark.parametrize("values, match", [
        ([[1.0, 2.0], [3.0, 4.0]], "expected a 1-d list"),
        ([], "at least two axes, got 0"),
    ], ids=["two-dimensional", "empty"])
    def test_from_eigenvalues_rejects(self, values, match):
        # np.diag would read a 2-d list as its diagonal.
        with pytest.raises(ValueError, match=match):
            ft.InertiaSpec.from_eigenvalues(values)

    def test_repr(self):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.5])
        assert repr(body) == "InertiaSpec(n=2, eigenvalues=[1.0, 2.5])"

    def test_rejects_moments_beyond_double_range(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            ft.InertiaSpec(np.diag([1e308, 1.5e308, 1e-320]))

    def test_keeps_its_own_read_only_inertia(self):
        # J, its eigenframe and pair_sums are fixed when the body is made.
        j = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.0], [0.0, 0.0, 5.0]])
        body = ft.InertiaSpec(j)
        j[0, 2] = j[2, 0] = 0.5
        assert body.J[0, 2] == 0.0
        assert isinstance(body.J, np.ndarray) and body.J.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            body.J[0, 1] = 0.2
        assert body.J[0, 1] == 0.1

    def test_pair_sums(self, body3):
        expected = np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 5.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(body3.pair_sums, expected)

    def test_nontrivial_frame_roundtrip(self, rng):
        body = random_body(5, rng)
        a = rng.standard_normal((5, 5))
        np.testing.assert_allclose(body.from_eigenframe(body.to_eigenframe(a)), a,
                                   atol=1e-13)


class TestInertiaMaps:
    def test_apply_hand_example(self):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0])
        om = ft.skew([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(oracles.inertia_apply(om, body),
                                      [[0.0, 3.0], [-3.0, 0.0]])

    def test_apply_zero(self, body4):
        assert np.all(oracles.inertia_apply(ft.skew(np.zeros((4, 4))), body4) == 0.0)

    def test_invert_hand_example(self):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0])
        m = ft.skew([[0.0, 3.0], [-3.0, 0.0]])
        np.testing.assert_allclose(oracles.inertia_invert(m, body),
                                   [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_invert_zero(self, body4):
        assert np.all(oracles.inertia_invert(ft.skew(np.zeros((4, 4))), body4) == 0.0)

    def test_pairwise_sum_rule_in_eigenframe(self, rng):
        body = random_body(5, rng)
        om = random_skew(5, rng)
        m = oracles.inertia_apply(om, body)
        mt = body.to_eigenframe(m)
        ot = body.to_eigenframe(om)
        np.testing.assert_allclose(mt, np.asarray(body.pair_sums) * ot, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_roundtrip_both_ways(self, n, rng):
        body = random_body(n, rng)
        om = random_skew(n, rng)
        om2 = oracles.inertia_invert(oracles.inertia_apply(om, body), body)
        assert np.linalg.norm(om2 - om) <= 1e-11 * np.linalg.norm(om)
        m = random_skew(n, rng)
        m2 = oracles.inertia_apply(oracles.inertia_invert(m, body), body)
        assert np.linalg.norm(m2 - m) <= 1e-11 * np.linalg.norm(m)

    def test_dimension_mismatch(self, body3):
        with pytest.raises(ValueError, match="mismatch"):
            oracles.inertia_apply(ft.skew(np.zeros((4, 4))), body3)


class TestVectorField:
    def test_commutator_identity(self, rng):
        # [M, W] equals [J, W^2] identically along the inertia relation.
        for n in range(3, 9):
            body = random_body(n, rng)
            m = random_skew(n, rng)
            om = oracles.inertia_invert(m, body)
            lhs = oracles.vector_field(m, body)
            rhs = oracles.commutator(body.J, om @ om)
            scale = np.linalg.norm(body.J) * np.linalg.norm(om) ** 2
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_reduces_to_classical_euler(self, body3, rng):
        for _ in range(20):
            m_vec = rng.standard_normal(3)
            m = ft.skew(oracles.hat(m_vec))
            rhs = oracles.euler3d_rhs(m_vec, oracles.moments_of([1.0, 2.0, 3.0]))
            got = oracles.unhat(oracles.vector_field(m, body3))
            np.testing.assert_allclose(got, rhs, atol=1e-13)

    def test_equilibrium_stationary(self, body4):
        recipe = read_recipe(((0, 1), 2.0), ((2, 3), 1.0))
        m, _ = ft.generate(recipe, body4)
        om = oracles.inertia_invert(m, body4)
        f = oracles.vector_field(m, body4)
        assert np.linalg.norm(f) <= \
            1e-10 * np.linalg.norm(m.array) * np.linalg.norm(om)

    def test_casimir_tangency(self, rng):
        # d/dt tr(M^2k) = 2k tr(M^(2k-1) [M, W]) vanishes identically.
        for n in (3, 5, 6):
            body = random_body(n, rng)
            m = random_skew(n, rng)
            f = oracles.vector_field(m, body)
            power = m
            for k in range(1, n // 2 + 1):
                deriv = 2 * k * np.trace(power @ f)
                scale = np.linalg.norm(power) * np.linalg.norm(f) * 2 * k
                assert abs(deriv) <= 1e-12 * max(scale, 1e-30)
                power = power @ m @ m


def energy(m, body):
    """The energy column of the invariant table."""
    return ft.compute_invariants(m, body, 2)[..., 0]


def manakov(m, body, max_power):
    """The Manakov columns of the invariant table, in manakov_labels order."""
    return ft.compute_invariants(m, body, max_power)[..., 1 + body.n // 2:]


class TestEnergy:
    def test_zero(self, body4):
        assert energy(ft.skew(np.zeros((4, 4))), body4) == 0.0

    def test_hand_value(self):
        # M W = [[-3, 0], [0, -3]] so -tr(M W)/4 = 3/2.
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0])
        m = ft.skew([[0.0, 3.0], [-3.0, 0.0]])
        assert energy(m, body) == pytest.approx(1.5, rel=1e-15)

    def test_positive_for_nonzero(self, rng):
        for n in (2, 4, 7):
            body = random_body(n, rng)
            m = random_skew(n, rng)
            assert energy(m, body) > 0.0

    def test_classical_normalization(self, body3, rng):
        moments = oracles.moments_of([1.0, 2.0, 3.0])
        w_vec = rng.standard_normal(3)
        om = ft.skew(oracles.hat(w_vec))
        m = oracles.inertia_apply(om, body3)
        classical = 0.5 * float(np.sum(moments * w_vec**2))
        assert energy(m, body3) == pytest.approx(classical, rel=1e-13)

    def test_conservation_long_run(self, rng):
        body = random_body(5, rng)
        m0 = random_skew(5, rng)
        traj = ft.integrate(m0, body, dt=1e-3, t_end=10.0, record_every=200)
        assert traj.drift_summary()["energy"] < 1e-8


class TestManakovIntegrals:
    def test_lambda_zero_term_is_casimir(self, body4, rng):
        m = random_skew(4, rng)
        vals = manakov(m, body4, 2)
        assert vals[0] == pytest.approx(float(np.trace(m @ m)), rel=1e-13)

    def test_leading_term_constant(self, body4, rng):
        m = random_skew(4, rng)
        vals = manakov(m, body4, 2)
        j = body4.J
        assert vals[2] == pytest.approx(float(np.trace(np.linalg.matrix_power(j, 4))),
                                        rel=1e-13)

    def test_polynomial_evaluation_oracle(self, rng):
        # Coefficients must reproduce direct evaluations of
        # tr((M + z J^2)^k) at generic points z.
        body = random_body(5, rng)
        m = random_skew(5, rng)
        max_power = 5
        vals = manakov(m, body, max_power)
        labels = ft.manakov_labels(max_power)
        j2 = body.J @ body.J
        for z in (0.37, -1.21, 2.0):
            idx = 0
            for k in range(2, max_power + 1):
                direct = float(np.trace(np.linalg.matrix_power(m + z * j2, k)))
                series = sum(vals[idx + j] * z**j for j in range(k + 1))
                assert series == pytest.approx(direct, rel=1e-10, abs=1e-8), labels[idx]
                idx += k + 1

    def test_degree_bounds(self, body4, rng):
        m = random_skew(4, rng)
        with pytest.raises(ValueError):
            manakov(m, body4, 1)
        with pytest.raises(ValueError):
            manakov(m, body4, 5)

    def test_conserved_along_flow(self, body4, rng):
        m0 = random_skew(4, rng)
        traj = ft.integrate(m0, body4, dt=1e-3, t_end=10.0, record_every=200,
                            manakov_max_power=4)
        drift = traj.drift_summary()
        for label in ft.manakov_labels(4):
            assert drift[label] < 1e-7, label


class TestBatchedInvariants:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_table_matches_reference_rotated_body(self, n, rng):
        body = random_body(n, rng)
        stack = np.stack([random_skew(n, rng, scale=2.0) for _ in range(7)])
        table = ft.compute_invariants(stack, body, n)
        assert table.shape == (7, len(invariant_labels(n, n)))
        for m, row in zip(stack, table):
            ref, scale = oracles.invariants_reference(m, body.J, n)
            assert np.all(np.abs(row - ref) <= 1e-13 * scale), np.abs(row - ref) / scale

    def test_single_and_batched_calls_agree(self, rng):
        # One code path broadcasts over the stack, so each row is bitwise the
        # single-sample result.
        body = random_body(5, rng)
        stack = np.stack([random_skew(5, rng) for _ in range(4)])
        table = ft.compute_invariants(stack, body, 4)
        traces = ft.casimirs(stack)
        for k, m in enumerate(stack):
            np.testing.assert_array_equal(table[k], ft.compute_invariants(m, body, 4))
            np.testing.assert_array_equal(traces[k], ft.casimirs(m))

    @pytest.mark.parametrize("fn", [
        lambda m, body: energy(m, body),
        lambda m, body: manakov(m, body, 2),
        lambda m, body: ft.compute_invariants(m, body, 2),
    ], ids=["energy", "manakov_integrals", "compute_invariants"])
    @pytest.mark.parametrize("bad", ["symmetric", "nan", "one_bad_row", "huge_symmetric"])
    def test_rejects_non_skew_or_non_finite(self, fn, bad, body4, rng):
        m = random_skew(4, rng).copy()
        if bad == "symmetric":
            m = np.abs(m)
        elif bad == "nan":
            m[0, 1] = np.nan
        elif bad == "huge_symmetric":
            m = np.zeros((4, 4))
            m[0, 1] = m[1, 0] = 1e300
        else:
            m = np.stack([m, m + np.diag([0.0, 0.0, 0.0, 1.0])])
        with pytest.raises(ValueError, match="skew-symmetric|finite"):
            fn(m, body4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4), (3,)])
    def test_rejects_another_dimension(self, body3, shape):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ft.compute_invariants(np.zeros(shape), body3, 2)

    def test_single_m_coefficients_are_exactly_zero(self, rng):
        # With one factor M against powers of the diagonal J^2 the trace is
        # sum_i M~_ii * lambda_i^p; the eigenframe stack is exactly skew, so
        # rounding in the rotation leaves nothing in these columns.
        body = random_body(5, rng)
        stack = np.stack([random_skew(5, rng) for _ in range(3)])
        table = ft.compute_invariants(stack, body, 4)
        labels = invariant_labels(5, 4)
        for label in ("manakov_2_1", "manakov_3_2", "manakov_4_3"):
            assert np.all(table[:, labels.index(label)] == 0.0), label

    def test_near_skew_input_uses_its_skew_part(self, rng):
        body = random_body(4, rng)
        nudged = random_skew(4, rng).copy()
        nudged[0, 1] += 1e-12
        nudged[2, 2] = 1e-12
        exact = ft.skew(nudged)
        np.testing.assert_allclose(ft.compute_invariants(nudged, body, 4),
                                   ft.compute_invariants(exact, body, 4), rtol=1e-14, atol=1e-14)
        assert energy(nudged, body) == pytest.approx(energy(exact, body), rel=1e-15)

    def test_trajectory_table_matches_reference(self, rng):
        body = random_body(6, rng)
        traj = ft.integrate(random_skew(6, rng), body, dt=1e-3, t_end=0.2,
                            record_every=20, manakov_max_power=4)
        assert traj.times.shape == (11,)
        assert traj.momenta.shape == (11, 6, 6)
        np.testing.assert_array_equal(traj.momenta, -traj.momenta.transpose(0, 2, 1))
        for m, row in zip(traj.momenta, traj.invariants):
            ref, scale = oracles.invariants_reference(m, body.J, 4)
            assert np.all(np.abs(row - ref) <= 1e-13 * scale)

    def test_non_finite_sample_aborts_with_its_time(self, body3, monkeypatch):
        def kernel(m0, pair, dt, nsteps, record_every):
            out = np.repeat(m0[None], nsteps // record_every + 1, axis=0)
            out[3:, 0, 1] = np.inf
            return out

        monkeypatch.setattr(_kernels, "rk4_momentum", kernel)
        m0 = oracles.inertia_apply(rotation_generator(3, 0, 2), body3)
        with pytest.raises(ft.IntegrationAbort, match=r"near t = 0\.3$"):
            ft.integrate(m0, body3, dt=0.01, t_end=1.0, record_every=10)

    def test_overflowing_invariants_abort_with_their_time(self, body3, monkeypatch):
        # Finite records from t = 0.3 on whose squares overflow: the
        # invariants are refused before a trajectory is returned, and numpy
        # warns of nothing on the way.
        def kernel(m0, pair, dt, nsteps, record_every):
            out = np.repeat(m0[None], nsteps // record_every + 1, axis=0)
            out[3:] *= 1e200
            return out

        monkeypatch.setattr(_kernels, "rk4_momentum", kernel)
        m0 = oracles.inertia_apply(rotation_generator(3, 0, 2), body3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ft.IntegrationAbort,
                               match=r"^invariants became non-finite near t = 0\.3$"):
                ft.integrate(m0, body3, dt=0.01, t_end=1.0, record_every=10)


class TestStepRK4:
    def test_equilibrium_fixed(self, body4):
        recipe = read_recipe(((0, 1), 1.0), ((2, 3), 2.0))
        m, _ = ft.generate(recipe, body4)
        traj = ft.integrate(m, body4, dt=1e-2, t_end=1e-2)
        assert np.linalg.norm(traj.momenta[-1] - m.array) <= 1e-12 * np.linalg.norm(m.array)

    def test_dt_must_be_positive(self, body3, rng):
        for dt in (0.0, -1e-2):
            with pytest.raises(ValueError, match="dt must be positive"):
                ft.integrate(random_skew(3, rng), body3, dt=dt, t_end=1.0)

    def test_fourth_order_richardson(self, body4, rng):
        m0 = random_skew(4, rng)
        t_end = 0.4

        def final_state(dt):
            traj = ft.integrate(m0, body4, dt=dt, t_end=t_end,
                                record_every=int(round(t_end / dt)))
            return traj.momenta[-1]

        ref = final_state(1e-3)
        errs = [np.linalg.norm(final_state(dt) - ref) for dt in (0.04, 0.02)]
        ratio = errs[0] / errs[1]
        assert 11.0 < ratio < 23.0, f"expected ~16x error reduction, got {ratio:.1f}"

    def test_t_end_must_be_step_multiple(self, body3, rng):
        with pytest.raises(ValueError, match="multiple"):
            ft.integrate(random_skew(3, rng), body3, dt=0.04, t_end=0.5, record_every=1)

    def test_matches_classical_oracle(self, body3, rng):
        m_vec = rng.standard_normal(3)
        m = ft.skew(oracles.hat(m_vec))
        sol = oracles.euler3d_solve(m_vec, oracles.moments_of([1.0, 2.0, 3.0]), 1.0)
        traj = ft.integrate(m, body3, dt=1e-3, t_end=1.0, record_every=1000)
        got = oracles.unhat(traj.momenta[-1])
        np.testing.assert_allclose(got, sol(1.0), atol=1e-8)

    def test_overflow_aborts(self, body3):
        # The guard only warns, so the kernel itself runs into overflow.
        huge = ft.skew([[0.0, 1e160, 0.0], [-1e160, 0.0, 1e160], [0.0, -1e160, 0.0]])
        with pytest.warns(UserWarning, match="guard"):
            with pytest.raises(ft.IntegrationAbort, match="non-finite near t = "):
                ft.integrate(huge, body3, dt=1e3, t_end=1e4, guard="warn")


class TestIntegrate:
    def test_uniform_sampling(self, body3, rng):
        m0 = random_skew(3, rng)
        traj = ft.integrate(m0, body3, dt=1e-2, t_end=1.0, record_every=10)
        times = traj.times
        assert len(times) == 11
        np.testing.assert_allclose(np.diff(times), 0.1, atol=1e-12)

    def test_record_every_must_divide(self, body3, rng):
        with pytest.raises(ValueError, match="divide"):
            ft.integrate(random_skew(3, rng), body3, dt=1e-2, t_end=1.0, record_every=7)

    @pytest.mark.parametrize("kwargs, match", [
        ({"record_every": 0}, "record_every must be a positive integer"),
        ({"t_end": 0.004}, "t_end shorter than one step"),
        ({"guard": "x"}, "guard must be 'reject' or 'warn'"),
    ], ids=["record-every-0", "t-end-below-half-a-step", "unknown-guard"])
    def test_rejects_arguments(self, body3, rng, kwargs, match):
        args = {"dt": 1e-2, "t_end": 1.0, **kwargs}
        with pytest.raises(ValueError, match=match):
            ft.integrate(random_skew(3, rng), body3, **args)

    def test_guard_reject_and_warn(self, body3, rng):
        m0 = random_skew(3, rng, scale=50.0)
        with pytest.raises(ft.IntegrationAbort, match="guard"):
            ft.integrate(m0, body3, dt=0.1, t_end=1.0, record_every=10)
        with pytest.warns(UserWarning, match="guard"):
            ft.integrate(m0, body3, dt=0.1, t_end=1.0, record_every=10, guard="warn")

    @pytest.mark.parametrize("name", COMPILED)
    def test_kernel_paths_agree(self, name, body6, rng):
        assert _kernels.backend() == name
        m0 = random_skew(6, rng)
        kwargs = dict(dt=1e-3, t_end=0.2, record_every=20)
        fast = ft.integrate(m0, body6, **kwargs)
        slow = _kernels.rk4_momentum_numpy(body6.to_eigenframe(m0),
                                           np.asarray(body6.pair_sums), 1e-3, 200, 20)
        np.testing.assert_allclose(fast.momenta, body6.from_eigenframe(slow), atol=1e-12)

    def test_matches_plain_stepper(self, body4, rng):
        m0 = random_skew(4, rng)
        traj = ft.integrate(m0, body4, dt=1e-3, t_end=0.1, record_every=100)
        np.testing.assert_allclose(traj.momenta[-1], oracles.rk4_ambient(m0, body4, 1e-3, 100),
                                   atol=1e-12)

    def test_drift_summary_keys(self, body4, rng):
        m0 = random_skew(4, rng)
        traj = ft.integrate(m0, body4, dt=1e-2, t_end=0.1, record_every=10,
                            manakov_max_power=3)
        summary = traj.drift_summary()
        assert list(summary) == invariant_labels(4, 3)


def pinned_inputs(n):
    """Eigenframe inputs made without BLAS, so they are the same bits on
    every machine: a seeded skew momentum and the pair sums of seeded
    moments of inertia."""
    rng = np.random.default_rng(n)
    moments = rng.uniform(1.0, 3.0, n)
    a = rng.standard_normal((n, n))
    return a - a.T, np.add.outer(moments, moments)


# SHA-256 of rk4_momentum_c(*pinned_inputs(n), 1e-2, 200, 50) as little-endian
# float64, recorded with the -O2 build of the plain loop. A kernel change that
# moves any bit fails here.
PINNED_DIGESTS = {
    2: "1846f5d55d2875d0271b6b11c01a10d6f49b86def0d49361d35b4554fbe95be8",
    3: "23372b4d18070affdcd29edb1561f8beae718b06561048c4db454bbad4351df4",
    4: "db31930d6d3938f78fa598b54e7249296a1d49194111938fde8678fbe9dab8fc",
    5: "581a2506a05c72e5f5c1e28ce698507ef1ed72c4eab680979f8b76413b34384b",
    6: "45b494d6eebd07f0ac26937905443447b6c874e51fc361a366b8102341e1d540",
    7: "f71d8d5cfb51a3292a38605f8ff0cc961714a27b112a843b2c19805ee91fcb42",
    8: "5e683f7582d70c273ab659e9b5fc736deeca2483ca55d5e69f39a509267a57df",
    9: "2bea1620bc8a9c15995dd040661fc3c21f312972ae519d474c6d586d2d36e7f0",
    10: "c1308b618c985424d95a420406c410d1652508a7f0223286bd97185b46fb0271",
}


class TestKernelTwins:
    @pytest.mark.parametrize("name", COMPILED)
    def test_twins_bitwise_comparable(self, name, rng):
        kernel = _kernels.rk4_momentum_c
        for n in range(2, 17):
            body = random_body(n, rng)
            mt0 = body.to_eigenframe(random_skew(n, rng))
            pair = np.asarray(body.pair_sums)
            a = kernel(mt0, pair, 1e-3, 50, 10)
            b = _kernels.rk4_momentum_numpy(mt0, pair, 1e-3, 50, 10)
            np.testing.assert_allclose(a, b, atol=1e-13)
            np.testing.assert_array_equal(kernel(mt0, pair, 1e-3, 50, 10), a)
            # Same operation order as the scalar loops, so equal bit for bit.
            np.testing.assert_array_equal(kernel(mt0, pair, 1e-3, 2, 1),
                                          oracles.rk4_momentum_loops(mt0, pair, 1e-3, 2, 1))

    @pytest.mark.parametrize("name", COMPILED)
    def test_every_size_case_matches_oracle(self, name, rng):
        # n = 2..8 run the constant-size copies of the loop, n = 9 the
        # runtime-size one just past them. At dt = 1e-3 a last-bit change in
        # a stage seldom reaches the recorded states; at 5e-2 it does.
        for n in range(2, 10):
            body = random_body(n, rng)
            mt0 = body.to_eigenframe(random_skew(n, rng))
            pair = np.asarray(body.pair_sums)
            np.testing.assert_array_equal(_kernels.rk4_momentum_c(mt0, pair, 5e-2, 20, 5),
                                          oracles.rk4_momentum_loops(mt0, pair, 5e-2, 20, 5))

    @pytest.mark.parametrize("name", COMPILED)
    def test_pinned_digests(self, name):
        for n, digest in PINNED_DIGESTS.items():
            out = _kernels.rk4_momentum_c(*pinned_inputs(n), 1e-2, 200, 50)
            assert np.isfinite(out).all()
            assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == digest, n

    @NEEDS_C_KERNEL
    @pytest.mark.parametrize("m0, pair_sums, nsteps, record_every, match", [
        (np.zeros((3, 4)), np.zeros((3, 4)), 1, 1, "square and of one shape"),
        (np.zeros((3, 3)), np.zeros((4, 4)), 1, 1, "square and of one shape"),
        (np.zeros((3, 3)), np.zeros((3, 3)), -1, 1, "nsteps must be >= 0"),
        (np.zeros((3, 3)), np.zeros((3, 3)), 1, 0, "record_every >= 1"),
    ], ids=["m0-not-square", "pair-sums-shape", "negative-nsteps", "record-every-0"])
    def test_c_kernel_checks_arguments(self, m0, pair_sums, nsteps, record_every, match):
        # Checked before the foreign call, which would read out of bounds.
        with pytest.raises(ValueError, match=match):
            _kernels.rk4_momentum_c(m0, pair_sums, 1e-3, nsteps, record_every)

    def test_c_kernel_refuses_when_unusable(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_c_kernel", lambda: None)
        with pytest.raises(RuntimeError, match="C RK4 kernel is not available"):
            _kernels.rk4_momentum_c(np.zeros((3, 3)), np.ones((3, 3)), 1e-3, 1, 1)

    def test_flags_keep_results_deterministic(self):
        # Results must not depend on the host CPU or on reassociation.
        flags = _kernels._C_FLAGS
        assert "-ffp-contract=off" in flags
        for banned in ("-ffast-math", "-Ofast", "-march=", "-mfma"):
            assert not [f for f in flags if f.startswith(banned)], banned

    @pytest.mark.parametrize("fault", [
        "no_compiler",
        pytest.param("compile_error", marks=NEEDS_CC),
        pytest.param("unwritable_cache", marks=NEEDS_CC),
    ])
    def test_fallback_warns_once(self, fault, rng, tmp_path, monkeypatch):
        if fault == "no_compiler":
            missing = tmp_path / "missing-cc"
            monkeypatch.setattr(_kernels, "_COMPILERS", (str(missing),))
            reason = re.escape(f"no C compiler found (looked for {missing})")
        elif fault == "compile_error":
            bad = tmp_path / "bad.c"
            bad.write_text("this is not C\n")
            monkeypatch.setattr(_kernels, "_C_SOURCE", bad)
            reason = "(?s)exited with status [1-9].*error"
        else:
            blocker = tmp_path / "file"
            blocker.write_text("")
            monkeypatch.setattr(_kernels, "_CACHE_DIR", blocker / "__pycache__")
            reason = "Errno.*" + re.escape(str(blocker))
        body = random_body(5, rng)
        mt0 = body.to_eigenframe(random_skew(5, rng))
        pair = np.asarray(body.pair_sums)
        _kernels._c_kernel.cache_clear()
        try:
            with pytest.warns(UserWarning, match=reason):
                got = _kernels.rk4_momentum(mt0, pair, 1e-3, 50, 10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _kernels.backend() == "numpy"
                again = _kernels.rk4_momentum(mt0, pair, 1e-3, 50, 10)
        finally:
            _kernels._c_kernel.cache_clear()
        np.testing.assert_array_equal(got, _kernels.rk4_momentum_numpy(mt0, pair, 1e-3, 50, 10))
        np.testing.assert_array_equal(again, got)

    @NEEDS_CC
    def test_builds_with_no_path_in_the_environment(self, tmp_path):
        # The compiler is found on the default search path and must run with
        # it, or it cannot find its linker.
        code = ("import sys, warnings, pathlib, freetop._kernels as k; "
                "k._CACHE_DIR = pathlib.Path(sys.argv[1]); "
                "warnings.simplefilter('error'); print(k.backend())")
        src = str(Path(ft.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cache")],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["c"]
        assert list((tmp_path / "cache").glob("_rk4-*.so"))

    @NEEDS_CC
    def test_builds_once_into_an_empty_cache(self, tmp_path, monkeypatch):
        # In this process, so the build runs whatever the package cache holds.
        cache = tmp_path / "cache"
        monkeypatch.setattr(_kernels, "_CACHE_DIR", cache)
        built = _kernels._build_c_kernel()
        assert list(cache.iterdir()) == [built]  # renamed into place, no temporary left
        assert _kernels._build_c_kernel() == built

    def test_import_builds_nothing(self):
        code = ("import sys, freetop, freetop._kernels as k; "
                "print(k._c_kernel.cache_info().currsize, 'numba' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        # Loading the cached kernel imports neither subprocess nor hashlib.
        if _kernels._c_kernel() is not None:
            code = ("import sys, freetop._kernels as k; "
                    "print(k._c_kernel() is not None, 'subprocess' in sys.modules, "
                    "'hashlib' in sys.modules)")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["True", "False", "False"]

    def test_casimir_trace_helper(self, rng):
        m = random_skew(6, rng)
        vals = casimirs(m)
        assert len(vals) == 3
        assert vals[0] == pytest.approx(np.trace(m @ m), rel=1e-14)
        assert vals[2] == pytest.approx(np.trace(np.linalg.matrix_power(m, 6)), rel=1e-12)
