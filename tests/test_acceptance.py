"""Acceptance suite: one test per release criterion.

Each test prints an `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
`pytest -s` or in failure reports) and enforces the stated tolerance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import freetop as ft
from freetop.body import invariant_labels
from freetop.cli import main
from freetop.stability import vec_to_skew, _ad_matrix

from conftest import random_body, random_skew
from recipes import random_recipe
from test_stability import (
    FROZEN_KERNELS, make_fixture, orbit_kernel_directions, residual_after_orbit_move)
import oracles


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def warm_kernel():
    body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0])
    m = ft.SkewMatrix([[0.0, 0.1], [-0.1, 0.0]])
    ft.integrate(m, body, dt=1e-2, t_end=0.1, record_every=10)


@pytest.fixture(scope="module")
def recipe_suite():
    """500 seeded recipes, mixed regular/exotic, n in 3..8, on both
    diagonal and rotated bodies."""
    rng = np.random.default_rng(77001)
    suite = []
    kinds = ["regular", "exotic", "mixed", "mixed"]
    for i in range(500):
        n = int(rng.integers(3, 9))
        kind = kinds[i % len(kinds)]
        if kind == "exotic" and n < 4:
            n = int(rng.integers(4, 9))
        if i % 2 == 0:
            lam = 1.0 + np.cumsum(0.2 + rng.random(n))
            body = ft.InertiaSpec.from_eigenvalues(lam)
        else:
            body = random_body(n, rng, min_gap=0.2)
        recipe = random_recipe(n, rng, kind=kind)
        momentum, structure = ft.generate(recipe, body)
        suite.append((body, recipe, momentum, structure))
    regular_count = sum(1 for _, _, _, s in suite if s.regular)
    assert 100 < regular_count < 400  # genuinely mixed
    return suite


def test_criterion_1_commutator_identity():
    """[M, W] and [J, W^2] agree to 1e-12 * ||J|| * ||W||^2 for 1000
    seeded random momenta, n in 3..8, in under 10 seconds."""
    with criterion(1, "commutator identity"):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for case in range(1000):
            n = 3 + case % 6
            body = random_body(n, rng)
            m = random_skew(n, rng).array
            om = ft.inertia_invert(m, body).array
            lhs = m @ om - om @ m
            rhs = body.J.array @ (om @ om) - (om @ om) @ body.J.array
            scale = np.linalg.norm(body.J.array) * np.linalg.norm(om) ** 2
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_generator_soundness(recipe_suite, warm_kernel):
    """Every generated momentum is stationary at 1e-10 and stays within
    1e-8 * ||M(0)|| over t = 10 at dt = 1e-3, in under 60 seconds."""
    with criterion(2, "generator soundness"):
        start = time.perf_counter()
        for body, _, momentum, _ in recipe_suite:
            ok, residual = ft.is_equilibrium(momentum, body, tol=1e-10)
            assert ok, f"residual {residual:.3e}"
            traj = ft.integrate(momentum, body, dt=1e-3, t_end=10.0,
                                record_every=500, manakov_max_power=2)
            assert traj.momentum_displacement() <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_classifier_roundtrip(recipe_suite):
    """classify(build_momentum(s)) reproduces every canonical structure:
    axes and flags exactly, rates to 1e-8 relative."""
    with criterion(3, "classifier round-trip"):
        for body, _, momentum, structure in recipe_suite:
            got = ft.classify(momentum, body)
            assert got.matches(structure), (
                f"{got} vs {structure}")
            rebuilt = ft.build_momentum(got, body)
            assert np.linalg.norm(rebuilt.array - momentum.array) <= \
                1e-8 * np.linalg.norm(momentum.array)


def test_criterion_4_regular_exotic_discrimination():
    """Explicit pair blocks under random axis permutations classify as
    regular; random structures on blocks of 4+ axes classify as exotic:
    0 misclassifications over 200 seeded cases."""
    with criterion(4, "regular/exotic discrimination"):
        rng = np.random.default_rng(4242)
        wrong = 0
        for case in range(100):
            n = int(rng.integers(2, 9))
            body = random_body(n, rng)
            recipe = random_recipe(n, rng, kind="regular")
            momentum, _ = ft.generate(recipe, body)
            wrong += not ft.classify(momentum, body).regular
        for case in range(100):
            n = int(rng.integers(4, 9))
            body = random_body(n, rng)
            recipe = random_recipe(n, rng, kind="exotic")
            momentum, _ = ft.generate(recipe, body)
            wrong += ft.classify(momentum, body).regular
        assert wrong == 0, f"{wrong} misclassifications"


def test_criterion_5_conservation_order(warm_kernel):
    """Energy, even-power traces and spectral coefficients drift at RK4
    order (dt-halving slope in [3.5, 4.5]) for n = 4 over t = 1;
    coefficients conserved identically by the scheme stay at rounding
    level; every drift is below 1e-7 at dt = 1e-3 over t = 10."""
    with criterion(5, "conservation order"):
        rng = np.random.default_rng(2024)
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0])
        m0 = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                m0[i, j] = 3.0 * rng.standard_normal()
        m0 = ft.SkewMatrix(m0 - m0.T)
        labels = invariant_labels(4, 4)
        dts = (0.1, 0.05, 0.025)
        noise_floor = 5e-12
        table = {}
        for dt in dts:
            traj = ft.integrate(m0, body, dt=dt, t_end=1.0, record_every=1,
                                manakov_max_power=4)
            summary = traj.drift_summary()
            table[dt] = [summary[label] for label in labels]
        measured = 0
        for idx, label in enumerate(labels):
            drifts = [table[dt][idx] for dt in dts]
            if max(drifts) < noise_floor:
                continue  # conserved to rounding, stronger than O(dt^4)
            slopes = [math.log2(drifts[k] / drifts[k + 1]) for k in range(2)]
            mean_slope = sum(slopes) / len(slopes)
            assert 3.5 <= mean_slope <= 4.5, f"{label}: slope {mean_slope:.2f}"
            measured += 1
        assert measured >= 5  # energy, both casimirs, and spectral terms

        traj = ft.integrate(m0, body, dt=1e-3, t_end=10.0, record_every=100,
                            manakov_max_power=4)
        summary = traj.drift_summary()
        worst = max(summary.values())
        assert worst < 1e-7, f"drift {worst:.3e}"


def test_criterion_6_classical_crosscheck(warm_kernel):
    """n = 3 momentum flow matches the independent vector-form solution
    to 1e-8 over t = 1; the probe reproduces middle-axis escape and
    extreme-axis boundedness."""
    with criterion(6, "classical three-dimensional cross-check"):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
        moments = oracles.moments_of([1.0, 2.0, 3.0])
        rng = np.random.default_rng(63)
        for _ in range(3):
            m_vec = rng.standard_normal(3)
            dense = oracles.euler3d_solve(m_vec, moments, 1.0)
            traj = ft.integrate(ft.SkewMatrix(oracles.hat(m_vec)), body,
                                dt=1e-3, t_end=1.0, record_every=100)
            for t, m in zip(traj.times, traj.momenta):
                got = oracles.unhat(m)
                assert np.max(np.abs(got - dense(t))) <= 1e-8

        def principal(axis):
            m_vec = np.zeros(3)
            m_vec[axis] = moments[axis]
            return ft.SkewMatrix(oracles.hat(m_vec))

        probe_kwargs = dict(eps=1e-6, horizon=100.0, exit_factor=100.0, seed=1)
        middle = ft.instability_probe(principal(1), body, **probe_kwargs)
        assert middle.escaped and middle.exit_time < 100.0
        for axis in (0, 2):
            extreme = ft.instability_probe(principal(axis), body, **probe_kwargs)
            assert not extreme.escaped


def test_criterion_7_non_isolation_signature():
    """Orbit-kernel minus stabilizer dimension: 0 for regular fixtures,
    >= 1 for exotic ones, matching values frozen from the independent
    oracle; residual decay along kernel directions is second order."""
    with criterion(7, "non-isolation signature"):
        for name, (stab_expected, kernel_expected) in FROZEN_KERNELS.items():
            momentum, structure, body = make_fixture(name)
            report = ft.orbit_kernel(momentum, body)
            stab = ft.stabilizer_dimension(momentum.array)
            assert (stab, report.kernel_dim) == (stab_expected, kernel_expected), name
            gap = report.kernel_dim - stab
            assert gap == 0 if structure.regular else gap >= 1

        for name in ("exotic_n4", "exotic_mixed_n6", "exotic_full_n6"):
            momentum, _, body = make_fixture(name)
            kern = orbit_kernel_directions(momentum, body)
            ad = _ad_matrix(momentum.array, body.n)
            _, svals, vt = np.linalg.svd(ad)
            stab_basis = vt[svals <= 1e-8 * svals[0]].T
            resid = kern - stab_basis @ (stab_basis.T @ kern)
            best = int(np.argmax(np.linalg.norm(resid, axis=0)))
            xi_vec = resid[:, best] / np.linalg.norm(resid[:, best])
            xi = vec_to_skew(xi_vec, body.n)
            r1 = residual_after_orbit_move(momentum, body, xi, 1e-3)
            r2 = residual_after_orbit_move(momentum, body, xi, 5e-4)
            slope = math.log2(r1 / r2)
            assert slope >= 1.8, f"{name}: slope {slope:.2f}"


def test_criterion_8_linearization_correctness():
    """Analytic linearization matches central finite differences to
    1e-5 relative on every acceptance fixture."""
    with criterion(8, "linearization correctness"):
        cases = [make_fixture(name)[::2] for name in FROZEN_KERNELS]
        body3 = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
        for axis in range(3):
            m_vec = np.zeros(3)
            m_vec[axis] = oracles.moments_of([1.0, 2.0, 3.0])[axis]
            cases.append((ft.SkewMatrix(oracles.hat(m_vec)), body3))
        for momentum, body in cases:
            rep = ft.linearize(momentum, body)
            fd = oracles.linearize_fd(momentum, body)
            rel = np.linalg.norm(rep.matrix - fd) / np.linalg.norm(rep.matrix)
            assert rel <= 1e-5, f"relative operator error {rel:.3e}"


def test_criterion_9_cli_determinism(tmp_path):
    """generate -> classify -> stability on a fixed seed produces
    byte-identical JSON across two runs."""
    with criterion(9, "CLI determinism"):
        from freetop import serialize as ser

        body_path = tmp_path / "body.json"
        ser.write_json(body_path, {"spec_version": "1",
                                   "eigenvalues": [1.0, 2.0, 3.0, 4.0]})
        recipe_path = tmp_path / "recipe.json"
        ser.write_json(recipe_path, {
            "spec_version": "1",
            "blocks": [{"omega": 1.5, "axes": [0, 1, 2, 3],
                        "structure_source": "random"}],
            "fixed_axes": [],
        })

        def pipeline(outdir):
            outdir.mkdir()
            assert main(["generate", str(recipe_path), str(body_path),
                         "--seed", "42", "--output-dir", str(outdir)]) == 0
            assert main(["classify", str(outdir / "momentum.json"), str(body_path),
                         "--out", "structure_classified.json",
                         "--output-dir", str(outdir)]) == 0
            assert main(["stability", str(outdir / "momentum.json"), str(body_path),
                         "--kernel", "--out", "kernel.json",
                         "--output-dir", str(outdir)]) == 0
            assert main(["stability", str(outdir / "momentum.json"), str(body_path),
                         "--spectrum", "--out", "spectrum.json",
                         "--output-dir", str(outdir)]) == 0
            assert main(["stability", str(outdir / "momentum.json"), str(body_path),
                         "--probe", "--horizon", "5", "--seed", "3",
                         "--out", "probe.json", "--curve-out", "curve.csv",
                         "--output-dir", str(outdir)]) == 0
            names = ["momentum.json", "structure.json", "structure_classified.json",
                     "kernel.json", "spectrum.json", "probe.json", "curve.csv"]
            return {name: (outdir / name).read_bytes() for name in names}

        first = pipeline(tmp_path / "run1")
        second = pipeline(tmp_path / "run2")
        assert first == second
