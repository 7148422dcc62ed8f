import numpy as np
import pytest

import freetop as ft

from conftest import random_body, random_skew, rotation_generator, tilted_momentum
from recipes import read_recipe
import oracles


def givens(n, i, j, theta):
    g = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def turned(a, theta):
    """a conjugated by a rotation of angle theta in the (0, 2) plane."""
    g = givens(a.shape[0], 0, 2, theta)
    return g @ a @ g.T


J2, J4 = ft.standard_structure(1), ft.standard_structure(2)
X4 = ft.random_structure(2, np.random.default_rng(0))
MATCH_TOL = ft.equilibria.MATCH_TOL


def two_block_regular(body4, w1=1.0, w2=2.0):
    recipe = read_recipe(((0, 1), w1), ((2, 3), w2))
    return ft.generate(recipe, body4)


def one_block(a):
    """The structure of one block of rate 1 on all axes of a."""
    a = np.asarray(a)
    block = ft.FrequencyBlock(omega=1.0, axes=tuple(range(a.shape[0])), A=a)
    return ft.EquilibriumStructure((block,), fixed_axes=(), n=a.shape[0])


class TestComplexStructure:
    def test_standard(self):
        k = ft.standard_structure(2)
        assert k.shape == (4, 4) and k.shape[0] // 2 == 2
        np.testing.assert_array_equal(k @ k, -np.eye(4))
        assert one_block(k).regular

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            ft.FrequencyBlock(omega=1.0, axes=(0, 1, 2), A=np.zeros((3, 3)))

    def test_rejects_non_orthogonal(self):
        a = [[0.0, 0.5], [-0.5, 0.0]]
        with pytest.raises(ValueError):
            ft.FrequencyBlock(omega=1.0, axes=(0, 1), A=a)

    def test_rejects_axes_of_another_size(self):
        with pytest.raises(ValueError, match="4 axes but a structure of dimension 2"):
            ft.FrequencyBlock(omega=1.0, axes=(0, 1, 2, 3), A=J2)

    def test_signed_permutation_detects_mixing(self):
        g = givens(4, 0, 2, np.pi / 4)
        k = ft.standard_structure(2)
        assert not one_block(g @ k @ g.T).regular

    def test_block_A_is_read_only_and_exactly_skew(self):
        # q k q^T is skew only up to rounding; the block keeps its exactly
        # skew part, read-only and not shared with the input.
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        raw = q @ ft.standard_structure(2) @ q.T
        assert not np.array_equal(raw, -raw.T)
        block = ft.FrequencyBlock(omega=1.0, axes=(0, 1, 2, 3), A=raw)
        assert np.array_equal(block.A, -block.A.T)
        assert np.all(np.diag(block.A) == 0.0)
        assert not block.A.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block.A[0, 1] = 0.0
        raw[0, 1] = 5.0
        assert abs(block.A[0, 1]) <= 1.0


class TestRandomComplexStructure:
    def test_m1_is_quarter_turn(self):
        k = ft.standard_structure(1)
        for seed in range(8):
            a = ft.random_structure(1, np.random.default_rng(seed))
            assert np.allclose(a, k, atol=1e-12) or np.allclose(a, -k, atol=1e-12)

    def test_square_is_minus_identity(self):
        a = ft.random_structure(2, np.random.default_rng(42))
        assert np.linalg.norm(a @ a + np.eye(4)) <= 1e-12
        assert np.linalg.norm(a.T @ a - np.eye(4)) <= 1e-12

    def test_deterministic(self):
        a = ft.random_structure(3, np.random.default_rng(7))
        b = ft.random_structure(3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        # Smoke test: distinct seeds give visibly different draws.
        a = ft.random_structure(2, np.random.default_rng(0))
        b = ft.random_structure(2, np.random.default_rng(1))
        assert np.linalg.norm(a - b) > 1e-3

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            ft.random_structure(0, np.random.default_rng(1))


class TestIsEquilibrium:
    def test_principal_axis_rotation_n3(self, body3):
        om = rotation_generator(3, 1, 2, 1.3)
        m = oracles.inertia_apply(om, body3)
        ok, residual = ft.is_equilibrium(m, body3)
        assert ok and residual <= 1e-12

    def test_scaled_structure_always_stationary(self, body4):
        a = ft.random_structure(2, np.random.default_rng(5))
        m = oracles.inertia_apply(ft.skew(1.7 * a), body4)
        ok, residual = ft.is_equilibrium(m, body4)
        assert ok and residual <= 1e-12

    def test_generic_momentum_is_not(self, body4, rng):
        for _ in range(10):
            m = random_skew(4, rng)
            ok, residual = ft.is_equilibrium(m, body4)
            assert not ok and residual > 1e-3

    def test_zero_momentum(self, body4):
        ok, residual = ft.is_equilibrium(ft.skew(np.zeros((4, 4))), body4)
        assert ok and residual == 0.0

    def test_tol_positive(self, body4):
        with pytest.raises(ValueError):
            ft.is_equilibrium(ft.skew(np.zeros((4, 4))), body4, tol=0.0)

    def test_residual_is_scale_free(self):
        # A stationary momentum and one with residual 1e-6. Scaling the
        # momentum by 2**a leaves the residual's bits unchanged; scaling the
        # diagonal body by 2**b (which may move its eigenframe by rounding)
        # leaves the verdict unchanged. Unscaled norms under- or overflow here.
        lam = np.array([1.0, 1.7, 2.6, 3.2, 4.1, 5.3])
        body = ft.InertiaSpec.from_eigenvalues(lam)
        m, _ = ft.generate(read_recipe(((0, 1, 2, 3), 1.5, "random"), ((4, 5), 0.7), seed=3),
                           body)
        d = random_skew(6, np.random.default_rng(0))
        moved = m.array + 1e-5 * np.linalg.norm(m.array) * d / np.linalg.norm(d)
        powers = (-1000, -600, 0, 600, 1000)
        for arr, stationary in ((m.array, True), (moved, False)):
            for b in powers:
                with np.errstate(over="ignore"):
                    scaled_body = ft.InertiaSpec.from_eigenvalues(np.ldexp(lam, b))
                results = {ft.is_equilibrium(ft.skew(np.ldexp(arr, a)), scaled_body)
                           for a in powers}
                assert len(results) == 1, (b, results)
                ((ok, residual),) = results
                assert ok == stationary and np.isfinite(residual)

    def test_smallest_moment_underflowing_when_scaled(self):
        # Scaled so that the largest moment is below 1, 1e-320 * 2**-334 is
        # 0: the pair sum 2 * lam_0 vanishes, on the diagonal, where M~ is 0.
        body = ft.InertiaSpec.from_eigenvalues([1e-320, 1e100, 2e100])
        spin = oracles.inertia_apply(rotation_generator(3, 1, 2, 1e-50), body)
        assert ft.is_equilibrium(spin, body)[0]
        ok, residual = ft.is_equilibrium(
            ft.skew([[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), body)
        assert not ok and np.isfinite(residual)

    def test_both_criterion_forms_agree(self, rng):
        # The two commutator forms must give the same verdict for random
        # momenta, stationary or not (they are equal as matrices).
        for n in range(3, 9):
            body = random_body(n, rng)
            for stationary in (False, True):
                if stationary:
                    m, _ = ft.generate(read_recipe(
                        (range(n - n % 2), 1.0, "random"),
                        fixed_axes=range(n - n % 2, n), seed=n), body)
                else:
                    m = random_skew(n, rng)
                om = oracles.inertia_invert(m, body)
                j = body.J
                scale = np.linalg.norm(j) * np.linalg.norm(om) ** 2
                r1 = np.linalg.norm(oracles.commutator(m, om)) / scale
                r2 = np.linalg.norm(oracles.commutator(j, om @ om)) / scale
                tol = 1e-9
                assert (r1 <= tol) == (r2 <= tol)
                assert (r1 <= tol) == stationary


class TestClassify:
    def test_two_block_regular(self, body4):
        m, _ = two_block_regular(body4)
        s = ft.classify(m, body4)
        assert s.regular
        assert [b.axes for b in s.blocks] == [(2, 3), (0, 1)]  # descending rate
        assert s.blocks[0].omega == pytest.approx(2.0, rel=1e-12)
        assert s.blocks[1].omega == pytest.approx(1.0, rel=1e-12)
        assert s.fixed_axes == ()

    def test_single_block_with_fixed_axes(self, rng):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0])
        om = rotation_generator(5, 0, 1, 1.4)
        m = oracles.inertia_apply(om, body)
        s = ft.classify(m, body)
        assert s.regular
        assert len(s.blocks) == 1
        assert s.blocks[0].axes == (0, 1)
        assert s.fixed_axes == (2, 3, 4)

    def test_mixed_plane_exotic(self, body4):
        # Conjugating the standard two-pair structure by a quarter-turn
        # Givens rotation in the (0, 2) plane spreads each rotation plane
        # across the principal axes: still stationary, no longer regular.
        g = givens(4, 0, 2, np.pi / 4)
        k = ft.standard_structure(2)
        a = g @ k @ g.T
        assert np.linalg.norm(a @ a + np.eye(4)) < 1e-14
        # Some row now carries two entries of size 1/sqrt(2).
        assert np.sum(np.abs(np.abs(a) - np.sqrt(0.5)) < 1e-12) > 0
        m = oracles.inertia_apply(ft.skew(1.1 * a), body4)
        s = ft.classify(m, body4)
        assert not s.regular
        assert len(s.blocks) == 1
        assert s.blocks[0].axes == (0, 1, 2, 3)
        assert s.blocks[0].omega == pytest.approx(1.1, rel=1e-12)

    def test_zero_momentum_all_fixed(self, body4):
        s = ft.classify(ft.skew(np.zeros((4, 4))), body4)
        assert s.blocks == () and s.fixed_axes == (0, 1, 2, 3)
        assert s.regular

    def test_not_an_equilibrium(self, body4, rng):
        with pytest.raises(ft.NotAnEquilibrium) as err:
            ft.classify(random_skew(4, rng), body4)
        assert err.value.residual > 1e-3

    def test_ambiguous_clustering(self, body4):
        # Two true rates separated by ~1e-7 relative: between the residual
        # tolerance and the clustering tolerance.
        om = np.zeros((4, 4))
        om[0, 1] = 1.0
        om[1, 0] = -1.0
        om[2, 3] = 1.0 + 5e-8
        om[3, 2] = -om[2, 3]
        m = oracles.inertia_apply(ft.skew(om), body4)
        with pytest.raises(ft.AmbiguousClustering):
            ft.classify(m, body4)
        # A tighter clustering tolerance resolves the same input.
        s = ft.classify(m, body4, cluster_tol=1e-9, tol=1e-12)
        assert len(s.blocks) == 2
        # Squared rates 1, 1 - 5e-11 and 1 - 1.00001e-6: the first two join
        # within tol, and the third sits 1.00001e-6 below the group's head
        # but less than cluster_tol below its mean rate. The gap is judged
        # on the group rates, so it is ambiguous, not an invalid structure.
        body6 = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        om = np.zeros((6, 6))
        om[[0, 2, 4], [1, 3, 5]] = np.sqrt([1.0, 1.0 - 5e-11, 1.0 - 1.00001e-6])
        m = oracles.inertia_apply(ft.skew(om - om.T), body6)
        assert ft.is_equilibrium(m, body6) == (True, 0.0)
        with pytest.raises(ft.AmbiguousClustering, match="rates 1 and 0.9999995"):
            ft.classify(m, body6)
        # Squared rates 1 and 1 - gap join within tol into one group, whose
        # block is then not a complex structure within 1e-10: neither one
        # rate nor two, so ambiguous, not "not a stationary rotation".
        om = np.zeros((4, 4))
        for gap in (2e-10, 3e-10, 9e-10):
            om[[0, 2], [1, 3]] = np.sqrt([1.0, 1.0 - gap])
            m = oracles.inertia_apply(ft.skew(om - om.T), body4)
            assert ft.is_equilibrium(m, body4) == (True, 0.0)
            with pytest.raises(ft.AmbiguousClustering,
                               match=rf"rates 1 and 0\.99999999\d* \(squared gap {gap:.3e}\)"):
                ft.classify(m, body4)

    @pytest.mark.parametrize("b, match", [
        (2e-9, r"off-block entries of relative size 1\.414e-09 > tol 1\.0e-09"),
        (4e-9, r"W\^2 is not diagonal .*: off-diagonal 2\.000e-09 > tol 1\.0e-09"),
    ], ids=["off-block", "w2-off-diagonal"])
    def test_stationary_without_normal_form_is_ambiguous(self, body3, b, match):
        # Stationary within tol, but W^2 or W is not block-diagonal within
        # tol: the normal form is undecided, not "not a stationary rotation".
        m = tilted_momentum(b, body3)
        assert ft.is_equilibrium(m, body3)[0]
        with pytest.raises(ft.AmbiguousClustering, match=match):
            ft.classify(m, body3)

    def test_not_an_equilibrium_exactly_when_not_stationary(self, body3):
        # The sweep crosses the stationarity boundary (b about 5.3e-9) and
        # both checks above; outcomes of every kind occur.
        outcomes = set()
        for b in np.geomspace(1e-10, 1e-8, 41):
            m = tilted_momentum(b, body3)
            try:
                ft.classify(m, body3)
                outcome = "classified"
            except ft.NotAnEquilibrium:
                outcome = "not stationary"
            except ft.AmbiguousClustering:
                outcome = "undecided"
            assert (outcome == "not stationary") == (not ft.is_equilibrium(m, body3)[0]), b
            outcomes.add(outcome)
        assert outcomes == {"classified", "not stationary", "undecided"}

    def test_odd_group_detected(self):
        # Mixing a rotation axis with a fixed axis spreads one squared rate
        # over two diagonal slots; at loose tolerances the classifier sees
        # a lone one-axis frequency group and must refuse rather than guess.
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0])
        om = np.zeros((5, 5))
        om[0, 1] = 1.0
        om[1, 0] = -1.0
        w2 = np.sqrt(0.5)
        om[2, 3] = w2
        om[3, 2] = -w2
        g = givens(5, 2, 4, np.pi / 4)
        m = oracles.inertia_apply(ft.skew(g @ om @ g.T), body)
        with pytest.raises(ft.AmbiguousClustering, match="odd size"):
            ft.classify(m, body, tol=0.09, cluster_tol=0.4)

    def test_tol_ordering_enforced(self, body4):
        m, _ = two_block_regular(body4)
        with pytest.raises(ValueError, match="cluster_tol"):
            ft.classify(m, body4, tol=1e-3, cluster_tol=1e-6)

    def test_residual_reported(self, body4):
        m, _ = two_block_regular(body4)
        s = ft.classify(m, body4)
        assert 0.0 <= s.residual <= 1e-12


class TestBuilders:
    def test_single_block_momentum_entries(self):
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
        s = ft.EquilibriumStructure(
            (ft.FrequencyBlock(omega=1.0, axes=(0, 1),
                               A=ft.standard_structure(1)),),
            fixed_axes=(2,), n=3)
        m, _ = ft.generate(s, body)
        expected = np.zeros((3, 3))
        expected[0, 1] = 3.0  # (lambda_0 + lambda_1) * omega
        expected[1, 0] = -3.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_empty_structure(self, body4):
        s = ft.EquilibriumStructure((), fixed_axes=(0, 1, 2, 3), n=4)
        m, _ = ft.generate(s, body4)
        assert np.linalg.norm(m.array) == 0.0

    def test_dimension_mismatch(self, body3):
        s = ft.EquilibriumStructure((), fixed_axes=(0, 1, 2, 3), n=4)
        with pytest.raises(ValueError, match="4-dimensional, body is 3"):
            ft.generate(s, body3)

    def test_generate_refuses_a_momentum_it_cannot_make_stationary(self, body4,
                                                                   monkeypatch):
        monkeypatch.setattr(ft.equilibria, "is_equilibrium", lambda m, body, tol: (False, 0.5))
        with pytest.raises(ArithmeticError, match="misses the stationarity residual: 5.000e-01"):
            two_block_regular(body4)

    def test_axis_collision_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            ft.EquilibriumStructure(
                (ft.FrequencyBlock(omega=1.0, axes=(0, 1),
                                   A=ft.standard_structure(1)),),
                fixed_axes=(1, 2), n=4)

    def test_rate_collision_rejected(self):
        blocks = (
            ft.FrequencyBlock(omega=1.0, axes=(0, 1),
                              A=ft.standard_structure(1)),
            ft.FrequencyBlock(omega=1.0 + 1e-9, axes=(2, 3),
                              A=ft.standard_structure(1)),
        )
        with pytest.raises(ValueError, match="too close"):
            ft.EquilibriumStructure(blocks, fixed_axes=(), n=4)
        # Equal rates whose squares overflow are just as close.
        huge = tuple(ft.FrequencyBlock(omega=1e200, axes=b.axes, A=b.A) for b in blocks)
        with pytest.raises(ValueError, match="too close"):
            ft.EquilibriumStructure(huge, fixed_axes=(), n=4)

    @pytest.mark.parametrize("first, second, same", [
        ((3, [(1.0, (0, 1), J2)], (2,)), (4, [(1.0, (0, 1), J2)], (2, 3)), False),
        ((4, [(1.0, (0, 1, 2, 3), J4)], ()), (4, [(1.0, (0, 1, 2, 3), X4)], ()), False),
        ((4, [(1.0, (0, 1), J2)], (2, 3)), (4, [(1.0, (2, 3), J2)], (0, 1)), False),
        ((4, [(1.0, (0, 1, 2, 3), J4)], ()),
         (4, [(2.0, (0, 1), J2), (1.0, (2, 3), J2)], ()), False),
        ((4, [(2.0, (0, 1), J2), (1.0, (2, 3), J2)], ()),
         (4, [(2.0, (0, 2), J2), (1.0, (1, 3), J2)], ()), False),
        ((2, [(1.0, (0, 1), J2)], ()), (2, [(1.0 + 2 * MATCH_TOL, (0, 1), J2)], ()), False),
        ((4, [(1.0, (0, 1, 2, 3), X4)], ()), (4, [(1.0, (0, 1, 2, 3), turned(X4, 1e-6))], ()),
         False),
        ((4, [(1.0, (0, 1, 2, 3), X4)], ()),
         (4, [(1.0 + MATCH_TOL / 2, (0, 1, 2, 3), turned(X4, 1e-10))], ()), True),
    ], ids=["n", "regular", "fixed-axes", "block-count", "block-axes", "rate", "entry",
            "within-tolerances"])
    def test_matches_compares_every_part(self, first, second, same):
        a, b = (ft.EquilibriumStructure(
            [ft.FrequencyBlock(omega=w, axes=axes, A=k) for w, axes, k in blocks],
            fixed_axes=fixed, n=n) for n, blocks, fixed in (first, second))
        assert a.matches(b) is same
        assert b.matches(a) is same

    def test_classify_roundtrip_examples(self, body4):
        for seed in (1, 2, 3):
            recipe = read_recipe(((0, 1, 2, 3), 1.5, "random"), seed=seed)
            m, s = ft.generate(recipe, body4)
            assert ft.classify(m, body4).matches(s)


class TestGenerate:
    def test_standard_recipe_regular(self, body6):
        recipe = read_recipe(((0, 1), 1.0), ((2, 3), 2.0), ((4, 5), 3.0))
        m, s = ft.generate(recipe, body6)
        assert s.regular
        ok, residual = ft.is_equilibrium(m, body6, tol=1e-10)
        assert ok

    def test_random_big_block_exotic(self, body4):
        recipe = read_recipe(((0, 1, 2, 3), 1.0, "random"), seed=11)
        m, s = ft.generate(recipe, body4)
        assert not s.regular
        assert not ft.classify(m, body4).regular

    def test_mixed_recovered_exactly(self, body6):
        recipe = read_recipe(((0, 1, 2, 3), 1.0, "random"), ((4, 5), 2.0), seed=3)
        m, s = ft.generate(recipe, body6)
        assert not s.regular
        c = ft.classify(m, body6)
        assert c.matches(s)
        assert [b.axes for b in c.blocks] == [(4, 5), (0, 1, 2, 3)]

    def test_unsorted_axes_are_canonicalized(self, body4):
        recipe = read_recipe(((3, 0), 1.0), ((2, 1), 2.0))
        m, s = ft.generate(recipe, body4)
        assert [b.axes for b in s.blocks] == [(1, 2), (0, 3)]
        assert ft.classify(m, body4).matches(s)

    def test_axes_must_cover_body(self, body4):
        recipe = read_recipe(((0, 1), 1.0))
        with pytest.raises(ValueError, match="2-dimensional, body is 4"):
            ft.generate(recipe, body4)

    def test_random_needs_seed(self):
        with pytest.raises(ValueError, match="need a seed") as exc:
            read_recipe(((0, 1, 2, 3), 1.0, "random"))
        assert exc.value.field == "seed"

    def test_rate_collision_rejected(self):
        with pytest.raises(ValueError, match="too close"):
            read_recipe(((0, 1), 1.0), ((2, 3), 1.0))
        with pytest.raises(ValueError, match="too close"):
            read_recipe(((0, 1), 1e200), ((2, 3), 1e200))

    def test_tiny_distinct_rates(self, body4):
        # The squared rates underflow to 0, but the rates are a factor of
        # two apart: a regular equilibrium that classifies back.
        m, s = ft.generate(read_recipe(((0, 1), 2e-200), ((2, 3), 1e-200)), body4)
        assert [b.omega for b in s.blocks] == [2e-200, 1e-200]
        assert ft.classify(m, body4).matches(s)

    def test_perturbed_structure_fails(self, body4, rng):
        # Necessity of the structure condition: breaking A^2 = -I by a
        # skew (non-orthogonal) perturbation destroys stationarity.
        a = ft.random_structure(2, np.random.default_rng(9))
        delta = random_skew(4, rng, scale=1e-3)
        om_bad = 1.3 * (a + delta)
        m_bad = oracles.inertia_apply(ft.skew(om_bad), body4)
        ok, residual = ft.is_equilibrium(m_bad, body4)
        assert not ok
        assert residual > 1e-5

    def test_explicit_structure_source(self, body4):
        a = ft.random_structure(2, np.random.default_rng(21))
        recipe = read_recipe(((0, 1, 2, 3), 1.0, a))
        m, s = ft.generate(recipe, body4)
        np.testing.assert_array_equal(s.blocks[0].A, a)

    def test_roundtrip_completeness_1000(self):
        # Classifier completeness: classify(generate(s)) is the
        # identity on canonical structures for 1000 random recipes, n <= 8.
        from recipes import random_recipe

        rng = np.random.default_rng(880011)
        for case in range(1000):
            n = int(rng.integers(2, 9))
            body = random_body(n, rng, min_gap=0.2)
            recipe = random_recipe(n, rng, kind="mixed")
            momentum, structure = ft.generate(recipe, body)
            assert ft.classify(momentum, body).matches(structure), case

    def test_orbit_kernel_separation_sweep(self):
        # Seeded sweep at n = 4 and n = 6: the kernel of the first-order
        # residual map exceeds the stabilizer exactly for exotic spins.
        from recipes import random_recipe

        rng = np.random.default_rng(550022)
        seen_exotic = seen_regular = 0
        for case in range(40):
            n = 4 if case % 2 == 0 else 6
            body = random_body(n, rng, min_gap=0.2)
            kind = "exotic" if case % 4 < 2 else "regular"
            recipe = random_recipe(n, rng, kind=kind)
            momentum, structure = ft.generate(recipe, body)
            gap = (ft.orbit_kernel(momentum, body).kernel_dim
                   - ft.stabilizer_dimension(momentum.array))
            if structure.regular:
                assert gap == 0, (case, structure)
                seen_regular += 1
            else:
                assert gap >= 1, (case, structure)
                seen_exotic += 1
        assert seen_exotic >= 15 and seen_regular >= 15

    def test_perturbed_structure_fails_many_seeds(self, body4, rng):
        for seed in range(5):
            a = ft.random_structure(2, np.random.default_rng(seed))
            delta = random_skew(4, rng, scale=1e-3)
            m_bad = oracles.inertia_apply(ft.skew(1.3 * (a + delta)), body4)
            ok, residual = ft.is_equilibrium(m_bad, body4)
            assert not ok and residual > 1e-5

    def test_eigenfrequency_multiplicity(self, body6):
        # A block on 2m axes gives the velocity the rates +-i omega with
        # multiplicity m each; blocks of size two give simple rates.
        recipe = read_recipe(((0, 1, 2, 3), 1.0, "random"), ((4, 5), 2.0), seed=13)
        m, s = ft.generate(recipe, body6)
        om = oracles.inertia_invert(m, body6)
        eigs = np.linalg.eigvals(om)
        rates = np.sort(eigs.imag[eigs.imag > 0])
        np.testing.assert_allclose(rates, [1.0, 1.0, 2.0], atol=1e-9)
        for block in s.blocks:
            mult = int(np.sum(np.abs(rates - block.omega) < 1e-6 * block.omega))
            assert 2 * mult == len(block.axes)
