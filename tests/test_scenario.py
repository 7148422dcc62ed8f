import numpy as np
import pytest

import freetop as ft
from freetop.equilibria import generate
from freetop.scenario import run_scenario, scenario_from_doc
from freetop.serialize import SchemaError, body_from_doc, recipe_from_doc


def base_doc(**overrides):
    doc = {
        "spec_version": "1",
        "seed": 3,
        "body": {"eigenvalues": [1.0, 2.0, 3.0, 4.0]},
        "initial": {"recipe": {
            "spec_version": "1",
            "blocks": [{"omega": 1.0, "axes": [0, 1, 2, 3],
                        "structure_source": "random"}],
            "fixed_axes": [],
        }},
        "integrator": {"dt": 0.01, "t_end": 0.5, "record_every": 10},
    }
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    @staticmethod
    def momentum_for_seed(doc, seed):
        """The momentum that the scenario's recipe gives with this seed."""
        body = body_from_doc(doc["body"], require_version=False)
        structure = recipe_from_doc(doc["initial"]["recipe"], default_seed=seed)
        return generate(structure, body)[0]

    def test_recipe_scenario(self):
        doc = base_doc()
        sc = scenario_from_doc(doc)
        assert sc.initial == self.momentum_for_seed(doc, 3)  # scenario seed fills in
        assert sc.dt == 0.01 and sc.t_end == 0.5

    def test_seed_override_wins_over_scenario(self):
        doc = base_doc()
        sc = scenario_from_doc(doc, seed_override=99)
        assert sc.seed == 99
        assert sc.initial == self.momentum_for_seed(doc, 99)

    def test_recipe_own_seed_is_pinned(self):
        doc = base_doc()
        doc["initial"]["recipe"]["seed"] = 1234
        sc = scenario_from_doc(doc, seed_override=99)
        assert sc.initial == self.momentum_for_seed(doc, 1234)
        assert sc.initial != self.momentum_for_seed(base_doc(), 99)

    def test_matrix_scenario(self):
        doc = base_doc(initial={"matrix": {
            "n": 4, "kind": "skew",
            "rows": np.zeros((4, 4)).tolist()}})
        sc = scenario_from_doc(doc)
        assert sc.initial == ft.SkewMatrix(np.zeros((4, 4)))

    def test_initial_must_be_single_choice(self):
        doc = base_doc()
        doc["initial"]["matrix"] = {"n": 4, "kind": "skew",
                                    "rows": np.zeros((4, 4)).tolist()}
        with pytest.raises(SchemaError, match="initial"):
            scenario_from_doc(doc)

    def test_matrix_initial_must_be_skew(self):
        doc = base_doc(initial={"matrix": {
            "n": 4, "kind": "sym", "rows": np.eye(4).tolist()}})
        with pytest.raises(SchemaError, match="skew"):
            scenario_from_doc(doc)

    @pytest.mark.parametrize("field,value,message", [
        ("dt", -0.1, "positive"),
        ("t_end", 0.0, "positive"),
        ("record_every", 0, "positive integer"),
        ("guard", "panic", "reject"),
        ("manakov_max_power", 1, "manakov_max_power: expected an integer from 2 to the dimension 4"),
        ("manakov_max_power", 5, "manakov_max_power: expected an integer from 2 to the dimension 4"),
    ])
    def test_integrator_validation(self, field, value, message):
        doc = base_doc()
        doc["integrator"][field] = value
        with pytest.raises(SchemaError, match=message):
            scenario_from_doc(doc)

    def test_unknown_output_named(self):
        doc = base_doc(outputs={"plot_png": "x.png"})
        with pytest.raises(SchemaError, match="plot_png"):
            scenario_from_doc(doc)

    def test_bad_seed_type(self):
        with pytest.raises(SchemaError, match="seed"):
            scenario_from_doc(base_doc(seed="abc"))


class TestRunScenario:
    def test_recipe_resolution_deterministic(self):
        t1 = run_scenario(scenario_from_doc(base_doc()))
        t2 = run_scenario(scenario_from_doc(base_doc()))
        np.testing.assert_array_equal(t1.momenta[-1], t2.momenta[-1])

    def test_different_seeds_differ(self):
        t1 = run_scenario(scenario_from_doc(base_doc(), seed_override=1))
        t2 = run_scenario(scenario_from_doc(base_doc(), seed_override=2))
        assert not np.array_equal(t1.momenta[0], t2.momenta[0])

    def test_equilibrium_stays_put(self):
        traj = run_scenario(scenario_from_doc(base_doc()))
        assert traj.momentum_displacement() < 1e-10

    def test_guard_warn_policy(self):
        doc = base_doc(initial={"matrix": {
            "n": 4, "kind": "skew",
            "rows": (50.0 * (np.triu(np.ones((4, 4)), 1)
                     - np.tril(np.ones((4, 4)), -1))).tolist()}})
        doc["integrator"] = {"dt": 0.1, "t_end": 0.5, "record_every": 5,
                             "guard": "warn"}
        with pytest.warns(UserWarning, match="guard"):
            run_scenario(scenario_from_doc(doc))

    def test_manakov_power_plumbs_through(self):
        doc = base_doc()
        doc["integrator"]["manakov_max_power"] = 3
        traj = run_scenario(scenario_from_doc(doc))
        assert traj.manakov_max_power == 3
        assert "manakov_3_0" in traj.drift_summary()
