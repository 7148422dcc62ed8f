import json

import numpy as np
import pytest

import freetop as ft
from freetop.cli import main
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
        body = body_from_doc(doc["body"], "body")
        structure = recipe_from_doc(doc["initial"]["recipe"], default_seed=seed)
        return generate(structure, body)[0].array

    def test_recipe_scenario(self):
        doc = base_doc()
        sc = scenario_from_doc(doc)
        assert np.array_equal(sc.initial, self.momentum_for_seed(doc, 3))  # scenario seed fills in
        assert sc.dt == 0.01 and sc.t_end == 0.5

    def test_seed_override_wins_over_scenario(self):
        doc = base_doc()
        sc = scenario_from_doc(doc, seed_override=99)
        assert sc.seed == 99
        assert np.array_equal(sc.initial, self.momentum_for_seed(doc, 99))

    def test_recipe_own_seed_is_pinned(self):
        doc = base_doc()
        doc["initial"]["recipe"]["seed"] = 1234
        sc = scenario_from_doc(doc, seed_override=99)
        assert np.array_equal(sc.initial, self.momentum_for_seed(doc, 1234))
        assert not np.array_equal(sc.initial, self.momentum_for_seed(base_doc(), 99))

    def test_matrix_scenario(self):
        doc = base_doc(initial={"matrix": {
            "n": 4, "kind": "skew",
            "rows": np.zeros((4, 4)).tolist()}})
        sc = scenario_from_doc(doc)
        assert np.array_equal(sc.initial, ft.skew(np.zeros((4, 4))))
        assert not sc.initial.flags.writeable

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

    def test_matrix_initial_not_skew_names_rows(self):
        doc = base_doc(initial={"matrix": {
            "n": 4, "kind": "general", "rows": np.eye(4).tolist()}})
        with pytest.raises(SchemaError) as exc:
            scenario_from_doc(doc)
        assert exc.value.field == "initial.matrix.rows"
        assert str(exc.value).startswith("initial.matrix.rows: momentum matrix is not skew")

    def test_matrix_initial_dimension_named(self):
        doc = base_doc(initial={"matrix": {
            "n": 2, "kind": "skew", "rows": [[0.0, 1.0], [-1.0, 0.0]]}})
        with pytest.raises(SchemaError) as exc:
            scenario_from_doc(doc)
        assert str(exc.value) == "initial.matrix.n: momentum has n = 2, the body has n = 4"

    @pytest.mark.parametrize("field,value,message", [
        ("dt", -0.1, "positive"),
        ("t_end", 0.0, "positive"),
        ("record_every", 0, "positive integer"),
        ("record_every", 2.5, r"^integrator\.record_every: expected an integer$"),
        ("record_every", True, r"^integrator\.record_every: expected an integer$"),
        ("guard", "panic", "reject"),
        ("manakov_max_power", 1, "manakov_max_power: expected an integer from 2 to the dimension 4"),
        ("manakov_max_power", 5, "manakov_max_power: expected an integer from 2 to the dimension 4"),
        ("manakov_max_power", 2.5, r"^integrator\.manakov_max_power: expected an integer$"),
        ("manakov_max_power", True, r"^integrator\.manakov_max_power: expected an integer$"),
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

    @pytest.mark.parametrize("outputs", [["trajectory.csv"], "trajectory.csv"],
                             ids=["list", "string"])
    def test_outputs_must_be_an_object(self, outputs):
        with pytest.raises(SchemaError) as exc:
            scenario_from_doc(base_doc(outputs=outputs))
        assert exc.value.field == "outputs"
        assert str(exc.value) == "outputs: expected an object"

    @pytest.mark.parametrize("names", [("out.txt", "./out.txt"), ("a/b.csv", "a//c/../b.csv"),
                                       ("x", "x")])
    def test_outputs_must_name_distinct_files(self, tmp_path, capsys, names):
        # The CLI refuses the scenario when it places its outputs, before it runs.
        doc = base_doc(outputs={"trajectory_csv": names[0], "invariants_json": "drift.json",
                                "report_json": names[1]})
        path = tmp_path / "same.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: outputs.report_json: names the same file as "
            "outputs.trajectory_csv\n")
        assert not (tmp_path / "out").exists()

    def test_bad_seed_type(self):
        with pytest.raises(SchemaError, match="seed"):
            scenario_from_doc(base_doc(seed="abc"))

    @pytest.mark.parametrize("doc", [[base_doc()], "scenario", None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(SchemaError) as exc:
            scenario_from_doc(doc)
        assert (exc.value.field, str(exc.value)) == ("<root>", "<root>: expected a JSON object")


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
