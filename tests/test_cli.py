import json
import subprocess
import sys

import numpy as np
import pytest

import freetop as ft
from freetop import serialize as ser
from freetop.cli import main

from conftest import random_skew, rotation_generator
from recipes import read_recipe


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def write(path, doc):
    ser.write_json(path, doc)
    return str(path)


@pytest.fixture
def body3_path(tmp_path):
    return write(tmp_path / "body3.json",
                 {"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0]})


@pytest.fixture
def body4_path(tmp_path):
    return write(tmp_path / "body4.json",
                 {"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0, 4.0]})


def spinning_book_scenario(tmp_path, **integrator):
    # Rotation near the middle axis of a book-shaped body, slightly kicked.
    m = np.zeros((3, 3))
    m[0, 2] = 4.0
    m[2, 0] = -4.0
    m[0, 1] = 0.01
    m[1, 0] = -0.01
    settings = {"dt": 0.001, "t_end": 1.0, "record_every": 100}
    settings.update(integrator)
    doc = {
        "spec_version": "1",
        "seed": 0,
        "body": {"eigenvalues": [1.0, 2.0, 3.0]},
        "initial": {"matrix": {"n": 3, "kind": "skew", "rows": m.tolist()}},
        "integrator": settings,
        "outputs": {"trajectory_csv": "traj.csv", "invariants_json": "drift.json",
                    "report_json": "report.json"},
    }
    return write(tmp_path / "scenario.json", doc)


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "classify", "generate", "stability"):
            assert cmd in out

    @pytest.mark.parametrize("cmd,flags", [
        ("simulate", ["--seed", "--output-dir"]),
        ("classify", ["--tol", "--cluster-tol", "--out", "--output-dir"]),
        ("generate", ["--seed", "--out-momentum", "--out-structure", "--output-dir"]),
        ("stability", ["--tol", "--seed", "--output-dir", "--spectrum", "--kernel", "--probe",
                       "--rank-tol", "--eps", "--horizon", "--exit-factor", "--dt",
                       "--curve-out"]),
    ])
    def test_subcommand_help_lists_flags(self, capsys, cmd, flags):
        # A command offers only the options it reads.
        unread = {"simulate": ["--tol"], "classify": ["--seed"], "generate": ["--tol"],
                  "stability": []}[cmd]
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        for flag in unread:
            assert flag not in out

    @pytest.mark.parametrize("cmd,text", [
        ("simulate", "--seed SEED replaces the scenario's seed, which seeds its recipe's random "
                     "structures unless the recipe pins a seed (default: the scenario's seed, "
                     "else 0)"),
        ("generate", "--seed SEED seed for the recipe's random structures unless the recipe "
                     "pins a seed (default 0)"),
        ("stability", "--seed SEED seed for the --probe perturbation (default 0)"),
    ])
    def test_seed_help_names_what_it_seeds(self, capsys, cmd, text):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert text in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("cmd,option", [
        ("simulate", "--tol"), ("classify", "--seed"), ("generate", "--tol")])
    def test_unread_option_exit2(self, tmp_path, cmd, option, capsys):
        args = {"simulate": ["s.json"], "classify": ["m.json", "b.json"],
                "generate": ["r.json", "b.json"]}[cmd]
        with pytest.raises(SystemExit) as exc:
            main([cmd, *args, option, "1", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


class TestSimulate:
    def test_spinning_book_smoke(self, tmp_path):
        scenario = spinning_book_scenario(tmp_path)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
        t_vals = [float(line.split(",")[0]) for line in lines[1:]]
        assert t_vals == sorted(t_vals) and len(t_vals) == 11
        drift = json.loads((tmp_path / "drift.json").read_text())
        assert drift["drift"]["energy"] < 1e-10
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n"] == 3 and report["samples"] == 11

    def test_equilibrium_recipe_scenario(self, tmp_path):
        doc = {
            "spec_version": "1",
            "seed": 12,
            "body": {"eigenvalues": [1.0, 2.0, 3.0, 4.0]},
            "initial": {"recipe": {
                "spec_version": "1",
                "blocks": [{"omega": 1.0, "axes": [0, 1, 2, 3],
                            "structure_source": "random"}],
                "fixed_axes": [],
            }},
            "integrator": {"dt": 0.001, "t_end": 10.0, "record_every": 500},
            "outputs": {"invariants_json": "drift.json"},
        }
        scenario = write(tmp_path / "eq.json", doc)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 0
        drift = json.loads((tmp_path / "drift.json").read_text())
        assert drift["momentum_displacement"] <= 1e-8

    def test_malformed_json_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert main(["simulate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_field_named(self, tmp_path, capsys):
        doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0]},
               "initial": {"matrix": {"n": 2, "kind": "skew",
                                      "rows": [[0.0, 1.0], [-1.0, 0.0]]}}}
        scenario = write(tmp_path / "s.json", doc)
        assert main(["simulate", scenario]) == 2
        assert "integrator" in capsys.readouterr().err

    def test_unknown_major_version(self, tmp_path, capsys):
        scenario = spinning_book_scenario(tmp_path)
        doc = json.loads(open(scenario).read())
        doc["spec_version"] = "9"
        write(tmp_path / "v9.json", doc)
        assert main(["simulate", str(tmp_path / "v9.json")]) == 2
        assert "version" in capsys.readouterr().err

    def test_guard_rejection_is_numeric_exit(self, tmp_path, capsys):
        scenario = spinning_book_scenario(tmp_path, dt=0.5, t_end=10.0,
                                          record_every=1)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 3
        assert "guard" in capsys.readouterr().err

    def test_oversized_integer_exit2(self, tmp_path, capsys):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["integrator"]["dt"] = 10 ** 400
        (tmp_path / "huge.json").write_text(json.dumps(doc))
        assert main(["simulate", str(tmp_path / "huge.json")]) == 2
        assert "integrator.dt" in capsys.readouterr().err

    def test_too_many_samples_exit2(self, tmp_path, capsys):
        # 2**50 + 1 recorded samples: the record array cannot be allocated,
        # and the request fails at once without touching memory.
        scenario = spinning_book_scenario(tmp_path, dt=0.0009765625, t_end=1099511627776.0,
                                          record_every=1)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: integrator: 1125899906842625 samples do not fit in memory\n")
        assert not (tmp_path / "traj.csv").exists()

    def test_negative_seed_exit2(self, tmp_path, capsys):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["seed"] = -1
        assert main(["simulate", write(tmp_path / "neg.json", doc),
                     "--output-dir", str(tmp_path)]) == 2
        assert "seed: expected a non-negative integer" in capsys.readouterr().err

    def test_overflowing_invariants_exit3(self, tmp_path, capsys):
        # In two dimensions the momentum is constant, so it stays finite, but
        # tr(M^2) overflows: a numerical failure, not an unreadable input.
        doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0]},
               "initial": {"matrix": {"n": 2, "kind": "skew",
                                      "rows": [[0.0, 1e200], [-1e200, 0.0]]}},
               "integrator": {"dt": 0.1, "t_end": 0.1, "guard": "warn"}}
        with pytest.warns(UserWarning, match="guard"), \
                np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", write(tmp_path / "big.json", doc)]) == 3
        assert "error: numerical failure: cannot serialize non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [
        {"record_every": 7},  # does not divide the 1000 steps
        {"t_end": 1e308},  # t_end / dt overflows
        {"t_end": 1e200},  # more samples than an array can hold
    ])
    def test_step_count_errors_name_integrator(self, tmp_path, capsys, settings):
        scenario = spinning_book_scenario(tmp_path, **settings)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input: integrator: ")

    @pytest.mark.parametrize("initial, field", [
        ({"matrix": {"n": 2, "kind": "skew", "rows": [[0.0, 1.0], [-1.0, 0.0]]}},
         "initial.matrix.n"),
        ({"recipe": {"spec_version": "1", "blocks": [{"omega": 1.0, "axes": [0, 1]}]}},
         "initial.recipe"),
    ])
    def test_initial_unusable_with_body_exit2(self, tmp_path, capsys, initial, field):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["initial"] = initial
        assert main(["simulate", write(tmp_path / "s.json", doc),
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid input: {field}: ")

    @pytest.mark.parametrize("name", ["", "a\0b"])
    def test_output_name_exit2(self, tmp_path, capsys, name):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_csv": name}
        assert main(["simulate", write(tmp_path / "s.json", doc),
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid input: outputs.trajectory_csv: expected a file name")

    def test_nonexistent_file(self, capsys):
        assert main(["simulate", "/nonexistent/scenario.json"]) == 2

    def test_rerun_overwrites_byte_identically(self, tmp_path):
        scenario = spinning_book_scenario(tmp_path)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 0
        first = [(tmp_path / name).read_bytes()
                 for name in ("traj.csv", "drift.json", "report.json")]
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 0
        second = [(tmp_path / name).read_bytes()
                  for name in ("traj.csv", "drift.json", "report.json")]
        assert first == second


class TestClassify:
    def make_equilibrium(self, tmp_path, body4_path, exotic=False):
        body = ser.read_body(body4_path)
        if exotic:
            recipe = read_recipe(((0, 1, 2, 3), 1.5, "random"), seed=42)
        else:
            recipe = read_recipe(((0, 1), 1.0), ((2, 3), 2.0))
        m, _ = ft.generate(recipe, body)
        path = tmp_path / ("exotic.json" if exotic else "regular.json")
        write(path, ser.matrix_to_doc(m))
        return str(path)

    def test_regular_fixture(self, tmp_path, body4_path, capsys):
        m_path = self.make_equilibrium(tmp_path, body4_path)
        assert main(["classify", m_path, body4_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regular"] is True
        assert len(doc["blocks"]) == 2

    def test_exotic_fixture(self, tmp_path, body4_path, capsys):
        m_path = self.make_equilibrium(tmp_path, body4_path, exotic=True)
        assert main(["classify", m_path, body4_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regular"] is False

    def test_random_momentum_exit4(self, tmp_path, body4_path, capsys, rng):
        path = tmp_path / "random.json"
        write(path, ser.matrix_to_doc(random_skew(4, rng)))
        assert main(["classify", str(path), body4_path]) == 4
        assert "residual" in capsys.readouterr().err

    def test_ambiguous_exit5(self, tmp_path, body4_path, capsys):
        body = ser.read_body(body4_path)
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0
        om[2, 3], om[3, 2] = 1.0 + 5e-8, -(1.0 + 5e-8)
        m = ft.inertia_apply(ft.SkewMatrix(om), body)
        path = tmp_path / "close.json"
        write(path, ser.matrix_to_doc(m))
        assert main(["classify", str(path), body4_path]) == 5
        assert "undecided" in capsys.readouterr().err

    def test_out_file(self, tmp_path, body4_path):
        m_path = self.make_equilibrium(tmp_path, body4_path)
        out = tmp_path / "structure.json"
        assert main(["classify", m_path, body4_path, "--out", str(out),
                     "--output-dir", str(tmp_path)]) == 0
        doc = json.loads(out.read_text())
        assert doc["regular"] is True

    @pytest.mark.parametrize("field", ["rows[0][1]", "eigenvalues[3]", "n"])
    def test_oversized_integer_exit2(self, tmp_path, body4_path, capsys, field):
        # A 400-digit integer parses as a Python int that no double holds; one
        # of 5000 digits is more than int() converts, so json itself fails on it.
        m_path = self.make_equilibrium(tmp_path, body4_path)
        for literal in (["1" + "0" * 400] if field != "n" else []) + ["9" * 5000]:
            m_doc = json.loads(open(m_path).read())
            b_doc = json.loads(open(body4_path).read())
            if field == "eigenvalues[3]":
                b_doc["eigenvalues"][3] = "@big@"
            elif field == "n":
                m_doc["n"] = "@big@"
            else:
                m_doc["rows"][0][1] = "@big@"
            for name, doc in (("m.json", m_doc), ("b.json", b_doc)):
                (tmp_path / name).write_text(json.dumps(doc).replace('"@big@"', literal))
            assert main(["classify", str(tmp_path / "m.json"), str(tmp_path / "b.json")]) == 2
            assert f"error: invalid input: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["classify"], ["stability", "--kernel"]])
    @pytest.mark.parametrize("kind, rows, field", [
        ("general", [[0.0, 1.0], [1.0, 0.0]], "rows"),
        ("sym", [[1.0, 0.0], [0.0, 0.0]], "rows"),
        ("skew", [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "n"),
    ])
    def test_momentum_unusable_with_body_exit2(self, tmp_path, capsys, command, kind, rows,
                                               field):
        # Readable documents, but not a skew momentum for a body with n = 2.
        m_path = write(tmp_path / "m.json",
                       {"spec_version": "1", "n": len(rows), "kind": kind, "rows": rows})
        b_path = write(tmp_path / "b.json", {"spec_version": "1", "eigenvalues": [1.0, 2.0]})
        assert main([command[0], m_path, b_path, *command[1:]]) == 2
        assert f"error: invalid input: {field}: momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["classify"], ["stability", "--kernel"]])
    def test_stationary_on_huge_body_exit0(self, tmp_path, capsys, command):
        # E01 is stationary for this body; ||J|| overflows and ||W||^2
        # underflows, so only a residual taken in scaled units can say so.
        m_path = write(tmp_path / "m.json", {"spec_version": "1", "n": 3, "kind": "skew",
                                             "rows": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})
        b_path = write(tmp_path / "b.json", {
            "spec_version": "1", "n": 3, "kind": "sym",
            "rows": [[1e200, 1e200, 0.0], [1e200, 3e200, 0.0], [0.0, 0.0, 5e200]]})
        with np.errstate(over="raise"):
            assert main([command[0], m_path, b_path, *command[1:]]) == 0
        doc = json.loads(capsys.readouterr().out)
        if command == ["classify"]:
            assert [b["axes"] for b in doc["blocks"]] == [[0, 1]]
            assert doc["fixed_axes"] == [2]
        else:
            assert doc["excess_kernel_dim"] == 0

    @pytest.mark.parametrize("command", [["classify"], ["stability", "--kernel"]])
    def test_tiny_momentum_not_stationary_exit4(self, tmp_path, body3_path, capsys, command):
        # ||M|| underflows to 0, but this momentum is not the zero momentum:
        # its residual is 9.1e-2 at every scale.
        m_path = write(tmp_path / "m.json", {
            "spec_version": "1", "n": 3, "kind": "skew",
            "rows": [[0, 1e-170, 1e-170], [-1e-170, 0, 0], [-1e-170, 0, 0]]})
        assert main([command[0], m_path, body3_path, *command[1:]]) == 4
        assert "residual 9.07" in capsys.readouterr().err

    def test_momentum_beyond_double_range_exit2(self, tmp_path, body3_path, capsys):
        # The first structured part overflows; the second matrix is symmetric,
        # which only a norm taken after scaling can see at this size.
        for rows in ([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]],
                     [[0.0, 1e300, 0.0], [1e300, 0.0, 0.0], [0.0, 0.0, 0.0]]):
            m_path = write(tmp_path / "m.json",
                           {"spec_version": "1", "n": 3, "kind": "skew", "rows": rows})
            with np.errstate(over="ignore"):
                assert main(["classify", m_path, body3_path]) == 2
            assert "error: invalid input: rows: " in capsys.readouterr().err

    def test_inputs_not_mutated(self, tmp_path, body4_path):
        m_path = self.make_equilibrium(tmp_path, body4_path)
        before = open(m_path, "rb").read(), open(body4_path, "rb").read()
        main(["classify", m_path, body4_path, "--out", str(tmp_path / "o.json"),
              "--output-dir", str(tmp_path)])
        after = open(m_path, "rb").read(), open(body4_path, "rb").read()
        assert before == after


class TestGenerateAndStability:
    @pytest.fixture
    def recipe_path(self, tmp_path):
        return write(tmp_path / "recipe.json", {
            "spec_version": "1",
            "blocks": [{"omega": 1.5, "axes": [0, 1, 2, 3],
                        "structure_source": "random"}],
            "fixed_axes": [],
        })

    def test_generate_writes_outputs(self, tmp_path, body4_path, recipe_path):
        out = tmp_path / "out"
        assert main(["generate", recipe_path, body4_path, "--seed", "42",
                     "--output-dir", str(out)]) == 0
        m = ser.read_matrix(out / "momentum.json")
        body = ser.read_body(body4_path)
        ok, _ = ft.is_equilibrium(m, body, tol=1e-10)
        assert ok
        structure = json.loads((out / "structure.json").read_text())
        assert structure["regular"] is False

    def test_generate_deterministic_bytes(self, tmp_path, body4_path, recipe_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["generate", recipe_path, body4_path, "--seed", "7",
                         "--output-dir", str(out)]) == 0
        assert (out1 / "momentum.json").read_bytes() == (out2 / "momentum.json").read_bytes()
        assert (out1 / "structure.json").read_bytes() == (out2 / "structure.json").read_bytes()

    def test_recipe_must_cover_body_exit2(self, tmp_path, body4_path, capsys):
        recipe = write(tmp_path / "short.json", {
            "spec_version": "1", "blocks": [], "fixed_axes": [0, 1]})
        assert main(["generate", recipe, body4_path, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid input: <root>: structure is 2-dimensional, body is 4")
        assert not (tmp_path / "momentum.json").exists()

    def test_negative_recipe_seed_exit2(self, tmp_path, body4_path, capsys):
        recipe = write(tmp_path / "neg.json", {
            "spec_version": "1", "seed": -1,
            "blocks": [{"omega": 1.0, "axes": [0, 1]}, {"omega": 2.0, "axes": [2, 3]}],
            "fixed_axes": []})
        assert main(["generate", recipe, body4_path, "--output-dir", str(tmp_path)]) == 2
        assert "seed: expected a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["simulate", "classify", "generate", "stability"])
    def test_negative_seed_flag_rejected_at_parsing(self, tmp_path, body4_path,
                                                    recipe_path, cmd, capsys):
        args = {"simulate": [recipe_path], "generate": [recipe_path, body4_path],
                "classify": [recipe_path, body4_path],
                "stability": [recipe_path, body4_path, "--kernel"]}[cmd]
        with pytest.raises(SystemExit) as exc:
            main([cmd, *args, "--seed", "-5", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "momentum.json").exists()

    def test_kernel_gap_regular_vs_exotic(self, tmp_path, body4_path, recipe_path,
                                          capsys):
        out = tmp_path / "out"
        main(["generate", recipe_path, body4_path, "--seed", "42",
              "--output-dir", str(out)])
        assert main(["stability", str(out / "momentum.json"), body4_path,
                     "--kernel"]) == 0
        exotic_doc = json.loads(capsys.readouterr().out)
        assert exotic_doc["excess_kernel_dim"] >= 1

        regular = write(tmp_path / "reg_recipe.json", {
            "spec_version": "1",
            "blocks": [{"omega": 1.0, "axes": [0, 1]},
                       {"omega": 2.0, "axes": [2, 3]}],
            "fixed_axes": [],
        })
        out2 = tmp_path / "out2"
        main(["generate", regular, body4_path, "--output-dir", str(out2)])
        assert main(["stability", str(out2 / "momentum.json"), body4_path,
                     "--kernel"]) == 0
        regular_doc = json.loads(capsys.readouterr().out)
        assert regular_doc["excess_kernel_dim"] == 0
        assert regular_doc["kernel_dim"] < exotic_doc["kernel_dim"]

    def test_spectrum_report(self, tmp_path, body3_path, capsys):
        body = ser.read_body(body3_path)
        m = ft.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        assert main(["stability", str(path), body3_path, "--spectrum"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_real_part"] > 0.05
        assert len(doc["spectrum"]) == 3

    def test_probe_with_curve(self, tmp_path, body3_path, capsys):
        body = ser.read_body(body3_path)
        m = ft.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        curve = tmp_path / "curve.csv"
        assert main(["stability", str(path), body3_path, "--probe",
                     "--horizon", "60", "--curve-out", str(curve),
                     "--output-dir", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["escaped"] is True
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "t,deviation" and len(lines) > 2

    def test_probe_step_guard_exit3(self, tmp_path, body3_path, capsys):
        # Stable, but ||W|| = 10: a step of 1 would blow up numerically.
        path = write(tmp_path / "fast.json", {
            "spec_version": "1", "n": 3, "kind": "skew",
            "rows": [[0.0, 0.0, 0.0], [0.0, 0.0, 50.0], [0.0, -50.0, 0.0]]})
        assert main(["stability", path, body3_path, "--probe", "--dt", "1",
                     "--horizon", "100"]) == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--spectrum", "--kernel"])
    def test_curve_out_needs_probe(self, tmp_path, body3_path, capsys, mode):
        body = ser.read_body(body3_path)
        m = ft.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        curve = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(["stability", str(path), body3_path, mode, "--curve-out", str(curve)])
        assert exc.value.code == 2
        assert "--curve-out" in capsys.readouterr().err
        assert not curve.exists()

    def test_stability_requires_equilibrium(self, tmp_path, body4_path, rng):
        path = tmp_path / "r.json"
        write(path, ser.matrix_to_doc(random_skew(4, rng)))
        assert main(["stability", str(path), body4_path, "--spectrum"]) == 4

    def test_probe_requires_equilibrium(self, tmp_path, body3_path, capsys):
        # Residual about 0.09: far from stationary, as --spectrum and
        # --kernel also report with exit code 4.
        m = np.zeros((3, 3))
        m[0, 2], m[0, 1] = 4.0, 3.0
        path = tmp_path / "off.json"
        write(path, ser.matrix_to_doc(ft.SkewMatrix(m - m.T)))
        args = ["stability", str(path), body3_path, "--horizon", "1"]
        assert main(args + ["--probe"]) == 4
        assert "not a stationary rotation" in capsys.readouterr().err
        assert main(args + ["--spectrum"]) == 4

    def test_probe_rejects_truncated_horizon(self, tmp_path, body3_path, capsys):
        body = ser.read_body(body3_path)
        m = ft.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        assert main(["stability", str(path), body3_path, "--probe",
                     "--horizon", "1.05"]) == 2
        assert "divide" in capsys.readouterr().err

    def test_output_dir_env(self, tmp_path, body4_path, recipe_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FREETOP_OUTPUT_DIR", str(target))
        assert main(["generate", recipe_path, body4_path, "--seed", "1"]) == 0
        assert (target / "momentum.json").exists()


class TestConsoleScript:
    def test_module_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "freetop.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
