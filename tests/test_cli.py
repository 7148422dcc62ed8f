import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freetop as ft
from freetop import _kernels, cli, serialize as ser
from freetop.cli import main
from freetop.scenario import run_scenario, scenario_from_doc

from conftest import random_skew, rotation_generator, tilted_momentum
from recipes import read_recipe
import oracles


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


# Each option that one stability mode reads: that mode and the option's
# default value, at which the other modes refuse it too.
MODE_OPTIONS = {"--rank-tol": ("kernel", "1e-8"), "--seed": ("probe", "0"),
                "--eps": ("probe", "1e-6"), "--horizon": ("probe", "100"),
                "--exit-factor": ("probe", "100"), "--dt": ("probe", "0.01"),
                "--curve-out": ("probe", "curve.csv")}


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


class TestNumericOptions:
    @pytest.mark.parametrize("cmd,option", [
        ("classify", "--tol"), ("classify", "--cluster-tol"),
        ("stability", "--tol"), ("stability", "--rank-tol"), ("stability", "--eps"),
        ("stability", "--horizon"), ("stability", "--exit-factor"), ("stability", "--dt")])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "1e-3x"])
    def test_needs_finite_positive(self, tmp_path, capsys, cmd, option, value):
        # Rejected while parsing, before any file is read. A NaN --tol used to
        # pass both `tol <= 0` and `residual > tol`, so stability wrote a
        # report for a momentum that is not stationary.
        args = ["m.json", "b.json"] + (["--probe"] if cmd == "stability" else [])
        with pytest.raises(SystemExit) as exc:
            main([cmd, *args, f"{option}={value}", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert option in err and "finite positive" in err


class TestOneAxisBody:
    """A body needs two axes in both of its forms: each command exits 2 and
    names the field that holds the moments."""

    @pytest.fixture(params=["matrix", "eigenvalues"])
    def body_doc(self, request):
        if request.param == "matrix":
            return {"n": 1, "kind": "sym", "rows": [[2.0]]}, "rows"
        return {"eigenvalues": [2.0]}, "eigenvalues"

    @pytest.mark.parametrize("command", ["simulate", "classify", "probe"])
    def test_exit2_names_field(self, tmp_path, capsys, body_doc, command):
        doc, field = body_doc
        momentum = {"n": 1, "kind": "skew", "rows": [[0.0]]}
        if command == "simulate":
            path = write(tmp_path / "scenario.json", {
                "spec_version": "1", "body": doc, "initial": {"matrix": momentum},
                "integrator": {"dt": 0.01, "t_end": 0.1}})
            argv, field = ["simulate", path], f"body.{field}"
        else:
            m = write(tmp_path / "m.json", dict(momentum, spec_version="1"))
            b = write(tmp_path / "b.json", dict(doc, spec_version="1"))
            argv = (["classify", m, b] if command == "classify"
                    else ["stability", m, b, "--probe", "--horizon", "1"])
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: " in err and "two axes" in err


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

    def test_inline_momentum_any_kind_if_skew(self, tmp_path, capsys):
        # The momentum rule of classify and stability: any kind whose rows
        # are skew.
        rows = [[0, 0, 4], [0, 0, 0.01], [-4, -0.01, 0]]
        for kind in ("general", "sym"):
            doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0, 3.0]},
                   "initial": {"matrix": {"n": 3, "kind": kind, "rows": rows}},
                   "integrator": {"dt": 0.01, "t_end": 0.1}}
            assert main(["simulate", write(tmp_path / f"{kind}.json", doc)]) == 0
            assert json.loads(capsys.readouterr().out)["samples"] == 11

    def test_outputs_must_name_distinct_files(self, tmp_path, capsys):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_csv": "out.txt", "report_json": "./out.txt"}
        path = write(tmp_path / "same.json", doc)
        assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: outputs.report_json: names the same file as "
            "outputs.trajectory_csv\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first, second", [
        # An absolute name under a relative output directory.
        ("{tmp}/out/y.txt", "y.txt"),
        # A name that leaves the output directory and comes back.
        ("../out/z.txt", "z.txt"),
    ], ids=["absolute", "parent"])
    def test_outputs_resolved_against_output_dir(self, tmp_path, capsys, monkeypatch,
                                                 first, second):
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_csv": first.format(tmp=tmp_path),
                          "invariants_json": "drift.json", "report_json": second}
        path = write(tmp_path / "same.json", doc)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", path, "--output-dir", "out"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: outputs.report_json: names the same file as "
            "outputs.trajectory_csv\n")
        assert not (tmp_path / "out").exists()

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

    def test_null_manakov_max_power_exit2(self, tmp_path, capsys):
        # A null power used to run with the default power, as if absent.
        path = spinning_book_scenario(tmp_path, manakov_max_power=None)
        assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: integrator.manakov_max_power: expected an integer\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_invariants_exit3(self, tmp_path, capsys):
        # In two dimensions the momentum is constant, so it stays finite, but
        # tr(M^2) overflows: a numerical failure, not an unreadable input,
        # found before any output is written or its directory made.
        doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0]},
               "initial": {"matrix": {"n": 2, "kind": "skew",
                                      "rows": [[0.0, 1e200], [-1e200, 0.0]]}},
               "integrator": {"dt": 0.1, "t_end": 0.1, "guard": "warn"},
               "outputs": {"trajectory_csv": "t.csv"}}
        outdir = tmp_path / "newdir"
        with pytest.warns(UserWarning, match="guard"):
            assert main(["simulate", write(tmp_path / "big.json", doc),
                         "--output-dir", str(outdir)]) == 3
        assert capsys.readouterr().err == (
            "error: numerical failure: invariants became non-finite near t = 0\n")
        assert not outdir.exists()

    def test_non_finite_trajectory_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # Both trajectory files come from one table, checked once before the
        # output directory or either file is made.
        def broken(sc):
            traj = run_scenario(sc)
            bad = traj.momenta.copy()
            bad[-1, 0, 1] = np.nan
            return dataclasses.replace(traj, momenta=bad)

        monkeypatch.setattr(cli, "run_scenario", broken)
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_csv": "t.csv", "trajectory_jsonl": "t.jsonl"}
        outdir = tmp_path / "newdir"
        assert main(["simulate", write(tmp_path / "s.json", doc),
                     "--output-dir", str(outdir)]) == 3
        assert capsys.readouterr().err == (
            "error: numerical failure: cannot serialize non-finite values to "
            f"{outdir / 't.csv'} and {outdir / 't.jsonl'}\n")
        assert not outdir.exists()

    def test_second_trajectory_file_unopenable_exit2(self, tmp_path, capsys):
        # The two trajectory files are opened before either is written, so
        # when the JSON-lines file cannot be opened the CSV is left empty.
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_csv": "t.csv", "trajectory_jsonl": "sub",
                          "report_json": "r.json"}
        outdir = tmp_path / "out"
        (outdir / "sub").mkdir(parents=True)
        assert main(["simulate", write(tmp_path / "s.json", doc),
                     "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid input: [Errno 21] Is a directory: '{outdir / 'sub'}'\n")
        assert sorted(p.name for p in outdir.iterdir()) == ["sub", "t.csv"]
        assert (outdir / "t.csv").read_bytes() == b""

    @pytest.mark.parametrize("settings", [
        ({"record_every": 7}, "record_every=7 must divide the step count 1000"),
        ({"t_end": 1e308}, "t_end=1e+308 is too many steps of dt=0.001"),
        # 2**60 steps, below the 2**63 the C loop can count, in too many records.
        ({"dt": 2**-10, "t_end": 2.0**50, "record_every": 1},
         "1152921504606846977 samples are more than an array can hold"),
    ])
    def test_step_count_errors_name_integrator(self, tmp_path, capsys, settings):
        integrator, message = settings
        scenario = spinning_book_scenario(tmp_path, **integrator)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: invalid input: integrator: {message}\n"

    def test_step_counts_beyond_int64_exit2(self, tmp_path, capsys):
        # 3 * 2**62 steps in 4 records: the C loop takes int64_t counts, which
        # would wrap to a negative count and leave the records unwritten. The
        # step count is refused with the scenario field that sets it.
        doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0, 3.0]},
               "initial": {"matrix": {"n": 3, "kind": "skew", "rows": [
                   [0.0, 0.3, 0.1], [-0.3, 0.0, 0.2], [-0.1, -0.2, 0.0]]}},
               "integrator": {"dt": 0.5, "t_end": 3.0 * 2**61, "record_every": 2**62},
               "outputs": {"trajectory_csv": "t.csv", "report_json": "r.json"}}
        outdir = tmp_path / "newdir"
        assert main(["simulate", write(tmp_path / "s.json", doc),
                     "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: integrator: t_end=6.917529027641082e+18 is too many "
            "steps of dt=0.5\n")
        assert not outdir.exists()

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

    def test_jsonl_output_written_in_process(self, tmp_path, capsys):
        # The JSON-lines branch of simulate, run through main in this process.
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"] = {"trajectory_jsonl": "traj.jsonl"}
        path = write(tmp_path / "jsonl.json", doc)
        assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        expected = tmp_path / "expected.jsonl"
        ser.write_trajectory_jsonl(expected, run_scenario(scenario_from_doc(doc)))
        assert (tmp_path / "out" / "traj.jsonl").read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["traj.jsonl"]

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
        m = oracles.inertia_apply(ft.skew(om), body)
        path = tmp_path / "close.json"
        write(path, ser.matrix_to_doc(m))
        assert main(["classify", str(path), body4_path]) == 5
        assert "undecided" in capsys.readouterr().err

    def test_group_rates_too_close_exit5(self, tmp_path, capsys):
        # Squared rates 1, 1 - 5e-11 and 1 - 1.00001e-6 on a stationary
        # momentum: the first two form one group, whose rate is less than
        # cluster_tol from the third. The message gives the rates in the
        # momentum's units, not in the classifier's scaled ones.
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        om = np.zeros((6, 6))
        om[[0, 2, 4], [1, 3, 5]] = np.sqrt([1.0, 1.0 - 5e-11, 1.0 - 1.00001e-6])
        m_path = write(tmp_path / "m.json",
                       ser.matrix_to_doc(oracles.inertia_apply(ft.skew(om - om.T), body)))
        b_path = write(tmp_path / "b.json",
                       {"spec_version": "1", "eigenvalues": [1, 2, 3, 4, 5, 6]})
        assert main(["classify", m_path, b_path]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: classification undecided: block rates 1 and 0.9999995 ")
        # Squared rates 1 and 1 - 3e-10 join into one group that is not a
        # complex structure within 1e-10: also undecided, not exit 4.
        om = np.zeros((4, 4))
        om[[0, 2], [1, 3]] = np.sqrt([1.0, 1.0 - 3e-10])
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0])
        m_path = write(tmp_path / "m.json",
                       ser.matrix_to_doc(oracles.inertia_apply(ft.skew(om - om.T), body)))
        b_path = write(tmp_path / "b.json", {"spec_version": "1", "eigenvalues": [1, 2, 3, 4]})
        assert main(["classify", m_path, b_path]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: classification undecided: group on axes [0, 1, 2, 3] "
                              "joins rates 1 and 0.99999999985 (squared gap 3.000e-10)")

    @pytest.mark.parametrize("b", [2e-9, 4e-9])
    def test_stationary_without_normal_form_exit5(self, tmp_path, body3_path, capsys, b):
        # W = E02 + b E12 is stationary within the default tol (residual
        # 3.8e-10 and 7.6e-10), so stability runs; classify cannot put it in
        # normal form within tol, which is undecided, not exit 4.
        m = tilted_momentum(b, ser.read_body(body3_path))
        m_path = write(tmp_path / "m.json", ser.matrix_to_doc(m))
        assert main(["stability", m_path, body3_path, "--kernel"]) == 0
        capsys.readouterr()
        assert main(["classify", m_path, body3_path]) == 5
        assert capsys.readouterr().err.startswith("error: classification undecided: ")

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
        ("skew", [[1.0, 2.0], [2.0, 1.0]], "rows"),
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
    @pytest.mark.parametrize("kind", ["sym", "general", "skew"])
    def test_momentum_any_kind_if_skew_exit0(self, tmp_path, body3_path, capsys, command,
                                             kind):
        # The kind names what the writer saw; the reader checks the rows as a
        # momentum whatever the kind says.
        m_path = write(tmp_path / "m.json", {"spec_version": "1", "n": 3, "kind": kind,
                                             "rows": [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]})
        assert main([command[0], m_path, body3_path, *command[1:]]) == 0
        doc = json.loads(capsys.readouterr().out)
        if command == ["classify"]:
            assert [b["axes"] for b in doc["blocks"]] == [[0, 1]] and doc["regular"]
        else:
            assert doc["excess_kernel_dim"] == 0

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

    def test_null_recipe_seed_exit2(self, tmp_path, body4_path, capsys):
        # A null seed used to take --seed, as if the field were absent.
        recipe = write(tmp_path / "null.json", {
            "spec_version": "1", "seed": None,
            "blocks": [{"omega": 1.0, "axes": [0, 1, 2, 3], "structure_source": "random"}],
            "fixed_axes": []})
        assert main(["generate", recipe, body4_path, "--seed", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: seed: expected a non-negative integer\n")
        assert not (tmp_path / "out").exists()

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
        m = oracles.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        assert main(["stability", str(path), body3_path, "--spectrum"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_real_part"] > 0.05
        assert len(doc["spectrum"]) == 3

    def test_probe_with_curve(self, tmp_path, body3_path, capsys):
        body = ser.read_body(body3_path)
        m = oracles.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
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

    def test_probe_tiny_dt_exit2(self, tmp_path, body3_path, capsys):
        # The default horizon of 100 is 1e22 steps of 1e-20 and infinitely
        # many of 1e-320: 2**63 steps or more is bad input, as for simulate.
        body = ser.read_body(body3_path)
        path = write(tmp_path / "mid.json", ser.matrix_to_doc(
            oracles.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)))
        for dt in ("1e-320", "1e-20"):
            assert main(["stability", path, body3_path, "--probe", "--dt", dt,
                         "--output-dir", str(tmp_path / "newdir")]) == 2
            assert capsys.readouterr() == (
                "", f"error: invalid input: horizon=100.0 is too many steps of dt={dt}\n")
            assert not (tmp_path / "newdir").exists()

    @pytest.mark.parametrize("mode", ["--spectrum", "--kernel"])
    def test_curve_out_needs_probe(self, tmp_path, body3_path, capsys, mode):
        body = ser.read_body(body3_path)
        m = oracles.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        curve = tmp_path / "curve.csv"
        assert main(["stability", str(path), body3_path, mode, "--curve-out", str(curve)]) == 2
        assert capsys.readouterr() == (
            "", "error: invalid input: --curve-out: applies to --probe only\n")
        assert not curve.exists()

    @pytest.mark.parametrize("mode, option", [
        (mode, option) for mode in ("spectrum", "kernel", "probe")
        for option, (reader, _) in MODE_OPTIONS.items() if reader != mode])
    def test_option_of_another_mode_exit2(self, tmp_path, capsys, monkeypatch, mode, option):
        # 14 pairs. The matrix file does not exist: the option is refused
        # before any input is read or any directory made.
        reader, value = MODE_OPTIONS[option]
        monkeypatch.chdir(tmp_path)
        assert main(["stability", "missing.json", "b.json", f"--{mode}", option, value,
                     "--output-dir", "out"]) == 2
        assert capsys.readouterr() == (
            "", f"error: invalid input: {option}: applies to --{reader} only\n")
        assert list(tmp_path.iterdir()) == []

    def test_kernel_beyond_double_range_exit3(self, tmp_path, body4_path, capsys):
        # Rates 1 and 2 at entries near 1e199: the ranks hold, but the
        # singular values of L~ ad_M~ near 1e398 are inf, which the writer
        # refuses as a numerical failure, with no warning on the way.
        m = np.zeros((4, 4))
        m[0, 1], m[2, 3] = 3e199, 1.4e200
        path = write(tmp_path / "m.json", ser.matrix_to_doc(ft.skew(m - m.T)))
        out = tmp_path / "k.json"
        assert main(["stability", path, body4_path, "--kernel", "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: numerical failure: cannot serialize non-finite value inf\n")
        assert not out.exists()

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
        write(path, ser.matrix_to_doc(ft.skew(m - m.T)))
        args = ["stability", str(path), body3_path]
        assert main(args + ["--probe", "--horizon", "1"]) == 4
        assert "not a stationary rotation" in capsys.readouterr().err
        assert main(args + ["--spectrum"]) == 4

    def test_probe_rejects_truncated_horizon(self, tmp_path, body3_path, capsys):
        # Records every round(0.1 / dt) steps would end the curve short of the
        # horizon (10 of 105 steps, 17 of 10000). They come every gcd of the
        # two instead, and the curve reaches the horizon or the escape.
        body = ser.read_body(body3_path)
        m = oracles.inertia_apply(rotation_generator(3, 0, 2, 1.0), body)
        path = tmp_path / "mid.json"
        write(path, ser.matrix_to_doc(m))
        curve = tmp_path / "curve.csv"
        for dt, horizon, spacing in (("0.01", "1.05", 5), ("0.006", "60", 1)):
            assert main(["stability", str(path), body3_path, "--probe", "--dt", dt,
                         "--horizon", horizon, "--curve-out", str(curve)]) == 0
            doc = json.loads(capsys.readouterr().out)
            times = [float(line.split(",")[0])
                     for line in curve.read_text().splitlines()[1:]]
            assert times == [k * spacing * float(dt) for k in range(len(times))]
            assert times[-1] == (doc["exit_time"] if doc["escaped"] else float(horizon))

    def test_equal_huge_rates_exit2(self, tmp_path, body4_path, capsys):
        # The squares of the rates overflow; the rates are still equal.
        recipe = write(tmp_path / "huge.json", {
            "spec_version": "1", "fixed_axes": [],
            "blocks": [{"omega": 1e200, "axes": [0, 1]}, {"omega": 1e200, "axes": [2, 3]}]})
        assert main(["generate", recipe, body4_path, "--output-dir", str(tmp_path)]) == 2
        assert "too close" in capsys.readouterr().err
        assert not (tmp_path / "momentum.json").exists()

    def test_tiny_distinct_rates_roundtrip(self, tmp_path, body4_path, capsys):
        # The squares of the rates underflow to 0; the rates are a factor of
        # two apart.
        recipe = write(tmp_path / "tiny.json", {
            "spec_version": "1", "fixed_axes": [],
            "blocks": [{"omega": 2e-200, "axes": [0, 1]}, {"omega": 1e-200, "axes": [2, 3]}]})
        assert main(["generate", recipe, body4_path, "--output-dir", str(tmp_path)]) == 0
        assert main(["classify", str(tmp_path / "momentum.json"), body4_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["axes"] for b in doc["blocks"]] == [[0, 1], [2, 3]]
        assert doc["regular"] is True

    def test_output_dir_env(self, tmp_path, body4_path, recipe_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FREETOP_OUTPUT_DIR", str(target))
        assert main(["generate", recipe_path, body4_path, "--seed", "1"]) == 0
        assert (target / "momentum.json").exists()

    def test_empty_output_dir_env_is_unset(self, tmp_path, body4_path, recipe_path,
                                           monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("FREETOP_OUTPUT_DIR", "")
        assert main(["generate", recipe_path, body4_path]) == 0
        assert sorted(p.name for p in work.iterdir()) == ["momentum.json", "structure.json"]

    def test_calls_in_one_process_are_independent(self, tmp_path, body4_path, recipe_path,
                                                  capsys):
        # The parser is built once per process; no option of one call
        # carries over to the next.
        assert main(["generate", recipe_path, body4_path, "--seed", "3",
                     "--output-dir", str(tmp_path)]) == 0
        m_path = str(tmp_path / "momentum.json")
        kernel = tmp_path / "a.json"
        assert main(["stability", m_path, body4_path, "--kernel", "--out", "a.json",
                     "--rank-tol", "1e-3", "--output-dir", str(tmp_path)]) == 0
        first = kernel.read_bytes()
        assert json.loads(first)["rank_tol"] == 1e-3
        capsys.readouterr()
        assert main(["stability", m_path, body4_path, "--spectrum"]) == 0
        assert "spectrum" in json.loads(capsys.readouterr().out)
        assert kernel.read_bytes() == first
        assert main(["stability", m_path, body4_path, "--kernel"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_tol"] == 1e-8
        assert cli._build_parser() is cli._build_parser()

    def test_output_dir_is_a_file_exit2(self, tmp_path, body4_path, recipe_path, capsys,
                                        monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        assert main(["generate", recipe_path, body4_path, "--output-dir", str(afile)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input: ")
        monkeypatch.setenv("FREETOP_OUTPUT_DIR", str(afile))
        assert main(["generate", recipe_path, body4_path]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input: ")
        assert afile.read_text() == "keep"

    @pytest.mark.parametrize("command", ["generate", "stability"])
    def test_output_under_a_file_exit2(self, tmp_path, body4_path, recipe_path, capsys,
                                       command):
        assert main(["generate", recipe_path, body4_path, "--output-dir", str(tmp_path)]) == 0
        (tmp_path / "afile").write_text("keep")
        argv = {"generate": ["generate", recipe_path, body4_path,
                             "--out-momentum", "afile/x.json"],
                "stability": ["stability", str(tmp_path / "momentum.json"), body4_path,
                              "--kernel", "--out", "afile/x.json"]}[command]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input: ")
        assert (tmp_path / "afile").read_text() == "keep"

    @pytest.mark.parametrize("command, first, second, outdir", [
        ("generate", "x.json", "./x.json", "{tmp}/out"),
        ("stability", "x", "{tmp}/out/x", "{tmp}/out"),
        # A relative output directory, reached by an absolute name or through "..".
        ("generate", "{tmp}/out/x", "x", "out"),
        ("generate", "../out/x", "x", "out"),
        ("stability", "{tmp}/out/x", "x", "out"),
        ("stability", "../out/x", "x", "out"),
    ], ids=["generate", "stability", "generate-absolute", "generate-parent",
            "stability-absolute", "stability-parent"])
    def test_two_outputs_must_name_distinct_files(self, tmp_path, body4_path, recipe_path,
                                                  capsys, monkeypatch, command, first, second,
                                                  outdir):
        assert main(["generate", recipe_path, body4_path, "--output-dir", str(tmp_path)]) == 0
        first, second, outdir = (name.format(tmp=tmp_path) for name in (first, second, outdir))
        argv, message = {
            "generate": (["generate", recipe_path, body4_path,
                          "--out-momentum", first, "--out-structure", second],
                         "--out-structure: names the same file as --out-momentum"),
            "stability": (["stability", str(tmp_path / "momentum.json"), body4_path,
                           "--probe", "--horizon", "1", "--out", first, "--curve-out", second],
                          "--curve-out: names the same file as --out"),
        }[command]
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--output-dir", outdir]) == 2
        assert capsys.readouterr().err == f"error: invalid input: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_names_through_a_link_are_one_file(self, tmp_path, body4_path, recipe_path,
                                               capsys, monkeypatch):
        # out/here links to out, so here/x.json and x.json are one file.
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "here").symlink_to(".")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["generate", recipe_path, body4_path, "--output-dir", "out",
                     "--out-momentum", "here/x.json", "--out-structure", "x.json"]) == 2
        assert capsys.readouterr().err == ("error: invalid input: --out-structure: names the "
                                           "same file as --out-momentum\n")
        assert sorted(tmp_path.rglob("*")) == before


class TestEveryCommand:
    @pytest.mark.parametrize("argv, label", [
        (["classify", "m.json", "b.json", "--out", ""], "--out"),
        (["generate", "r.json", "b.json", "--out-momentum", ""], "--out-momentum"),
        (["stability", "m.json", "b.json", "--probe", "--curve-out", ""], "--curve-out"),
    ], ids=["classify", "generate", "stability"])
    def test_empty_output_name_exit2(self, tmp_path, capsys, monkeypatch, argv, label):
        # The input files do not exist: the name is refused before any is read.
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--output-dir", "out"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: invalid input: {label}: expected a file name\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "s.json"], ["classify", "m.json", "b.json"],
        ["generate", "r.json", "b.json"], ["stability", "m.json", "b.json", "--kernel"],
    ], ids=lambda argv: argv[0])
    def test_empty_output_dir_exit2(self, tmp_path, capsys, monkeypatch, argv):
        # The input files do not exist: the directory is refused before any
        # is read, and the environment does not stand in for it.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FREETOP_OUTPUT_DIR", "envdir")
        assert main(argv + ["--output-dir", ""]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: invalid input: --output-dir: expected a directory "
                                  "name\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (["classify", "m.json", "b.json"], 0),  # the structure goes to stdout
        (["classify", "m.json", "missing.json"], 2),
        (["generate", "bad.json", "b.json"], 2),
    ], ids=["classify-stdout", "classify-missing-body", "generate-unreadable-recipe"])
    def test_output_dir_made_only_to_write_a_file(self, tmp_path, capsys, monkeypatch,
                                                  argv, code):
        monkeypatch.chdir(tmp_path)
        body = ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
        write(tmp_path / "b.json", {"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0]})
        write(tmp_path / "m.json", ser.matrix_to_doc(
            oracles.inertia_apply(rotation_generator(3, 0, 1, 1.0), body)))
        (tmp_path / "bad.json").write_text("{")
        assert main(argv + ["--output-dir", "newdir"]) == code
        assert not (tmp_path / "newdir").exists()

    def test_no_compiler_exit6(self, tmp_path, capsys, monkeypatch):
        # Only simulate and stability --probe integrate. Without a C compiler
        # they exit 6 with the build's reason before any output is made; bad
        # input still exits 2, and the other commands do not need the kernel.
        missing = tmp_path / "missing-cc"
        monkeypatch.setattr(_kernels, "_COMPILERS", (str(missing),))
        # An empty cache, so that the build needs the missing compiler.
        monkeypatch.setattr(_kernels, "_CACHE_DIR", tmp_path / "empty-cache")
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "b.json", {"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0, 4.0]})
        write(tmp_path / "r.json", {"spec_version": "1", "fixed_axes": [],
                                    "blocks": [{"omega": 1.5, "axes": [0, 1, 2, 3],
                                                "structure_source": "random"}]})
        refusal = f"error: RK4 kernel unavailable: no C compiler found (looked for {missing})\n"
        _kernels._c_kernel.cache_clear()
        try:
            assert main(["generate", "r.json", "b.json"]) == 0
            for mode in ("--spectrum", "--kernel"):
                assert main(["stability", "momentum.json", "b.json", mode]) == 0
            assert main(["classify", "momentum.json", "b.json"]) == 0
            capsys.readouterr()
            assert main(["stability", "momentum.json", "b.json", "--probe",
                         "--curve-out", "c.csv", "--output-dir", "probe_out"]) == 6
            assert capsys.readouterr() == ("", refusal)
            assert main(["simulate", spinning_book_scenario(tmp_path),
                         "--output-dir", "sim_out"]) == 6
            assert capsys.readouterr() == ("", refusal)
            assert not (tmp_path / "probe_out").exists() and not (tmp_path / "sim_out").exists()
            for settings, message in (({"dt": 0.0}, "dt must be positive"),
                                      ({"dt": 0.0009765625, "t_end": 1099511627776.0,
                                        "record_every": 1},
                                       "1125899906842625 samples do not fit in memory")):
                assert main(["simulate", spinning_book_scenario(tmp_path, **settings),
                             "--output-dir", "sim_out"]) == 2
                assert capsys.readouterr().err == (
                    f"error: invalid input: integrator: {message}\n")
        finally:
            _kernels._c_kernel.cache_clear()

    @pytest.mark.parametrize("command", ["classify", "simulate"])
    def test_deeply_nested_json_exit2(self, tmp_path, body4_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        argv = {"classify": ["classify", str(deep), body4_path],
                "simulate": ["simulate", str(deep)]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: invalid input: JSON nested too deeply\n"


class TestConsoleScript:
    def test_module_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "freetop.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    @staticmethod
    def run_module(tmp_path, *argv):
        src = str(Path(ft.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "freetop.cli", *argv],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    def test_simulate_process_writes_what_main_writes(self, tmp_path, capsys):
        # The process ends through entrypoint, which skips only the
        # interpreter's exit-time collections: every output is complete.
        doc = json.loads(open(spinning_book_scenario(tmp_path)).read())
        doc["outputs"]["trajectory_jsonl"] = "traj.jsonl"
        scenario = write(tmp_path / "all.json", doc)
        assert main(["simulate", scenario, "--output-dir", str(tmp_path / "in")]) == 0
        proc = self.run_module(tmp_path, "simulate", scenario, "--output-dir", "sub")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        names = ["traj.csv", "traj.jsonl", "drift.json", "report.json"]
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()
        # With no outputs the summary goes to stdout.
        del doc["outputs"]
        scenario = write(tmp_path / "none.json", doc)
        assert main(["simulate", scenario]) == 0
        proc = self.run_module(tmp_path, "simulate", scenario)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_simulate_process_keeps_exit_code_and_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["simulate", missing]) == 2
        proc = self.run_module(tmp_path, "simulate", missing)
        assert (proc.returncode, proc.stderr) == (2, capsys.readouterr().err)
        assert proc.stderr == (
            f"error: invalid input: [Errno 2] No such file or directory: '{missing}'\n")
        # The overflowing invariants of TestSimulate.test_overflowing_invariants_exit3;
        # the guard's warning comes first on stderr.
        doc = {"spec_version": "1", "body": {"eigenvalues": [1.0, 2.0]},
               "initial": {"matrix": {"n": 2, "kind": "skew",
                                      "rows": [[0.0, 1e200], [-1e200, 0.0]]}},
               "integrator": {"dt": 0.1, "t_end": 0.1, "guard": "warn"},
               "outputs": {"trajectory_csv": "t.csv"}}
        proc = self.run_module(tmp_path, "simulate", write(tmp_path / "big.json", doc),
                               "--output-dir", "newdir")
        assert proc.returncode == 3
        assert "UserWarning" in proc.stderr
        assert proc.stderr.endswith(
            "\nerror: numerical failure: invariants became non-finite near t = 0\n")
        assert not (tmp_path / "newdir").exists()

    def test_main_leaves_collector_unfrozen(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["simulate", spinning_book_scenario(tmp_path),
                     "--output-dir", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == frozen
