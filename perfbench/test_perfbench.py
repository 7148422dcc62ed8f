"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``. Each
workload runs once at its smallest size (``--quick``); the tests check the
output contract, that failures are counted instead of crashing the run,
and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    assert lines[-2].startswith("record: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record: "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result, record = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert record["provenance"]["backend"] in ("numpy", "numba")
    assert record["failed_frac"] == 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert record["wall_items_per_s"] > 0 and record["setup_wall_samples_s"]


def test_soundness_counts_a_perturbed_momentum_as_failed():
    proc = bench("--workload", "soundness", "--trace", "0", "--quick", "--inject", "perturb")
    assert proc.returncode == 1, proc.stderr
    result, record = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert record["failed_frac"] == result["failed"] / result["attempted"]
    assert all(err.startswith("not stationary") for err in record["errors"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "soundness", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_per_layer_spec_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_spec()


def test_yardstick_scales_to_its_nominal_time():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(nominal, nominal) == 1.0
    assert hostspeed.scale(nominal, 3 * nominal) == 0.5
    assert hostspeed.reference_s() > 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.item = 0
    root = tracer.open(tracing.ITEM_SPAN)
    outer = tracer.open("cli.main")
    inner = tracer.open("serialize.read_body")
    tracer.close(inner)
    tracer.close(outer, failed=True)
    tracer.close(root)
    spans = tracer.spans
    spans[root][1:3] = [0.0, 10.0]
    spans[outer][1:3] = [1.0, 9.0]
    spans[inner][1:3] = [2.0, 5.0]
    out = tracing.aggregate(spans, passes=2)
    assert out["cli.main.busy_s"] == 4.0
    assert out["cli.main.self_s"] == 2.5
    assert out["cli.main.failed"] == 0.5
    assert out["serialize.read_body.self_s"] == 1.5
    assert out["bench.item.busy_s"] == 5.0
