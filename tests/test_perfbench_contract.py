"""What the benchmark in perfbench/ uses of the package.

perfbench builds its inputs through the package and wraps package
functions by name, so a change that renames such a function or refuses
one of its inputs breaks the benchmark, not this suite. These tests load
perfbench/inputs.py, perfbench/tracing.py and perfbench/workloads.py from
the checkout and check those uses.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import freetop as ft
from freetop.scenario import scenario_from_doc
from freetop.serialize import body_from_doc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module perfbench_<name>; dataclasses need
    it registered before it runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def inputs():
    return _load("inputs")


@pytest.fixture(scope="module")
def workloads(inputs):
    """perfbench/workloads.py, which imports inputs and tracing by their
    plain names (perfbench/run.py puts perfbench/ on the path)."""
    sys.modules.update(inputs=inputs, tracing=_load("tracing"))
    try:
        return _load("workloads")
    finally:
        del sys.modules["inputs"], sys.modules["tracing"]


def test_soundness_items_build(inputs):
    items = inputs.soundness_items(1)
    assert len(items) == 36
    for item in items:
        assert ft.is_equilibrium(item.momentum, item.body, 1e-10)[0]


def test_simulate_items_build(inputs):
    items = inputs.simulate_items(1)
    assert len(items) == 6
    for item in items:
        sc = scenario_from_doc(item.doc)
        assert sc.body.n == item.n
        assert sorted(sc.outputs) == sorted(inputs.OUTPUT_NAMES)
        # matrix_to_doc names the kind the entries satisfy; these are skew.
        assert item.doc["initial"]["matrix"]["kind"] == "skew"


def test_pipeline_items_build(inputs):
    items = inputs.pipeline_items(1)
    assert [item.n for item in items] == list(inputs.PIPELINE_DIMS) * 3
    for item in items:
        assert item.structure.n == item.n
        assert body_from_doc(item.body_doc).n == item.n


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for modname, funcs in tracing.TRACED.items():
        module = importlib.import_module(modname)
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{modname}.{func}"


def test_body_runs_the_traced_eigensolver():
    # The eigen_symmetric layer is traced where InertiaSpec looks it up.
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0])
    finally:
        tracing.uninstall(patches)
    assert [span[tracing.NAME] for span in tracer.spans] == [
        "body.InertiaSpec", "linalg.eigen_symmetric"]


def test_perturbed_soundness_items_are_refused(workloads, tmp_path):
    # --inject perturb reads every other generated momentum's .array and
    # builds a SkewMatrix a little off it, which is_equilibrium must refuse.
    bench = workloads.Soundness(1, tmp_path, quick=True, inject="perturb")
    for i, item in enumerate(bench.items):
        assert ft.is_equilibrium(item.momentum, item.body, 1e-10)[0] == (i % 2 == 0), i
    assert bench.run(0)[1] is None
    assert bench.run(1)[1].startswith("not stationary")


def test_backend_reads_the_kernel_module(workloads):
    # backend() reads freetop._kernels.rk4_momentum_numba.
    assert isinstance(workloads.backend(), str)
