"""The three benchmark workloads: set-up, one item, and the item's checks.

Each workload is a closed loop with one client: the worker runs item
``i`` only after item ``i - 1`` finished, cycling through a fixed pool of
generated inputs. ``run(i)`` returns ``(seconds, error)``: the wall time
of the program's work for the item, and ``None`` or the first check that
failed. Checks run after the timed part, so item latency measures the
program only.

Why these three (see README.md for the layer map):

- soundness: acceptance criterion 2 as library calls. Step-heavy, almost
  all of it in the RK4 kernel, and it records only 21 samples per 10 000
  steps, so it is the no-change control for invariants and writers.
- simulate: ``python -m freetop.cli simulate`` as a subprocess, interpreter
  start and import included. Record-heavy: per-sample invariants and the
  CSV and JSON-lines writers cost as much as the kernel.
- pipeline: generate -> classify -> stability --kernel -> --spectrum
  through ``freetop.cli.main`` in-process. No RK4 at all; Jacobi, the
  stability operators and the JSON writer carry it, so it is the
  no-change control for kernel work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import freetop._kernels as fkernels
import freetop.body as fbody
import freetop.cli as fcli
import freetop.equilibria as feq
import freetop.linalg as flinalg
import freetop.scenario as fscenario
import freetop.serialize as fser

import inputs
import tracing

HERE = Path(__file__).resolve().parent


def warm_kernel() -> None:
    """One tiny kernel call: a numba compile or cache load, when numba is present."""
    m = np.zeros((3, 3))
    m[0, 1], m[1, 0] = 1.0, -1.0
    pair = np.add.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    fkernels.rk4_momentum(m, pair, 1e-3, 10, 10)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    """A pool of generated items; ``tracer`` is set while a traced item runs."""

    name = ""
    dims: tuple = ()
    tracer = None
    items: list

    @property
    def pool(self) -> int:
        return len(self.items)

    def work(self, count: int) -> dict:
        """RK4 steps and recorded samples done by the first ``count`` items."""
        return {}


class Soundness(Workload):
    """is_equilibrium -> integrate (10 000 steps) -> displacement -> classify."""

    name = "soundness"
    dims = inputs.SOUNDNESS_DIMS

    def __init__(self, seed: int, workdir: Path, quick: bool = False,
                 inject: str | None = None):
        self.items = inputs.soundness_items(seed)
        self.t_end = 1.0 if quick else 10.0
        self.steps = int(round(self.t_end / 1e-3))
        if inject == "perturb":
            # Every other item starts a little off its equilibrium, which
            # the stationarity check must catch.
            rng = np.random.default_rng(seed)
            for item in self.items[1::2]:
                d = np.triu(rng.standard_normal((item.n, item.n)), 1)
                d = (d - d.T) / np.linalg.norm(d - d.T)
                m = item.momentum.array
                item.momentum = flinalg.SkewMatrix(m + 1e-6 * np.linalg.norm(m) * d)

    def work(self, count: int) -> dict:
        return {"rk4_steps": count * self.steps, "samples": count * (self.steps // 500 + 1)}

    def run(self, i: int):
        item = self.items[i % len(self.items)]
        t0 = time.perf_counter()
        ok, residual = feq.is_equilibrium(item.momentum, item.body, tol=1e-10)
        if not ok:
            return time.perf_counter() - t0, f"not stationary: residual {residual:.3e}"
        traj = fbody.integrate(item.momentum, item.body, dt=1e-3, t_end=self.t_end,
                               record_every=500, manakov_max_power=2)
        displacement = traj.momentum_displacement()
        got = feq.classify(item.momentum, item.body)
        elapsed = time.perf_counter() - t0
        if not displacement <= 1e-8:
            return elapsed, f"displacement {displacement:.3e} above 1e-8"
        if not got.matches(item.structure):
            return elapsed, f"classify round trip failed (n={item.n}, {item.kind})"
        return elapsed, None


class Simulate(Workload):
    """``python -m freetop.cli simulate scenario.json`` with all four outputs."""

    name = "simulate"
    dims = tuple(n for n, _, _ in inputs.SIMULATE_SHAPES)

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.workdir = workdir
        self.items = inputs.simulate_items(seed)
        if quick:
            for item in self.items:
                item.steps //= 10
                item.doc["integrator"]["t_end"] = round(item.steps * inputs.SIMULATE_DT, 9)
        self.scenarios = []
        for k, item in enumerate(self.items):
            path = workdir / f"scenario{k}.json"
            fser.write_json(path, item.doc)
            fscenario.scenario_from_doc(fser.load_json(path))  # validates the file and body
            self.scenarios.append(path)
        self.digests: dict[int, str] = {}

    def work(self, count: int) -> dict:
        per = [(it.steps, it.samples) for it in self.items]
        steps = sum(per[i % len(per)][0] for i in range(count))
        samples = sum(per[i % len(per)][1] for i in range(count))
        return {"rk4_steps": steps, "samples": samples}

    def run(self, i: int):
        k = i % len(self.items)
        item = self.items[k]
        outdir = self.workdir / f"out{k}"
        outputs = [outdir / name for name in inputs.OUTPUT_NAMES.values()]
        for p in outputs:
            p.unlink(missing_ok=True)
        argv = ["simulate", str(self.scenarios[k]), "--output-dir", str(outdir)]
        spans_path = outdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "freetop.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracechild.py"), str(spans_path), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, "simulate timed out after 120 s"
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return elapsed, f"simulate exited {proc.returncode}: {tail}"
        if self.tracer is not None:
            self.tracer.adopt(json.loads(spans_path.read_text()))
        return elapsed, self._check(k, item, outputs)

    def _check(self, k, item, outputs):
        csv_path, jsonl_path, inv_path, report_path = outputs
        missing = [p.name for p in outputs if not p.is_file()]
        if missing:
            return f"missing outputs {missing}"
        n = item.n
        lines = csv_path.read_text().splitlines()
        if len(lines) != item.samples + 1:
            return f"csv has {len(lines) - 1} rows, expected {item.samples}"
        ncols = 1 + n * (n - 1) // 2 + 1 + n // 2 + sum(p + 1 for p in range(2, min(n, 4) + 1))
        if len(lines[0].split(",")) != ncols:
            return f"csv header has {len(lines[0].split(','))} columns, expected {ncols}"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        if len(first) != ncols or len(last) != ncols or not all(map(math.isfinite, last)):
            return "csv rows malformed"
        upper = item.initial[np.triu_indices(n, 1)]
        if first[0] != 0.0 or not np.allclose(first[1:1 + upper.size], upper,
                                               rtol=1e-12, atol=1e-15):
            return "csv first row is not the initial momentum"
        with jsonl_path.open() as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != item.samples or records[-1]["t"] != last[0]:
            return "jsonl does not mirror the csv"
        inv = json.loads(inv_path.read_text())
        report = json.loads(report_path.read_text())
        if inv["samples"] != item.samples or report["samples"] != item.samples:
            return "sample counts disagree"
        if report["n"] != n or report["record_every"] != item.record_every:
            return "report does not describe the scenario"
        if not inv["max_drift"] <= 1e-8:
            return f"invariant drift {inv['max_drift']:.3e} above 1e-8"
        digest = _digest(outputs)
        if self.digests.setdefault(k, digest) != digest:
            return "outputs differ from an earlier run of the same scenario"
        return None


class Pipeline(Workload):
    """generate -> classify -> stability --kernel -> stability --spectrum via cli.main."""

    name = "pipeline"
    dims = inputs.PIPELINE_DIMS
    OUTPUTS = ("momentum.json", "structure.json", "classified.json", "kernel.json",
               "spectrum.json")

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.items = inputs.pipeline_items(seed)
        self.dirs = []
        for k, item in enumerate(self.items):
            d = workdir / f"p{k}"
            d.mkdir()
            fser.write_json(d / "body.json", item.body_doc)
            fser.write_json(d / "recipe.json", item.recipe)
            self.dirs.append(d)
        self.digests: dict[int, str] = {}

    def run(self, i: int):
        k = i % len(self.items)
        item = self.items[k]
        d = self.dirs[k]
        body, momentum = str(d / "body.json"), str(d / "momentum.json")
        common = ["--output-dir", str(d)]
        chain = [
            ["generate", str(d / "recipe.json"), body, *common],
            ["classify", momentum, body, "--out", "classified.json", *common],
            ["stability", momentum, body, "--kernel", "--out", "kernel.json", *common],
            ["stability", momentum, body, "--spectrum", "--out", "spectrum.json", *common],
        ]
        for name in self.OUTPUTS:
            (d / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        codes = [fcli.main(argv) for argv in chain]
        elapsed = time.perf_counter() - t0
        if any(codes):
            return elapsed, f"exit codes {codes} (n={item.n})"
        return elapsed, self._check(k, item, d)

    def _check(self, k, item, d):
        docs = {name: json.loads((d / name).read_text()) for name in self.OUTPUTS}
        generated = fser.structure_from_doc(docs["structure.json"])
        classified = fser.structure_from_doc(docs["classified.json"])
        if not (generated.matches(item.structure) and classified.matches(item.structure)):
            return f"structure round trip failed (n={item.n}, {item.kind})"
        # A repeated rotation rate (a block of four or more axes) is what
        # makes an equilibrium non-isolated on its orbit.
        excess = docs["kernel.json"]["excess_kernel_dim"]
        repeated = any(len(b.axes) >= 4 for b in item.structure.blocks)
        if (excess > 0) != repeated:
            return f"excess kernel dimension {excess} with repeated rates: {repeated}"
        dim = item.n * (item.n - 1) // 2
        spec = docs["spectrum.json"]
        if spec["dim"] != dim or len(spec["spectrum"]) != dim or len(spec["matrix"]) != dim:
            return "spectrum report has the wrong dimension"
        digest = _digest(d / name for name in self.OUTPUTS)
        if self.digests.setdefault(k, digest) != digest:
            return "outputs differ from an earlier run of the same inputs"
        return None


WORKLOADS = {cls.name: cls for cls in (Soundness, Simulate, Pipeline)}


def kernel_us_per_step(dims=tracing.KERNEL_DIMS, steps: int = 2000, reps: int = 3) -> dict:
    """Median microseconds per RK4 step for each n, on a fixed random momentum."""
    rng = np.random.default_rng(0)
    out = {}
    for n in dims:
        lam = 1.0 + np.arange(n) * 0.5
        m = np.triu(rng.standard_normal((n, n)), 1)
        m = m - m.T
        pair = np.add.outer(lam, lam)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fkernels.rk4_momentum(m, pair, 1e-3, steps, 500)
            times.append(time.perf_counter() - t0)
        out[n] = float(np.median(times)) / steps * 1e6
    return out


def startup_s(reps: int = 5) -> float:
    """Median wall time of ``python -c "import freetop"`` minus that of ``python -c pass``."""
    bare, full = [], []
    for _ in range(reps):
        for code, sink in (("pass", bare), ("import freetop", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            sink.append(time.perf_counter() - t0)
    return float(np.median(full) - np.median(bare))


def backend() -> str:
    return "numba" if fkernels.rk4_momentum_numba is not None else "numpy"


def provenance(workload) -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "backend": backend(),
        "n_range": [min(workload.dims), max(workload.dims)],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NUMBA_NUM_THREADS")},
    }
