"""freetop benchmark: one measured run of one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {soundness,simulate,pipeline} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it reports the per-layer metrics from a traced run. The
last line of standard output is the result object; the line before it is
the full record (provenance, item counts, failure reasons). The exit code
is 0 only when every item passed its checks.

The program runs in a worker process with PYTHONPATH=src and the BLAS,
OpenMP and numba thread counts pinned to 1, on one pinned CPU. Timed
metrics are scaled to a nominal host speed by a reference loop timed
around each piece of work (hostspeed.py). Nothing needs building: the
package runs from source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib-only at import time)

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_PINS:  # before numpy loads, for the yardstick loop
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

WORKLOADS = ("soundness", "simulate", "pipeline")
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 9  # set-up-only workers, each timed between two yardstick loops
READY = "@@perfbench-ready"
DEADLINE_S = 170.0


class Failure(Exception):
    """The run cannot produce a result."""


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_PINS:
        env[var] = "1"
    return env


class Worker:
    """One worker process; ``ready_s`` is the wall time from spawn to its
    ready marker, which is the workload's set-up time."""

    def __init__(self, argv: list[str], env: dict, root: Path, deadline: float):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     stdout=subprocess.PIPE, text=True, env=env, cwd=root)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self._timer.start()
        for line in self.proc.stdout:
            if line.strip() == READY:
                self.ready_s = time.perf_counter() - t0
                break
        else:
            self.finish()
            raise Failure(f"worker ended during set-up (exit {self.proc.returncode})")

    def finish(self) -> list[str]:
        """Remaining output lines, once the worker has exited."""
        lines = self.proc.stdout.read().splitlines()
        self.proc.wait()
        self._timer.cancel()
        self.proc.stdout.close()
        return lines

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._timer.cancel()


def measure(args, root: Path, workdir: Path) -> dict:
    hostspeed.pin_one_cpu()
    env = program_env(root)
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        base.append("--quick")
    if args.inject:
        base += ["--inject", args.inject]
    # Set-up is timed on probes that exit at the ready marker, so the
    # yardstick loop after each runs on an idle CPU; the measured worker
    # starts its loop at once. A traced run reports no set-up time.
    setups, walls = [], []
    ref = hostspeed.reference_s()
    for k in range(0 if args.trace else 1 if args.quick else SETUP_PROBES):
        w = Worker([*base, "--workdir", str(workdir / f"probe{k}"), "--setup-only"],
                   env, root, deadline)
        w.finish()
        if w.proc.returncode != 0:
            raise Failure(f"set-up probe exited {w.proc.returncode}")
        ref_next = hostspeed.reference_s()
        walls.append(w.ready_s)
        setups.append(w.ready_s * hostspeed.scale(ref, ref_next))
        ref = ref_next
    worker = Worker([*base, "--workdir", str(workdir / "main")], env, root, deadline)
    try:
        lines = worker.finish()
    finally:
        worker.kill()
    if worker.proc.returncode != 0 or not lines:
        raise Failure(f"worker exited {worker.proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["detail"]["setup_samples_s"] = setups
    result["detail"]["setup_wall_samples_s"] = walls
    if setups:
        result["setup_s"] = statistics.median(setups)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes and one set-up probe (self-test only)")
    parser.add_argument("--inject", choices=("perturb",), default=None,
                        help="soundness only: start every other item off equilibrium")
    args = parser.parse_args()
    if args.inject and args.workload != "soundness":
        parser.error("--inject applies to the soundness workload only")

    root = Path.cwd()
    if not (root / "src" / "freetop" / "__init__.py").is_file():
        print("error: run from the root of a freetop checkout (src/freetop not found)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        result = measure(args, root, workdir)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        values = result["metrics"]
    else:
        units = dict(END_TO_END)
        values = dict(result["metrics"], setup_s=result["setup_s"])
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = result["failed"] == 0
    record = dict(result["detail"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, errors=result["errors"])
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
