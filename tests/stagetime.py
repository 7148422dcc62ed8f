"""Print where the time of a criterion-2 item or a pipeline chain goes,
stage by stage, in this process.

    python tests/stagetime.py [--seed S] [--passes P] [--cpu C] [--pipeline]

builds 36 criterion-2 items (regular, exotic and mixed recipes of
`tests/recipes.py`, n = 3..8, each on a diagonal and on a rotated body)
and runs each as criterion 2 does: `is_equilibrium`, `integrate` for
10 000 RK4 steps recorded every 500th, `momentum_displacement` and
`classify`. Each stage is timed by a wrapper around its function, so the
figures are in-process milliseconds per pass over the 36 items, each the
least over the passes (the host's slow spells only add time):

- `C loop`: the calls into the shared object of `_kernels`;
- `rk4_momentum wrapper`: the rest of `_kernels.rk4_momentum`;
- `_check_step` and `compute_invariants`, as `integrate` calls them;
- `integrate, rest`: the rest of `integrate` (the three lines above and
  its own code);
- `is_equilibrium`, `momentum_displacement` and `classify`.

It then prints the probe cases of ROADMAP item 15: `instability_probe` at
default settings on a stable regular equilibrium at n = 4, 8 and 16 and
on an escaping one at n = 4 and 8, best of 5.

With `--pipeline` it prints instead the stages of the 9-item chain that
perfbench's `pipeline` workload runs through `cli.main` (generate,
classify, stability --kernel, stability --spectrum), on rotated
`criterion2_body` bodies and `random_recipe_doc` recipes of
`tests/recipes.py`, kinds exotic, mixed and exotic at n = 8, 12 and 16:
`parse_args`, `load_json`, `InertiaSpec`, `recipe_from_doc`, `classify`,
`orbit_kernel`, `linearize`, `dumps_canonical`, the rest of `cli.main`
and the pass, each the least milliseconds per pass. It then prints the
cold cost of `stability._ad_matrix` at n = 16 (the first call after the
pair tables of `linalg` are dropped, least of 20) and its warm cost
(least of 200 calls). `--cpu` pins this process to one CPU. The figures are wall times of one machine; compare shares, or
runs of two trees on one machine, not runs of two machines. Tier-1 does
not collect this file, and it checks no timing.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import freetop as ft  # noqa: E402
import freetop._kernels as fkernels  # noqa: E402
import freetop.body as fbody  # noqa: E402
import freetop.cli as fcli  # noqa: E402
import freetop.linalg as flinalg  # noqa: E402
import freetop.serialize as fser  # noqa: E402
import freetop.stability as fstab  # noqa: E402

from outputdigest import pipeline_chain  # noqa: E402
from recipes import criterion2_body, random_recipe, random_recipe_doc, read_recipe  # noqa: E402

KINDS = ("regular", "exotic", "mixed")


def criterion2_items(seed: int):
    """(body, momentum) of one item per (kind, frame, n), n cycling fastest;
    at n = 3, where no exotic equilibrium exists, exotic falls back to mixed."""
    items = []
    for k, kind in enumerate(KINDS):
        for rotated in (False, True):
            for n in range(3, 9):
                rng = np.random.default_rng((seed, k, int(rotated), n))
                body = criterion2_body(n, rng, rotated)
                use = "mixed" if kind == "exotic" and n < 4 else kind
                momentum, _ = ft.generate(random_recipe(n, rng, kind=use), body)
                items.append((body, momentum))
    return items


class Stages:
    """Seconds per stage label, summed over the calls since the last clear."""

    def __init__(self):
        self.seconds = defaultdict(float)

    def wrap(self, owner, name: str, label: str):
        """Replace owner.name by a timed call that adds to label."""
        fn = getattr(owner, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[label] += time.perf_counter() - t0

        setattr(owner, name, timed)

    def time(self, label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[label] += time.perf_counter() - t0
        return out


def _timed_kernel(stages: Stages):
    """`_kernels._c_kernel` replaced by one that returns the loop, timed."""
    loop = fkernels._c_kernel()

    def timed(*args):
        t0 = time.perf_counter()
        loop(*args)
        stages.seconds["C loop"] += time.perf_counter() - t0

    fkernels._c_kernel = lambda: timed


def stage_table(seed: int, passes: int) -> dict[str, float]:
    """Least milliseconds per pass of each stage over the passes."""
    items = criterion2_items(seed)
    stages = Stages()
    _timed_kernel(stages)
    stages.wrap(fkernels, "rk4_momentum", "rk4_momentum")
    stages.wrap(fbody, "_check_step", "_check_step")
    stages.wrap(fbody, "compute_invariants", "compute_invariants")
    per_pass = defaultdict(list)
    for p in range(passes + 1):  # the first pass warms caches and is dropped
        stages.seconds.clear()
        for body, momentum in items:
            stages.time("is_equilibrium", ft.is_equilibrium, momentum, body, tol=1e-10)
            traj = stages.time("integrate", ft.integrate, momentum, body, dt=1e-3,
                               t_end=10.0, record_every=500, manakov_max_power=2)
            stages.time("momentum_displacement", traj.momentum_displacement)
            stages.time("classify", ft.classify, momentum, body)
        s = stages.seconds
        total = sum(s[k] for k in ("is_equilibrium", "integrate", "momentum_displacement",
                                   "classify"))
        row = {
            "C loop": s["C loop"],
            "rk4_momentum wrapper": s["rk4_momentum"] - s["C loop"],
            "_check_step": s["_check_step"],  # part of "integrate, rest"
            "compute_invariants": s["compute_invariants"],
            "integrate, rest": s["integrate"] - s["rk4_momentum"] - s["compute_invariants"],
            "is_equilibrium": s["is_equilibrium"],
            "momentum_displacement": s["momentum_displacement"],
            "classify": s["classify"],
            "Python (all but the C loop)": total - s["C loop"],
            "pass": total,
        }
        if p:
            for label, value in row.items():
                per_pass[label].append(value)
    return {label: 1e3 * min(v) for label, v in per_pass.items()}


def probe_cases():
    """(label, body, momentum): a rotation in the plane of axes (0, 1) is
    stable, one in the plane of axes (0, n - 1) escapes (eigenvalues 1..n)."""
    for n, last, kind in ((4, 1, "stable"), (8, 1, "stable"), (16, 1, "stable"),
                          (4, 3, "escaping"), (8, 7, "escaping")):
        body = ft.InertiaSpec.from_eigenvalues(1.0 + np.arange(n))
        fixed = [a for a in range(n) if a not in (0, last)]
        momentum, _ = ft.generate(read_recipe(((0, last), 1.0), fixed_axes=fixed), body)
        yield f"n = {n:2d}, {kind}", body, momentum


def probe_table(repeats: int = 5) -> list[tuple[str, float, bool]]:
    """(label, best milliseconds, escaped) of each probe case at default
    settings: eps 1e-6, horizon 100, exit_factor 100, dt 1e-2."""
    rows = []
    for label, body, momentum in probe_cases():
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = ft.instability_probe(momentum, body, eps=1e-6, horizon=100.0,
                                          exit_factor=100.0)
            best = min(best, time.perf_counter() - t0)
        rows.append((label, 1e3 * best, result.escaped))
    return rows


PIPELINE_STAGES = ("parse_args", "load_json", "InertiaSpec", "recipe_from_doc", "classify",
                   "orbit_kernel", "linearize", "dumps_canonical")


def pipeline_chains(seed: int, root: Path) -> list[list[list[str]]]:
    """The argv lists of the 9 chains, their body and recipe files written
    under root; kinds and dimensions as in perfbench's pipeline workload."""
    chains = []
    for v, kind in enumerate(("exotic", "mixed", "exotic")):
        for n in (8, 12, 16):
            rng = np.random.default_rng((seed, 3, v, n))
            d = root / f"p{len(chains)}"
            d.mkdir()
            body = criterion2_body(n, rng, rotated=True)
            fser.write_json(d / "body.json", fser.matrix_to_doc(body.J))
            fser.write_json(d / "recipe.json", random_recipe_doc(n, rng, kind))
            chains.append(pipeline_chain(d))
    return chains


def pipeline_table(seed: int, passes: int) -> dict[str, float]:
    """Least milliseconds per pass of each pipeline stage over the passes."""
    stages = Stages()
    stages.wrap(argparse.ArgumentParser, "parse_args", "parse_args")
    for owner in (fser, fcli):  # read_body and read_matrix call it in serialize
        stages.wrap(owner, "load_json", "load_json")
    stages.wrap(fbody.InertiaSpec, "__init__", "InertiaSpec")
    for name in ("recipe_from_doc", "classify", "orbit_kernel", "linearize"):
        stages.wrap(fcli, name, name)
    stages.wrap(fser, "dumps_canonical", "dumps_canonical")
    per_pass = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        chains = pipeline_chains(seed, Path(tmp))
        for p in range(passes + 1):  # the first pass warms caches and is dropped
            stages.seconds.clear()
            for chain in chains:
                for argv in chain:
                    if stages.time("pass", fcli.main, argv):
                        raise RuntimeError(f"freetop {' '.join(argv)} failed")
            s = stages.seconds
            row = {label: s[label] for label in PIPELINE_STAGES}
            row["cli.main, rest"] = s["pass"] - sum(row.values())
            row["pass"] = s["pass"]
            if p:
                for label, value in row.items():
                    per_pass[label].append(value)
    return {label: 1e3 * min(v) for label, v in per_pass.items()}


def ad_matrix_us(n: int = 16, cold_reps: int = 20, warm_reps: int = 200) -> tuple[float, float]:
    """Least microseconds of one _ad_matrix call at n on a skew matrix: cold,
    right after linalg's pair tables are dropped (where the tree has them),
    and warm."""
    x = np.triu(np.random.default_rng(n).standard_normal((n, n)), 1)
    x = ft.skew(x - x.T)
    table = getattr(flinalg, "_pair_table", None)
    cold = warm = np.inf
    for _ in range(cold_reps):
        if table is not None:
            table.cache_clear()
        t0 = time.perf_counter()
        fstab._ad_matrix(x, n)
        cold = min(cold, time.perf_counter() - t0)
    for _ in range(warm_reps):
        t0 = time.perf_counter()
        fstab._ad_matrix(x, n)
        warm = min(warm, time.perf_counter() - t0)
    return 1e6 * cold, 1e6 * warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to CPU C")
    parser.add_argument("--pipeline", action="store_true",
                        help="time the stages of the 9-item pipeline chain instead")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.pipeline:
        print(f"pipeline chains, seed {args.seed}: least ms per pass of 9 chains "
              f"over {args.passes} passes")
        for label, ms in pipeline_table(args.seed, args.passes).items():
            print(f"  {label:30s} {ms:8.2f}")
        cold, warm = ad_matrix_us()
        print(f"_ad_matrix at n = 16: cold {cold:.1f} us, warm {warm:.1f} us")
        return 0
    print(f"criterion-2 items, seed {args.seed}: least ms per pass of 36 items "
          f"over {args.passes} passes")
    for label, ms in stage_table(args.seed, args.passes).items():
        print(f"  {label:30s} {ms:8.2f}")
    print("instability_probe, default settings: best ms of 5")
    for label, ms, escaped in probe_table():
        print(f"  {label:30s} {ms:8.2f}  {'escaped' if escaped else 'bounded'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
