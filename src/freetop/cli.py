"""Command-line front end.

Commands: simulate, classify, generate, stability. Exit codes:
0 success, 2 unreadable or schema-invalid input (including a run with too
many samples to record), 3 numerical abort, 4 momentum is not stationary,
5 classification undecided, 6 the RK4 kernel could not be built or loaded
(simulate and stability --probe only).
Every command is deterministic given its inputs and seed; re-running
overwrites outputs byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._kernels import KernelUnavailable
from .body import IntegrationAbort
from .equilibria import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    AmbiguousClustering,
    NotAnEquilibrium,
    classify,
    generate,
)
from .serialize import (
    SchemaError,
    _at,
    drift_summary_doc,
    dumps_canonical,
    linearization_to_doc,
    load_json,
    matrix_to_doc,
    momentum_for_body,
    orbit_kernel_to_doc,
    probe_to_doc,
    read_body,
    read_matrix,
    recipe_from_doc,
    structure_to_doc,
    write_json,
    write_probe_curve_csv,
    write_trajectory,
)
from .scenario import run_scenario, scenario_from_doc
from .stability import DEFAULT_RANK_TOL, instability_probe, linearize, orbit_kernel

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NOT_EQUILIBRIUM = 4
EXIT_AMBIGUOUS = 5
EXIT_KERNEL = 6

OUTPUT_DIR_ENV = "FREETOP_OUTPUT_DIR"


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freetop",
        description="Free n-dimensional rigid body: simulate, classify and "
                    "probe stationary rotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="integrate a scenario file and export the trajectory")
    p_sim.add_argument("scenario", help="scenario JSON file")

    p_cls = sub.add_parser("classify",
                           help="normal form of a stationary momentum")
    p_cls.add_argument("matrix", help="momentum JSON file (skew rows, any kind)")
    p_cls.add_argument("body", help="inertia JSON file (kind 'sym' or eigenvalue list)")
    p_cls.add_argument("--cluster-tol", type=_positive_arg, default=DEFAULT_CLUSTER_TOL,
                       help="frequency grouping tolerance (default %(default)g)")
    p_cls.add_argument("--out", default=None,
                       help="write the structure JSON here instead of stdout")

    p_gen = sub.add_parser("generate",
                           help="build a stationary momentum from a recipe")
    p_gen.add_argument("recipe", help="recipe JSON file")
    p_gen.add_argument("body", help="inertia JSON file")
    p_gen.add_argument("--out-momentum", default="momentum.json",
                       help="momentum output file (default %(default)s)")
    p_gen.add_argument("--out-structure", default="structure.json",
                       help="structure output file (default %(default)s)")

    p_st = sub.add_parser("stability",
                          help="stability reports for a stationary momentum")
    p_st.add_argument("matrix", help="momentum JSON file (skew rows, any kind)")
    p_st.add_argument("body", help="inertia JSON file")
    mode = p_st.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spectrum", action="store_true",
                      help="spectrum of the linearized flow")
    mode.add_argument("--kernel", action="store_true",
                      help="orbit-direction kernel vs stabilizer report")
    mode.add_argument("--probe", action="store_true",
                      help="perturbation-growth experiment")
    p_st.add_argument("--rank-tol", type=_positive_arg, default=DEFAULT_RANK_TOL,
                      help="relative singular-value cutoff (default %(default)g)")
    p_st.add_argument("--eps", type=_positive_arg, default=1e-6,
                      help="probe perturbation size (default %(default)g)")
    p_st.add_argument("--horizon", type=_positive_arg, default=100.0,
                      help="probe time horizon (default %(default)g)")
    p_st.add_argument("--exit-factor", type=_positive_arg, default=100.0,
                      help="probe escape threshold factor (default %(default)g)")
    p_st.add_argument("--dt", type=_positive_arg, default=1e-2,
                      help="probe integration step (default %(default)g)")
    p_st.add_argument("--out", default=None,
                      help="write the report JSON here instead of stdout")
    p_st.add_argument("--curve-out", default=None,
                      help="write the probe deviation curve CSV here (--probe only)")

    # Each command takes only the shared options it reads.
    for p in (p_cls, p_st):
        p.add_argument("--tol", type=_positive_arg, default=DEFAULT_TOL,
                       help="stationarity residual tolerance (default %(default)g)")
    for p, default, text in (
            (p_sim, None, "replaces the scenario's seed, which seeds its recipe's random "
                          "structures unless the recipe pins a seed (default: the "
                          "scenario's seed, else 0)"),
            (p_gen, 0, "seed for the recipe's random structures unless the recipe pins a "
                       "seed (default 0)"),
            (p_st, 0, "seed for the --probe perturbation (default 0)")):
        p.add_argument("--seed", type=_seed_arg, default=default, help=text)
    for p, handler in ((p_sim, _cmd_simulate), (p_cls, _cmd_classify),
                       (p_gen, _cmd_generate), (p_st, _cmd_stability)):
        p.add_argument("--output-dir", default=None,
                       help=f"directory for output files (default: ${OUTPUT_DIR_ENV} or '.')")
        p.set_defaults(handler=handler)
    return parser


def _output_dir(args) -> Path:
    """--output-dir, which must not be empty, else a non-empty $FREETOP_OUTPUT_DIR, else '.'."""
    if args.output_dir == "":
        raise SchemaError("--output-dir", "expected a directory name")
    return Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")


def _outputs(outdir: Path, names: dict) -> dict:
    """The path of each set name of names (label -> file name or None),
    joined to outdir. An empty name, or a name of the same file (by
    os.path.realpath, so through symbolic links) as an earlier one, is a
    SchemaError on its label. Nothing is made: see _write."""
    paths, seen = {}, {}
    for label, name in names.items():
        if name is None:
            continue
        if not name:
            raise SchemaError(label, "expected a file name")
        paths[label] = outdir / name
        first = seen.setdefault(os.path.realpath(paths[label]), label)
        if first != label:
            raise SchemaError(label, f"names the same file as {first}")
    return paths


def _write(outdir: Path, writer, path, data) -> None:
    """writer(path, data), after making outdir if need be: a run makes its
    output directory only when it writes a file there."""
    outdir.mkdir(parents=True, exist_ok=True)
    writer(path, data)


def _emit(outdir: Path, path, doc) -> None:
    if path is None:
        print(dumps_canonical(doc))
    else:
        _write(outdir, write_json, path, doc)


def _cmd_simulate(args) -> int:
    outdir = _output_dir(args)
    sc = scenario_from_doc(load_json(args.scenario), seed_override=args.seed)
    paths = _outputs(outdir, {f"outputs.{key}": name for key, name in sc.outputs.items()})
    traj = run_scenario(sc)
    csv, jsonl = paths.get("outputs.trajectory_csv"), paths.get("outputs.trajectory_jsonl")
    if csv or jsonl:
        write_trajectory(traj, csv, jsonl, outdir)
    summary = drift_summary_doc(traj)
    if "outputs.invariants_json" in paths:
        _write(outdir, write_json, paths["outputs.invariants_json"], summary)
    if "outputs.report_json" in paths:
        report = {
            "spec_version": summary["spec_version"],
            "n": sc.body.n,
            "integrator": "rk4",
            "dt": traj.step,
            "t_end": summary["t_end"],
            "record_every": traj.record_every,
            "samples": summary["samples"],
            "seed": sc.seed,
            "guard": sc.guard,
            "momentum_displacement": summary["momentum_displacement"],
            "max_drift": summary["max_drift"],
        }
        _write(outdir, write_json, paths["outputs.report_json"], report)
    if not paths:
        print(dumps_canonical(summary))
    return EXIT_OK


def _read_momentum_and_body(args):
    """The momentum and body files, checked against each other by
    momentum_for_body."""
    m = read_matrix(args.matrix)
    body = read_body(args.body)
    return momentum_for_body(m, body), body


def _cmd_classify(args) -> int:
    outdir = _output_dir(args)
    out = _outputs(outdir, {"--out": args.out}).get("--out")
    m, body = _read_momentum_and_body(args)
    structure = classify(m, body, tol=args.tol, cluster_tol=args.cluster_tol)
    _emit(outdir, out, structure_to_doc(structure))
    return EXIT_OK


def _cmd_generate(args) -> int:
    outdir = _output_dir(args)
    paths = _outputs(outdir, {"--out-momentum": args.out_momentum,
                              "--out-structure": args.out_structure})
    body = read_body(args.body)
    structure = recipe_from_doc(load_json(args.recipe), default_seed=args.seed)
    with _at("<root>"):
        momentum, structure = generate(structure, body)
    _write(outdir, write_json, paths["--out-momentum"], matrix_to_doc(momentum))
    _write(outdir, write_json, paths["--out-structure"], structure_to_doc(structure))
    return EXIT_OK


def _cmd_stability(args) -> int:
    if args.curve_out is not None and not args.probe:
        raise SchemaError("--curve-out", "applies to --probe only")
    outdir = _output_dir(args)
    paths = _outputs(outdir, {"--out": args.out, "--curve-out": args.curve_out})
    m, body = _read_momentum_and_body(args)
    if args.spectrum:
        doc = linearization_to_doc(linearize(m, body, tol=args.tol))
    elif args.kernel:
        doc = orbit_kernel_to_doc(orbit_kernel(m, body, rank_tol=args.rank_tol, tol=args.tol))
    else:
        result = instability_probe(m, body, eps=args.eps, horizon=args.horizon,
                                   exit_factor=args.exit_factor, seed=args.seed, dt=args.dt,
                                   tol=args.tol)
        doc = probe_to_doc(result, eps=args.eps, exit_factor=args.exit_factor)
        if "--curve-out" in paths:
            _write(outdir, write_probe_curve_csv, paths["--curve-out"], result)
    _emit(outdir, paths.get("--out"), doc)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NotAnEquilibrium as exc:
        print(f"error: not a stationary rotation: {exc} "
              f"(residual {exc.residual:.6e})", file=sys.stderr)
        return EXIT_NOT_EQUILIBRIUM
    except AmbiguousClustering as exc:
        print(f"error: classification undecided: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except KernelUnavailable as exc:
        print(f"error: RK4 kernel unavailable: {exc}", file=sys.stderr)
        return EXIT_KERNEL
    except (IntegrationAbort, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SchemaError, OSError, ValueError, MemoryError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:  # console script
    code = main()
    gc.freeze()  # outputs are closed: spare exit's collections the imported objects
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
