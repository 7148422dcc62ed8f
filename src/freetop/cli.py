"""Command-line front end.

Commands: simulate, classify, generate, stability. Exit codes:
0 success, 2 unreadable or schema-invalid input (including a run with too
many samples to record), 3 numerical abort, 4 momentum is not stationary,
5 ambiguous frequency clustering.
Every command is deterministic given its inputs and seed; re-running
overwrites outputs byte-identically.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .body import IntegrationAbort
from .equilibria import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    AmbiguousClustering,
    NotAnEquilibrium,
    OddBlock,
    classify,
    generate,
)
from .linalg import SkewMatrix
from .serialize import (
    SchemaError,
    drift_summary_doc,
    dumps_canonical,
    linearization_to_doc,
    load_json,
    matrix_to_doc,
    orbit_kernel_to_doc,
    probe_to_doc,
    read_body,
    read_matrix,
    recipe_from_doc,
    structure_to_doc,
    write_json,
    write_probe_curve_csv,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .scenario import run_scenario, scenario_from_doc
from .stability import (
    instability_probe,
    linearize,
    orbit_kernel,
    stabilizer_dimension,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NOT_EQUILIBRIUM = 4
EXIT_AMBIGUOUS = 5

OUTPUT_DIR_ENV = "FREETOP_OUTPUT_DIR"


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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
    p_cls.add_argument("matrix", help="momentum JSON file (kind 'skew')")
    p_cls.add_argument("body", help="inertia JSON file (kind 'sym' or eigenvalue list)")
    p_cls.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
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
    p_st.add_argument("matrix", help="momentum JSON file (kind 'skew')")
    p_st.add_argument("body", help="inertia JSON file")
    mode = p_st.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spectrum", action="store_true",
                      help="spectrum of the linearized flow")
    mode.add_argument("--kernel", action="store_true",
                      help="orbit-direction kernel vs stabilizer report")
    mode.add_argument("--probe", action="store_true",
                      help="perturbation-growth experiment")
    p_st.add_argument("--rank-tol", type=float, default=1e-8,
                      help="relative singular-value cutoff (default %(default)g)")
    p_st.add_argument("--eps", type=float, default=1e-6,
                      help="probe perturbation size (default %(default)g)")
    p_st.add_argument("--horizon", type=float, default=100.0,
                      help="probe time horizon (default %(default)g)")
    p_st.add_argument("--exit-factor", type=float, default=100.0,
                      help="probe escape threshold factor (default %(default)g)")
    p_st.add_argument("--dt", type=float, default=1e-2,
                      help="probe integration step (default %(default)g)")
    p_st.add_argument("--out", default=None,
                      help="write the report JSON here instead of stdout")
    p_st.add_argument("--curve-out", default=None,
                      help="write the probe deviation curve CSV here (--probe only)")

    # Each command takes only the shared options it reads.
    for p in (p_cls, p_st):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="stationarity residual tolerance (default %(default)g)")
    for p, text in (
            (p_sim, "replaces the scenario's seed, which seeds its recipe's random "
                    "structures unless the recipe pins a seed (default: the scenario's "
                    "seed, else 0)"),
            (p_gen, "seed for the recipe's random structures unless the recipe pins a "
                    "seed (default 0)"),
            (p_st, "seed for the --probe perturbation (default 0)")):
        p.add_argument("--seed", type=_seed_arg, default=None, help=text)
    for p in (p_sim, p_cls, p_gen, p_st):
        p.add_argument("--output-dir", default=None,
                       help=f"directory for output files (default: ${OUTPUT_DIR_ENV} or '.')")
    return parser


def _outdir(args) -> Path:
    raw = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve(outdir: Path, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else outdir / p


def _emit(args, outdir: Path, doc) -> None:
    if getattr(args, "out", None):
        write_json(_resolve(outdir, args.out), doc)
    else:
        print(dumps_canonical(doc))


def _cmd_simulate(args) -> int:
    outdir = _outdir(args)
    sc = scenario_from_doc(load_json(args.scenario), seed_override=args.seed)
    traj = run_scenario(sc)
    outputs = sc.outputs
    if "trajectory_csv" in outputs:
        write_trajectory_csv(_resolve(outdir, outputs["trajectory_csv"]), traj)
    if "trajectory_jsonl" in outputs:
        write_trajectory_jsonl(_resolve(outdir, outputs["trajectory_jsonl"]), traj)
    summary = drift_summary_doc(traj)
    if "invariants_json" in outputs:
        write_json(_resolve(outdir, outputs["invariants_json"]), summary)
    if "report_json" in outputs:
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
        write_json(_resolve(outdir, outputs["report_json"]), report)
    if not outputs:
        print(dumps_canonical(summary))
    return EXIT_OK


def _read_momentum_and_body(args):
    """The momentum and body files, checked against each other: the
    momentum must be skew (any kind) and of the body's dimension."""
    m = read_matrix(args.matrix)
    body = read_body(args.body)
    try:
        m = m if isinstance(m, SkewMatrix) else SkewMatrix(m)
    except ValueError as exc:
        raise SchemaError("rows", f"momentum {exc}") from exc
    if m.n != body.n:
        raise SchemaError("n", f"momentum has n = {m.n}, the body has n = {body.n}")
    return m, body


def _cmd_classify(args) -> int:
    outdir = _outdir(args)
    m, body = _read_momentum_and_body(args)
    structure = classify(m, body, tol=args.tol, cluster_tol=args.cluster_tol)
    _emit(args, outdir, structure_to_doc(structure))
    return EXIT_OK


def _cmd_generate(args) -> int:
    outdir = _outdir(args)
    body = read_body(args.body)
    default_seed = args.seed if args.seed is not None else 0
    structure = recipe_from_doc(load_json(args.recipe), default_seed=default_seed)
    try:
        momentum, structure = generate(structure, body)
    except ValueError as exc:
        raise SchemaError("<root>", str(exc)) from exc
    write_json(_resolve(outdir, args.out_momentum), matrix_to_doc(momentum))
    write_json(_resolve(outdir, args.out_structure), structure_to_doc(structure))
    return EXIT_OK


def _cmd_stability(args) -> int:
    outdir = _outdir(args)
    m, body = _read_momentum_and_body(args)
    if args.spectrum:
        doc = linearization_to_doc(linearize(m, body, tol=args.tol))
    elif args.kernel:
        report = orbit_kernel(m, body, rank_tol=args.rank_tol, tol=args.tol)
        stab = stabilizer_dimension(m, rank_tol=args.rank_tol)
        doc = orbit_kernel_to_doc(report, stabilizer_dim=stab)
    else:
        seed = args.seed if args.seed is not None else 0
        result = instability_probe(m, body, eps=args.eps, horizon=args.horizon,
                                   exit_factor=args.exit_factor, seed=seed, dt=args.dt,
                                   tol=args.tol)
        doc = probe_to_doc(result, eps=args.eps, exit_factor=args.exit_factor)
        if args.curve_out:
            write_probe_curve_csv(_resolve(outdir, args.curve_out), result)
    _emit(args, outdir, doc)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "curve_out", None) and not args.probe:
        parser.error("--curve-out applies to --probe only")
    handlers = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "generate": _cmd_generate,
        "stability": _cmd_stability,
    }
    try:
        return handlers[args.command](args)
    except NotAnEquilibrium as exc:
        print(f"error: not a stationary rotation: {exc} "
              f"(residual {exc.residual:.6e})", file=sys.stderr)
        return EXIT_NOT_EQUILIBRIUM
    except (AmbiguousClustering, OddBlock) as exc:
        print(f"error: classification undecided: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (IntegrationAbort, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SchemaError, FileNotFoundError, IsADirectoryError, PermissionError,
            ValueError, MemoryError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
