"""Declarative simulation scenarios.

A scenario file bundles the body, an initial momentum (inline matrix or
generator recipe), integrator settings, and the requested output files.
Running one is deterministic given the file plus the effective seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .body import InertiaSpec, Trajectory, _step_count, integrate
from .equilibria import generate
from .linalg import SkewMatrix
from .serialize import (
    SchemaError,
    _check_version,
    _join,
    _number,
    _seed,
    _want,
    body_from_doc,
    matrix_from_doc,
    recipe_from_doc,
)

__all__ = ["Scenario", "scenario_from_doc", "run_scenario"]

OUTPUT_KEYS = ("trajectory_csv", "trajectory_jsonl", "invariants_json", "report_json")


@dataclass
class Scenario:
    """A checked scenario file; initial is the momentum, resolved from the
    recipe when the file gives one."""

    body: InertiaSpec
    initial: SkewMatrix
    dt: float
    t_end: float
    record_every: int = 1
    guard: str = "reject"
    seed: int = 0
    manakov_max_power: int | None = None
    outputs: dict = field(default_factory=dict)


def scenario_from_doc(doc, seed_override: int | None = None) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected a JSON object")
    _check_version(doc, "")
    body = body_from_doc(_want(doc, "body", dict, "", "an object"), "body",
                         require_version=False)

    seed = _seed(doc.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override

    raw_initial = _want(doc, "initial", dict, "", "an object")
    keys = set(raw_initial.keys())
    if keys == {"matrix"}:
        m = matrix_from_doc(raw_initial["matrix"], "initial.matrix", require_version=False)
        if not isinstance(m, SkewMatrix):
            raise SchemaError("initial.matrix.kind", "initial momentum must have kind 'skew'")
        if m.n != body.n:
            raise SchemaError("initial.matrix.n",
                              f"momentum has n = {m.n}, the body has n = {body.n}")
        initial = m
    elif keys == {"recipe"}:
        structure = recipe_from_doc(raw_initial["recipe"], "initial.recipe",
                                    default_seed=seed)
        try:
            initial, _ = generate(structure, body)
        except ValueError as exc:
            raise SchemaError("initial.recipe", str(exc)) from exc
    else:
        raise SchemaError("initial", "expected exactly one of 'matrix' or 'recipe'")

    integ = _want(doc, "integrator", dict, "", "an object")
    dt = _number(_want(integ, "dt", (int, float), "integrator", "a number"), "integrator.dt")
    t_end = _number(_want(integ, "t_end", (int, float), "integrator", "a number"),
                    "integrator.t_end")
    record_every = integ.get("record_every", 1)
    if isinstance(record_every, bool) or not isinstance(record_every, int) or record_every < 1:
        raise SchemaError("integrator.record_every", "expected a positive integer")
    guard = integ.get("guard", "reject")
    if guard not in ("reject", "warn"):
        raise SchemaError("integrator.guard", "expected 'reject' or 'warn'")
    max_power = integ.get("manakov_max_power")
    if max_power is not None:
        if isinstance(max_power, bool) or not isinstance(max_power, int):
            raise SchemaError("integrator.manakov_max_power", "expected an integer")
        if not 2 <= max_power <= body.n:
            raise SchemaError("integrator.manakov_max_power",
                              f"expected an integer from 2 to the dimension {body.n}")
    if dt <= 0:
        raise SchemaError("integrator.dt", "must be positive")
    if t_end <= 0:
        raise SchemaError("integrator.t_end", "must be positive")
    try:
        records = _sample_count(t_end, dt, record_every)
    except ValueError as exc:
        raise SchemaError("integrator", str(exc)) from exc
    if records > sys.maxsize // (8 * body.n * body.n):
        raise SchemaError("integrator", f"{records} samples are more than an array can hold")

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise SchemaError("outputs", "expected an object")
    for key, value in outputs.items():
        if key not in OUTPUT_KEYS:
            raise SchemaError(_join("outputs", key),
                              f"unknown output (known: {', '.join(OUTPUT_KEYS)})")
        if not isinstance(value, str) or not value or "\0" in value:
            raise SchemaError(_join("outputs", key), "expected a file name")

    return Scenario(body=body, initial=initial, dt=dt, t_end=t_end,
                    record_every=record_every, guard=guard, seed=seed,
                    manakov_max_power=max_power, outputs=dict(outputs))


def _sample_count(t_end: float, dt: float, record_every: int) -> int:
    return _step_count(t_end, dt, record_every) // record_every + 1


def run_scenario(sc: Scenario) -> Trajectory:
    """Integrate the scenario. A run whose record arrays do not fit in
    memory is a SchemaError on "integrator"."""
    try:
        return integrate(sc.initial, sc.body, sc.dt, sc.t_end, sc.record_every,
                         manakov_max_power=sc.manakov_max_power, guard=sc.guard)
    except MemoryError as exc:
        samples = _sample_count(sc.t_end, sc.dt, sc.record_every)
        raise SchemaError("integrator", f"{samples} samples do not fit in memory") from exc
