"""Declarative simulation scenarios.

A scenario file bundles the body, an initial momentum (inline matrix or
generator recipe), integrator settings, and the requested output files.
Running one is deterministic given the file plus the effective seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .body import InertiaSpec, Trajectory, _step_count, integrate
from .equilibria import generate
from .serialize import (
    SchemaError,
    _at,
    _integer,
    _join,
    _need,
    _number,
    _object,
    _seed,
    _want,
    body_from_doc,
    matrix_from_doc,
    momentum_for_body,
    recipe_from_doc,
)

__all__ = ["Scenario", "scenario_from_doc", "run_scenario"]

OUTPUT_KEYS = ("trajectory_csv", "trajectory_jsonl", "invariants_json", "report_json")
INTEGRATOR_KEYS = ("dt", "t_end", "record_every", "guard", "manakov_max_power")


@dataclass
class Scenario:
    """A checked scenario file; initial is the momentum as a read-only skew
    array, resolved from the recipe when the file gives one."""

    body: InertiaSpec
    initial: np.ndarray
    dt: float
    t_end: float
    record_every: int = 1
    guard: str = "reject"
    seed: int = 0
    manakov_max_power: int | None = None
    outputs: dict = field(default_factory=dict)


def scenario_from_doc(doc, seed_override: int | None = None) -> Scenario:
    _object(doc, "", ("spec_version", "seed", "body", "initial", "integrator", "outputs"),
            version=True)
    body = body_from_doc(_need(doc, "body", ""), "body")

    seed = _seed(doc.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override

    raw_initial = _object(_need(doc, "initial", ""), "initial", ("matrix", "recipe"))
    if len(raw_initial) != 1:
        raise SchemaError("initial", "expected exactly one of 'matrix' or 'recipe'")
    if "matrix" in raw_initial:
        m = matrix_from_doc(raw_initial["matrix"], "initial.matrix")
        initial = momentum_for_body(m, body, "initial.matrix")
    else:
        structure = recipe_from_doc(raw_initial["recipe"], "initial.recipe", default_seed=seed)
        with _at("initial.recipe"):
            initial = generate(structure, body)[0].array

    integ = _object(_need(doc, "integrator", ""), "integrator", INTEGRATOR_KEYS)
    dt = _number(_want(integ, "dt", (int, float), "integrator", "a number"), "integrator.dt")
    t_end = _number(_want(integ, "t_end", (int, float), "integrator", "a number"),
                    "integrator.t_end")
    record_every = _integer(integ.get("record_every", 1), "integrator.record_every")
    guard = integ.get("guard", "reject")
    if guard not in ("reject", "warn"):
        raise SchemaError("integrator.guard", "expected 'reject' or 'warn'")
    max_power = integ.get("manakov_max_power")
    if ("manakov_max_power" in integ
            and not 2 <= _integer(max_power, "integrator.manakov_max_power") <= body.n):
        raise SchemaError("integrator.manakov_max_power",
                          f"expected an integer from 2 to the dimension {body.n}")
    with _at("integrator"):
        records = _sample_count(t_end, dt, record_every)
    if records > sys.maxsize // (8 * body.n * body.n):
        raise SchemaError("integrator", f"{records} samples are more than an array can hold")

    outputs = _object(doc.get("outputs", {}), "outputs", OUTPUT_KEYS, noun="output")
    for key, value in outputs.items():
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
