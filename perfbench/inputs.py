"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and on numpy, never on the test
suite's helpers, so refactoring the tests cannot change a workload. The
package is used only to realise and validate what is generated
(InertiaSpec, generate, the document writers): that work is the set-up
the workloads report as ``setup_s``.

Item orders are fixed by design and only the numbers inside them come
from the seed. Each workload cycles through a short list of item shapes
in a fixed order, so every seed produces the same mix of dimensions and
the aggregate rates and percentiles do not depend on which shapes a seed
happened to favour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import freetop.body as fbody
import freetop.equilibria as feq
import freetop.linalg as flinalg
import freetop.serialize as fser

# Rotation rates are drawn from this grid without replacement, then
# jittered by less than half a grid step: distinct rates are then at least
# 3% apart, far outside the classifier's 1e-6 clustering tolerance.
_RATE_GRID = np.linspace(0.5, 3.0, 26)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def _moments(n: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending inertia moments in [1, 1 + 0.6 n] with gaps of at least 0.1."""
    return 1.0 + np.cumsum(0.1 + 0.5 * rng.random(n))


def _orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def inertia_matrix(n: int, rng: np.random.Generator, rotated: bool) -> np.ndarray:
    """Symmetric inertia with distinct moments; diagonal or in a random frame."""
    lam = _moments(n, rng)
    if not rotated:
        return np.diag(lam)
    q = _orthogonal(n, rng)
    j = q @ np.diag(lam) @ q.T
    return 0.5 * (j + j.T)


def _rates(count: int, rng: np.random.Generator) -> list[float]:
    picks = rng.choice(_RATE_GRID.size, size=count, replace=False)
    jitter = rng.uniform(-0.04, 0.04, size=count)
    return [float(_RATE_GRID[p] + d) for p, d in zip(picks, jitter)]


def recipe_doc(n: int, kind: str, rng: np.random.Generator) -> dict:
    """A recipe document for a stationary rotation of the given kind.

    kind "regular": pair blocks with standard structures.
    kind "exotic": one block of four or six axes with a random structure,
    the rest pairs; needs n >= 4.
    kind "mixed": pairs and four-blocks, each four-block random or standard.
    Some axes may stay fixed (not for "exotic" at n = 4, where all four
    axes form the exotic block).
    """
    if kind == "exotic" and n < 4:
        raise ValueError("exotic recipes need n >= 4")
    axes = [int(a) for a in rng.permutation(n)]
    sizes: list[int] = []
    left = n
    if kind == "exotic":
        big = 6 if n >= 8 and rng.random() < 0.5 else 4
        sizes.append(big)
        left -= big
    while left >= 2:
        if kind == "mixed" and left >= 4 and rng.random() < 0.4:
            size = 4
        else:
            size = 2
        sizes.append(size)
        left -= size
        if left >= 2 and rng.random() < 0.15:
            break  # leave the remaining axes fixed
    rates = _rates(len(sizes), rng)
    blocks = []
    start = 0
    for k, (size, omega) in enumerate(zip(sizes, rates)):
        block_axes = sorted(axes[start:start + size])
        start += size
        if size == 2 or kind == "regular":
            source = "standard"
        elif kind == "exotic" and k == 0:
            source = "random"
        else:
            source = "random" if rng.random() < 0.5 else "standard"
        blocks.append({"omega": omega, "axes": block_axes, "structure_source": source})
    return {
        "spec_version": fser.SPEC_VERSION,
        "blocks": blocks,
        "fixed_axes": sorted(axes[start:]),
        "seed": int(rng.integers(0, 2**31)),
    }


# -- soundness ---------------------------------------------------------------

SOUNDNESS_DIMS = (3, 4, 5, 6, 7, 8)
SOUNDNESS_KINDS = ("regular", "exotic", "mixed")


@dataclass
class SoundnessItem:
    n: int
    kind: str
    rotated: bool
    body: fbody.InertiaSpec
    momentum: object
    structure: feq.EquilibriumStructure


def soundness_items(seed: int) -> list[SoundnessItem]:
    """One item per (kind, frame, n): 36 equilibria, n cycling fastest.

    Half the bodies are diagonal and half rotated. At n = 3 no exotic
    equilibrium exists, so the exotic slot falls back to a mixed recipe.
    """
    items = []
    for k, kind in enumerate(SOUNDNESS_KINDS):
        for rotated in (False, True):
            for n in SOUNDNESS_DIMS:
                rng = _rng(seed, 1, k, int(rotated), n)
                use = "mixed" if kind == "exotic" and n < 4 else kind
                body = fbody.InertiaSpec(inertia_matrix(n, rng, rotated))
                recipe = fser.recipe_from_doc(recipe_doc(n, use, rng))
                momentum, structure = feq.generate(recipe, body)
                items.append(SoundnessItem(n, use, rotated, body, momentum, structure))
    return items


# -- simulate ----------------------------------------------------------------

# (n, record_every, steps): 500 recorded steps plus the initial sample in
# every scenario, so each item writes 501 samples in all four outputs.
SIMULATE_SHAPES = ((4, 2, 1000), (6, 5, 2500), (8, 10, 5000))
SIMULATE_VARIANTS = 2
SIMULATE_DT = 1e-3

OUTPUT_NAMES = {
    "trajectory_csv": "trajectory.csv",
    "trajectory_jsonl": "trajectory.jsonl",
    "invariants_json": "invariants.json",
    "report_json": "report.json",
}


@dataclass
class SimulateItem:
    n: int
    record_every: int
    steps: int
    doc: dict
    initial: np.ndarray

    @property
    def samples(self) -> int:
        return self.steps // self.record_every + 1


def simulate_items(seed: int) -> list[SimulateItem]:
    """Six scenarios on diagonal bodies, n cycling 4, 6, 8.

    The initial momentum is a random skew matrix of Frobenius norm 2, not
    an equilibrium, so the flow moves and every invariant is exercised.
    """
    items = []
    for v in range(SIMULATE_VARIANTS):
        for n, every, steps in SIMULATE_SHAPES:
            rng = _rng(seed, 2, v, n)
            lam = _moments(n, rng)
            m = np.triu(rng.standard_normal((n, n)), 1)
            m = m - m.T
            m *= 2.0 / np.linalg.norm(m)
            initial = flinalg.SkewMatrix(m)
            doc = {
                "spec_version": fser.SPEC_VERSION,
                "body": {"eigenvalues": lam.tolist()},
                "initial": {"matrix": fser.matrix_to_doc(initial)},
                "integrator": {"dt": SIMULATE_DT, "t_end": round(steps * SIMULATE_DT, 9),
                               "record_every": every},
                "seed": int(seed),
                "outputs": dict(OUTPUT_NAMES),
            }
            items.append(SimulateItem(n, every, steps, doc, initial.array.copy()))
    return items


# -- pipeline ----------------------------------------------------------------

PIPELINE_DIMS = (8, 12, 16)
PIPELINE_KINDS = ("exotic", "mixed", "exotic")


@dataclass
class PipelineItem:
    n: int
    kind: str
    body_doc: dict
    recipe: dict
    structure: feq.EquilibriumStructure


def pipeline_items(seed: int) -> list[PipelineItem]:
    """Nine (body, recipe) pairs on rotated sym bodies, n cycling 8, 12, 16.

    The expected structure of each is generated once here through the
    package, so the chain's classify output can be checked against it.
    """
    items = []
    for v, kind in enumerate(PIPELINE_KINDS):
        for n in PIPELINE_DIMS:
            rng = _rng(seed, 3, v, n)
            j = inertia_matrix(n, rng, rotated=True)
            body = fbody.InertiaSpec(j)
            recipe = recipe_doc(n, kind, rng)
            _, structure = feq.generate(fser.recipe_from_doc(recipe), body)
            items.append(PipelineItem(n, kind, fser.matrix_to_doc(body.J), recipe,
                                      structure))
    return items
