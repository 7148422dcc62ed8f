"""Seeded random recipes and complex structures shared by the randomized suites."""

import numpy as np

import freetop as ft
from freetop.equilibria import _structure_from_rng


def random_complex_structure(m, seed):
    """Seeded draw from the orthogonal conjugation orbit of the standard
    structure (uniform over the space of compatible complex structures)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _structure_from_rng(np.random.default_rng(seed), m)


def recipe_to_doc(r):
    """The recipe document that recipe_from_doc reads back as r."""
    blocks = []
    for b in r.blocks:
        src = b.structure_source
        entry = {"omega": b.omega, "axes": list(b.axes)}
        if isinstance(src, ft.ComplexStructure):
            entry["structure_source"] = {"A": src.A.array.tolist()}
        else:
            entry["structure_source"] = src
        blocks.append(entry)
    doc = {"spec_version": "1", "blocks": blocks, "fixed_axes": list(r.fixed_axes)}
    if r.seed is not None:
        doc["seed"] = r.seed
    return doc


def spaced_rates(count, rng, lo=0.5, hi=3.0, min_rel_gap=0.02):
    """Distinct positive rates with a guaranteed relative separation."""
    while True:
        vals = np.sort(rng.uniform(lo, hi, size=count))[::-1]
        if count < 2:
            return vals
        gaps = (vals[:-1] - vals[1:]) / vals[:-1]
        if gaps.min() > min_rel_gap:
            return vals


def random_recipe(n, rng, kind="mixed"):
    """Random block partition of n axes.

    kind="regular": every block is a standard pair. kind="exotic": at
    least one block of four or more axes with a random structure.
    kind="mixed": anything goes.
    """
    axes = list(rng.permutation(n))
    blocks_axes = []
    want_big = kind == "exotic"
    while len(axes) >= 2:
        if want_big and len(axes) >= 4:
            size = 4 if len(axes) < 6 or rng.random() < 0.7 else 6
            want_big = False
        elif kind == "regular":
            size = 2
        else:
            choices = [s for s in (2, 4) if s <= len(axes)]
            size = int(rng.choice(choices))
        blocks_axes.append([int(a) for a in axes[:size]])
        axes = axes[size:]
        if kind != "exotic" and rng.random() < 0.25:
            break  # leave the rest fixed
    fixed = [int(a) for a in axes]
    omegas = spaced_rates(len(blocks_axes), rng)
    blocks = []
    exotic_placed = False
    for block_axes, omega in zip(blocks_axes, omegas):
        if len(block_axes) == 2:
            source = "standard"
        elif kind == "regular":
            source = "standard"
        elif kind == "exotic":
            source = "random"
            exotic_placed = True
        else:
            source = "random" if rng.random() < 0.5 else "standard"
            exotic_placed = exotic_placed or source == "random"
        blocks.append(ft.RecipeBlock(axes=tuple(block_axes), omega=float(omega),
                                     structure_source=source))
    if kind == "exotic" and not exotic_placed:
        raise AssertionError("exotic recipe without a big random block")
    seed = int(rng.integers(0, 2**31))
    return ft.GeneratorRecipe(blocks=tuple(blocks), fixed_axes=tuple(fixed), seed=seed)
