"""Recipe documents written in tests, read with recipe_from_doc, and the
seeded random recipes shared by the randomized suites."""

import numpy as np

import freetop as ft
from freetop.serialize import recipe_from_doc


def recipe_doc(*blocks, fixed_axes=(), seed=None):
    """The recipe document of blocks given as (axes, omega) or
    (axes, omega, source) tuples; source is "standard" (the default),
    "random" or an explicit structure array."""
    entries = []
    for axes, omega, *source in blocks:
        src = source[0] if source else "standard"
        if isinstance(src, np.ndarray):
            src = {"A": src.tolist()}
        entries.append({"omega": float(omega), "axes": [int(a) for a in axes],
                        "structure_source": src})
    doc = {"spec_version": "1", "blocks": entries, "fixed_axes": list(fixed_axes)}
    if seed is not None:
        doc["seed"] = seed
    return doc


def read_recipe(*blocks, fixed_axes=(), seed=None):
    """The structure that the recipe_doc of the same arguments asks for."""
    return recipe_from_doc(recipe_doc(*blocks, fixed_axes=fixed_axes, seed=seed))


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
    """The structure that random_recipe_doc asks for."""
    return recipe_from_doc(random_recipe_doc(n, rng, kind))


def random_recipe_doc(n, rng, kind="mixed"):
    """The recipe document of a random block partition of n axes.

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
        blocks.append((block_axes, omega, source))
    if kind == "exotic" and not exotic_placed:
        raise AssertionError("exotic recipe without a big random block")
    seed = int(rng.integers(0, 2**31))
    return recipe_doc(*blocks, fixed_axes=fixed, seed=seed)
