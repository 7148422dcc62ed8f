"""Print one sha256 per output file of the benchmark's command chains, so
two trees can be compared byte for byte.

    PYTHONPATH=src python tests/outputdigest.py [--seeds 1 2 3] > digests.txt

For each seed it runs, through `freetop.cli.main` in this process:

- the 9 `pipeline` chains of `perfbench/inputs.py` (generate, classify,
  stability --kernel, stability --spectrum), 5 files each;
- the 6 `simulate` scenarios of `perfbench/inputs.py`, 4 files each.

Every line is `<exit codes> <sha256> <file>`, with the file named
relative to its temporary directory, so the output of two trees diffs
cleanly: run it once with each tree's `src` on PYTHONPATH and `diff` the
two files. perfbench/inputs.py is loaded from this checkout without
editing it, as tests/test_perfbench_contract.py loads it; it builds its
inputs through whichever package is on the path. Tier-1 does not
collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import freetop.cli as fcli
import freetop.serialize as fser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PIPELINE_OUTPUTS = ("momentum.json", "structure.json", "classified.json", "kernel.json",
                    "spectrum.json")


def load_inputs():
    """perfbench/inputs.py as the module perfbench_inputs."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses need it registered before it runs
    spec.loader.exec_module(module)
    return module


def pipeline_chain(d: Path) -> list[list[str]]:
    """The argv lists of one pipeline item, as perfbench's Pipeline runs them."""
    body, momentum = str(d / "body.json"), str(d / "momentum.json")
    common = ["--output-dir", str(d)]
    return [
        ["generate", str(d / "recipe.json"), body, *common],
        ["classify", momentum, body, "--out", "classified.json", *common],
        ["stability", momentum, body, "--kernel", "--out", "kernel.json", *common],
        ["stability", momentum, body, "--spectrum", "--out", "spectrum.json", *common],
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def digest_lines(inputs, seed: int, root: Path):
    """(codes, digest, name) of every output file of one seed."""
    for k, item in enumerate(inputs.pipeline_items(seed)):
        d = root / f"s{seed}" / f"p{k}"
        d.mkdir(parents=True)
        fser.write_json(d / "body.json", item.body_doc)
        fser.write_json(d / "recipe.json", item.recipe)
        codes = ",".join(str(fcli.main(argv)) for argv in pipeline_chain(d))
        for name in PIPELINE_OUTPUTS:
            yield codes, sha256(d / name), (d / name).relative_to(root)
    for k, item in enumerate(inputs.simulate_items(seed)):
        d = root / f"s{seed}" / f"sim{k}"
        d.mkdir(parents=True)
        fser.write_json(d / "scenario.json", item.doc)
        code = str(fcli.main(["simulate", str(d / "scenario.json"), "--output-dir", str(d)]))
        for name in inputs.OUTPUT_NAMES.values():
            yield code, sha256(d / name), (d / name).relative_to(root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    inputs = load_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for codes, digest, name in digest_lines(inputs, seed, Path(tmp)):
                print(codes, digest, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
