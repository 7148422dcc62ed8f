"""List the statements of a package that no test runs, with the standard
library alone.

    python tests/linetrace.py [--without FILE ...]

runs the test suite in this process under `trace` (as
`python -m trace --count --missing` would) and prints one line per
statement of `src/freetop` that no test executed, as `path:line: source`;
pytest's report and a count go to stderr. `--without FILE` leaves a test
file out of the run (pytest's `--ignore`), so a listing with and without
it shows which statements only that file reaches. `--package` and
`--tests` point it at another package directory and test directory. Code
that only subprocesses run, such as `cli.entrypoint`, is listed too: the
trace sees this process only. The exit code is pytest's.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import trace
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class _Within:
    """The module filter of trace.Trace, keyed by file: trace's own caches
    its decision by bare module name, so the first `__init__` or `linalg`
    it meets would decide for every module of that name."""

    def __init__(self, package: Path):
        self.prefix = str(package) + os.sep
        self.ignored = {}

    def names(self, filename, modulename):
        if filename not in self.ignored:
            self.ignored[filename] = not filename.startswith(self.prefix)
        return self.ignored[filename]


def unexecuted(package: Path, tests: Path, without=()) -> tuple[int, list[str]]:
    """(pytest exit code, lines "path:line: source") for the statements of the
    .py files under package that the run of tests did not execute."""
    package = package.resolve()
    sys.path.insert(0, str(package.parent))
    # Tests that start a Python subprocess find the package there too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    args = ["-q", "-p", "no:cacheprovider", str(tests)]
    args += [f"--ignore={path}" for path in without]
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _Within(package)
    with redirect_stdout(sys.stderr):  # stdout carries the listing alone
        code = tracer.runfunc(pytest.main, args)
    counts = tracer.results().counts
    listing = []
    with tempfile.TemporaryDirectory() as coverdir:
        # write_results marks each statement that never ran with ">>>>>>".
        trace.CoverageResults(counts=counts).write_results(
            show_missing=True, summary=False, coverdir=coverdir)
        traced = {Path(name) for name, _ in counts}
        for source in sorted(package.rglob("*.py")):
            name = source.relative_to(package.parent).with_suffix("").as_posix()
            shown = source.relative_to(ROOT) if source.is_relative_to(ROOT) else source
            if source not in traced:
                listing.append(f"{shown}: never imported")
                continue
            cover = Path(coverdir, name.replace("/", ".") + ".cover")
            for number, line in enumerate(cover.read_text().splitlines(), 1):
                if line.startswith(">>>>>>"):
                    listing.append(f"{shown}:{number}: {line[7:].strip()}")
    return int(code), listing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--without", action="append", default=[], metavar="FILE",
                        help="a test file to leave out of the run (repeatable)")
    parser.add_argument("--package", type=Path, default=ROOT / "src" / "freetop")
    parser.add_argument("--tests", type=Path, default=ROOT / "tests")
    args = parser.parse_args(argv)
    code, listing = unexecuted(args.package, args.tests, args.without)
    for line in listing:
        print(line)
    print(f"{len(listing)} statements not run", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
