"""Run one ``freetop.cli`` command with every layer traced.

Usage: python perfbench/tracechild.py SPANS_OUT COMMAND [ARGS...]

Installs the wrappers of tracing.py before ``freetop.cli.main`` runs, then
writes the recorded spans to SPANS_OUT as JSON and exits with the
command's exit code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import freetop.cli

    code = freetop.cli.main(argv)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
