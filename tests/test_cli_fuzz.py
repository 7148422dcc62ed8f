"""Derandomized fuzzing of the CLI readers.

`freetop classify` reads the matrix and body documents, `freetop generate`
the recipe and `freetop simulate` the scenario. Documents are mostly
well-formed (a skew momentum, a symmetric or eigenvalue-list body, a block
recipe, a short integration) with values over the whole double range, and
then broken in a few places: a field dropped or given a wrong type, an entry
replaced, a row cut short, an oversized integer. Every outcome must be one
of the documented exit codes, and an exit-2 message must name the field.
Pairs of output names, in several forms of one file or of two, must exit 2
exactly when they are empty or name one file.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from freetop.cli import main

# An integer literal with more digits than Python's int() parses by default.
HUGE_LITERAL = "9" * 5000
_HUGE = "@huge@"

FIELD_PATH = re.compile(
    r"error: invalid input: (<root>|spec_version|n|kind|rows(\[\d+\]){0,2}|eigenvalues(\[\d+\])?): ")

magnitudes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 1.0, 1e200, 1e308,
                     1.7976931348623157e308]),
    st.floats(min_value=1e-320, max_value=1e308),
)
# Half the documents draw their values from a moderate range, so that the
# numerical exits (0, 3, 4, 5) are reached as well as the schema ones.
moderate = st.floats(min_value=0.25, max_value=4.0)


def signed(values):
    return st.builds(lambda x, negative: -x if negative else x, values, st.booleans())


doubles = signed(magnitudes)
oversized = st.one_of(st.just(10 ** 400), st.just(-(10 ** 400)), st.just(_HUGE),
                      st.integers(min_value=2 ** 1023, max_value=10 ** 330))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}),
                 st.lists(doubles, max_size=2), oversized, doubles)


@st.composite
def breakages(draw, doc, keys):
    """Apply up to two breakages to a document; a "root" breakage replaces it whole."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        how = draw(st.sampled_from(["drop", "retype", "entry", "short_row", "short_rows",
                                    "root"]))
        rows = doc.get("rows")
        if how == "root":
            return draw(junk)
        if how == "drop":
            doc.pop(draw(st.sampled_from(keys)), None)
        elif how == "retype":
            doc[draw(st.sampled_from(keys))] = draw(junk)
        elif isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows):
            i = draw(st.integers(0, len(rows) - 1))
            if how == "entry":
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(junk)
            elif how == "short_row":
                rows[i] = rows[i][:-1]
            else:
                doc["rows"] = rows[:-1]
    return doc


@st.composite
def momentum_docs(draw, n):
    values = draw(st.sampled_from([magnitudes, moderate]))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(signed(values))
            rows[j][i] = -rows[i][j]
    kind = draw(st.sampled_from(["skew", "skew", "skew", "general", "sym"]))
    doc = {"spec_version": "1", "n": n, "kind": kind, "rows": rows}
    return draw(breakages(doc, ["spec_version", "n", "kind", "rows"]))


@st.composite
def body_docs(draw, n):
    values = draw(st.sampled_from([magnitudes, moderate]))
    if draw(st.booleans()):
        doc = {"spec_version": "1", "eigenvalues": [draw(values) for _ in range(n)]}
        return draw(breakages(doc, ["spec_version", "eigenvalues"]))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(values)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.one_of(st.just(0.0), signed(values)))
    doc = {"spec_version": "1", "n": n, "kind": draw(st.sampled_from(["sym", "sym", "skew"])),
           "rows": rows}
    return draw(breakages(doc, ["spec_version", "n", "kind", "rows"]))


@st.composite
def document_pairs(draw):
    n = draw(st.sampled_from([3, 2, 4, 1]))
    n_body = draw(st.sampled_from([n, n, n, n, 1, 2, 3, 4]))
    return draw(momentum_docs(n)), draw(body_docs(n_body))


def _text(doc) -> str:
    return json.dumps(doc).replace(f'"{_HUGE}"', HUGE_LITERAL)


@settings(max_examples=400, derandomize=True)
@given(document_pairs())
def test_classify_reader_outcomes(docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("m.json", "b.json")]
        for path, doc in zip(paths, docs):
            path.write_text(_text(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(["classify", *map(str, paths)])
    assert code in {0, 2, 3, 4, 5}
    if code == 2:
        assert FIELD_PATH.match(err.getvalue()), err.getvalue()


# Nested documents are broken at any depth. The replacements hold no
# mid-range number, so a broken step size or end time never asks for a long
# run: a number is extreme, or one that a well-formed field could hold.
nested_junk = st.one_of(
    st.none(), st.booleans(), st.just([]), st.just({}),
    st.text(alphabet="ab\x00", max_size=2), oversized,
    st.sampled_from([0.0, -1.0, 0.5, 3, 5e-324, 1e-200, 1e200, 1e308, -1e308,
                     1.7976931348623157e308]))

NESTED_PATH = re.compile(
    r"error: invalid input: (?P<head><root>|[a-z_]+)(\[\d+\])*(\.[a-z_A]+(\[\d+\])*)*: ")


def _children(node, path=()):
    """Every (path, key) below node, keys of dicts and indices of lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _children(value, path + (key,))


@st.composite
def nested_breakages(draw, doc):
    """Drop, replace or cut short up to two nodes anywhere in the document."""
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        paths = list(_children(doc))
        if not paths or draw(st.integers(0, 9)) == 0:
            return draw(nested_junk)
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["drop", "retype", "retype"]))
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "drop":
            parent.pop(path[-1])
        else:
            parent[path[-1]] = draw(nested_junk)
    return doc


@st.composite
def recipes(draw, n):
    """Blocks of two or four of the axes 0..n-1 in random order, the rest fixed."""
    values = draw(st.sampled_from([magnitudes, moderate]))
    axes = draw(st.permutations(range(n)))
    blocks = []
    while len(axes) >= 2 and draw(st.integers(0, 3)):
        size = 4 if len(axes) >= 4 and draw(st.booleans()) else 2
        block = {"omega": draw(values), "axes": axes[:size]}
        source = draw(st.sampled_from(["standard", "random", "explicit", None]))
        if source == "explicit":
            a = [[0.0] * size for _ in range(size)]
            for b in range(0, size, 2):
                a[b][b + 1], a[b + 1][b] = 1.0, -1.0
            block["structure_source"] = {"A": a}
        elif source is not None:
            block["structure_source"] = source
        blocks.append(block)
        axes = axes[size:]
    doc = {"spec_version": "1", "blocks": blocks, "fixed_axes": axes}
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2 ** 32))
    return doc


def _run(argv, files):
    """Write the documents, run the command on them and return its exit
    code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in files:
            path = Path(tmp, name)
            path.write_text(_text(doc))
            paths.append(str(path))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([argv[0], *paths, *argv[1:], "--output-dir", tmp])
    return code, err.getvalue()


def _check_outcome(code, err, fields):
    """A documented exit code, and an exit-2 message that names a field path
    under one of the document's top-level fields."""
    assert code in {0, 2, 3}, err
    if code == 2:
        match = NESTED_PATH.match(err)
        assert match and match["head"] in fields, err


@st.composite
def recipe_cases(draw):
    n = draw(st.sampled_from([2, 3, 4, 5]))
    n_body = draw(st.sampled_from([n, n, n, 2, 4]))
    recipe = draw(nested_breakages(draw(recipes(n))))
    return recipe, {"spec_version": "1", "eigenvalues": [1.0 + k for k in range(n_body)]}


@settings(max_examples=200, derandomize=True)
@given(recipe_cases())
def test_generate_reader_outcomes(case):
    recipe, body = case
    code, err = _run(["generate"], [("r.json", recipe), ("b.json", body)])
    _check_outcome(code, err, {"<root>", "spec_version", "blocks", "fixed_axes", "seed"})


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    values = draw(st.sampled_from([magnitudes, moderate]))
    if draw(st.booleans()):
        body = {"eigenvalues": [draw(values) for _ in range(n)]}
    else:
        body = {"n": n, "kind": "sym",
                "rows": [[draw(values) if i == j else 0.0 for j in range(n)] for i in range(n)]}
    if draw(st.booleans()):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = draw(signed(values))
                rows[j][i] = -rows[i][j]
        initial = {"matrix": {"n": n, "kind": "skew", "rows": rows}}
    else:
        initial = {"recipe": draw(recipes(n))}
    integrator = {"dt": 0.1, "t_end": draw(st.sampled_from([0.1, 0.5, 1.0])),
                  "record_every": draw(st.sampled_from([1, 5]))}
    if draw(st.booleans()):
        integrator["guard"] = draw(st.sampled_from(["reject", "warn"]))
    if draw(st.booleans()):
        integrator["manakov_max_power"] = draw(st.integers(2, n))
    keys = draw(st.lists(st.sampled_from(["trajectory_csv", "trajectory_jsonl",
                                          "invariants_json", "report_json"]), unique=True))
    doc = {"spec_version": "1", "seed": draw(st.integers(0, 9)), "body": body,
           "initial": initial, "integrator": integrator,
           "outputs": {key: f"{key}.out" for key in keys}}
    return draw(nested_breakages(doc))


@settings(max_examples=200, derandomize=True)
@given(scenarios())
# A moment whose pair sum with itself, halved after the sum, overflows.
@example({"spec_version": "1", "seed": 0,
          "body": {"n": 2, "kind": "sym", "rows": [[1.0, 0.0], [0.0, 4.49423283715579e+307]]},
          "initial": {"recipe": {"spec_version": "1", "blocks": [], "fixed_axes": [0, 1]}},
          "integrator": {"dt": 0.1, "t_end": 0.1, "record_every": 1}, "outputs": {}})
def test_simulate_reader_outcomes(doc):
    code, err = _run(["simulate"], [("s.json", doc)])
    _check_outcome(code, err, {"<root>", "spec_version", "seed", "body", "initial",
                               "integrator", "outputs"})


# Forms of an output name; "{b}" is a base name and "{abs}" the absolute
# output directory, whose last component is "out".
NAME_FORMS = ["{b}", "./{b}", "d/../{b}", "../out/{b}", "{abs}/{b}", ""]
OUTPUT_LABELS = {"generate": ("--out-momentum", "--out-structure"),
                 "stability": ("--out", "--curve-out"),
                 "simulate": ("outputs.trajectory_csv", "outputs.report_json")}

names = st.builds(lambda form, base: form.replace("{b}", base),
                  st.sampled_from(NAME_FORMS), st.sampled_from(["x", "y"]))


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from(sorted(OUTPUT_LABELS)), st.sampled_from(["flag", "environment"]),
       st.booleans(), names, names)
def test_two_output_names(command, where, absolute, first, second):
    """Exit 2, with nothing written, exactly when the two names are empty or
    one file (equal os.path.realpath once joined to the output directory);
    else exit 0 with both files written."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "in")
        inputs.mkdir()
        outdir = str(Path(tmp, "out")) if absolute else "out"
        first, second = (name.replace("{abs}", str(Path(tmp, "out"))) for name in (first, second))
        # "d/../x" resolves only where d exists.
        Path(tmp, "out", "d").mkdir(parents=True)
        body = inputs / "b.json"
        body.write_text('{"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0]}')
        if command == "generate":
            recipe = inputs / "r.json"
            recipe.write_text(json.dumps({"spec_version": "1", "fixed_axes": [1],
                                          "blocks": [{"omega": 1.0, "axes": [0, 2]}]}))
            argv = ["generate", str(recipe), str(body), "--out-momentum", first,
                    "--out-structure", second]
        elif command == "stability":
            momentum = inputs / "m.json"
            momentum.write_text(json.dumps({"spec_version": "1", "n": 3, "kind": "skew",
                                            "rows": [[0, 0, 4], [0, 0, 0], [-4, 0, 0]]}))
            argv = ["stability", str(momentum), str(body), "--probe", "--horizon", "1",
                    "--out", first, "--curve-out", second]
        else:
            scenario = inputs / "s.json"
            scenario.write_text(json.dumps({
                "spec_version": "1", "body": {"eigenvalues": [1.0, 2.0, 3.0]},
                "initial": {"matrix": {"n": 3, "kind": "skew",
                                       "rows": [[0, 0, 4], [0, 0, 0], [-4, 0, 0]]}},
                "integrator": {"dt": 0.1, "t_end": 0.1},
                "outputs": {"trajectory_csv": first, "report_json": second}}))
            argv = ["simulate", str(scenario)]
        if where == "flag":
            argv += ["--output-dir", outdir]

        before = sorted(Path(tmp).rglob("*"))
        paths = [os.path.realpath(os.path.join(tmp, outdir, name)) for name in (first, second)]
        empty = "" in (first, second)
        clash = not empty and paths[0] == paths[1]
        cwd, env = os.getcwd(), os.environ.pop("FREETOP_OUTPUT_DIR", None)
        err = io.StringIO()
        try:
            os.chdir(tmp)
            if where == "environment":
                os.environ["FREETOP_OUTPUT_DIR"] = outdir
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
            os.environ.pop("FREETOP_OUTPUT_DIR", None)
            if env is not None:
                os.environ["FREETOP_OUTPUT_DIR"] = env
        labels = OUTPUT_LABELS[command]
        if empty or clash:
            assert code == 2, err.getvalue()
            assert sorted(Path(tmp).rglob("*")) == before
            if clash:
                assert err.getvalue() == (f"error: invalid input: {labels[1]}: names the "
                                          f"same file as {labels[0]}\n")
        else:
            assert code == 0, err.getvalue()
            assert all(os.path.isfile(p) for p in paths)
