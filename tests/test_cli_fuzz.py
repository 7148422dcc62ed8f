"""Derandomized fuzzing of the matrix and body readers through `freetop classify`.

Documents are mostly well-formed (a skew momentum, a symmetric or
eigenvalue-list body) with values over the whole double range, and then
broken in a few places: a field dropped or given a wrong type, an entry
replaced, a row cut short, an oversized integer. Every outcome must be one
of the documented exit codes, and an exit-2 message must name the field.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

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
