import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import freetop as ft
from freetop import cli, serialize as ser
from freetop.scenario import scenario_from_doc

from conftest import random_body, random_skew, rotation_generator
from recipes import random_recipe_doc, read_recipe, recipe_doc
import oracles


class TestFloatFormat:
    @pytest.mark.parametrize("value", [
        0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e22, 1e-300, 2.2250738585072014e-308,
        math.pi, -math.e, 123456789.123456789, 5e-324,
    ])
    def test_roundtrip_exact(self, value):
        assert float(ser.format_float(value)) == value

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ArithmeticError):
                ser.format_float(bad)

    def test_random_roundtrip(self, rng):
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
            assert float(ser.format_float(x)) == x


class TestCanonicalDumps:
    def test_shape(self):
        doc = {"a": 1, "b": [1.5, 2], "c": {"d": True, "e": None}, "f": "x\"y"}
        text = ser.dumps_canonical(doc)
        assert json.loads(text) == doc

    def test_matrix_rows_multiline(self):
        text = ser.dumps_canonical({"rows": [[1.0, 2.0], [3.0, 4.0]]})
        assert "[\n" in text and "[1, 2]" in text

    def test_deterministic(self, rng):
        doc = {"rows": rng.standard_normal((3, 3)).tolist(), "n": 3}
        assert ser.dumps_canonical(doc) == ser.dumps_canonical(doc)

    def test_empty_containers(self):
        assert ser.dumps_canonical({}) == "{}"
        assert ser.dumps_canonical({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            ser.dumps_canonical({"a": object()})

    def test_numpy_scalars_and_arrays(self):
        doc = {"x": np.float64(0.1), "k": np.int64(3), "v": np.arange(3.0)}
        assert json.loads(ser.dumps_canonical(doc)) == {"x": 0.1, "k": 3, "v": [0, 1, 2]}


def numpy_scalars(obj):
    """The document with every Python float, and every array, replaced by
    numpy.float64 entries in lists, which the writer formats one item at a
    time through format_float."""
    if isinstance(obj, dict):
        return {k: numpy_scalars(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return numpy_scalars(obj.tolist())
    if isinstance(obj, list):
        return [numpy_scalars(v) for v in obj]
    return np.float64(obj) if type(obj) is float else obj


class TestFloatListFastPath:
    def test_spectrum_document_matches_per_item(self, body6):
        m, _ = ft.generate(read_recipe(((0, 1, 2, 3), 1.3, "random"), ((4, 5), 0.7), seed=4),
                           body6)
        doc = ser.linearization_to_doc(ft.linearize(m, body6))
        text = ser.dumps_canonical(doc)
        assert text == ser.dumps_canonical(numpy_scalars(doc))

    def test_matrix_document_matches_per_item(self, rng):
        doc = ser.matrix_to_doc(random_skew(7, rng, scale=1e-3))
        doc["edges"] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
        doc["mixed"] = [1, 2.5, True, None]
        text = ser.dumps_canonical(doc)
        assert text == ser.dumps_canonical(numpy_scalars(doc))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_as_per_item(self, bad):
        row = [0.5, bad, 1.0]
        with pytest.raises(ArithmeticError) as fast:
            ser.dumps_canonical({"rows": [row]})
        with pytest.raises(ArithmeticError) as per_item:
            ser.dumps_canonical({"rows": [numpy_scalars(row)]})
        assert str(fast.value) == str(per_item.value) == f"cannot serialize non-finite value {bad!r}"


def chain_cases():
    """(n, frame, kind) of the generated chains: diagonal and rotated
    bodies, standard and exotic equilibria. No exotic one exists at n = 3,
    so a mixed recipe stands in there."""
    return [(n, frame, "mixed" if kind == "exotic" and n < 4 else kind)
            for n in (3, 8, 16) for frame in ("diagonal", "rotated")
            for kind in ("regular", "exotic")]


class TestWriterMatchesPerItem:
    """Every document the command line writes is the per-item writer's
    text, byte for byte, whether its floats sit in arrays or in lists."""

    @pytest.fixture
    def written(self, monkeypatch):
        docs = []

        def record(path, doc, outdir=None):
            docs.append((path, doc))
            ser.write_json(path, doc, outdir)

        monkeypatch.setattr(cli, "write_json", record)
        return docs

    def assert_per_item(self, written, names):
        assert sorted(Path(path).name for path, _ in written) == sorted(names)
        for path, doc in written:
            assert Path(path).read_text() == oracles.dumps_per_item(doc) + "\n"

    @pytest.mark.parametrize("n, frame, kind", chain_cases())
    def test_generated_chain(self, tmp_path, written, n, frame, kind):
        rng = np.random.default_rng([n, frame == "rotated", len(kind)])
        if frame == "rotated":
            body_doc = ser.matrix_to_doc(random_body(n, rng, min_gap=0.2).J)
        else:
            body_doc = {"spec_version": "1",
                        "eigenvalues": (1.0 + np.cumsum(0.2 + rng.random(n))).tolist()}
        ser.write_json(tmp_path / "body.json", body_doc)
        ser.write_json(tmp_path / "recipe.json", random_recipe_doc(n, rng, kind))
        b, m = str(tmp_path / "body.json"), str(tmp_path / "momentum.json")
        common = ["--output-dir", str(tmp_path)]
        for argv in (["generate", str(tmp_path / "recipe.json"), b],
                     ["classify", m, b, "--out", "classified.json"],
                     ["stability", m, b, "--kernel", "--out", "kernel.json"],
                     ["stability", m, b, "--spectrum", "--out", "spectrum.json"],
                     ["stability", m, b, "--probe", "--horizon", "1", "--out", "probe.json"]):
            assert cli.main(argv + common) == 0
        self.assert_per_item(written, ["momentum.json", "structure.json", "classified.json",
                                       "kernel.json", "spectrum.json", "probe.json"])
        spectrum = {Path(path).name: doc for path, doc in written}["spectrum.json"]
        assert isinstance(spectrum["matrix"], np.ndarray)

    def test_simulate(self, tmp_path, written):
        scenario = {
            "spec_version": "1",
            "seed": 0,
            "body": {"eigenvalues": [1.0, 2.0, 3.0, 4.0]},
            "initial": {"matrix": ser.matrix_to_doc(random_skew(4, np.random.default_rng(3)))},
            "integrator": {"dt": 0.01, "t_end": 0.5, "record_every": 5},
            "outputs": {"invariants_json": "drift.json", "report_json": "report.json"},
        }
        ser.write_json(tmp_path / "scenario.json", scenario)
        assert cli.main(["simulate", str(tmp_path / "scenario.json"),
                         "--output-dir", str(tmp_path)]) == 0
        self.assert_per_item(written, ["drift.json", "report.json"])


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17,
               123456789012345678.0, -1e-5]


def same_as_per_item(obj):
    """dumps_canonical(obj), at the top level and nested two levels deep,
    gives the per-item text, or raises the per-item error type and message."""
    for doc in (obj, {"a": {"b": obj}}):
        try:
            expected = oracles.dumps_per_item(doc)
        except (ArithmeticError, TypeError) as exc:
            with pytest.raises(type(exc)) as got:
                ser.dumps_canonical(doc)
            assert str(got.value) == str(exc)
        else:
            assert ser.dumps_canonical(doc) == expected


class TestFloatArrayTemplate:
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3), (1, 1), (2, 3), (3,)])
    def test_shapes(self, shape, rng):
        same_as_per_item(rng.standard_normal(shape))

    def test_edge_values(self):
        values = np.array(EDGE_VALUES)
        same_as_per_item(values)
        same_as_per_item(values.reshape(2, 4))
        same_as_per_item(values.reshape(4, 2).T)
        same_as_per_item(EDGE_VALUES)
        assert ser.dumps_canonical(values) == "[" + ", ".join(map(ser.format_float,
                                                                  EDGE_VALUES)) + "]"

    @pytest.mark.parametrize("array", [
        np.arange(6).reshape(2, 3),
        np.array([[True, False]]),
        np.array([1.5 + 0.5j, 2.0]),
        np.array([[0.1, -0.0], [1e-5, 3.0]], dtype=np.float32),
        np.arange(8.0).reshape(2, 2, 2),
    ], ids=["int", "bool", "complex", "float32", "3d"])
    def test_other_dtypes_and_ranks(self, array):
        same_as_per_item(array)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [(0, 0), (1, 2), (2, 1)])
    def test_non_finite_raises_and_keeps_file(self, tmp_path, rng, bad, index):
        array = rng.standard_normal((3, 3))
        array[index] = bad
        same_as_per_item(array)
        path = tmp_path / "doc.json"
        path.write_text("old\n")
        with pytest.raises(ArithmeticError, match=f"^cannot serialize non-finite value {bad!r}$"):
            ser.write_json(path, {"matrix": array})
        assert path.read_text() == "old\n"


class TestMatrixDocs:
    def test_roundtrip_skew(self, rng):
        m = random_skew(4, rng)
        doc = ser.matrix_to_doc(m)
        assert doc["kind"] == "skew" and doc["n"] == 4
        m2 = ser.matrix_from_doc(json.loads(ser.dumps_canonical(doc)))
        assert isinstance(m2, np.ndarray)
        np.testing.assert_array_equal(m2, m)

    def test_roundtrip_sym(self):
        s = np.diag([1.0, 2.0])
        doc = ser.matrix_to_doc(s)
        assert doc["kind"] == "sym"
        s2 = ser.matrix_from_doc(doc)
        assert isinstance(s2, np.ndarray)
        np.testing.assert_array_equal(s2, s)

    def test_general_kind(self, rng):
        a = rng.standard_normal((3, 3))
        doc = ser.matrix_to_doc(a)
        assert doc["kind"] == "general"
        out = ser.matrix_from_doc(doc)
        assert isinstance(out, np.ndarray)

    @pytest.mark.parametrize("rows, kind", [
        (np.zeros((3, 3)), "skew"),  # the zero matrix is both; skew wins
        ([[0.0, 2.0], [-2.0, 0.0]], "skew"),
        ([[0.0, -0.0], [0.0, 0.0]], "skew"),
        ([[1.0, 2.0], [2.0, 5.0]], "sym"),
        ([[0.0, 2.0], [2.0, 0.0]], "sym"),
        ([[1.0, 2.0], [-2.0, 0.0]], "general"),  # skew off the diagonal only
        ([[0.0, 1.0], [-1.0 + 1e-13, 0.0]], "general"),  # skew within tolerance, not exactly
        ([[1.0, 2.0], [2.0 + 1e-13, 1.0]], "general"),
        ([[1.0, 2.0], [3.0, 4.0]], "general"),
    ])
    def test_kind_is_what_the_entries_satisfy_exactly(self, rows, kind):
        assert ser.matrix_to_doc(rows)["kind"] == kind

    def test_kind_of_package_matrices(self, body4):
        recipe = read_recipe(((0, 1), 2.0), ((2, 3), 1.0))
        momentum, _ = ft.generate(recipe, body4)
        assert ser.matrix_to_doc(momentum)["kind"] == "skew"
        assert ser.matrix_to_doc(body4.J)["kind"] == "sym"
        assert ser.matrix_to_doc(ft.skew(np.zeros((2, 2))))["kind"] == "skew"

    def test_every_kind_reads_back_its_rows(self):
        # The rows are checked by the role that reads them, not by the kind.
        rows = [[0.0, 1.0], [1.0, 0.0]]
        for kind in ("sym", "skew", "general"):
            doc = {"spec_version": "1", "n": 2, "kind": kind, "rows": rows}
            np.testing.assert_array_equal(ser.matrix_from_doc(doc), rows)

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_must_be_positive(self, n):
        with pytest.raises(ser.SchemaError) as exc:
            ser.matrix_from_doc({"spec_version": "1", "n": n, "kind": "skew", "rows": []})
        assert exc.value.field == "n"
        assert str(exc.value) == "n: dimension must be positive"

    def test_missing_field_named(self):
        with pytest.raises(ser.SchemaError, match="rows"):
            ser.matrix_from_doc({"spec_version": "1", "n": 2, "kind": "skew"})

    def test_bad_entry_has_indices(self):
        doc = {"spec_version": "1", "n": 2, "kind": "general",
               "rows": [[0.0, 1.0], [1.0, "x"]]}
        with pytest.raises(ser.SchemaError, match=r"rows\[1\]\[1\]"):
            ser.matrix_from_doc(doc)

    @pytest.mark.parametrize("literal", ["-0.0", str(2**53 + 1), str(2**64 + 1), str(10**308),
                                         str(-2**63 - 1), "0.1", "5e-324"])
    def test_one_pass_reader_matches_per_entry(self, tmp_path, literal):
        text = ('{"spec_version": "1", "n": 2, "kind": "general", '
                f'"rows": [[{literal}, 1], [2.5, {literal}]]}}')
        path = tmp_path / "m.json"
        path.write_text(text)
        rows = json.loads(text, parse_int=ser._parse_int)["rows"]
        out = ser.read_matrix(path)
        assert out.shape == (2, 2) and out.dtype == np.float64
        assert out.tobytes() == oracles.rows_per_entry(rows, 2, "rows").tobytes()

    def test_float_subclass_entries_read_entry_by_entry(self):
        # Rows built in-process may hold numpy scalars: the per-entry path reads them.
        rows = [[np.float64(0.5), 1], [2, np.float64(-0.0)]]
        doc = {"spec_version": "1", "n": 2, "kind": "general", "rows": rows}
        out = ser.matrix_from_doc(doc)
        assert out.tobytes() == np.array([[0.5, 1.0], [2.0, -0.0]]).tobytes()

    @pytest.mark.parametrize("literal, message", [
        ("true", "expected a number, got bool"),
        ('"1.0"', "expected a number, got str"),
        ("null", "expected a number, got NoneType"),
        ("[1.0]", "expected a number, got list"),
        (str(10**400), "integer too large for a double"),
        ("NaN", "value must be finite"),
        ("-Infinity", "value must be finite"),
        ("1" * 5000, "value must be finite"),  # more digits than int() takes: inf
    ], ids=["bool", "str", "null", "list", "10**400", "nan", "inf", "long-literal"])
    def test_bad_entry_keeps_field_and_message(self, tmp_path, literal, message):
        path = tmp_path / "m.json"
        path.write_text('{"spec_version": "1", "n": 2, "kind": "general", '
                        f'"rows": [[0.0, 1], [{literal}, 2.0]]}}')
        with pytest.raises(ser.SchemaError) as exc:
            ser.read_matrix(path)
        assert (exc.value.field, str(exc.value)) == ("rows[1][0]", f"rows[1][0]: {message}")
        rows = ser.load_json(path)["rows"]
        with pytest.raises(ser.SchemaError) as per_entry:
            oracles.rows_per_entry(rows, 2, "rows")
        assert str(per_entry.value) == str(exc.value)

    @pytest.mark.parametrize("rows, field, message", [
        ([[0.0, 1.0], [1.0]], "rows[1]", "expected a list of 2 numbers"),
        ([[0.0, 1.0], "row"], "rows[1]", "expected a list of 2 numbers"),
        ([[True, 1.0], [1.0]], "rows[0][0]", "expected a number, got bool"),
        ([[0.0, 1.0]], "rows", "expected a list of 2 rows"),
    ], ids=["short-row", "not-a-list", "entry-before-row", "row-count"])
    def test_first_bad_row_or_entry_named(self, rows, field, message):
        # Row-major order: a bad entry of row 0 is named before a short row 1.
        doc = {"spec_version": "1", "n": 2, "kind": "general", "rows": rows}
        with pytest.raises(ser.SchemaError) as exc:
            ser.matrix_from_doc(doc)
        assert (exc.value.field, str(exc.value)) == (field, f"{field}: {message}")

    def test_boolean_field_named(self):
        doc = {"spec_version": "1", "n": True, "kind": "general", "rows": [[1.0]]}
        with pytest.raises(ser.SchemaError) as exc:
            ser.matrix_from_doc(doc)
        assert str(exc.value) == "n: expected an integer, got a boolean"

    def test_structure_violation_reported_on_rows(self, body3):
        # A body's rows must be symmetric and a momentum's skew, whatever
        # kind the document names; the error names the rows.
        body_doc = {"spec_version": "1", "n": 2, "kind": "sym",
                    "rows": [[1.0, 1.0], [-1.0, 2.0]]}
        with pytest.raises(ser.SchemaError, match=r"^rows: matrix is not symmetric"):
            ser.body_from_doc(body_doc)
        for kind in ("skew", "sym", "general"):
            rows = ser.matrix_from_doc({"spec_version": "1", "n": 3, "kind": kind,
                                        "rows": np.eye(3).tolist()})
            with pytest.raises(ser.SchemaError,
                               match=r"^rows: momentum matrix is not skew-symmetric"):
                ser.momentum_for_body(rows, body3)

    def test_momentum_for_body_is_a_read_only_skew_array(self, body3):
        rows = ser.matrix_from_doc({"spec_version": "1", "n": 3, "kind": "sym",
                                    "rows": [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]})
        m = ser.momentum_for_body(rows, body3)
        np.testing.assert_array_equal(m, rows)
        assert not m.flags.writeable
        with pytest.raises(ser.SchemaError, match=r"^n: momentum has n = 3, the body has n = 4"):
            ser.momentum_for_body(rows, ft.InertiaSpec.from_eigenvalues([1.0, 2.0, 3.0, 4.0]))

    def test_unknown_kind(self):
        with pytest.raises(ser.SchemaError, match="kind"):
            ser.matrix_from_doc({"spec_version": "1", "n": 1, "kind": "spooky",
                                 "rows": [[0.0]]})

    def test_version_major_rejected(self):
        doc = {"spec_version": "2.0", "n": 1, "kind": "general", "rows": [[1.0]]}
        with pytest.raises(ser.SchemaError, match="version"):
            ser.matrix_from_doc(doc)

    def test_file_roundtrip(self, tmp_path, rng):
        m = random_skew(5, rng)
        path = tmp_path / "m.json"
        ser.write_json(path, ser.matrix_to_doc(m))
        m2 = ser.read_matrix(path)
        np.testing.assert_array_equal(m2, m)

    def test_write_json_keeps_old_file_when_serialization_fails(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous\n")
        with pytest.raises(ArithmeticError):
            ser.write_json(path, {"x": math.nan})
        assert path.read_bytes() == b"previous\n"

    def test_write_json_makes_outdir_only_for_a_serializable_document(self, tmp_path):
        outdir = tmp_path / "new" / "dir"
        with pytest.raises(ArithmeticError):
            ser.write_json(outdir / "out.json", {"x": math.nan}, outdir)
        assert not (tmp_path / "new").exists()
        ser.write_json(outdir / "out.json", {"x": 1.0}, str(outdir))
        assert (outdir / "out.json").read_text() == '{\n  "x": 1\n}\n'

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1,\n  "kind": }')
        with pytest.raises(ser.SchemaError, match="line 2"):
            ser.load_json(path)


class TestBodyDocs:
    def test_from_eigenvalues(self):
        body = ser.body_from_doc({"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0]})
        assert body.n == 3

    def test_from_matrix(self):
        doc = ser.matrix_to_doc(np.diag([1.0, 2.0]))
        assert ser.body_from_doc(doc).n == 2

    def test_rejects_skew_kind(self, rng):
        doc = ser.matrix_to_doc(random_skew(3, rng))
        with pytest.raises(ser.SchemaError, match="sym"):
            ser.body_from_doc(doc)

    def test_rejects_degenerate(self):
        with pytest.raises(ser.SchemaError, match="eigenvalues"):
            ser.body_from_doc({"spec_version": "1", "eigenvalues": [1.0, 1.0]})


class TestStructureDocs:
    def test_roundtrip(self, body4):
        recipe = read_recipe(((0, 1, 2, 3), 1.5, "random"), seed=42)
        _, s = ft.generate(recipe, body4)
        doc = json.loads(ser.dumps_canonical(ser.structure_to_doc(s)))
        s2 = ser.structure_from_doc(doc)
        # 17 significant digits give every rate and entry back bit for bit.
        assert [(b.omega, b.axes, b.A.tolist()) for b in s2.blocks] == \
            [(b.omega, b.axes, b.A.tolist()) for b in s.blocks]
        assert (s2.n, s2.fixed_axes, s2.regular) == (s.n, s.fixed_axes, s.regular)

    def test_regular_flag_must_match(self, body4):
        recipe = read_recipe(((0, 1), 1.0), ((2, 3), 2.0))
        _, s = ft.generate(recipe, body4)
        doc = ser.structure_to_doc(s)
        doc["regular"] = False
        with pytest.raises(ser.SchemaError, match="regular"):
            ser.structure_from_doc(doc)

    @pytest.mark.parametrize("field,value,message", [
        ("n", -1, "n: dimension must be positive"),
        ("n", 0, "n: dimension must be positive"),
        ("regular", "false", "regular: expected a boolean"),
        ("regular", 1, "regular: expected a boolean"),
    ])
    def test_header_fields_checked(self, field, value, message):
        doc = {"spec_version": "1", "n": 2, "regular": True, "fixed_axes": [],
               "blocks": [{"omega": 1.0, "axes": [0, 1], "A": [[0.0, 1.0], [-1.0, 0.0]]}]}
        doc[field] = value
        with pytest.raises(ser.SchemaError, match=message):
            ser.structure_from_doc(doc)

    @pytest.mark.parametrize("reader", [ser.matrix_from_doc, ser.body_from_doc,
                                        ser.structure_from_doc, ser.recipe_from_doc],
                             ids=lambda reader: reader.__name__)
    def test_document_must_be_an_object(self, reader):
        with pytest.raises(ser.SchemaError) as exc:
            reader([{"spec_version": "1"}])
        assert exc.value.field == "<root>"
        assert str(exc.value) == "<root>: expected a JSON object"

    @pytest.mark.parametrize("blocks, field, message", [
        ([3], "blocks[0]", "expected an object"),
        ([{"omega": 1.0, "axes": [0, 1.5], "A": [[0.0, 1.0], [-1.0, 0.0]]}],
         "blocks[0].axes[1]", "expected an integer"),
        ([{"omega": 1.0, "axes": [0, True], "A": [[0.0, 1.0], [-1.0, 0.0]]}],
         "blocks[0].axes[1]", "expected an integer"),
    ], ids=["block", "float-axis", "bool-axis"])
    def test_block_fields_typed(self, blocks, field, message):
        doc = {"spec_version": "1", "n": 2, "blocks": blocks, "fixed_axes": []}
        with pytest.raises(ser.SchemaError) as exc:
            ser.structure_from_doc(doc)
        assert (exc.value.field, str(exc.value)) == (field, f"{field}: {message}")

    def test_block_errors_are_located(self):
        doc = {"spec_version": "1", "n": 2,
               "blocks": [{"omega": 1.0, "axes": [0, 1],
                           "A": [[0.0, 0.5], [-0.5, 0.0]]}],
               "fixed_axes": []}
        with pytest.raises(ser.SchemaError, match=r"blocks\[0\]"):
            ser.structure_from_doc(doc)


def random_draws(count, seed):
    rng = np.random.default_rng(seed)
    return [ft.random_structure(2, rng) for _ in range(count)]


class TestRecipeDocs:
    def test_roundtrip_with_sources(self):
        explicit = ft.random_structure(1, np.random.default_rng(3))
        doc = recipe_doc(((0, 1, 2, 3), 2.0, "random"), ((4, 5), 1.0, explicit),
                         fixed_axes=(6,), seed=9)
        s = ser.recipe_from_doc(json.loads(ser.dumps_canonical(doc)))
        np.testing.assert_array_equal(s.blocks[0].A, random_draws(1, 9)[0])
        assert np.array_equal(s.blocks[1].A, explicit)
        assert (s.n, s.fixed_axes, s.regular) == (7, (6,), False)

    def test_default_seed_fills_in(self):
        doc = recipe_doc(((0, 1, 2, 3), 1.0, "random"))
        s = ser.recipe_from_doc(doc, default_seed=17)
        np.testing.assert_array_equal(s.blocks[0].A, random_draws(1, 17)[0])

    def test_document_seed_is_pinned(self):
        doc = recipe_doc(((0, 1, 2, 3), 1.0, "random"), seed=5)
        s = ser.recipe_from_doc(doc, default_seed=17)
        np.testing.assert_array_equal(s.blocks[0].A, random_draws(1, 5)[0])

    def test_random_draws_in_recipe_order(self):
        # Every generated momentum depends on this order: the blocks draw
        # from one seeded stream in the order the recipe lists them, and
        # each draw is permuted into ascending axis order.
        axes = ([5, 1, 6, 0], [3, 7, 2, 4])
        doc = recipe_doc((axes[0], 1.0, "random"), (axes[1], 2.0, "random"), seed=31)
        body = ft.InertiaSpec.from_eigenvalues([1.0 + k for k in range(8)])
        _, s = ft.generate(ser.recipe_from_doc(doc), body)
        by_rate = {b.omega: b for b in s.blocks}
        for omega, block_axes, draw in zip((1.0, 2.0), axes, random_draws(2, 31)):
            perm = np.argsort(block_axes)
            assert by_rate[omega].axes == tuple(sorted(block_axes))
            np.testing.assert_array_equal(by_rate[omega].A,
                                          draw[np.ix_(perm, perm)])

    @pytest.mark.parametrize("blocks,fixed,field,message", [
        ([{"omega": 1.0, "axes": [0, 1, 2]}], [], "blocks[0].axes", "even number"),
        ([{"omega": 1.0, "axes": []}], [0, 1], "blocks[0].axes", "even number"),
        ([{"omega": 1.0, "axes": [1, 1]}], [0], "blocks[0]", "ascending"),
        ([{"omega": 0.0, "axes": [0, 1]}], [], "blocks[0]", "positive"),
        ([{"omega": 1.0, "axes": [0, 1], "structure_source": {"A": [[0.0, 1.0]]}}], [],
         "blocks[0].structure_source.A", "2 rows"),
        ([{"omega": 1.0, "axes": [0, 1], "structure_source": {"A": [[0.0, 2.0], [-2.0, 0.0]]}}],
         [], "blocks[0].structure_source.A", "orthogonal"),
        ([{"omega": 1.0, "axes": [0, 1]}], [1, 2], "<root>", "partition"),
    ])
    def test_invalid_recipe_located(self, blocks, fixed, field, message):
        doc = {"spec_version": "1", "blocks": blocks, "fixed_axes": fixed}
        with pytest.raises(ser.SchemaError, match=message) as exc:
            ser.recipe_from_doc(doc)
        assert exc.value.field == field

    @pytest.mark.parametrize("path,field", [("", "seed"),
                                            ("initial.recipe", "initial.recipe.seed")])
    def test_negative_seed_located(self, path, field):
        doc = {"spec_version": "1", "seed": -1,
               "blocks": [{"omega": 1.0, "axes": [0, 1],
                           "structure_source": "standard"}],
               "fixed_axes": []}
        with pytest.raises(ser.SchemaError, match="non-negative") as exc:
            ser.recipe_from_doc(doc, path)
        assert exc.value.field == field

    @pytest.mark.parametrize("path,field", [("", "seed"),
                                            ("initial.recipe", "initial.recipe.seed")])
    def test_null_seed_is_not_an_absent_one(self, path, field):
        # A null seed used to take default_seed, as if the field were absent.
        doc = recipe_doc(((0, 1, 2, 3), 1.0, "random"))
        doc["seed"] = None
        with pytest.raises(ser.SchemaError, match="non-negative") as exc:
            ser.recipe_from_doc(doc, path, default_seed=3)
        assert exc.value.field == field

    def test_negative_scenario_seed_located(self):
        doc = {"spec_version": "1", "seed": -1,
               "body": {"eigenvalues": [1.0, 2.0, 3.0]},
               "initial": {"matrix": {"n": 3, "kind": "skew",
                                      "rows": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                               [0.0, 0.0, 0.0]]}},
               "integrator": {"dt": 0.01, "t_end": 0.1, "record_every": 1}}
        with pytest.raises(ser.SchemaError, match="non-negative") as exc:
            scenario_from_doc(doc)
        assert exc.value.field == "seed"

    def test_fixed_axes_must_be_a_list(self):
        # recipe_from_doc reads fixed_axes with a default, not through _want.
        doc = {"spec_version": "1", "blocks": [{"omega": 1.0, "axes": [0, 1]}],
               "fixed_axes": 2}
        with pytest.raises(ser.SchemaError) as exc:
            ser.recipe_from_doc(doc)
        assert str(exc.value) == "fixed_axes: expected a list, got int"

    def test_bad_source_located(self):
        doc = {"spec_version": "1",
               "blocks": [{"omega": 1.0, "axes": [0, 1], "structure_source": "magic"}],
               "fixed_axes": []}
        with pytest.raises(ser.SchemaError, match=r"blocks\[0\]"):
            ser.recipe_from_doc(doc)


STANDARD_A = [[0.0, 1.0], [-1.0, 0.0]]
SKEW_ROWS = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


def full_documents():
    """One document of each reader with every field it declares, the
    optional ones and a nested spec_version included."""
    matrix = {"spec_version": "1", "n": 3, "kind": "skew", "rows": SKEW_ROWS}
    return {
        "matrix": (ser.matrix_from_doc, matrix),
        "eigenvalue body": (ser.body_from_doc, {"spec_version": "1", "eigenvalues": [1.0, 2.0]}),
        "matrix body": (ser.body_from_doc,
                        {"spec_version": "1", "n": 2, "kind": "sym", "rows": [[1.0, 0.0], [0.0, 2.0]]}),
        "structure": (ser.structure_from_doc,
                      {"spec_version": "1", "n": 3,
                       "blocks": [{"omega": 1.0, "axes": [0, 1], "A": STANDARD_A}],
                       "fixed_axes": [2], "regular": True, "residual": 0.0}),
        "recipe": (ser.recipe_from_doc,
                   {"spec_version": "1",
                    "blocks": [{"omega": 1.0, "axes": [1, 0], "structure_source": {"A": STANDARD_A}}],
                    "fixed_axes": [2], "seed": 5}),
        "scenario": (scenario_from_doc,
                     {"spec_version": "1", "seed": 7,
                      "body": {"spec_version": "1", "eigenvalues": [1.0, 2.0, 3.0]},
                      "initial": {"matrix": dict(matrix)},
                      "integrator": {"dt": 0.01, "t_end": 0.1, "record_every": 5,
                                     "guard": "reject", "manakov_max_power": 3},
                      "outputs": {"trajectory_csv": "t.csv", "trajectory_jsonl": "t.jsonl",
                                  "invariants_json": "i.json", "report_json": "r.json"}}),
    }


def recipe_scenario():
    """The full scenario with its initial momentum from the full recipe."""
    doc = full_documents()["scenario"][1]
    doc["initial"] = {"recipe": full_documents()["recipe"][1]}
    return doc


def object_at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


class TestUnknownFields:
    # (document, keys down to the object, unknown key, the field path named)
    LEVELS = [
        ("matrix", (), "kindd", "kindd"),
        ("eigenvalue body", (), "eigenvalue", "eigenvalue"),
        ("matrix body", (), "eigenvalues_", "eigenvalues_"),
        ("structure", (), "regullar", "regullar"),
        ("structure", ("blocks", 0), "B", "blocks[0].B"),
        ("structure", ("blocks", 0), "spec_version", "blocks[0].spec_version"),
        ("recipe", (), "sed", "sed"),
        ("recipe", ("blocks", 0), "structure", "blocks[0].structure"),
        ("recipe", ("blocks", 0, "structure_source"), "B", "blocks[0].structure_source.B"),
        ("scenario", (), "manakov_max_power", "manakov_max_power"),
        ("scenario", ("integrator",), "record_evry", "integrator.record_evry"),
        ("scenario", ("outputs",), "plot_png", "outputs.plot_png"),
        ("scenario", ("body",), "n", "body.n"),
        ("scenario", ("initial",), "momentum", "initial.momentum"),
        ("scenario", ("initial", "matrix"), "comment", "initial.matrix.comment"),
    ]

    @pytest.mark.parametrize("name, keys, key, field", LEVELS, ids=[level[3] for level in LEVELS])
    def test_unknown_key_named_with_known_fields(self, name, keys, key, field):
        reader, doc = full_documents()[name]
        reader(doc)  # every declared field is read
        obj = object_at(doc, keys)
        known = list(obj)
        obj[key] = 1
        with pytest.raises(ser.SchemaError) as exc:
            reader(doc)
        assert exc.value.field == field
        noun = "output" if keys == ("outputs",) else "field"
        head, listed = str(exc.value).split(" (known: ")
        assert head == f"{field}: unknown {noun}"
        assert set(known) <= set(listed.rstrip(")").split(", "))

    @pytest.mark.parametrize("name, keys, field", [
        ("matrix", (), '[""]'),
        ("scenario", ("integrator",), 'integrator[""]'),
        ("scenario", ("initial", "matrix"), 'initial.matrix[""]'),
    ], ids=["root", "integrator", "matrix"])
    def test_key_that_is_not_a_name_is_shown_quoted(self, name, keys, field):
        # The empty key used to be named by the empty path (or "integrator."),
        # so the message showed no field.
        reader, doc = full_documents()[name]
        object_at(doc, keys)[""] = 1
        with pytest.raises(ser.SchemaError) as exc:
            reader(doc)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}: unknown field (known: ")
        obj = object_at(doc, keys)
        del obj[""]
        obj["a.b"] = 1
        with pytest.raises(ser.SchemaError) as exc:
            reader(doc)
        assert exc.value.field == field.replace('""', '"a.b"')

    def test_empty_key_named_on_the_command_line(self, tmp_path, capsys):
        doc = full_documents()["scenario"][1]
        doc["integrator"][""] = 1
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            'error: invalid input: integrator[""]: unknown field (known: dt, ')
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys, key, field", [
        ((), "sed", "initial.recipe.sed"),
        (("blocks", 0), "omegaa", "initial.recipe.blocks[0].omegaa"),
        (("blocks", 0, "structure_source"), "B", "initial.recipe.blocks[0].structure_source.B"),
    ], ids=["recipe", "block", "structure_source"])
    def test_unknown_key_in_scenario_recipe(self, keys, key, field):
        doc = recipe_scenario()
        scenario_from_doc(doc)
        object_at(doc["initial"]["recipe"], keys)[key] = 1
        with pytest.raises(ser.SchemaError, match=r" \(known: ") as exc:
            scenario_from_doc(doc)
        assert exc.value.field == field

    @pytest.mark.parametrize("key, value", [("manakov_max_power", 4), ("record_evry", 5)])
    def test_misplaced_scenario_key_exits_2(self, tmp_path, capsys, key, value):
        # A key the scenario does not name used to be ignored, and the run
        # went on with the default power or record_every.
        doc = full_documents()["scenario"][1]
        doc[key] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid input: {key}: unknown field (known: spec_version, ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys", [("body",), ("initial", "matrix")], ids=["body", "matrix"])
    def test_nested_spec_version_checked_when_present(self, keys):
        doc = full_documents()["scenario"][1]
        obj = object_at(doc, keys)
        obj["spec_version"] = "1.3"
        scenario_from_doc(doc)
        del obj["spec_version"]
        scenario_from_doc(doc)
        obj["spec_version"] = "9"
        with pytest.raises(ser.SchemaError) as exc:
            scenario_from_doc(doc)
        field = ".".join(keys) + ".spec_version"
        assert str(exc.value) == f"{field}: unsupported major version '9' (supported: 1)"

    @pytest.mark.parametrize("name", ["matrix", "eigenvalue body", "matrix body", "structure",
                                      "recipe"])
    def test_spec_version_required_at_a_file_root(self, name):
        reader, doc = full_documents()[name]
        del doc["spec_version"]
        with pytest.raises(ser.SchemaError, match="^spec_version: missing required field$"):
            reader(doc)

    def test_spec_version_required_in_a_scenario_recipe(self):
        doc = recipe_scenario()
        del doc["initial"]["recipe"]["spec_version"]
        with pytest.raises(ser.SchemaError) as exc:
            scenario_from_doc(doc)
        assert str(exc.value) == "initial.recipe.spec_version: missing required field"

    @pytest.mark.parametrize("name", ["matrix", "eigenvalue body", "matrix body"])
    def test_nested_document_spec_version_optional(self, name):
        reader, doc = full_documents()[name]
        del doc["spec_version"]
        reader(doc, "body")
        doc["spec_version"] = "2"
        with pytest.raises(ser.SchemaError, match="^body.spec_version: unsupported major"):
            reader(doc, "body")


class TestTrajectoryExport:
    @pytest.fixture
    def traj(self, body4, rng):
        m0 = random_skew(4, rng)
        return ft.integrate(m0, body4, dt=1e-2, t_end=0.2, record_every=5,
                            manakov_max_power=3)

    def test_csv_header_and_rows(self, tmp_path, traj):
        path = tmp_path / "traj.csv"
        ser.write_trajectory_csv(path, traj)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["t", "m_0_1", "m_0_2", "m_0_3"]
        assert "energy" in header and "casimir_1" in header
        assert header[-1] == "manakov_3_3"
        assert len(lines) == 1 + len(traj.times)
        t_vals = [float(line.split(",")[0]) for line in lines[1:]]
        assert t_vals == sorted(t_vals)
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == traj.momenta[0, 0, 1]

    def test_jsonl(self, tmp_path, traj):
        path = tmp_path / "traj.jsonl"
        ser.write_trajectory_jsonl(path, traj)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(traj.times)
        doc = json.loads(lines[0])
        assert set(doc) == {"t", "m_upper", "energy", "casimirs", "manakov"}
        assert doc["t"] == 0.0

    def test_row_template_matches_format_float(self, rng):
        values = [0.0, -0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0,
                  5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-5]
        values += list(rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200))
        for x in values:
            assert "%.17g" % x == ser.format_float(x)

    def test_csv_and_jsonl_share_strings(self, tmp_path, traj):
        ser.write_trajectory_csv(tmp_path / "t.csv", traj)
        ser.write_trajectory_jsonl(tmp_path / "t.jsonl", traj)
        rows = [line.split(",") for line in
                (tmp_path / "t.csv").read_text().strip().split("\n")[1:]]
        docs = [json.loads(line, parse_float=str, parse_int=str) for line in
                (tmp_path / "t.jsonl").read_text().strip().split("\n")]
        assert len(rows) == len(docs) == len(traj.times)
        for row, doc in zip(rows, docs):
            assert row == ([doc["t"]] + doc["m_upper"] + [doc["energy"]]
                           + doc["casimirs"] + doc["manakov"])

    @pytest.mark.parametrize("field, index", [("times", (-1,)), ("momenta", (-1, 0, 3)),
                                              ("invariants", (2, 0))])
    def test_non_finite_table_raises(self, tmp_path, traj, field, index):
        bad = getattr(traj, field).copy()
        bad[index] = np.nan
        broken = dataclasses.replace(traj, **{field: bad})
        for writer, name in ((ser.write_trajectory_csv, "t.csv"),
                             (ser.write_trajectory_jsonl, "t.jsonl")):
            with pytest.raises(ArithmeticError, match="non-finite"):
                writer(tmp_path / name, broken)
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("n, power", [(2, 2), (3, 2), (3, 3), (8, 2), (8, 3), (8, 4)])
    def test_one_pass_matches_per_file_writer(self, tmp_path, rng, n, power):
        # 2 501 samples, more than one block of rows: CSV alone, JSON lines
        # alone and both from one pass give the bytes of the per-file writer.
        traj = ft.integrate(random_skew(n, rng), random_body(n, rng), dt=1e-3, t_end=2.5,
                            manakov_max_power=power)
        assert traj.times.size == 2501 > ser._ROW_BLOCK
        oracles.write_trajectory_csv_per_file(tmp_path / "ref.csv", traj)
        oracles.write_trajectory_jsonl_per_file(tmp_path / "ref.jsonl", traj)
        ser.write_trajectory_csv(tmp_path / "alone.csv", traj)
        ser.write_trajectory_jsonl(tmp_path / "alone.jsonl", traj)
        ser.write_trajectory(traj, csv=tmp_path / "both.csv", jsonl=tmp_path / "both.jsonl")
        for ext in ("csv", "jsonl"):
            expected = (tmp_path / f"ref.{ext}").read_bytes()
            assert (tmp_path / f"alone.{ext}").read_bytes() == expected
            assert (tmp_path / f"both.{ext}").read_bytes() == expected

    def test_probe_curve_matches_per_file_writer(self, tmp_path, rng):
        res = ft.ProbeResult(escaped=False, exit_time=None, times=np.arange(2501) * 0.1,
                             deviations=np.exp(rng.standard_normal(2501)) * 1e-6)
        ser.write_probe_curve_csv(tmp_path / "curve.csv", res)
        oracles.write_probe_curve_csv_per_file(tmp_path / "ref.csv", res)
        assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_non_finite_table_makes_neither_file_nor_directory(self, tmp_path, traj):
        bad = traj.invariants.copy()
        bad[-1, 0] = np.inf
        broken = dataclasses.replace(traj, invariants=bad)
        outdir = tmp_path / "newdir"
        with pytest.raises(ArithmeticError,
                           match=f"non-finite values to {outdir / 't.csv'} and "
                                 f"{outdir / 't.jsonl'}$"):
            ser.write_trajectory(broken, csv=outdir / "t.csv", jsonl=outdir / "t.jsonl",
                                 outdir=outdir)
        assert not outdir.exists()
        ser.write_trajectory(traj, csv=outdir / "t.csv", jsonl=outdir / "t.jsonl",
                             outdir=outdir)
        assert sorted(p.name for p in outdir.iterdir()) == ["t.csv", "t.jsonl"]

    def test_drift_summary_doc(self, traj):
        doc = ser.drift_summary_doc(traj)
        assert doc["samples"] == len(traj.times)
        assert doc["max_drift"] >= 0.0
        assert "energy" in doc["drift"]
        text = ser.dumps_canonical(doc)
        assert json.loads(text)["spec_version"] == "1"

    def test_probe_curve_csv(self, tmp_path, body3):
        m = oracles.inertia_apply(rotation_generator(3, 1, 2, 1.0), body3)
        res = ft.instability_probe(m, body3, eps=1e-6, horizon=1.0,
                                   exit_factor=10.0, seed=0)
        path = tmp_path / "curve.csv"
        ser.write_probe_curve_csv(path, res)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,deviation"
        assert len(lines) == 1 + res.times.size
        expected = "t,deviation\n" + "".join(
            f"{ser.format_float(float(t))},{ser.format_float(float(d))}\n"
            for t, d in zip(res.times, res.deviations))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("field", ["times", "deviations"])
    def test_probe_curve_non_finite_raises(self, tmp_path, field):
        curve = {"times": np.array([0.0, 0.5, 1.0]), "deviations": np.array([1e-6, 2e-6, 4e-6])}
        curve[field][1] = np.inf
        res = ft.ProbeResult(escaped=False, exit_time=None, **curve)
        path = tmp_path / "curve.csv"
        with pytest.raises(ArithmeticError, match="non-finite"):
            ser.write_probe_curve_csv(path, res)
        assert not path.exists()
