"""File formats: canonical JSON, matrix / structure / recipe documents,
trajectory CSV and JSON-lines export.

Every float in JSON, CSV and JSON-lines output is written by one rule,
"%.17g" (format_float), so emitted values parse back bit-exactly and
re-running a command yields byte-identical files. Each array or table is
checked for finite values once, before its file is opened; a table is
formatted a block of rows at a time, each float once per block for every
file that shows it (the trajectory CSV and JSON lines). Readers
validate against the documented schemas and report the offending field
path; matrix rows of finite ints and floats are read in one pass, others
entry by entry, so that the first bad row or entry is named.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack, contextmanager, suppress

import numpy as np

from .body import InertiaSpec, Trajectory, invariant_labels, manakov_labels
from .equilibria import (
    EquilibriumStructure,
    FrequencyBlock,
    _structure_defect,
    random_structure,
    standard_structure,
)
from .linalg import skew
from .stability import LinearizationReport, OrbitKernelReport, ProbeResult

__all__ = [
    "SchemaError",
    "SPEC_VERSION",
    "format_float",
    "dumps_canonical",
    "write_json",
    "load_json",
    "matrix_to_doc",
    "matrix_from_doc",
    "read_matrix",
    "momentum_for_body",
    "body_from_doc",
    "read_body",
    "structure_to_doc",
    "structure_from_doc",
    "recipe_from_doc",
    "linearization_to_doc",
    "orbit_kernel_to_doc",
    "probe_to_doc",
    "write_trajectory",
    "write_trajectory_csv",
    "write_trajectory_jsonl",
    "write_probe_curve_csv",
    "drift_summary_doc",
]

SPEC_VERSION = "1"


class SchemaError(ValueError):
    """Input document violates a schema; carries the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same bits.

    A non-finite value can only have been computed (every reader rejects
    one), so it raises ArithmeticError: a numerical failure, not bad input."""
    if not math.isfinite(x):
        raise ArithmeticError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _floats(count: int, sep: str = ", ", field: str = "%.17g") -> str:
    return sep.join([field] * count)


def _float_template(shape: tuple, level: int) -> str:
    """The per-item text of a non-empty float array of one or two dimensions
    at this indent level, with a "%.17g" field for each entry, row-major."""
    row = "[" + _floats(shape[-1]) + "]"
    if len(shape) == 1:
        return row
    pad = "  " * (level + 1)
    return "[\n" + ",\n".join([pad + row] * shape[0]) + "\n" + "  " * level + "]"


def _emit(obj, level: int) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    # A finite float64 array or float-only list is formatted by one template;
    # any other takes the per-item path, so that format_float raises for it.
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size and np.isfinite(obj).all():
            return _float_template(obj.shape, level) % tuple(obj.ravel().tolist())
        return _emit(obj.tolist(), level)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if set(map(type, items)) == {float} and all(map(math.isfinite, items)):
            return _float_template((len(items),), level) % tuple(items)
        flat = all(not isinstance(it, (list, tuple, dict, np.ndarray)) for it in items)
        if flat:
            return "[" + ", ".join(_emit(it, 0) for it in items) + "]"
        pad = "  " * (level + 1)
        close = "  " * level
        inner = ",\n".join(pad + _emit(it, level + 1) for it in items)
        return "[\n" + inner + "\n" + close + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (level + 1)
        close = "  " * level
        inner = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_emit(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + close + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats via
    format_float, two-space indentation with lists of scalars on one line."""
    return _emit(obj, 0)


def write_json(path, obj) -> None:
    """Write obj as canonical JSON. An obj that cannot be serialized raises
    before the file is opened, so an existing file is left as it was."""
    text = dumps_canonical(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_int(text: str):
    """An integer literal with more digits than int() converts (see
    sys.get_int_max_str_digits) is far outside the double range: it loads
    as an infinite float, which every typed field rejects by its path."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("", "JSON nested too deeply") from exc


# -- generic field helpers ------------------------------------------------

@contextmanager
def _at(path: str):
    """Report a library ValueError raised inside as a SchemaError on path,
    with the same message. Only library calls go inside, so no SchemaError
    arises there."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _want(doc, field, kinds, path, kind_name):
    if field not in doc:
        raise SchemaError(_join(path, field), "missing required field")
    value = doc[field]
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise SchemaError(_join(path, field), f"expected {kind_name}, got a boolean")
    if not isinstance(value, kinds):
        raise SchemaError(_join(path, field), f"expected {kind_name}, got {type(value).__name__}")
    return value


def _join(path: str, field) -> str:
    field = str(field)
    if not path:
        return field
    return f"{path}.{field}" if not field.startswith("[") else path + field


def _check_version(doc, path):
    version = _want(doc, "spec_version", str, path, "a string")
    major = version.split(".", 1)[0]
    if major != SPEC_VERSION:
        raise SchemaError(_join(path, "spec_version"),
                          f"unsupported major version {version!r} (supported: {SPEC_VERSION})")


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:
        raise SchemaError(path, "integer too large for a double") from None
    if not math.isfinite(out):
        raise SchemaError(path, "value must be finite")
    return out


def _seed(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(path, "expected a non-negative integer")
    return value


def _int_list(value, path):
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    out = []
    for k, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int):
            raise SchemaError(f"{path}[{k}]", "expected an integer")
        out.append(item)
    return out


def _rows(value, n, path):
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a list of {n} rows")
    # One pass over rows of n ints and floats; the loop takes any other rows.
    if (all(type(row) is list and len(row) == n for row in value)
            and {type(x) for row in value for x in row} <= {float, int}):
        with suppress(OverflowError):
            out = np.array(value, dtype=float).reshape(n, n)
            if np.isfinite(out).all():
                return out
    out = np.empty((n, n))
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected a list of {n} numbers")
        for j, item in enumerate(row):
            out[i, j] = _number(item, f"{path}[{i}][{j}]")
    return out


# -- matrix documents ------------------------------------------------------

def matrix_to_doc(m) -> dict:
    """A matrix document whose kind is the one the entries satisfy exactly:
    "skew" if m == -m.T (so the zero matrix is "skew"), else "sym" if
    m == m.T, else "general"."""
    arr = np.asarray(m, dtype=float)
    if np.array_equal(arr, -arr.T):
        kind = "skew"
    elif np.array_equal(arr, arr.T):
        kind = "sym"
    else:
        kind = "general"
    return {
        "spec_version": SPEC_VERSION,
        "n": int(arr.shape[0]),
        "kind": kind,
        "rows": arr.tolist(),
    }


def matrix_from_doc(doc, path: str = "", require_version: bool = True):
    """The rows of a {"n", "kind", "rows"} document as an array.

    The kind must be one of "sym", "skew" and "general", but it does not
    decide how the rows are checked: the role that reads them does
    (body_from_doc, momentum_for_body)."""
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", "expected a JSON object")
    if require_version:
        _check_version(doc, path)
    n = _want(doc, "n", int, path, "an integer")
    if n < 1:
        raise SchemaError(_join(path, "n"), "dimension must be positive")
    kind = _want(doc, "kind", str, path, "a string")
    if kind not in ("sym", "skew", "general"):
        raise SchemaError(_join(path, "kind"), f"unknown kind {kind!r}")
    return _rows(_want(doc, "rows", list, path, "a list"), n, _join(path, "rows"))


def read_matrix(path):
    return matrix_from_doc(load_json(path))


def momentum_for_body(m, body: InertiaSpec, path: str = "") -> np.ndarray:
    """The rows read by matrix_from_doc, taken as a momentum of body: any
    kind whose rows are skew, of the body's dimension, as skew(m). Errors
    name the document's rows or n."""
    try:
        m = skew(m)
    except ValueError as exc:
        raise SchemaError(_join(path, "rows"), f"momentum {exc}") from exc
    n = m.shape[0]
    if n != body.n:
        raise SchemaError(_join(path, "n"), f"momentum has n = {n}, the body has n = {body.n}")
    return m


def body_from_doc(doc, path: str = "", require_version: bool = True) -> InertiaSpec:
    """Inertia from {"eigenvalues": [...]} or a symmetric matrix document."""
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", "expected a JSON object")
    if "eigenvalues" in doc:
        if require_version:
            _check_version(doc, path)
        raw = _want(doc, "eigenvalues", list, path, "a list")
        vals = [_number(v, f"{_join(path, 'eigenvalues')}[{k}]") for k, v in enumerate(raw)]
        with _at(_join(path, "eigenvalues")):
            return InertiaSpec.from_eigenvalues(vals)
    rows = matrix_from_doc(doc, path, require_version=require_version)
    if doc["kind"] != "sym":
        raise SchemaError(_join(path, "kind"), "inertia matrix must have kind 'sym'")
    with _at(_join(path, "rows")):
        return InertiaSpec(rows)


def read_body(path) -> InertiaSpec:
    return body_from_doc(load_json(path))


# -- equilibrium structures ------------------------------------------------

def structure_to_doc(s: EquilibriumStructure) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "n": s.n,
        "blocks": [
            {
                "omega": b.omega,
                "axes": list(b.axes),
                "A": b.A.tolist(),
            }
            for b in s.blocks
        ],
        "fixed_axes": list(s.fixed_axes),
        "regular": s.regular,
        "residual": s.residual,
    }


def _block_fields(doc, path: str):
    """(path, entry, omega, axes) of each entry of a structure's or a
    recipe's "blocks" list."""
    for k, rb in enumerate(_want(doc, "blocks", list, path, "a list")):
        bpath = _join(path, f"blocks[{k}]")
        if not isinstance(rb, dict):
            raise SchemaError(bpath, "expected an object")
        omega = _number(_want(rb, "omega", (int, float), bpath, "a number"), _join(bpath, "omega"))
        axes = _int_list(_want(rb, "axes", list, bpath, "a list"), _join(bpath, "axes"))
        yield bpath, rb, omega, axes


def structure_from_doc(doc, path: str = "") -> EquilibriumStructure:
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", "expected a JSON object")
    _check_version(doc, path)
    n = _want(doc, "n", int, path, "an integer")
    if n < 1:
        raise SchemaError(_join(path, "n"), "dimension must be positive")
    blocks = []
    for bpath, rb, omega, axes in _block_fields(doc, path):
        a_rows = _rows(_want(rb, "A", list, bpath, "a list"), len(axes), _join(bpath, "A"))
        with _at(bpath):
            blocks.append(FrequencyBlock(omega=omega, axes=tuple(axes), A=a_rows))
    fixed = _int_list(_want(doc, "fixed_axes", list, path, "a list"), _join(path, "fixed_axes"))
    residual = _number(doc.get("residual", 0.0), _join(path, "residual"))
    with _at(path or "<root>"):
        structure = EquilibriumStructure(blocks, fixed, n=n, residual=residual)
    if "regular" in doc and _want(doc, "regular", bool, path, "a boolean") != structure.regular:
        raise SchemaError(_join(path, "regular"),
                          f"flag {doc['regular']} contradicts the block structures")
    return structure


# -- generator recipes -----------------------------------------------------

def recipe_from_doc(doc, path: str = "", default_seed: int | None = None) -> EquilibriumStructure:
    """Read a recipe document as the structure it asks for.

    A block's "structure_source" is "standard", "random" or {"A": rows};
    random structures are drawn from the seeded stream in recipe order, and
    each block is permuted into ascending axis order. A "seed" field in the
    document is pinned; default_seed fills in when the document has none."""
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", "expected a JSON object")
    _check_version(doc, path)
    seed = doc.get("seed")
    seed = default_seed if seed is None else _seed(seed, _join(path, "seed"))
    rng = None if seed is None else np.random.default_rng(seed)
    blocks = []
    for bpath, rb, omega, axes in _block_fields(doc, path):
        if not axes or len(axes) % 2 != 0:
            raise SchemaError(_join(bpath, "axes"),
                              f"expected a positive even number of axes, got {len(axes)}")
        source = rb.get("structure_source", "standard")
        spath = _join(bpath, "structure_source")
        if source == "standard":
            a = standard_structure(len(axes) // 2)
        elif source == "random":
            if rng is None:
                raise SchemaError(_join(path, "seed"), "random structures need a seed")
            a = random_structure(len(axes) // 2, rng)
        elif isinstance(source, dict) and "A" in source:
            spath = _join(spath, "A")
            a = _rows(source["A"], len(axes), spath)
            with _at(spath):
                _structure_defect(skew(a))
        else:
            raise SchemaError(spath, "expected 'standard', 'random', or {'A': rows}")
        perm = np.argsort(axes, kind="stable")
        with _at(bpath):
            blocks.append(FrequencyBlock(omega=omega, axes=tuple(sorted(axes)),
                                         A=a[np.ix_(perm, perm)]))
    fixed = _int_list(doc.get("fixed_axes", []), _join(path, "fixed_axes"))
    n = len(fixed) + sum(len(b.axes) for b in blocks)
    with _at(path or "<root>"):
        return EquilibriumStructure(blocks, fixed, n=n)


# -- stability reports -----------------------------------------------------

def linearization_to_doc(rep: LinearizationReport) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "dim": rep.dim,
        "spectrum": np.column_stack((rep.spectrum.real, rep.spectrum.imag)),
        "max_real_part": rep.max_real_part,
        "matrix": rep.matrix,
    }


def orbit_kernel_to_doc(rep: OrbitKernelReport) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "map_rank": rep.map_rank,
        "kernel_dim": rep.kernel_dim,
        "rank_tol": rep.rank_tol,
        "singular_values": rep.singular_values,
        "stabilizer_dim": rep.stabilizer_dim,
        "excess_kernel_dim": rep.excess_kernel_dim,
    }


def probe_to_doc(res: ProbeResult, eps: float, exit_factor: float) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "eps": eps,
        "exit_factor": exit_factor,
        "escaped": res.escaped,
        "exit_time": res.exit_time,
        "samples": int(res.times.size),
        "max_deviation": float(res.deviations.max()),
    }


# -- trajectory export -----------------------------------------------------

# Rows are formatted a block at a time, so memory stays flat however long
# the table is.
_ROW_BLOCK = 1024


def _write_blocks(table: np.ndarray, files: list, outdir=None) -> None:
    """Write table to each (path, header, template) of files: the header, then
    a row per template, whose "%s" fields take the row's floats in order. A
    non-finite table raises ArithmeticError before outdir (made if given) or
    any file is made; all files are opened before any is written. Each block
    of rows is formatted once, by "%.17g" as in format_float, for all files."""
    if not np.isfinite(table).all():
        names = " and ".join(str(path) for path, _, _ in files)
        raise ArithmeticError(f"cannot serialize non-finite values to {names}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                   for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            fh.write(header)
        for start in range(0, table.shape[0], _ROW_BLOCK):
            block = table[start:start + _ROW_BLOCK]
            cells = tuple((_floats(block.size, "\n") % tuple(block.ravel().tolist())).split("\n"))
            for fh, (_, _, template) in zip(handles, files):
                fh.write(template * block.shape[0] % cells)


def write_trajectory(traj: Trajectory, csv=None, jsonl=None, outdir=None) -> None:
    """The CSV file csv and the JSON-lines file jsonl of traj, whichever are
    given, in one pass of _write_blocks. Each sample is a row or an object of
    t, the upper-triangle momentum entries (row-major), energy, casimir_k and
    manakov_k_j."""
    n = traj.momenta.shape[-1]
    iu = np.triu_indices(n, k=1)
    table = np.column_stack((traj.times, traj.momenta[:, iu[0], iu[1]], traj.invariants))
    columns = (["t"] + [f"m_{i}_{j}" for i, j in zip(*iu)]
               + invariant_labels(n, traj.manakov_max_power))
    jsonl_row = ('{"t": %s, "m_upper": [' + _floats(len(iu[0]), field="%s") + '], "energy": %s, '
                 '"casimirs": [' + _floats(n // 2, field="%s") + '], "manakov": ['
                 + _floats(len(manakov_labels(traj.manakov_max_power)), field="%s") + ']}\n')
    files = [(csv, ",".join(columns) + "\n", _floats(len(columns), ",", "%s") + "\n"),
             (jsonl, "", jsonl_row)]
    _write_blocks(table, [file for file in files if file[0] is not None], outdir)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    write_trajectory(traj, csv=path)


def write_trajectory_jsonl(path, traj: Trajectory) -> None:
    write_trajectory(traj, jsonl=path)


def write_probe_curve_csv(path, res: ProbeResult) -> None:
    """Columns: t, deviation."""
    _write_blocks(np.column_stack((res.times, res.deviations)),
                  [(path, "t,deviation\n", "%s,%s\n")])


def drift_summary_doc(traj: Trajectory) -> dict:
    summary = traj.drift_summary()
    return {
        "spec_version": SPEC_VERSION,
        "samples": len(traj.times),
        "dt": traj.step,
        "record_every": traj.record_every,
        "t_end": traj.times[-1],
        "momentum_displacement": traj.momentum_displacement(),
        "max_drift": max(summary.values()),
        "drift": summary,
    }
