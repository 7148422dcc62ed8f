"""Spans around the public functions of each freetop module.

The benchmark measures every layer from outside the package: ``install``
replaces a function with a timing wrapper in every freetop module that
binds it. Patching only the defining module would miss callers that did
``from .body import integrate``, because such an import copies the
reference at import time. ``InertiaSpec`` is a class that other modules
test with ``isinstance``, so its ``__init__`` is wrapped instead of the
name.

Spans are kept in memory as (name, start, end, parent, item, failed,
attrs) and turned into per-layer metrics when the run ends. A layer's
self time is its duration minus the durations of its direct child spans;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# module -> public functions wrapped in it. Span names drop the leading
# underscore of the module name: "_kernels.rk4_momentum" is traced as
# "kernels.rk4_momentum".
TRACED = {
    "freetop._kernels": ("rk4_momentum",),
    "freetop.linalg": ("eigen_symmetric",),
    "freetop.body": ("integrate", "compute_invariants"),
    "freetop.equilibria": ("generate", "classify", "is_equilibrium"),
    "freetop.stability": ("linearize", "orbit_kernel", "stabilizer_dimension"),
    "freetop.serialize": ("write_trajectory_csv", "write_trajectory_jsonl", "write_json",
                          "read_body", "read_matrix", "load_json"),
    "freetop.scenario": ("scenario_from_doc", "run_scenario"),
    "freetop.cli": ("main",),
}
WRITERS = ("serialize.write_trajectory_csv", "serialize.write_trajectory_jsonl",
           "serialize.write_json")
ITEM_SPAN = "bench.item"
KERNEL_DIMS = tuple(range(3, 9))

NAME, START, END, PARENT, ITEM, FAILED, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; ``item`` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item, False, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = span[FAILED] or failed
        self._stack.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + base
            span[ITEM] = self.item
            self.spans.append(span)


def _layer(module: str) -> str:
    return module.split(".", 1)[1].lstrip("_")


def _wrap(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        attrs = None
        if name == "kernels.rk4_momentum":
            attrs = {"n": int(args[0].shape[0]), "steps": int(args[3])}
        idx = tracer.open(name, attrs)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx, failed=name == "cli.main" and result != 0)
        if name in WRITERS:
            tracer.spans[idx][ATTRS] = {"bytes": os.path.getsize(args[0])}
        return result

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function; returns the patches for ``uninstall``."""
    for modname in TRACED:
        importlib.import_module(modname)
    from freetop.body import InertiaSpec

    patches = []
    modules = [m for key, m in list(sys.modules.items())
               if key == "freetop" or key.startswith("freetop.")]
    for modname, funcs in TRACED.items():
        home = sys.modules[modname]
        for func in funcs:
            orig = getattr(home, func)
            wrapper = _wrap(tracer, f"{_layer(modname)}.{func}", orig)
            for module in modules:
                if getattr(module, func, None) is orig:
                    patches.append((module, func, orig))
                    setattr(module, func, wrapper)
    init = InertiaSpec.__init__
    patches.append((InertiaSpec, "__init__", init))
    InertiaSpec.__init__ = _wrap(tracer, "body.InertiaSpec", init)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


# -- per-layer metrics ------------------------------------------------------

def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    Counts and seconds are per pass over the workload's item pool, so they
    compare across versions however fast a pass runs.
    """
    spec = [
        ("bench.passes", "count", "higher"),
        ("bench.item.busy_s", "s", "lower"),
        ("kernels.rk4_momentum.calls", "count", "lower"),
        ("kernels.rk4_momentum.busy_s", "s", "lower"),
        ("kernels.rk4_momentum.us_per_step", "us", "lower"),
        ("kernels.rk4_momentum.item_share", "ratio", "lower"),
    ]
    for n in KERNEL_DIMS:
        spec += [
            (f"kernels.rk4_momentum.n{n}.calls", "count", "lower"),
            (f"kernels.rk4_momentum.n{n}.busy_s", "s", "lower"),
            (f"kernels.rk4_momentum.n{n}.us_per_step", "us", "lower"),
            (f"kernels.rk4_momentum.n{n}.flops_per_step", "flop", "lower"),
            (f"kernels.rk4_momentum.n{n}.bytes_per_step", "B", "lower"),
        ]
    spec += [
        ("body.integrate.calls", "count", "lower"),
        ("body.integrate.busy_s", "s", "lower"),
        ("body.integrate.self_s", "s", "lower"),
        ("body.integrate.kernel_share", "ratio", "higher"),
        ("body.compute_invariants.calls", "count", "lower"),
        ("body.compute_invariants.busy_s", "s", "lower"),
        ("body.compute_invariants.us_per_sample", "us", "lower"),
        ("body.InertiaSpec.calls", "count", "lower"),
        ("body.InertiaSpec.busy_s", "s", "lower"),
        ("body.InertiaSpec.self_s", "s", "lower"),
        ("linalg.eigen_symmetric.calls", "count", "lower"),
        ("linalg.eigen_symmetric.busy_s", "s", "lower"),
        ("linalg.eigen_symmetric.ms_per_call", "ms", "lower"),
        ("equilibria.generate.calls", "count", "lower"),
        ("equilibria.generate.busy_s", "s", "lower"),
        ("equilibria.classify.calls", "count", "lower"),
        ("equilibria.classify.busy_s", "s", "lower"),
        ("equilibria.classify.failed", "count", "lower"),
        ("equilibria.is_equilibrium.calls", "count", "lower"),
        ("equilibria.is_equilibrium.busy_s", "s", "lower"),
        ("stability.linearize.busy_s", "s", "lower"),
        ("stability.orbit_kernel.busy_s", "s", "lower"),
        ("stability.stabilizer_dimension.busy_s", "s", "lower"),
        ("serialize.write_trajectory_csv.busy_s", "s", "lower"),
        ("serialize.write_trajectory_csv.bytes", "B", "lower"),
        ("serialize.write_trajectory_jsonl.busy_s", "s", "lower"),
        ("serialize.write_trajectory_jsonl.bytes", "B", "lower"),
        ("serialize.write_json.calls", "count", "lower"),
        ("serialize.write_json.busy_s", "s", "lower"),
        ("serialize.write_json.bytes", "B", "lower"),
        ("serialize.read_body.busy_s", "s", "lower"),
        ("serialize.read_body.self_s", "s", "lower"),
        ("serialize.read_matrix.busy_s", "s", "lower"),
        ("serialize.load_json.busy_s", "s", "lower"),
        ("scenario.scenario_from_doc.busy_s", "s", "lower"),
        ("scenario.run_scenario.busy_s", "s", "lower"),
        ("scenario.run_scenario.self_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.busy_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.main.failed", "count", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("cli.tracing_overhead_frac", "ratio", "lower"),
    ]
    return spec


def kernel_flops_per_step(n: int) -> int:
    """Floating-point operations of one RK4 step as rk4_momentum_numpy writes
    it: four fields (n^2 divisions, an n x n product, a transpose difference)
    plus the stage and update combinations."""
    return 8 * n ** 3 + 16 * n ** 2


def kernel_bytes_per_step(n: int) -> int:
    """Array bytes one RK4 step reads and writes in the numpy formulation,
    each float64 operand counted once per array operation: 72 n^2 per field
    evaluation, 40 n^2 per stage input, 128 n^2 for the update."""
    return 536 * n ** 2


def aggregate(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from spans, totals divided by the number of passes.

    A name ending in calls, busy_s, self_s, failed or bytes is that total
    for the span named by the rest; kernel spans also count under
    ``kernels.rk4_momentum.nN`` for their n. The ratios are derived below.
    """
    totals = {field: {} for field in ("calls", "busy_s", "self_s", "failed", "bytes", "steps")}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    for s, children in zip(spans, child_time):
        dur = s[END] - s[START]
        attrs = s[ATTRS] or {}
        names = [s[NAME]]
        if "n" in attrs:
            names.append(f"{s[NAME]}.n{attrs['n']}")
        for name in names:
            for field, value in (("calls", 1), ("busy_s", dur), ("self_s", dur - children),
                                 ("failed", int(s[FAILED])), ("bytes", attrs.get("bytes", 0)),
                                 ("steps", attrs.get("steps", 0))):
                totals[field][name] = totals[field].get(name, 0) + value

    def total(name, field):
        return totals[field].get(name, 0) / max(passes, 1)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    for key, _, _ in per_layer_spec():
        base, field = key.rsplit(".", 1)
        if field in totals:
            out[key] = float(total(base, field))
    kernel = "kernels.rk4_momentum"
    out["bench.passes"] = float(passes)
    out[f"{kernel}.us_per_step"] = ratio(total(kernel, "busy_s"), total(kernel, "steps"), 1e6)
    out[f"{kernel}.item_share"] = ratio(total(kernel, "busy_s"), total(ITEM_SPAN, "busy_s"))
    for n in KERNEL_DIMS:
        out[f"{kernel}.n{n}.flops_per_step"] = float(kernel_flops_per_step(n))
        out[f"{kernel}.n{n}.bytes_per_step"] = float(kernel_bytes_per_step(n))
    out["body.integrate.kernel_share"] = ratio(total(kernel, "busy_s"),
                                               total("body.integrate", "busy_s"))
    out["body.compute_invariants.us_per_sample"] = ratio(
        total("body.compute_invariants", "busy_s"), total("body.compute_invariants", "calls"),
        1e6)
    out["linalg.eigen_symmetric.ms_per_call"] = ratio(
        total("linalg.eigen_symmetric", "busy_s"), total("linalg.eigen_symmetric", "calls"), 1e3)
    return out
