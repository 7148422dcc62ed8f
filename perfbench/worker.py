"""Benchmark worker: set-up and the measured loop of one workload.

Started by run.py in the program's environment (PYTHONPATH=src, thread
counts pinned). It builds the workload's inputs, prints the ready marker
so run.py can time the set-up from outside, then runs the closed loop and
prints one JSON result line.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

READY = "@@perfbench-ready"


def _run_one(wl, i):
    """(seconds, error) of item i; an exception is a failed item, not a crash."""
    t0 = time.perf_counter()
    try:
        return wl.run(i)
    except Exception as exc:  # the loop must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten items beyond it; the median
    when fewer than twenty items ran, where that percentile would be lower."""
    return 100.0 * (1.0 - 10.0 / count) if count >= 20 else 50.0


def timed_run(wl, seconds: float) -> dict:
    """The closed loop. Each item's wall time is scaled to the nominal host
    speed by the yardstick loop timed between items (see hostspeed.py);
    the raw wall-time figures go in the record as ``wall_*``."""
    import numpy as np

    import hostspeed

    times, raw, scales, errors = [], [], [], []
    loop_s = loop_wall = 0.0
    attempted = 0
    ref = hostspeed.reference_s()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        elapsed, err = _run_one(wl, attempted)
        wall = time.perf_counter() - t0
        ref_next = hostspeed.reference_s()
        k = hostspeed.scale(ref, ref_next)
        ref = ref_next
        attempted += 1
        loop_s += wall * k
        loop_wall += wall
        scales.append(k)
        if err is None:
            times.append(elapsed * k)
            raw.append(elapsed)
        else:
            errors.append(err)
        if time.perf_counter() - start >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "simulate" else resource.RUSAGE_SELF
    pct = tail_percentile(len(times))

    def stats(values, total):
        if not values:
            return 0.0, 0.0, 0.0
        return (len(values) / total, float(np.median(values)) * 1e3,
                float(np.percentile(values, pct)) * 1e3)

    items_per_s, p50_ms, tail_ms = stats(times, loop_s)
    metrics = {
        "items_per_s": items_per_s,
        "item_p50_ms": p50_ms,
        "item_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    wall_items_per_s, wall_p50_ms, wall_tail_ms = stats(raw, loop_wall)
    detail = {
        "items": attempted,
        "passed": len(times),
        "failed_frac": len(errors) / attempted,
        "tail_percentile": round(pct, 3),
        "timed_s": loop_s,
        "timed_wall_s": loop_wall,
        "host_scale": {"min": min(scales), "median": float(np.median(scales)),
                       "max": max(scales)},
        "wall_items_per_s": wall_items_per_s,
        "wall_item_p50_ms": wall_p50_ms,
        "wall_item_tail_ms": wall_tail_ms,
    }
    for key, total in wl.work(attempted).items():
        detail[f"{key}_per_s"] = total / loop_s
    return {"attempted": attempted, "failed": len(errors), "errors": errors[:5],
            "metrics": metrics, "detail": detail}


def traced_run(wl, seconds: float) -> dict:
    """Passes over the item pool, each item run untraced and then traced,
    while another pass still fits in the time (at least one pass).
    Per-layer totals are per traced pass; running the two variants of an
    item back to back keeps machine-speed drift out of the overhead ratio."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    errors = []
    attempted = 0
    walls = {False: 0.0, True: 0.0}
    passes = 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for k in range(wl.pool):
            for traced in (False, True):
                patches = tracing.install(tracer) if traced else []
                wl.tracer = tracer if traced else None
                tracer.item = attempted
                t0 = time.perf_counter()
                idx = tracer.open(tracing.ITEM_SPAN) if traced else None
                _, err = _run_one(wl, k)
                if traced:
                    tracer.close(idx)
                walls[traced] += time.perf_counter() - t0
                wl.tracer = None
                tracing.uninstall(patches)
                attempted += 1
                if err is not None:
                    errors.append(err)
        passes += 1
    metrics = tracing.aggregate(tracer.spans, passes)
    for n, us in workloads.kernel_us_per_step().items():
        metrics[f"kernels.rk4_momentum.n{n}.us_per_step"] = us
    metrics["cli.startup_s"] = workloads.startup_s()
    metrics["cli.tracing_overhead_frac"] = walls[True] / walls[False] - 1.0
    detail = {"items": attempted, "failed_frac": len(errors) / attempted,
              "traced_wall_s": walls[True], "untraced_wall_s": walls[False]}
    return {"attempted": attempted, "failed": len(errors), "errors": errors[:5],
            "metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--inject", choices=("perturb",), default=None)
    args = parser.parse_args()

    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    workloads.warm_kernel()
    extra = {"inject": args.inject} if args.inject else {}
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, quick=args.quick, **extra)
    print(READY, flush=True)
    if args.setup_only:
        return 0
    result = (traced_run if args.trace else timed_run)(wl, args.seconds)
    result["detail"]["provenance"] = workloads.provenance(wl)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
