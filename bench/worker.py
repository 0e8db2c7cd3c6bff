"""One workload in a process of its own: set-up, timed passes, checks, traced pass.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP thread
counts pinned to 1.  Prints one JSON object as the last line of its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def measure(wl, seconds: float):
    """Repeat whole passes until `seconds` of pass time and min_passes are reached.

    Returns the raw pass walls, the walls at the reference speed and the
    checked outcome of each pass.
    """
    import speed

    raw, scaled, outcomes = [], [], []
    while len(raw) < wl.min_passes or sum(raw) < seconds:
        result, wall, wall_ref = speed.timed(wl.run_pass)
        raw.append(wall)
        scaled.append(wall_ref)
        outcomes.append(wl.check(result))
    return raw, scaled, outcomes


def traced_run(wl, run_id: str, untraced_walls: list):
    """One traced pass, the layer sweep and the family micro-run.

    Returns the per-layer metrics, the pass's checked outcomes, the family
    spreads, and the trace record to write out.
    """
    import layers
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = run_id
        result, _, traced_wall = speed.timed(wl.run_pass)
        tracer.run_id = "sweep"
        sweep_codes = layers.sweep(OUT_DIR)
    finally:
        tracer.uninstall()
    outcomes = [wl.check(result)]
    if any(code != 0 for code in sweep_codes):
        outcomes.append(workloads.Outcome(1, 1, 0.0, [f"sweep CLI exit codes {sweep_codes}"]))
    metrics, sources = tracing.layer_metrics(tracer.spans, run_id, "sweep")
    family, spreads = layers.family_micro()
    metrics.update(family)
    untraced = statistics.median(untraced_walls)
    metrics["trace.overhead_share"] = {
        "value": (traced_wall - untraced) / untraced, "unit": "share"}
    record = {"run_id": run_id, "metric_sources": sources, "family_micro": spreads,
              "untraced_walls": untraced_walls, "traced_wall": traced_wall,
              "spans": [_span_json(s) for s in tracer.spans]}
    return metrics, outcomes, spreads, record


def _span_json(span):
    name, t0, t1, parent, run_id, attrs = span
    if attrs is not None and "key" in attrs:
        attrs = dict(attrs, key=hashlib.sha1(repr(attrs["key"]).encode()).hexdigest()[:16])
    return {"name": name, "start": t0, "end": t1, "parent": parent, "run": run_id,
            "attrs": attrs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: importing diskdyn (and numpy) and building the inputs
    t0 = time.perf_counter()
    import numpy
    import speed
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT_DIR)
    setup_raw = time.perf_counter() - t0
    # the core speed persists over far longer than the 0.2 s set-up
    setup_s = setup_raw * speed.REFERENCE_S / statistics.median(
        speed.reference_time() for _ in range(5))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        raw_walls, walls, outcomes = measure(wl, args.seconds)
        out = {
            "setup_s": setup_s,
            "walls": walls,
            "raw_walls": raw_walls,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
        if args.trace:
            run_id = f"{args.workload}-seed{args.seed}"
            metrics, traced, spreads, record = traced_run(wl, run_id, walls)
            outcomes += traced
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump(record, fh)
            out.update(metrics=metrics, family_spreads=spreads,
                       trace_file=os.path.relpath(path, ROOT))
        out["attempted"] = sum(o.attempted for o in outcomes)
        out["failed"] = sum(o.failed for o in outcomes)
        out["relerr_max"] = max(o.relerr_max for o in outcomes)
        out["failures"] = sorted({f for o in outcomes for f in o.failures})
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
