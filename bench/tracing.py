"""Spans around the public functions of diskdyn's modules, recorded from outside.

``Tracer.install`` wraps every public function defined in each module and
rebinds every reference to it that the package holds: module attributes
(including the names ``diagnostics`` and ``conjugation`` bind with
``from .dynamics import iterate, ...``) and module-level dispatch tables
(``dynamics._STEP_FN``, ``cli.COMMANDS``).  ``uninstall`` puts the originals
back.  Untraced runs never call ``install``.

A span is ``[name, start, end, parent index, run id, attributes]``; spans stay
in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import diskdyn
from diskdyn import cli, conjugation, diagnostics, dynamics, geometry, maps, plotting

TRACED_MODULES = (geometry, maps, dynamics, conjugation, diagnostics, plotting, cli)


def _point_key(p) -> bytes:
    return np.asarray(p, np.complex128).tobytes()


def _iterate_attrs(bound, orbit) -> dict:
    a = bound.arguments
    key = (repr(a["spec"]), _point_key(a["start"]), int(a["n_max"]), repr(a.get("policy")))
    return {"key": key, "steps": orbit.length - 1}


def _classify_attrs(bound, _report) -> dict:
    a = bound.arguments
    starts = a.get("starts")
    starts = None if starts is None else tuple(_point_key(s) for s in starts)
    return {"key": (repr(a["spec"]), starts, repr(a.get("budgets")))}


def _series_attrs(bound, _result) -> dict:
    return {"points": len(next(iter(bound.arguments.values())))}


def _write_attrs(bound, _result) -> dict:
    return {"bytes": len(bound.arguments["text"].encode())}


def _is_series(name: str) -> bool:
    return name.startswith("geometry.") and "_series_" in name


ATTRS = {
    "dynamics.iterate": _iterate_attrs,
    "dynamics.classify": _classify_attrs,
    "cli.write_atomic": _write_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name) or (_series_attrs if _is_series(name) else None)
        sig = inspect.signature(fn) if attrs else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs:
                span[5] = attrs(sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))

        def swap(container, key, obj, setter):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setter(container, key, hit[1])
                self._restore.append((setter, container, key, obj))

        for mod in TRACED_MODULES + (diskdyn,):
            for name, obj in list(vars(mod).items()):
                swap(mod, name, obj, setattr)
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        swap(obj, key, val, dict.__setitem__)

    def uninstall(self) -> None:
        for setter, container, key, original in reversed(self._restore):
            setter(container, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from spans


class _Layer:
    """Per-name totals over the spans of one run id."""

    def __init__(self, spans, run_id):
        idx = [i for i, s in enumerate(spans) if s[4] == run_id]
        child_time = defaultdict(float)
        for i in idx:
            s = spans[i]
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(list)
        for i in idx:
            name, t0, t1, _, _, attrs = spans[i]
            self.calls[name] += 1
            self.busy[name] += t1 - t0
            self.self_time[name] += (t1 - t0) - child_time[i]
            if attrs is not None:
                self.attrs[name].append(attrs)

    def reached(self, needs) -> bool:
        return any(needs(name) for name in self.calls)

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(module + "."))

    def series(self):
        names = [n for n in self.calls if _is_series(n)]
        busy = sum(self.busy[n] for n in names)
        points = sum(a["points"] for n in names for a in self.attrs[n])
        return busy, points

    def distinct(self, name: str):
        seen = {}
        for a in self.attrs[name]:
            seen.setdefault(a["key"], a.get("steps", 0))
        return len(seen), sum(seen.values())


def _ratio(num, den):
    return num / den if den else 0.0


def _named(prefix: str):
    return lambda name: name.startswith(prefix)


# (metric, unit, span-name prefix or predicate the metric needs, value from a _Layer)
LAYER_METRICS = [
    ("dynamics.iterate.calls", "count", "dynamics.iterate",
     lambda L: L.calls["dynamics.iterate"]),
    ("dynamics.iterate.distinct_calls", "count", "dynamics.iterate",
     lambda L: L.distinct("dynamics.iterate")[0]),
    ("dynamics.iterate.steps", "count", "dynamics.iterate",
     lambda L: sum(a["steps"] for a in L.attrs["dynamics.iterate"])),
    ("dynamics.iterate.distinct_steps", "count", "dynamics.iterate",
     lambda L: L.distinct("dynamics.iterate")[1]),
    ("dynamics.iterate.distinct_steps_share", "share", "dynamics.iterate",
     lambda L: _ratio(L.distinct("dynamics.iterate")[1],
                      sum(a["steps"] for a in L.attrs["dynamics.iterate"]))),
    ("dynamics.iterate.busy_s", "s", "dynamics.iterate",
     lambda L: L.busy["dynamics.iterate"]),
    ("dynamics.iterate.us_per_step", "us", "dynamics.iterate",
     lambda L: 1e6 * _ratio(L.busy["dynamics.iterate"],
                            sum(a["steps"] for a in L.attrs["dynamics.iterate"]))),
    ("dynamics.classify.calls", "count", "dynamics.classify",
     lambda L: L.calls["dynamics.classify"]),
    ("dynamics.classify.distinct_calls", "count", "dynamics.classify",
     lambda L: L.distinct("dynamics.classify")[0]),
    ("dynamics.classify.distinct_share", "share", "dynamics.classify",
     lambda L: _ratio(L.distinct("dynamics.classify")[0], L.calls["dynamics.classify"])),
    ("dynamics.classify.busy_s", "s", "dynamics.classify",
     lambda L: L.busy["dynamics.classify"]),
    ("dynamics.step_series.busy_s", "s", "dynamics.step_series",
     lambda L: L.busy["dynamics.step_series"]),
    ("dynamics.estimate_denjoy_wolff.busy_s", "s", "dynamics.estimate_denjoy_wolff",
     lambda L: L.busy["dynamics.estimate_denjoy_wolff"]),
    ("dynamics.estimate_multiplier.busy_s", "s", "dynamics.estimate_multiplier",
     lambda L: L.busy["dynamics.estimate_multiplier"]),
    ("geometry.series.busy_s", "s", _is_series, lambda L: L.series()[0]),
    ("geometry.series.points", "count", _is_series, lambda L: L.series()[1]),
    ("geometry.series.ns_per_point", "ns", _is_series,
     lambda L: 1e9 * _ratio(*L.series())),
    ("diagnostics.theorem_harness.self_s", "s", "diagnostics.theorem_harness",
     lambda L: L.self_time["diagnostics.theorem_harness"]),
    ("diagnostics.approach_report.busy_s", "s", "diagnostics.approach_report",
     lambda L: L.busy["diagnostics.approach_report"]),
    ("diagnostics.radial_quotient_series.busy_s", "s", "diagnostics.radial_quotient_series",
     lambda L: L.busy["diagnostics.radial_quotient_series"]),
    ("diagnostics.conjecture_probe.busy_s", "s", "diagnostics.conjecture_probe",
     lambda L: L.busy["diagnostics.conjecture_probe"]),
    ("conjugation.pommerenke_normalized.busy_s", "s", "conjugation.pommerenke_normalized",
     lambda L: L.busy["conjugation.pommerenke_normalized"]),
    ("conjugation.baker_pommerenke_normalized.busy_s", "s",
     "conjugation.baker_pommerenke_normalized",
     lambda L: L.busy["conjugation.baker_pommerenke_normalized"]),
    ("conjugation.self_s", "s", "conjugation.", lambda L: L.module_self("conjugation")),
    ("cli.main.calls", "count", "cli.main", lambda L: L.calls["cli.main"]),
    ("cli.main.busy_s", "s", "cli.main", lambda L: L.busy["cli.main"]),
    ("cli.self_s", "s", "cli.", lambda L: L.module_self("cli")),
    ("cli.bytes_written", "bytes", "cli.write_atomic",
     lambda L: sum(a["bytes"] for a in L.attrs["cli.write_atomic"])),
    ("plotting.render_orbit_svg.busy_s", "s", "plotting.render_orbit_svg",
     lambda L: L.busy["plotting.render_orbit_svg"]),
    ("plotting.orbit_disk_coords.busy_s", "s", "plotting.orbit_disk_coords",
     lambda L: L.busy["plotting.orbit_disk_coords"]),
]


def layer_metrics(spans, run_id, sweep_id):
    """Per-layer metrics of run_id; a layer it never reached is read from sweep_id.

    Returns (metrics, sources): sources maps each metric to the run id it came from.
    """
    own, sweep = _Layer(spans, run_id), _Layer(spans, sweep_id)
    metrics, sources = {}, {}
    for name, unit, needs, fn in LAYER_METRICS:
        needs = _named(needs) if isinstance(needs, str) else needs
        layer, src = (own, run_id) if own.reached(needs) else (sweep, sweep_id)
        metrics[name] = {"value": fn(layer), "unit": unit}
        sources[name] = src
    return metrics, sources
