"""Command-line surface.

Every command reads a single JSON experiment config (``--config``) and writes
its outputs under ``--out``.  Exit codes: 0 success, 1 usage / bad config,
2 inconclusive verdict or failed harness row, 3 numeric failure.

Config schema (all keys optional unless a command needs them)::

    {
      "map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
      "start": [1.0, 0.0],            # complex as [re, im];
      "starts": [[1.0, 0.0], ...],    # ball/Siegel points as [[re,im], [re,im], ...]
      "n_max": 10000,
      "checkpoints": [100, 1000, 10000],
      "basepoint": [1.0, 0.0],
      "kind": "pommerenke",           # or "baker_pommerenke" (conjugate command)
      "plot": {"marker_size": 2.0, "tail_highlight": 0, "title": ""},
      "tolerances": {"tol_c": 1e-3, "tol_step": 1e-3},   # any Budgets threshold
      "suite": [{"map": {...}, "start": [1.0, 0.0]}, ...]   # harness command
    }

CSV output is comma-delimited with '.' decimals and 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import conjugation, diagnostics, dynamics, maps, plotting
from .errors import DiskDynError, EstimationError, ModelMismatchError, PreconditionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_point(v, model: str, key: str):
    """The config point v of the model; a point outside its domain is a config error naming key."""
    if isinstance(v, (int, float)):
        v = [v, 0.0]
    m = maps.MODELS[model]
    if m.planar:
        if v and isinstance(v[0], list):
            v = v[0]
        p = complex(v[0], v[1])
    else:
        if v and not isinstance(v[0], list):
            v = [v]
        p = np.array([complex(c[0], c[1]) for c in v], np.complex128)
    if not m.contains(p):
        raise ValueError(f"{key} lies outside the {model} domain")
    return p


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _spec(cfg: dict):
    if "map" not in cfg:
        raise KeyError("config is missing the 'map' entry")
    return maps.spec_from_dict(cfg["map"])


def _starts(cfg: dict, spec):
    if "starts" in cfg:
        return [_parse_point(s, spec.model, f"starts[{i}]") for i, s in enumerate(cfg["starts"])]
    if "start" in cfg:
        return [_parse_point(cfg["start"], spec.model, "start")]
    return dynamics._fit_starts(spec, dynamics.default_starts(spec.model))


def _budgets(cfg: dict, args) -> dynamics.Budgets:
    """Budgets with the config's n_max (--n-max first) and the thresholds its tolerances set.

    Every Budgets field but n_max is a threshold; any other tolerances key is a config error.
    """
    tol = dict(cfg.get("tolerances", {}))
    names = [f.name for f in dataclasses.fields(dynamics.Budgets) if f.name != "n_max"]
    unknown = sorted(set(tol) - set(names))
    if unknown:
        raise ValueError(f"unknown tolerances {unknown}; the thresholds are {names}")
    n_max = int(args.n_max if args.n_max is not None else cfg.get("n_max", dynamics.Budgets.n_max))
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return dynamics.Budgets(n_max=n_max, **{k: float(v) for k, v in tol.items()})


def _first_orbit(cfg: dict, budgets: dynamics.Budgets):
    """The orbit of the config's first start, with budgets.n_max steps."""
    spec = _spec(cfg)
    return dynamics.iterate(spec, _starts(cfg, spec)[0], budgets.n_max)


def _orbit_rows(orbit, *series) -> tuple:
    """Header and lines: n, the coordinate re/im pairs, then one column per series.

    Each line comes from one format string mapped over the columns; a series
    shorter than the orbit leaves its last cells empty.
    """
    pts = orbit.points.reshape(orbit.length, -1)  # planar orbits are the N = 1 case
    dim = pts.shape[1]
    if dim == 1:
        header = ["n", "re", "im"]
    else:
        header = ["n"] + [c for j in range(dim) for c in (f"re{j}", f"im{j}")]
    cols = [range(orbit.length)]
    for j in range(dim):
        cols += [pts[:, j].real.tolist(), pts[:, j].imag.tolist()]
    series = [np.asarray(s, np.float64).tolist() for s in series]
    lines, start = [], 0
    # between two series ends, the same series have cells on every line
    for end in sorted({orbit.length} | {min(len(s), orbit.length) for s in series}):
        have = [len(s) >= end for s in series]
        fmt = "{}" + ",{:.17g}" * (2 * dim) + "".join(",{:.17g}" if h else "," for h in have)
        present = [s for s, h in zip(series, have) if h]
        lines += map(fmt.format, *(c[start:end] for c in cols + present))
        start = end
    return header, lines


def _write_csv(path: str, header, lines) -> None:
    write_atomic(path, "\n".join([",".join(header), *lines]) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_classify(cfg, args) -> int:
    spec = _spec(cfg)
    budgets = _budgets(cfg, args)
    rep = dynamics.classify(spec, _starts(cfg, spec), budgets)
    if rep.dw_location == "interior":
        dw_desc = repr(rep.dw_point)
    elif isinstance(rep.dw_point, dynamics.BoundaryPoint) and rep.dw_point.at_infinity:
        dw_desc = "infinity"
    else:
        dw_desc = repr(None if rep.dw_point is None else rep.dw_point.X)
    print(f"{rep.type}, c≈{rep.multiplier_c:.6f}" if rep.type != "elliptic" else rep.type)
    print(f"denjoy_wolff: {dw_desc} ({rep.dw_location})")
    for note in rep.notes:
        print(f"note: {note}")
    out = {
        "type": rep.type,
        "multiplier_c": rep.multiplier_c,
        "dw_location": rep.dw_location,
        "notes": list(rep.notes),
    }
    write_atomic(os.path.join(args.out, "classify.json"), json.dumps(out, indent=2) + "\n")
    return EXIT_OK if rep.type != "inconclusive" else EXIT_INCONCLUSIVE


def cmd_orbit(cfg, args) -> int:
    orbit = _first_orbit(cfg, _budgets(cfg, args))
    header, lines = _orbit_rows(orbit)
    _write_csv(os.path.join(args.out, "orbit.csv"), header, lines)
    print(f"orbit: {orbit.length} points, stop_reason={orbit.stop_reason}")
    return EXIT_NUMERIC if orbit.stop_reason == "numeric_failure" else EXIT_OK


def cmd_steps(cfg, args) -> int:
    budgets = _budgets(cfg, args)
    orbit = _first_orbit(cfg, budgets)
    st = dynamics.step_series(orbit, budgets)
    header, lines = _orbit_rows(orbit, st.s)
    _write_csv(os.path.join(args.out, "steps.csv"), header + ["s_n"], lines)
    print(f"verdict: {st.verdict}, d_inf≈{st.d_inf_estimate:.10g}")
    return EXIT_INCONCLUSIVE if st.verdict == "inconclusive" else EXIT_OK


def cmd_approach(cfg, args) -> int:
    budgets = _budgets(cfg, args)
    orbit = _first_orbit(cfg, budgets)
    # the whole-orbit columns, whose last 20% the report reads
    ap, (special, koranyi, nt, *_) = diagnostics._approach(orbit, None, budgets, whole=True)
    rq = diagnostics.radial_quotient_series(orbit)
    # np.hypot rounds as the scalar abs does; the array abs can differ in the last bit
    header, lines = _orbit_rows(orbit, koranyi, special, nt, np.hypot(rq.real, rq.imag))
    header += ["koranyi_q", "special_ratio", "nt_q", "radial_q"]
    _write_csv(os.path.join(args.out, "approach.csv"), header, lines)
    print(
        f"special={ap.is_special} restricted={ap.is_restricted} "
        f"in_koranyi={ap.in_koranyi} nontangential={ap.is_nontangential} "
        f"koranyi_M={ap.koranyi_M:.6g}"
    )
    return EXIT_OK


def cmd_conjugate(cfg, args) -> int:
    spec = _spec(cfg)
    kinds = {"pommerenke": conjugation.pommerenke_normalized,
             "baker_pommerenke": conjugation.baker_pommerenke_normalized}
    kind = cfg.get("kind", "pommerenke")
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}; the kinds are {sorted(kinds)}")
    _budgets(cfg, args)  # checked only: the conjugations keep their default precheck
    checkpoints = tuple(cfg.get("checkpoints", conjugation.DEFAULT_CHECKPOINTS))
    basepoint = _parse_point(cfg.get("basepoint", [1.0, 0.0]), "halfplane", "basepoint")
    res = kinds[kind](spec, basepoint=basepoint, checkpoints=checkpoints)
    for n in res.checkpoints:
        header = ["re_g", "im_g", "re_psi", "im_psi"]
        cols = [v.tolist() for c in (res.grid, res.psi_n[n]) for v in (c.real, c.imag)]
        lines = map(",".join(["{:.17g}"] * 4).format, *cols)
        _write_csv(os.path.join(args.out, f"conjugation_n{n}.csv"), header, lines)
    report = conjugation.conjugation_report(res)
    write_atomic(os.path.join(args.out, "conjugation_summary.txt"), report + "\n")
    print(report)
    return EXIT_OK


def cmd_harness(cfg, args) -> int:
    budgets = _budgets(cfg, args)
    suite = None
    if "suite" in cfg:
        suite = []
        for i, case in enumerate(cfg["suite"]):
            spec = maps.spec_from_dict(case["map"])
            suite.append((spec, _parse_point(case["start"], spec.model, f"suite[{i}].start")))
    else:
        suite = diagnostics.default_harness_suite(seed=args.seed)
    rep = diagnostics.theorem_harness(suite, budgets)
    # the approach statistics that decided the flags, empty for skipped rows
    stats = ["special_ratio_tail_mean", "nt_tail_max", "koranyi_sup_tail",
             "euclid_nt_tail_max", "tangency_tail_max"]
    header = ["case", "type", "restricted", "step_verdict", "final_step", "radial_dev",
              "passed", "skipped", "notes"] + stats
    rows = []
    for r in rep.rows:
        ap = r.approach
        rows.append([
            r.label.replace(",", ";"),
            r.classified_type,
            str(r.restricted),
            str(r.step_verdict),
            _fmt(r.final_step) if r.final_step is not None else "",
            _fmt(r.radial_dev) if r.radial_dev is not None else "",
            str(r.passed),
            str(r.skipped),
            r.notes.replace(",", ";"),
        ] + [_fmt(getattr(ap, f)) if ap is not None else "" for f in stats])
    _write_csv(os.path.join(args.out, "harness.csv"), header, map(",".join, rows))
    summary = (
        f"rows: {len(rep.rows)} passed: {rep.n_passed} failed: {rep.n_failed} "
        f"skipped: {rep.n_skipped} implications_ok: {rep.implications_ok()}"
    )
    write_atomic(os.path.join(args.out, "harness_summary.txt"), summary + "\n")
    print(summary)
    return EXIT_OK if rep.all_passed else EXIT_INCONCLUSIVE


def cmd_probe(cfg, args) -> int:
    spec = _spec(cfg)
    budgets = _budgets(cfg, args)
    starts = _starts(cfg, spec) if ("starts" in cfg) else None
    rep = diagnostics.conjecture_probe(spec, starts, budgets)
    header = ["start", "verdict", "d_inf_estimate"]
    rows = [
        [repr(s).replace(",", ";"), v, _fmt(d)]
        for s, v, d in zip(rep.starts, rep.verdicts, rep.d_inf_estimates)
    ]
    _write_csv(os.path.join(args.out, "probe.csv"), header, map(",".join, rows))
    print(f"{rep.flag}: {rep.verdicts}")
    return EXIT_OK if rep.flag == "CONSISTENT" else EXIT_INCONCLUSIVE


def cmd_plot(cfg, args) -> int:
    orbit = _first_orbit(cfg, _budgets(cfg, args))
    disk_pts = plotting.orbit_disk_coords(orbit)
    popts = cfg.get("plot", {})
    svg = plotting.render_orbit_svg(
        disk_pts,
        marker_size=float(popts.get("marker_size", 2.0)),
        tail_highlight=int(popts.get("tail_highlight", 0)),
        title=str(popts.get("title", "")),
    )
    path = os.path.join(args.out, "plot.svg")
    write_atomic(path, svg)
    print(f"wrote {path} ({orbit.length} points)")
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "orbit": cmd_orbit,
    "steps": cmd_steps,
    "approach": cmd_approach,
    "conjugate": cmd_conjugate,
    "harness": cmd_harness,
    "probe": cmd_probe,
    "plot": cmd_plot,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diskdyn", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "harness"), help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-max", type=int, default=None)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        cfg = _load_config(args.config) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg, args)
    except (EstimationError, PreconditionError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ModelMismatchError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiskDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
