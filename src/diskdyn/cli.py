"""Command-line surface.

Every command reads a single JSON experiment config (``--config``) and writes
its outputs under ``--out``; CSV output is comma-delimited with '.' decimals and
17 significant digits.  Exit codes: 0 success, 1 usage / bad config,
2 inconclusive verdict or failed harness row, 3 numeric failure.

``main`` checks the whole config before any command runs.  A key that no
command reads, or a value of the wrong type, shape or N, is a config error
naming its path (``n_maxx``, ``plot.colour``, ``suite[0].start``); a key that
only another command reads is allowed, so that one config serves several
commands.  Every key is optional, but only ``harness`` runs without ``map``::

    {
      "map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
      "start": [1.0, 0.0],            # a number or one [re, im] pair; a ball/Siegel point
      "starts": [[1.0, 0.0], ...],    #   may be N pairs, N the map's where the map fixes it
      "n_max": 100000,                # an integer >= 0; --n-max replaces it
      "tolerances": {"tol_c": 1e-3, "tol_step": 1e-3},   # numbers, for any Budgets threshold
      "checkpoints": [100, 1000, 10000, 100000],          # conjugate: integers >= 1
      "basepoint": [1.0, 0.0],        # conjugate, a half-plane point
      "kind": "pommerenke",           # conjugate, or "baker_pommerenke"
      "plot": {"marker_size": 2.0, "tail_highlight": 0, "title": ""},  # number, int >= 0, string
      "suite": [{"map": {...}, "start": [1.0, 0.0]}, ...]   # harness rows
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import conjugation, diagnostics, dynamics, maps, plotting
from .errors import DiskDynError, EstimationError, PreconditionError

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


# each rule a config value must meet, by the words its error names it with
_RULES = {
    "a number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "an integer": lambda x: type(x) is int,
    "an integer >= 0": lambda x: type(x) is int and x >= 0,
    "integers >= 1": lambda x: (isinstance(x, (list, tuple)) and len(x) > 0
                                and all(type(c) is int and c >= 1 for c in x)),
    "a string or a number": lambda x: isinstance(x, str) or _RULES["a number"](x),
    "a list": lambda x: isinstance(x, list),
    "a non-empty list": lambda x: isinstance(x, list) and len(x) > 0,
}


def _must(x, key: str, rule: str):
    """x, checked to meet the rule; a config error names key."""
    if not _RULES[rule](x):
        raise ValueError(f"{key} must be {rule}, got {x!r}")
    return x


def _parse_point(v, model: str, key: str, dim: int | None = None):
    """The point v of the model: a number, an [re, im] pair or a list of N pairs (N = 1 if planar,
    dim where the map fixes N); another shape or N, or a point outside, is an error naming key."""
    m, number = maps.MODELS[model], _RULES["a number"]
    nested = isinstance(v, list) and v and isinstance(v[0], list)
    pairs = [[v, 0.0]] if number(v) else v if nested else [v]
    if not all(isinstance(c, list) and len(c) == 2 and all(map(number, c)) for c in pairs):
        raise ValueError(f"{key} must be a number, an [re, im] pair or a list of them, got {v!r}")
    dim = 1 if m.planar else dim
    if dim not in (None, len(pairs)):
        raise ValueError(f"{key} has {len(pairs)} coordinates, not N = {dim}")
    p = m.point(np.array([complex(*c) for c in pairs]))
    if not m.contains(p):
        raise ValueError(f"{key} lies outside the {model} domain")
    return p


_KEYS = ("map", "start", "starts", "n_max", "tolerances", "checkpoints", "basepoint", "kind",
         "plot", "suite")
# each plot value's default, whose type a value takes, and its rule
_PLOT = {"marker_size": (2.0, "a number"), "tail_highlight": (0, "an integer >= 0"),
         "title": ("", "a string or a number")}
_KINDS = ("pommerenke", "baker_pommerenke")


@dataclasses.dataclass(frozen=True)
class Config:
    """A checked config with its defaults filled in."""

    spec: object  # None without a map
    starts: list  # "starts", else ["start"], else the model's default starts
    probe_starts: list | None  # "starts" alone: the probe has its own defaults
    budgets: dynamics.Budgets
    kind: str
    conjugate: dict  # the conjugations' basepoint and checkpoints
    plot: dict  # render_orbit_svg's options
    suite: list | None  # (spec, start) rows; None for the default suite

    def first_orbit(self):
        """The orbit of the first start, with n_max steps."""
        return dynamics.iterate(self.spec, self.starts[0], self.budgets.n_max)


def _known(d: dict, keys, path: str = "", what: str = "keys") -> dict:
    """d, checked to be an object with no key outside keys; an error names a key as path + key."""
    if not isinstance(d, dict):
        raise TypeError(f"expected an object for {path[:-1] or what}, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} {[path + k for k in unknown]}; known: {sorted(keys)}")
    return d


def parse_config(raw: dict, n_max: int | None = None) -> Config:
    """The Config of raw, a loaded JSON config; n_max, when given, replaces its n_max."""
    _known(raw, _KEYS, what="config keys")
    thresholds = [f.name for f in dataclasses.fields(dynamics.Budgets) if f.name != "n_max"]
    tol = _known(raw.get("tolerances", {}), thresholds, what="tolerances")
    n_max = n_max if n_max is not None else raw.get("n_max", dynamics.Budgets.n_max)
    if _must(n_max, "n_max", "an integer") < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    budgets = dynamics.Budgets(
        n_max=n_max, **{k: float(_must(v, f"tolerances.{k}", "a number")) for k, v in tol.items()})
    spec = maps.spec_from_dict(raw["map"]) if "map" in raw else None
    starts = probe_starts = None
    if spec is not None:
        dim = maps.fixed_dim(spec)
        starts = dynamics._fit_starts(spec, dynamics.default_starts(spec.model))
        if "start" in raw:
            starts = [_parse_point(raw["start"], spec.model, "start", dim)]
        if "starts" in raw:
            listed = _must(raw["starts"], "starts", "a non-empty list")
            starts = probe_starts = [_parse_point(s, spec.model, f"starts[{i}]", dim)
                                     for i, s in enumerate(listed)]
    checkpoints = raw.get("checkpoints", conjugation.DEFAULT_CHECKPOINTS)
    checkpoints = tuple(_must(checkpoints, "checkpoints", "integers >= 1"))
    kind = raw.get("kind", "pommerenke")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; the kinds are {sorted(_KINDS)}")
    basepoint = _parse_point(raw.get("basepoint", [1.0, 0.0]), "halfplane", "basepoint")
    conjugate = {"basepoint": basepoint, "checkpoints": checkpoints}
    plot = _known(raw.get("plot", {}), _PLOT, "plot.")
    plot = {k: type(d)(_must(plot.get(k, d), f"plot.{k}", rule)) for k, (d, rule) in _PLOT.items()}
    suite = [] if "suite" in raw else None
    for i, case in enumerate(_must(raw.get("suite", []), "suite", "a list")):
        _known(case, ("map", "start"), f"suite[{i}].")
        row = maps.spec_from_dict(case["map"])
        start = _parse_point(case["start"], row.model, f"suite[{i}].start", maps.fixed_dim(row))
        suite.append((row, start))
    return Config(spec, starts, probe_starts, budgets, kind, conjugate, plot, suite)


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
    rep = dynamics.classify(cfg.spec, cfg.starts, cfg.budgets)
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
    orbit = cfg.first_orbit()
    header, lines = _orbit_rows(orbit)
    _write_csv(os.path.join(args.out, "orbit.csv"), header, lines)
    print(f"orbit: {orbit.length} points, stop_reason={orbit.stop_reason}")
    return EXIT_NUMERIC if orbit.stop_reason == "numeric_failure" else EXIT_OK


def cmd_steps(cfg, args) -> int:
    orbit = cfg.first_orbit()
    st = dynamics.step_series(orbit, cfg.budgets)
    header, lines = _orbit_rows(orbit, st.s)
    _write_csv(os.path.join(args.out, "steps.csv"), header + ["s_n"], lines)
    print(f"verdict: {st.verdict}, d_inf≈{st.d_inf_estimate:.10g}")
    return EXIT_INCONCLUSIVE if st.verdict == "inconclusive" else EXIT_OK


def cmd_approach(cfg, args) -> int:
    orbit = cfg.first_orbit()
    # the whole-orbit columns, whose last 20% the report reads
    ap, (special, koranyi, nt, *_) = diagnostics._approach(orbit, None, cfg.budgets, whole=True)
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
    # the conjugations keep their default parabolic precheck, whatever the budgets
    normalized = getattr(conjugation, f"{cfg.kind}_normalized")
    res = normalized(cfg.spec, **cfg.conjugate)
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
    suite = cfg.suite if cfg.suite is not None else diagnostics.default_harness_suite(args.seed)
    rep = diagnostics.theorem_harness(suite, cfg.budgets)
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
    rep = diagnostics.conjecture_probe(cfg.spec, cfg.probe_starts, cfg.budgets)
    header = ["start", "verdict", "d_inf_estimate"]
    rows = [
        [repr(s).replace(",", ";"), v, _fmt(d)]
        for s, v, d in zip(rep.starts, rep.verdicts, rep.d_inf_estimates)
    ]
    _write_csv(os.path.join(args.out, "probe.csv"), header, map(",".join, rows))
    print(f"{rep.flag}: {rep.verdicts}")
    return EXIT_OK if rep.flag == "CONSISTENT" else EXIT_INCONCLUSIVE


def cmd_plot(cfg, args) -> int:
    orbit = cfg.first_orbit()
    svg = plotting.render_orbit_svg(plotting.orbit_disk_coords(orbit), **cfg.plot)
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
        p.add_argument("--n-max", type=int, default=None)
        if name == "harness":
            p.add_argument("--seed", type=int, default=0, help="default suite's seed")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:  # every config error shows here, before any command writes
        raw = json.loads(pathlib.Path(args.config).read_text()) if args.config else {}
        cfg = parse_config(raw, args.n_max)
        if cfg.spec is None and args.command != "harness":
            raise KeyError("config is missing the 'map' entry")
    except (OSError, LookupError, TypeError, ValueError) as exc:  # ModelMismatchError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg, args)
    except (EstimationError, PreconditionError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except DiskDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
