"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload class builds its inputs in ``__init__`` (part of set-up time),
runs its whole input set once per ``run_pass`` call (the timed region) and
checks one pass's results in ``check`` (untimed).  Every call into diskdyn
goes through a module attribute (``dynamics.classify``, not a from-import),
so that the wrappers in ``tracing.py`` see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from diskdyn import cli, conjugation, diagnostics, dynamics, maps
from diskdyn.dynamics import Budgets

N_MAX = 100_000


@dataclass
class Outcome:
    """Checked results of one pass: operations, failures, worst closed-form error."""

    attempted: int = 0
    failed: int = 0
    relerr_max: float = 0.0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


def _guarded(fn, *args, **kwargs):
    """Run one operation; an exception becomes its result so the pass goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
        return exc


def translation_steps(b: complex, x0: float, w_norm2: float, n: np.ndarray) -> np.ndarray:
    """Exact step d(z_n, z_n + b) of (z, w) -> (z + b, w) from z_0 with Re z_0 = x0.

    |cross|^2 - 4 A A' = |b|^2 for a pure translation, so d = |b| / |2 A_n + conj b|
    with A_n = x0 + n Re b - ||w||^2; the half-plane is the case w = 0.
    """
    a_n = x0 + n * b.real - w_norm2
    return abs(b) / np.abs(2.0 * a_n + np.conj(b))


def _relerr(got, exact) -> float:
    return float(np.max(np.abs(np.asarray(got) - exact) / np.abs(exact)))


# ---------------------------------------------------------------------------
# harness: the paper's restricted => zero step check, ball/Siegel stepping


class Harness:
    """``theorem_harness`` on ``default_harness_suite(seed)``: 37 rows."""

    name = "harness"
    min_passes = 1

    def __init__(self, seed: int):
        self.suite = diagnostics.default_harness_suite(seed)

    def run_pass(self):
        return _guarded(diagnostics.theorem_harness, self.suite, Budgets())

    def check(self, report) -> Outcome:
        out = Outcome()
        if isinstance(report, Exception):
            for spec, _ in self.suite:
                out.record(type(spec).__name__, [f"theorem_harness raised {report!r}"])
            return out
        if len(report.rows) != len(self.suite):
            out.record("report", [f"{len(report.rows)} rows for {len(self.suite)} cases"])
        n = Budgets().n_max
        for (spec, start), row in zip(self.suite, report.rows):
            problems = []
            if row.skipped:
                problems.append(f"skipped ({row.notes})")
            elif not row.passed:
                problems.append(f"failed ({row.notes})")
            if row.approach is not None and not row.approach.implications_ok():
                problems.append("approach flags violate the implication lemma")
            if isinstance(spec, maps.HeisenbergTranslation):
                if row.step_verdict != "nonzero_step" or row.restricted is not False:
                    problems.append(
                        f"Heisenberg row is {row.step_verdict}, restricted={row.restricted}"
                    )
            if row.restricted:
                if row.step_verdict != "zero_step":
                    problems.append(f"restricted but {row.step_verdict}")
                if row.radial_dev is None or not row.radial_dev < 1e-2:
                    problems.append(f"radial_dev {row.radial_dev}")
            if isinstance(spec, maps.SiegelTranslation) and row.final_step is not None:
                exact = translation_steps(
                    spec.b, start[0].real, float(np.sum(np.abs(start[1:]) ** 2)), n - 1
                )
                out.relerr_max = max(out.relerr_max, _relerr(row.final_step, exact))
            out.record(row.label, problems)
        return out


# ---------------------------------------------------------------------------
# planar: scalar complex stepping, conjugation grids, closed-form answers

# criteria 05/06 of the acceptance suite: maps with exact conjugations, and a
# perturbed map whose residual must fall across the checkpoints
POMMERENKE_EXACT = (maps.HalfplaneAffine(1.0, 1j), maps.HalfplaneAffine(1.0, 1.0))
POMMERENKE_PERTURBED = maps.HalfplanePerturbed(1j, 1.0)
BAKER_EXACT = maps.HalfplaneAffine(1.0, 1.0)
BAKER_PERTURBED = maps.HalfplanePerturbed(1.0, 1.0)


class Planar:
    """classify on five half-plane/disk maps, two conjugations, two probes."""

    name = "planar"
    min_passes = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # Re b >= 1/4 keeps the parabolic orbits escaping fast enough for the
        # default budgets to reach a clear zero-step verdict
        b_par = complex(rng.uniform(0.25, 2.0), rng.uniform(-2.0, 2.0))
        c = complex(rng.uniform(0.0, 2.0), rng.normal(0.0, 1.0))
        b_pert = complex((abs(c) - c.real) / 2.0 + rng.uniform(0.25, 1.0), rng.normal())
        theta = rng.uniform(0.5, 3.0)
        affine = maps.HalfplaneAffine(1.0, b_par)
        perturbed = maps.HalfplanePerturbed(b_pert, c)
        # (spec, expected type, exact boundary multiplier or None)
        self.classify_cases = [
            (maps.HalfplaneAffine(2.0, complex(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))),
             "hyperbolic", 0.5),
            (affine, "parabolic", 1.0),
            (perturbed, "parabolic", 1.0),
            (maps.DiskMoebius(0.0, theta), "elliptic", None),
            (maps.DiskMoebius(0.5), "hyperbolic", 1.0 / 3.0),
        ]
        self.probe_specs = [affine, perturbed]

    def run_pass(self):
        return {
            "classify": [_guarded(dynamics.classify, s) for s, _, _ in self.classify_cases],
            "pommerenke": [
                _guarded(conjugation.pommerenke_normalized, s)
                for s in POMMERENKE_EXACT + (POMMERENKE_PERTURBED,)
            ],
            "baker": [
                _guarded(conjugation.baker_pommerenke_normalized, s)
                for s in (BAKER_EXACT, BAKER_PERTURBED)
            ],
            "probe": [_guarded(diagnostics.conjecture_probe, s) for s in self.probe_specs],
        }

    def check(self, res) -> Outcome:
        out = Outcome()
        for (spec, kind, c_exact), rep in zip(self.classify_cases, res["classify"]):
            label = f"classify {spec!r}"
            if isinstance(rep, Exception):
                out.record(label, [f"raised {rep!r}"])
                continue
            problems = []
            if rep.type != kind:
                problems.append(f"type {rep.type}, expected {kind}")
            if c_exact is not None:
                err = abs(rep.multiplier_c - c_exact) / c_exact
                out.relerr_max = max(out.relerr_max, err)
                if not err < 1e-3:
                    problems.append(f"multiplier {rep.multiplier_c!r}, exact {c_exact!r}")
            elif rep.dw_location != "interior" or not abs(complex(rep.dw_point)) < 1e-9:
                problems.append(f"fixed point {rep.dw_point!r} ({rep.dw_location})")
            out.record(label, problems)

        specs = POMMERENKE_EXACT + (POMMERENKE_PERTURBED,)
        for spec, r in zip(specs, res["pommerenke"]):
            out.record(f"pommerenke {spec!r}", _conjugation_problems(
                r, exact_tol=1e-10 if spec is not POMMERENKE_PERTURBED else None))
        for spec, r in zip((BAKER_EXACT, BAKER_PERTURBED), res["baker"]):
            out.record(f"baker_pommerenke {spec!r}", _conjugation_problems(
                r, exact_tol=1e-12 if spec is BAKER_EXACT else None))

        for spec, rep in zip(self.probe_specs, res["probe"]):
            if isinstance(rep, Exception):
                out.record(f"probe {spec!r}", [f"raised {rep!r}"])
            else:
                out.record(f"probe {spec!r}",
                           [] if rep.flag == "CONSISTENT" else [f"flag {rep.flag} {rep.verdicts}"])
        return out


def _conjugation_problems(result, exact_tol) -> list:
    """Criteria 05/06: exact maps stay below exact_tol, perturbed residuals fall."""
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    res = result.residual_series
    if exact_tol is not None:
        return [] if bool(np.all(res < exact_tol)) else [f"residuals {res} above {exact_tol}"]
    if bool(np.all(np.diff(res) < 0.0)) and res[-1] < 0.05:
        return []
    return [f"residuals {res} do not fall below 0.05"]


# ---------------------------------------------------------------------------
# cli_export: orbits serialized to CSV/SVG through cli.main


def _dyadic(rng, lo: int, hi: int) -> float:
    """A multiple of 1/8 in [lo/8, hi/8]: sums of such numbers are exact in binary."""
    return int(rng.integers(lo, hi + 1)) / 8.0


class CliExport:
    """cli.main orbit/steps/approach/plot/classify on a Siegel and a half-plane config.

    Parameters are multiples of 1/8, so every orbit point z_0 + n b is exact in
    binary and the last CSV row can be compared with z_0 + n b for equality.
    """

    name = "cli_export"
    # the byte-stable SVG check compares a pass with the first one
    min_passes = 2

    COMMANDS = {
        "siegel": ("orbit", "steps", "approach", "plot", "classify"),
        # approach analysis needs a ball or Siegel orbit
        "halfplane": ("orbit", "steps", "plot", "classify"),
    }

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        x0 = 1.0 + _dyadic(rng, 0, 8)
        w0 = complex(_dyadic(rng, -4, 4), _dyadic(rng, -4, 4))
        self.params = {
            # a real b: the step's relative error then depends on n alone, not on
            # Im b / Re b, so it is comparable across seeds
            "siegel": (complex(_dyadic(rng, 4, 16), 0.0), complex(x0, 0.0), w0),
            "halfplane": (complex(_dyadic(rng, 4, 16), _dyadic(rng, -8, 8)),
                          complex(1.0 + _dyadic(rng, 0, 8), _dyadic(rng, -8, 8)), None),
        }
        self.workdir = tempfile.mkdtemp(prefix="cli_export-", dir=workdir)
        self.argvs = []
        for cfg_name, (b, z0, w) in self.params.items():
            family = "SiegelTranslation" if w is not None else "HalfplaneAffine"
            spec = {"family": family, "b": [b.real, b.imag]}
            if w is None:
                spec["lam"] = 1.0
                start = [z0.real, z0.imag]
            else:
                start = [[z0.real, z0.imag], [w.real, w.imag]]
            out_dir = os.path.join(self.workdir, cfg_name)
            os.makedirs(out_dir)
            path = os.path.join(self.workdir, f"{cfg_name}.json")
            with open(path, "w") as fh:
                json.dump({"map": spec, "start": start, "n_max": N_MAX}, fh)
            for command in self.COMMANDS[cfg_name]:
                self.argvs.append((cfg_name, command,
                                   [command, "--config", path, "--out", out_dir]))
        # label -> (sha256, step error) of outputs that passed their full check
        self.checked = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_pass(self):
        return [_guarded(cli.main, argv) for _, _, argv in self.argvs]

    def check(self, codes) -> Outcome:
        out = Outcome()
        for (cfg_name, command, _), code in zip(self.argvs, codes):
            label = f"{command} ({cfg_name})"
            if code != cli.EXIT_OK:
                out.record(label, [f"exit code {code!r}"])
                continue
            fname = {"classify": "classify.json", "plot": "plot.svg"}.get(command, f"{command}.csv")
            with open(os.path.join(self.workdir, cfg_name, fname), "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if label in self.checked and self.checked[label][0] == digest:
                # the same bytes as an earlier pass's output that passed
                out.relerr_max = max(out.relerr_max, self.checked[label][1])
                out.record(label, [])
                continue
            problems, err = self._check_output(cfg_name, command, data)
            if command == "plot" and label in self.checked:
                problems.append("SVG bytes differ from the first pass")
            out.relerr_max = max(out.relerr_max, err)
            out.record(label, problems)
            if not problems:
                self.checked.setdefault(label, (digest, err))
        return out

    def _check_output(self, cfg_name: str, command: str, data: bytes):
        """Problems with one output file, and its worst step relative error."""
        b, z0, w = self.params[cfg_name]
        if command == "classify":
            rep = json.loads(data)
            if rep["type"] != "parabolic" or not abs(rep["multiplier_c"] - 1.0) < 1e-3:
                return [f"classified {rep['type']} with c={rep['multiplier_c']!r}"], 0.0
            return [], 0.0
        if command == "plot":
            return ([] if data.startswith(b"<svg ") else ["not an SVG document"]), 0.0
        lines = data.decode().splitlines()
        rows = lines[1:]
        if len(rows) != N_MAX + 1:
            return [f"{len(rows)} rows, expected {N_MAX + 1}"], 0.0
        problems = []
        last = [float(v) for v in rows[-1].split(",")[1:5 if w is not None else 3]]
        expect = z0 + N_MAX * b
        want = [expect.real, expect.imag] + ([w.real, w.imag] if w is not None else [])
        if last != want:
            problems.append(f"last row {last}, expected {want}")
        err = 0.0
        if command == "steps":
            s = np.array([float(r.rsplit(",", 1)[1]) for r in rows[:-1]])
            wn2 = abs(w) ** 2 if w is not None else 0.0
            err = _relerr(s, translation_steps(b, z0.real, wn2, np.arange(N_MAX)))
        return problems, err


# ---------------------------------------------------------------------------

WORKLOADS = {cls.name: cls for cls in (Harness, Planar, CliExport)}


def build(name: str, seed: int, workdir: str):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliExport else cls(seed)
