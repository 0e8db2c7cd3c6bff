"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Run with -s to see the lines as they are produced; every criterion carries an
explicit runtime budget where one is specified.
"""

import json
import os
import time

import numpy as np
import pytest

from diskdyn import cli, conjugation, diagnostics, dynamics, geometry as g, maps
from diskdyn.dynamics import Budgets


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def harness_run():
    t0 = time.perf_counter()
    rep = diagnostics.theorem_harness(diagnostics.default_harness_suite(), Budgets())
    return rep, time.perf_counter() - t0


def test_criterion_01_metric_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    n = 1000
    ok = True

    # planar: symmetry + Cayley isometry at 1e-12
    zs = np.exp(rng.uniform(-2, 5, n)) + 1j * rng.normal(0, 5, n)
    ws = np.exp(rng.uniform(-2, 5, n)) + 1j * rng.normal(0, 5, n)
    for z, w in zip(zs, ws):
        d = g.pdist_halfplane(z, w)
        ok &= abs(d - g.pdist_halfplane(w, z)) < 1e-12
        du = g.pdist_disk(
            g.cayley_halfplane_to_disk(z), g.cayley_halfplane_to_disk(w)
        )
        ok &= abs(d - du) < 1e-12

    # Siegel: symmetry + agreement with the ball pullback at 1e-10
    P = maps.sample_domain("siegel", n, rng)
    Q = maps.sample_domain("siegel", n, rng)
    for p, q in zip(P, Q):
        d = g.pdist_siegel(p, q)
        ok &= abs(d - g.pdist_siegel(q, p)) < 1e-10
        db = g.pdist_ball(
            g.cayley_siegel_to_ball(p), g.cayley_siegel_to_ball(q)
        )
        ok &= abs(d - db) < 1e-10

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, "metric correctness", bool(ok), f"{elapsed:.2f}s")


def _random_specs(rng):
    a = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    c = complex(rng.uniform(0, 2), rng.normal(0, 1))
    return [
        maps.DiskMoebius(a, rng.uniform(-np.pi, np.pi)),
        maps.HalfplaneAffine(np.exp(rng.normal()), complex(rng.uniform(0, 2), rng.normal())),
        maps.HalfplaneAffine(np.exp(rng.normal()), 1j * rng.normal()),  # automorphism
        maps.HalfplanePerturbed(complex((abs(c) - c.real) / 2 + rng.uniform(0, 1), rng.normal()), c),
        maps.SiegelTranslation(complex(rng.uniform(0, 2), rng.normal())),
        maps.HeisenbergTranslation(
            (complex(rng.normal(), rng.normal()),), rng.normal()
        ),
        maps.compose(
            maps.SiegelTranslation(complex(rng.uniform(0, 1), 0.0)),
            maps.HeisenbergTranslation((complex(rng.normal(0, 0.5), 0.0),), 0.0),
        ),
    ]


_PDIST = {
    "disk": g.pdist_disk,
    "halfplane": g.pdist_halfplane,
    "ball": g.pdist_ball,
    "siegel": g.pdist_siegel,
}


def test_criterion_02_schwarz_pick():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    samples = 0
    while samples < 1000:
        for spec in _random_specs(rng):
            assert spec.params_ok()
            dist = _PDIST[spec.model]
            p = maps.sample_domain(spec.model, 1, rng)[0]
            q = maps.sample_domain(spec.model, 1, rng)[0]
            d0 = dist(p, q)
            d1 = dist(spec(p), spec(q))
            ok &= d1 <= d0 + 1e-12
            if spec.is_automorphism():
                ok &= abs(d1 - d0) < 1e-12
            samples += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(2, "Schwarz-Pick contraction", bool(ok), f"{samples} samples, {elapsed:.2f}s")


def test_criterion_03_step_oracles():
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1j), 1.0, 10_000)
    st_i = dynamics.step_series(orb)
    ok = bool(np.all(np.abs(st_i.s - 1.0 / np.sqrt(5.0)) < 1e-10))
    ok &= st_i.verdict == "nonzero_step"

    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1.0), 1.0, 10_000)
    st_1 = dynamics.step_series(orb)
    n = np.arange(st_1.s.size)
    ok &= bool(np.all(np.abs(st_1.s - 1.0 / (2.0 * n + 3.0)) < 1e-10))
    ok &= st_1.verdict == "zero_step"
    report(3, "step oracles", ok, f"verdicts {st_i.verdict}/{st_1.verdict}")


def test_criterion_04_classification():
    t0 = time.perf_counter()
    budgets = Budgets(n_max=100_000)
    ok = True

    rep = dynamics.classify(maps.HalfplaneAffine(2.0), budgets=budgets)
    ok &= rep.type == "hyperbolic" and abs(rep.multiplier_c - 0.5) < 1e-6

    for spec in (
        maps.HalfplaneAffine(1.0, 1.0),
        maps.HalfplaneAffine(1.0, 1j),
        maps.SiegelTranslation(1.0),
        maps.HeisenbergTranslation((1.0 + 0j,), 0.0),
    ):
        rep = dynamics.classify(spec, budgets=budgets)
        ok &= rep.type == "parabolic" and abs(rep.multiplier_c - 1.0) < 1e-3

    rep = dynamics.classify(maps.DiskMoebius(0.0, 1.0), budgets=budgets)
    ok &= rep.type == "elliptic" and rep.dw_location == "interior"

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(4, "classification trichotomy", bool(ok), f"{elapsed:.2f}s")


def test_criterion_05_pommerenke():
    cps = (100, 1_000, 10_000)
    ok = True
    for spec in (maps.HalfplaneAffine(1.0, 1j), maps.HalfplaneAffine(1.0, 1.0)):
        res = conjugation.pommerenke_normalized(spec, checkpoints=cps)
        ok &= bool(np.all(res.residual_series < 1e-10))
    res = conjugation.pommerenke_normalized(maps.HalfplanePerturbed(1j, 1.0), checkpoints=cps)
    ok &= bool(np.all(np.diff(res.residual_series) < 0.0))
    ok &= res.residual_series[-1] < 0.05
    report(5, "Pommerenke conjugation", bool(ok),
           f"perturbed residuals {np.array2string(res.residual_series, precision=2)}")


def test_criterion_06_baker_pommerenke():
    cps = (100, 1_000, 10_000)
    res = conjugation.baker_pommerenke_normalized(maps.HalfplaneAffine(1.0, 1.0), checkpoints=cps)
    ok = bool(np.all(res.residual_series < 1e-12))
    res = conjugation.baker_pommerenke_normalized(
        maps.HalfplanePerturbed(1.0, 1.0), checkpoints=cps
    )
    ok &= bool(np.all(np.diff(res.residual_series) < 0.0))
    ok &= res.residual_series[-1] < 0.05
    report(6, "Baker-Pommerenke Abel equation", bool(ok),
           f"perturbed residuals {np.array2string(res.residual_series, precision=2)}")


def test_criterion_07_theorem_harness(harness_run):
    rep, elapsed = harness_run
    suite = diagnostics.default_harness_suite()
    fams = [type(s).__name__ for s, _ in suite]
    ok = fams.count("SiegelTranslation") >= 20
    ok &= fams.count("HeisenbergTranslation") >= 10
    ok &= fams.count("Composition") >= 5
    ok &= rep.n_failed == 0 and rep.n_skipped == 0
    for row in rep.rows:
        if "Heisenberg" in row.label and "Composition" not in row.label:
            ok &= row.step_verdict == "nonzero_step" and row.restricted is False
        if row.restricted:
            ok &= row.step_verdict == "zero_step"
            ok &= row.radial_dev is not None and row.radial_dev < 1e-2
    ok &= elapsed < 120.0
    report(7, "zero-step theorem harness", bool(ok),
           f"{rep.n_passed} passed, {elapsed:.1f}s")


def test_criterion_08_lemma_flag_logic(harness_run):
    rep, _ = harness_run
    checked = [r for r in rep.rows if r.approach is not None]
    ok = len(checked) > 0 and all(r.approach.implications_ok() for r in checked)
    report(8, "approach-region implication lemma", bool(ok), f"{len(checked)} reports")


def test_criterion_09_figure_reproduction(tmp_path):
    # tangential case z + i: angle of 1 - z_n in the disk tends to -pi/2
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1j), 1.0, 10_000)
    angles = g.approach_series_siegel(orb.points)[3]
    ok = abs(angles[-1] - (-np.pi / 2.0)) < 0.05

    # radial case z + 1: the plotted disk points are real
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1.0), 1.0, 10_000)
    from diskdyn import plotting

    pts = plotting.orbit_disk_coords(orb)
    ok &= bool(np.all(np.abs(pts.imag) < 1e-12))

    # byte-stable SVG via the CLI
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
           "start": [1.0, 0.0], "n_max": 2000}
    cfg_path = os.path.join(tmp_path, "plot.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    argv = ["plot", "--config", cfg_path, "--out", str(tmp_path)]
    ok &= cli.main(argv) == 0
    first = (tmp_path / "plot.svg").read_bytes()
    ok &= cli.main(argv) == 0
    ok &= (tmp_path / "plot.svg").read_bytes() == first
    report(9, "figure reproduction", bool(ok), f"angle {angles[-1]:.4f}")


def test_criterion_10_conjecture_probe():
    builtins = [
        maps.HalfplaneAffine(1.0, 1j),
        maps.HalfplaneAffine(1.0, 1.0),
        maps.HalfplanePerturbed(1j, 1.0),
        maps.SiegelTranslation(1.0),
        maps.HeisenbergTranslation((1.0 + 0j,), 0.0),
    ]
    flags = []
    ok = True
    for spec in builtins:
        rep = diagnostics.conjecture_probe(spec, budgets=Budgets(n_max=50_000))
        flags.append(rep.flag)
        ok &= rep.flag == "CONSISTENT" and len(rep.starts) >= 5
    report(10, "conjecture probe", bool(ok), ",".join(flags))
