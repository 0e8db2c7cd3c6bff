"""Layer runs that go with every traced run.

``family_micro`` times one map evaluation and one ``iterate`` step per family
at n = 1e5, the per-family numbers that the ROADMAP baseline table lists.
``sweep`` makes a few small calls into every layer; it runs traced under its
own run id, and a layer that a workload never reaches takes its per-layer
numbers from it, so that every per-layer time is measured on every workload.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from diskdyn import cli, conjugation, diagnostics, dynamics, maps
from diskdyn.dynamics import Budgets

import speed

FAMILY_N = 100_000
EVAL_CALLS = 10_000
# shorter timed blocks pick up too much of the machine's noise
MIN_BLOCK_S = 0.2


def _family_cases():
    """(family, spec, start): orbits that run the full n without stopping."""
    return [
        ("SiegelTranslation", maps.SiegelTranslation(1.0), np.array([1.0, 0.0], np.complex128)),
        ("HeisenbergTranslation", maps.HeisenbergTranslation((1.0 + 0j,), 0.0),
         np.array([2.0, 0.0], np.complex128)),
        # the Siegel o Heisenberg composition of the default harness suite
        ("Composition", maps.compose(maps.SiegelTranslation(2.0),
                                     maps.HeisenbergTranslation((0.25 + 0j,), 0.0)),
         np.array([1.5, 0.2], np.complex128)),
        ("HalfplaneAffine", maps.HalfplaneAffine(1.0, 1.0), 1.0 + 0j),
        ("HalfplanePerturbed", maps.HalfplanePerturbed(1j, 1.0), 1.0 + 0j),
        # a rotation: the orbit stays on a circle and never stops early
        ("DiskMoebius", maps.DiskMoebius(0.0, 1.0), 0.3 + 0.2j),
    ]


def _spread(values) -> float:
    """(max - min) / median of repeated timings."""
    return (max(values) - min(values)) / statistics.median(values)


def _calls_per_block(fn):
    """fn()'s result, and how many calls make a block at least MIN_BLOCK_S long."""
    t0 = time.perf_counter()
    result = fn()
    return result, max(1, math.ceil(MIN_BLOCK_S / (time.perf_counter() - t0)))


def _us_per_unit(fn, units: int, calls: int) -> float:
    """µs per unit of fn(), timed over a block of `calls` calls."""

    def block():
        for _ in range(calls):
            fn()

    _, _, wall = speed.timed(block)
    return 1e6 * wall / (calls * units)


def family_micro(reps: int = 3):
    """Median µs per map call and per iterate step for each family, with spreads.

    Times are at the reference core speed of ``speed.py``.
    """
    metrics, spreads = {}, {}
    for family, spec, start in _family_cases():

        def evals():
            for _ in range(EVAL_CALLS):
                spec(start)

        def steps():
            return dynamics.iterate(spec, start, FAMILY_N)

        orbit, step_calls = _calls_per_block(steps)
        if orbit.length != FAMILY_N + 1:
            raise RuntimeError(f"{family} orbit stopped early: {orbit.stop_reason}")
        _, eval_calls = _calls_per_block(evals)
        ev = [_us_per_unit(evals, EVAL_CALLS, eval_calls) for _ in range(reps)]
        st = [_us_per_unit(steps, FAMILY_N, step_calls) for _ in range(reps)]
        metrics[f"maps.eval_us.{family}"] = {"value": statistics.median(ev), "unit": "us"}
        metrics[f"dynamics.iterate.us_per_step.{family}"] = {
            "value": statistics.median(st), "unit": "us"}
        spreads[family] = {"eval_us": ev, "us_per_step": st,
                           "eval_spread": _spread(ev), "step_spread": _spread(st)}
    return metrics, spreads


def sweep(workdir: str) -> list:
    """Small calls into every layer; returns the CLI exit codes."""
    budgets = Budgets(n_max=5_000)
    suite = diagnostics.default_harness_suite(0)
    diagnostics.theorem_harness([suite[0], suite[21]], budgets, classify_n_max=2_000)
    diagnostics.conjecture_probe(maps.HalfplaneAffine(1.0, 1.0), budgets=budgets)
    small = (10, 100, 1_000)
    conjugation.pommerenke_normalized(maps.HalfplaneAffine(1.0, 1.0), checkpoints=small,
                                      precheck_n=2_000)
    conjugation.baker_pommerenke_normalized(maps.HalfplaneAffine(1.0, 1.0), checkpoints=small,
                                            precheck_n=2_000)
    out = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    try:
        path = os.path.join(out, "siegel.json")
        with open(path, "w") as fh:
            json.dump({"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
                       "start": [[1.0, 0.0], [0.25, 0.0]], "n_max": 20_000}, fh)
        return [cli.main([c, "--config", path, "--out", out])
                for c in ("orbit", "steps", "approach", "plot", "classify")]
    finally:
        shutil.rmtree(out, ignore_errors=True)
