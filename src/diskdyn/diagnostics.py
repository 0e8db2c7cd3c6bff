"""Boundary-approach analysis in the ball and the zero-step theorem harness.

The asymptotic definitions (special, restricted, Koranyi, non-tangential) are
turned into tail statistics over finite orbits: a quotient is "-> 0" when its
tail mean drops below ``tol_ratio`` and "bounded" when its tail maximum stays
below ``m_cap``.  The thresholds are explicit arguments, not claims of proof.

Orbits native to the Siegel model are analyzed in Siegel coordinates through
the exact identities in :mod:`diskdyn.geometry`; ball-native orbits use the
definitional formulas with a general vertex X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, maps
from .dynamics import (
    Budgets, Orbit, _fit_starts, classify, iterate, step_series,
)
from .errors import PreconditionError
from .geometry import MODELS, BoundaryPoint

__all__ = [
    "ApproachReport",
    "HarnessReport",
    "HarnessRow",
    "ProbeReport",
    "approach_report",
    "radial_quotient_series",
    "theorem_harness",
    "conjecture_probe",
    "default_harness_suite",
]


@dataclass(frozen=True)
class ApproachReport:
    """Approach flags with the tail statistics that decided them.

    is_special:       special_ratio_tail_mean < tol_ratio
    is_restricted:    is_special and nt_tail_max < m_cap
    in_koranyi:       koranyi_sup_tail < m_cap
    is_nontangential: euclid_nt_tail_max < m_cap
    """

    X: BoundaryPoint
    koranyi_sup_tail: float
    special_ratio_tail_mean: float
    nt_tail_max: float
    tangency_tail_max: float
    euclid_nt_tail_max: float
    is_special: bool
    is_restricted: bool
    in_koranyi: bool
    is_nontangential: bool
    koranyi_M: float  # tail sup of the Koranyi quotient (inf when unbounded)

    def implications_ok(self) -> bool:
        """Flag-logic consistency with the classical implication lemma."""
        if self.is_nontangential and not self.is_restricted:
            return False
        if self.is_special and self.in_koranyi and not self.is_restricted:
            return False
        if self.is_special and self.is_restricted and not self.in_koranyi:
            return False
        return True


def _orbit_series(orbit: Orbit, X):
    """(special, koranyi, nt, angle, euclid_nt, boundary_dist); _resolve_vertex checked X."""
    pts = orbit.points
    if MODELS[orbit.model].unbounded:
        return (
            geometry.special_ratio_series_siegel(pts),
            geometry.koranyi_series_siegel(pts),
            geometry.nt_quotient_series_siegel(pts),
            geometry.tangency_angle_series_siegel(pts),
            geometry.euclid_nt_series_siegel(pts),
            geometry.boundary_dist_series_siegel(pts),
        )
    x = X.X
    return (
        geometry.special_ratio_series_ball(pts, x),
        geometry.koranyi_series_ball(pts, x),
        geometry.nt_quotient_series_ball(pts, x),
        geometry.tangency_angle_series_ball(pts, x),
        geometry.euclid_nt_series_ball(pts, x),
        geometry.boundary_dist_series_ball(pts, x),
    )


def _resolve_vertex(orbit: Orbit, X) -> BoundaryPoint:
    model = MODELS[orbit.model]
    if model.planar:
        raise PreconditionError("approach analysis needs a ball or Siegel orbit")
    if X is None:
        if model.unbounded:
            return BoundaryPoint.infinity()
        raise PreconditionError("ball orbits need an explicit vertex X")
    if not isinstance(X, BoundaryPoint):
        X = BoundaryPoint(np.asarray(X, np.complex128))
    if model.unbounded and not X.at_infinity:
        raise PreconditionError("Siegel orbits are analyzed at the vertex infinity")
    return X


def approach_report(
    orbit: Orbit,
    X=None,
    tail_fraction: float = 0.2,
    tol_ratio: float = 1e-2,
    m_cap: float = 1e3,
) -> ApproachReport:
    """Koranyi / special / restricted flags from orbit tail statistics."""
    X = _resolve_vertex(orbit, X)
    special, koranyi, nt, angle, euclid, bdist = _orbit_series(orbit, X)
    n = special.size
    if n < 10:
        raise PreconditionError("orbit too short for approach statistics")
    k = max(2, int(round(n * tail_fraction)))
    if not (bdist[-1] < bdist[-k] or bdist[-1] < 1e-9) or bdist[-1] > 0.5:
        raise PreconditionError("orbit does not converge to the vertex X")
    ko_sup = float(koranyi[-k:].max())
    sp_mean = float(special[-k:].mean())
    nt_max = float(nt[-k:].max())
    eu_max = float(euclid[-k:].max())
    is_special = sp_mean < tol_ratio
    is_restricted = is_special and nt_max < m_cap
    in_koranyi = ko_sup < m_cap
    is_nontangential = eu_max < m_cap
    return ApproachReport(
        X,
        ko_sup,
        sp_mean,
        nt_max,
        float(angle[-k:].max()),
        eu_max,
        is_special,
        is_restricted,
        in_koranyi,
        is_nontangential,
        ko_sup if in_koranyi else float("inf"),
    )


def radial_quotient_series(orbit: Orbit, X=None) -> np.ndarray:
    """(1 - <Z_{n+1}, X>)/(1 - <Z_n, X>); tends to 1 for restricted parabolic orbits."""
    X = _resolve_vertex(orbit, X)
    if MODELS[orbit.model].unbounded:
        return geometry.radial_quotient_series_siegel(orbit.points)
    return geometry.radial_quotient_series_ball(orbit.points, X.X)


# ---------------------------------------------------------------------------
# theorem harness


@dataclass(frozen=True)
class HarnessRow:
    label: str
    start: object
    classified_type: str
    restricted: bool | None
    step_verdict: str | None
    final_step: float | None
    radial_dev: float | None  # tail mean of |quotient - 1|
    approach: ApproachReport | None
    passed: bool
    skipped: bool
    notes: str = ""


@dataclass(frozen=True)
class HarnessReport:
    rows: tuple

    @property
    def n_passed(self) -> int:
        return sum(r.passed and not r.skipped for r in self.rows)

    @property
    def n_failed(self) -> int:
        return sum((not r.passed) and not r.skipped for r in self.rows)

    @property
    def n_skipped(self) -> int:
        return sum(r.skipped for r in self.rows)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def implications_ok(self) -> bool:
        return all(r.approach is None or r.approach.implications_ok() for r in self.rows)


def _spec_label(spec) -> str:
    d = maps.spec_to_dict(spec)

    def flat(x):
        if isinstance(x, dict):
            fam = x.pop("family")
            return f"{fam}({', '.join(f'{k}={flat(v)}' for k, v in x.items())})"
        if isinstance(x, list):
            return "[" + ", ".join(flat(v) for v in x) + "]"
        return repr(x)

    return flat(d)


def theorem_harness(
    suite,
    budgets: Budgets | None = None,
    classify_n_max: int = 20_000,
    tol_radial: float = 1e-2,
    tail_fraction: float = 0.2,
    tol_ratio: float = 1e-2,
    m_cap: float = 1e3,
) -> HarnessReport:
    """Verify restricted => zero step on a suite of (spec, start) cases.

    A row passes when NOT restricted OR the step verdict is zero_step, with
    two extra checks: non-zero-step rows must be non-restricted, and
    restricted rows must have radial quotient within tol_radial of 1.
    Inconclusive step verdicts fail the row; classification failures skip it.
    """
    budgets = budgets or Budgets()
    rows = []
    reports = {}  # a spec that recurs in the suite is classified once
    for spec, start in suite:
        label = _spec_label(spec)
        if spec not in reports:
            reports[spec] = classify(spec, budgets=Budgets(n_max=classify_n_max))
        rep = reports[spec]
        if rep.type != "parabolic":
            rows.append(
                HarnessRow(label, start, rep.type, None, None, None, None, None,
                           False, True, "classification is not parabolic")
            )
            continue
        orbit = iterate(spec, start, budgets.n_max)
        ap = approach_report(orbit, tail_fraction=tail_fraction,
                             tol_ratio=tol_ratio, m_cap=m_cap)
        st = step_series(orbit, tail_fraction=budgets.tail_fraction, tol_step=budgets.tol_step)
        rq = radial_quotient_series(orbit)
        k = max(1, int(round(rq.size * tail_fraction)))
        radial_dev = float(np.mean(np.abs(rq[-k:] - 1.0)))
        notes = []
        ok = True
        if st.verdict == "inconclusive":
            ok = False
            notes.append("step verdict inconclusive; raise the budget")
        if ap.is_restricted and st.verdict != "zero_step":
            ok = False
            notes.append("THEOREM VIOLATION: restricted but not zero step")
        if st.verdict == "nonzero_step" and ap.is_restricted:
            ok = False
            notes.append("contrapositive violation: non-zero step but restricted")
        if ap.is_restricted and radial_dev >= tol_radial:
            ok = False
            notes.append(f"radial quotient deviates by {radial_dev:.3g}")
        if not ap.implications_ok():
            ok = False
            notes.append("approach flag logic violates the implication lemma")
        rows.append(
            HarnessRow(label, start, rep.type, ap.is_restricted, st.verdict,
                       float(st.s[-1]), radial_dev, ap, ok, False, "; ".join(notes))
        )
    return HarnessReport(tuple(rows))


def default_harness_suite(seed: int = 0):
    """>= 20 Siegel translations, >= 10 Heisenberg cases, >= 5 mixed compositions."""
    rng = np.random.default_rng(seed)
    suite = []
    for b in np.linspace(0.5, 2.0, 7):
        z0 = 1.0 + rng.uniform(0.0, 1.0)
        for wmag in (0.0, 0.3, 0.6 * np.sqrt(z0)):
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            start = np.array([z0, wmag * phase], np.complex128)
            suite.append((maps.SiegelTranslation(float(b)), start))
    heis = [
        ((1.0 + 0.0j,), 0.0, np.array([2.0, 0.0], np.complex128)),
        ((0.5 + 0.0j,), 0.0, np.array([1.0, 0.3], np.complex128)),
        ((0.3 + 0.4j,), 0.0, np.array([1.5, 0.2 - 0.1j], np.complex128)),
        ((1.0 + 0.0j,), 1.0, np.array([2.0, 0.5j], np.complex128)),
        ((0.7 + 0.0j,), -0.5, np.array([1.2, 0.0], np.complex128)),
        ((0.0 + 0.8j,), 0.0, np.array([1.0, 0.1], np.complex128)),
        ((0.4 - 0.3j,), 0.2, np.array([2.5, 0.4], np.complex128)),
        ((1.2 + 0.0j,), 0.0, np.array([3.0, -0.3], np.complex128)),
        ((0.6 + 0.6j,), 0.0, np.array([1.8, 0.2 + 0.2j], np.complex128)),
        ((0.9 + 0.0j,), 2.0, np.array([1.1, 0.25], np.complex128)),
    ]
    for a, b, start in heis:
        suite.append((maps.HeisenbergTranslation(a, b), start))
    mixed = [
        maps.compose(maps.SiegelTranslation(1.0), maps.SiegelTranslation(0.5)),
        maps.compose(maps.SiegelTranslation(1j), maps.SiegelTranslation(1.0)),
        # small Heisenberg part: the composed step decays like a/sqrt(b n),
        # so the finite-sample zero-step rule needs a/sqrt(b) well below 0.3
        maps.compose(maps.SiegelTranslation(2.0), maps.HeisenbergTranslation((0.25 + 0.0j,), 0.0)),
        maps.compose(maps.HeisenbergTranslation((0.4 + 0.0j,), 0.0),
                     maps.HeisenbergTranslation((0.0 + 0.3j,), 0.5)),
        maps.compose(maps.SiegelTranslation(0.5 + 0.5j), maps.SiegelTranslation(0.75)),
    ]
    for spec in mixed:
        suite.append((spec, np.array([1.5, 0.2], np.complex128)))
    # vacuous case: pure vertical translation, a non-restricted automorphism
    suite.append((maps.SiegelTranslation(1j), np.array([1.0, 0.0], np.complex128)))
    return suite


# ---------------------------------------------------------------------------
# conjecture probe


@dataclass(frozen=True)
class ProbeReport:
    label: str
    starts: tuple
    verdicts: tuple
    d_inf_estimates: tuple
    flag: str  # CONSISTENT | DISCREPANT | INCONCLUSIVE


def conjecture_probe(spec, starts=None, budgets: Budgets | None = None) -> ProbeReport:
    """Per-start zero-step verdicts; agreement across starts is the open question.

    A DISCREPANT flag is a numerically interesting report, never a
    counterexample claim.
    """
    budgets = budgets or Budgets()
    if starts is None:
        model = MODELS[spec.model]
        starts = _fit_starts(spec, [model.point(s) for s in model.starts + model.probe_starts])
    if len(starts) < 5:
        raise PreconditionError("the probe wants at least 5 starts")
    rep = classify(spec, budgets=Budgets(n_max=20_000))
    if rep.type != "parabolic":
        raise PreconditionError(f"map classifies as {rep.type}, need parabolic")
    verdicts = []
    dinfs = []
    for s in starts:
        st = step_series(iterate(spec, s, budgets.n_max),
                         tail_fraction=budgets.tail_fraction, tol_step=budgets.tol_step)
        verdicts.append(st.verdict)
        dinfs.append(st.d_inf_estimate)
    if "inconclusive" in verdicts:
        flag = "INCONCLUSIVE"
    elif len(set(verdicts)) == 1:
        flag = "CONSISTENT"
    else:
        flag = "DISCREPANT"
    return ProbeReport(_spec_label(spec), tuple(starts), tuple(verdicts), tuple(dinfs), flag)
