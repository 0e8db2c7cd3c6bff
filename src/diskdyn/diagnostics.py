"""Boundary-approach analysis in the ball and the zero-step theorem harness.

The asymptotic definitions (special, restricted, Koranyi, non-tangential) are
turned into tail statistics over finite orbits: a quotient is "-> 0" when its
tail mean drops below ``tol_ratio`` and "bounded" when its tail maximum stays
below ``m_cap``.  The thresholds are ``Budgets`` fields or the named constants
below, not claims of proof.

Half-plane and Siegel orbits are analyzed at infinity through the exact
identities in :mod:`diskdyn.geometry`; disk and ball orbits use the definitional
formulas with a given vertex X.  The planar models are the N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import maps
from .dynamics import (
    _PRECHECK_N, Budgets, Orbit, _fit_starts, _require_parabolic, classify, iterate, step_series,
)
from .errors import ModelMismatchError, PreconditionError
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

# the share of the approach and radial series that their tail statistics read;
# approach_report and the harness compute those series on that tail alone
_TAIL_FRACTION = 0.2
# a restricted harness row fails when the radial quotient's tail mean is this far from 1
_TOL_RADIAL = 1e-2
# the fewest orbit points the approach statistics read
_MIN_APPROACH = 10


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


def _resolve_vertex(model: str, X, dim: int) -> BoundaryPoint:
    """The vertex an orbit of the model in C^dim is read at: infinity if unbounded, else the given X."""
    unbounded = MODELS[model].unbounded
    if X is None:
        if unbounded:
            return BoundaryPoint.infinity()
        raise PreconditionError("disk and ball orbits need an explicit vertex X")
    if not isinstance(X, BoundaryPoint):
        X = BoundaryPoint(np.asarray(X, np.complex128))
    if unbounded and not X.at_infinity:
        raise PreconditionError("half-plane and Siegel orbits are analyzed at the vertex infinity")
    if not unbounded and (X.at_infinity or X.X.size != dim):
        raise PreconditionError(f"a disk or ball orbit in C^{dim} is read at a unit vector X in C^{dim}")
    return X


def approach_report(orbit: Orbit, X=None, budgets: Budgets | None = None) -> ApproachReport:
    """Koranyi / special / restricted flags: tail statistics against tol_ratio and m_cap.

    The series are computed on the last k = max(2, round(_TAIL_FRACTION n)) of the
    n orbit points only, the part the statistics read.  They are formed row by
    row, so they equal the tail of the whole-orbit series bit for bit.
    """
    return _approach(orbit, X, budgets or Budgets(), whole=False)[0]


def _approach(orbit: Orbit, X, budgets: Budgets, whole: bool) -> tuple:
    """(approach_report, its approach series): of the whole orbit if whole, else of the tail it reads."""
    X = _resolve_vertex(orbit.model, X, orbit.points[0].size)
    n = orbit.length
    if n < _MIN_APPROACH:
        raise PreconditionError("orbit too short for approach statistics")
    k = max(2, int(round(n * _TAIL_FRACTION)))
    series = MODELS[orbit.model].approach_series(orbit.points if whole else orbit.points[-k:], X.X)
    special, koranyi, nt, angle, euclid, bdist = (s[-k:] for s in series)
    if not (bdist[-1] < bdist[0] or bdist[-1] < 1e-9) or bdist[-1] > 0.5:
        raise PreconditionError("orbit does not converge to the vertex X")
    ko_sup = float(koranyi.max())
    sp_mean = float(special.mean())
    nt_max = float(nt.max())
    eu_max = float(euclid.max())
    is_special = sp_mean < budgets.tol_ratio
    is_restricted = is_special and nt_max < budgets.m_cap
    in_koranyi = ko_sup < budgets.m_cap
    is_nontangential = eu_max < budgets.m_cap
    return ApproachReport(
        X,
        ko_sup,
        sp_mean,
        nt_max,
        float(angle.max()),
        eu_max,
        is_special,
        is_restricted,
        in_koranyi,
        is_nontangential,
        ko_sup if in_koranyi else float("inf"),
    ), series


def radial_quotient_series(orbit: Orbit, X=None) -> np.ndarray:
    """(1 - <Z_{n+1}, X>)/(1 - <Z_n, X>); tends to 1 for restricted parabolic orbits."""
    X = _resolve_vertex(orbit.model, X, orbit.points[0].size)
    return MODELS[orbit.model].radial_series(orbit.points, X.X)


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
    try:
        d = maps.spec_to_dict(spec)
    except ModelMismatchError:  # a map of no built-in family is labelled by its repr
        return repr(spec)

    def flat(x):
        if isinstance(x, dict):
            fam = x.pop("family")
            return f"{fam}({', '.join(f'{k}={flat(v)}' for k, v in x.items())})"
        if isinstance(x, list):
            return "[" + ", ".join(flat(v) for v in x) + "]"
        return repr(x)

    return flat(d)


def theorem_harness(
    suite, budgets: Budgets | None = None, classify_n_max: int = _PRECHECK_N
) -> HarnessReport:
    """Verify restricted => zero step on a suite of (spec, start) cases.

    A row passes when NOT restricted OR the step verdict is zero_step, with
    two extra checks: non-zero-step rows must be non-restricted, and
    restricted rows must have radial quotient within _TOL_RADIAL of 1.
    Inconclusive step verdicts fail the row.  A row is skipped, with the reason
    as its note, when its spec is not parabolic, when it has no vertex to read
    the approach at (a disk or ball row) or when its orbit is too short for the
    approach statistics; any other PreconditionError is raised.  Half-plane rows
    are the N = 1 case: with no w the special ratio is 0, so restricted means
    non-tangential, and the check is the one-variable theorem.
    Specs are classified at classify_n_max steps and budgets' tolerances, rows run on budgets.
    """
    budgets = budgets or Budgets()
    rows = []
    reports = {}  # a spec that recurs in the suite is classified once
    for spec, start in suite:
        label = _spec_label(spec)
        if spec not in reports:
            reports[spec] = classify(spec, budgets=replace(budgets, n_max=classify_n_max))
        rep = reports[spec]
        if rep.type != "parabolic":
            skip = "classification is not parabolic"
        else:
            try:
                _resolve_vertex(spec.model, None, np.size(start))
            except PreconditionError as exc:  # a disk or ball row: no vertex to read at
                skip = str(exc)
            else:
                orbit = iterate(spec, start, budgets.n_max)
                short = orbit.length < _MIN_APPROACH
                skip = "orbit too short for approach statistics" if short else ""
        if skip:
            rows.append(HarnessRow(label, start, rep.type, None, None, None, None, None,
                                   False, True, skip))
            continue
        ap = approach_report(orbit, budgets=budgets)
        st = step_series(orbit, budgets)
        # the radial quotient of the last k + 1 points: the k quotients the tail mean reads
        k = max(1, int(round((orbit.length - 1) * _TAIL_FRACTION)))
        rq = MODELS[spec.model].radial_series(orbit.points[-k - 1:], ap.X.X)
        radial_dev = float(np.mean(np.abs(rq - 1.0)))
        checks = [  # (whether the row fails the check, its note)
            (st.verdict == "inconclusive", "step verdict inconclusive; raise the budget"),
            (ap.is_restricted and st.verdict != "zero_step",
             "THEOREM VIOLATION: restricted but not zero step"),
            (st.verdict == "nonzero_step" and ap.is_restricted,
             "contrapositive violation: non-zero step but restricted"),
            (ap.is_restricted and radial_dev >= _TOL_RADIAL,
             f"radial quotient deviates by {radial_dev:.3g}"),
            (not ap.implications_ok(), "approach flag logic violates the implication lemma"),
        ]
        notes = [note for failed, note in checks if failed]
        rows.append(
            HarnessRow(label, start, rep.type, ap.is_restricted, st.verdict,
                       float(st.s[-1]), radial_dev, ap, not notes, False, "; ".join(notes))
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
    _require_parabolic(spec, _PRECHECK_N, budgets)
    verdicts = []
    dinfs = []
    for s in starts:
        st = step_series(iterate(spec, s, budgets.n_max), budgets)
        verdicts.append(st.verdict)
        dinfs.append(st.d_inf_estimate)
    if "inconclusive" in verdicts:
        flag = "INCONCLUSIVE"
    elif len(set(verdicts)) == 1:
        flag = "CONSISTENT"
    else:
        flag = "DISCREPANT"
    return ProbeReport(_spec_label(spec), tuple(starts), tuple(verdicts), tuple(dinfs), flag)
