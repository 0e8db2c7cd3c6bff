import dataclasses

import numpy as np
import pytest

from diskdyn import diagnostics, dynamics, geometry, maps
from diskdyn.dynamics import Budgets
from diskdyn.errors import ModelMismatchError, PreconditionError
from diskdyn.geometry import BoundaryPoint


def siegel_orbit(spec, start, n=20_000):
    return dynamics.iterate(spec, np.array(start, np.complex128), n)


def test_approach_siegel_translation_is_restricted():
    orb = siegel_orbit(maps.SiegelTranslation(1.0), [1.0, 0.3])
    ap = diagnostics.approach_report(orb)
    assert ap.is_special and ap.is_restricted and ap.in_koranyi
    assert ap.implications_ok()
    assert ap.koranyi_M < 10.0


def test_approach_heisenberg_not_special():
    # w_n = w_0 + n a grows, so ||w||^2 / Re z tends to a positive constant
    orb = siegel_orbit(maps.HeisenbergTranslation((1.0 + 0j,), 0.0), [2.0, 0.0])
    ap = diagnostics.approach_report(orb)
    assert not ap.is_special
    assert not ap.is_restricted
    assert ap.implications_ok()


def test_approach_rejects_wrong_vertex():
    # ball orbit heading to e1, checked against e2: not a convergent approach
    orb = dynamics.iterate(
        maps.Conjugated(maps.SiegelTranslation(1.0)),
        np.array([0.0, 0.0], np.complex128),
        500,
    )
    with pytest.raises(PreconditionError):
        diagnostics.approach_report(orb, X=BoundaryPoint([0.0, 1.0]))


def test_approach_ball_orbit_with_vertex():
    orb = dynamics.iterate(
        maps.Conjugated(maps.SiegelTranslation(1.0)),
        np.array([0.0, 0.1], np.complex128),
        20_000,
    )
    ap = diagnostics.approach_report(orb, X=BoundaryPoint.e1(2))
    assert ap.is_special and ap.is_restricted


def test_ball_orbit_needs_vertex():
    orb = dynamics.iterate(
        maps.Conjugated(maps.SiegelTranslation(1.0)),
        np.array([0.0, 0.0], np.complex128),
        100,
    )
    with pytest.raises(PreconditionError):
        diagnostics.approach_report(orb)


APPROACH_ORBITS = {
    "siegel": (maps.SiegelTranslation(1.0), [1.0, 0.3], None),
    "heisenberg": (maps.HeisenbergTranslation((1.0 + 0j,), 0.0), [2.0, 0.0], None),
    "ball": (maps.Conjugated(maps.SiegelTranslation(1.0)), [0.0, 0.1], BoundaryPoint.e1(2)),
}


@pytest.mark.parametrize("name", sorted(APPROACH_ORBITS))
def test_approach_flags_follow_their_statistics(name):
    spec, start, X = APPROACH_ORBITS[name]
    orb = dynamics.iterate(spec, np.array(start, np.complex128), 20_000)
    ap = diagnostics.approach_report(orb, X)
    special, koranyi, nt, angle, euclid, _ = maps.MODELS[orb.model].approach_series(
        orb.points, ap.X.X)
    k = max(2, int(round(special.size * 0.2)))
    assert ap.special_ratio_tail_mean == float(special[-k:].mean())
    assert ap.nt_tail_max == float(nt[-k:].max())
    assert ap.koranyi_sup_tail == float(koranyi[-k:].max())
    assert ap.euclid_nt_tail_max == float(euclid[-k:].max())
    assert ap.tangency_tail_max == float(angle[-k:].max())
    # thresholds at each statistic and one ulp above it flip the flag it decides
    tols = [1e-2, ap.special_ratio_tail_mean]
    caps = [1e3, ap.nt_tail_max, ap.koranyi_sup_tail, ap.euclid_nt_tail_max]
    for tol_ratio in tols + [np.nextafter(t, np.inf) for t in tols]:
        for m_cap in caps + [np.nextafter(c, np.inf) for c in caps]:
            r = diagnostics.approach_report(orb, X, Budgets(tol_ratio=tol_ratio, m_cap=m_cap))
            assert r.is_special == (r.special_ratio_tail_mean < tol_ratio)
            assert r.is_restricted == (r.is_special and r.nt_tail_max < m_cap)
            assert r.in_koranyi == (r.koranyi_sup_tail < m_cap)
            assert r.is_nontangential == (r.euclid_nt_tail_max < m_cap)
            assert r.koranyi_M == (r.koranyi_sup_tail if r.in_koranyi else np.inf)


def test_radial_quotient_tends_to_one_for_translation():
    orb = siegel_orbit(maps.SiegelTranslation(1.0), [1.0, 0.0])
    rq = diagnostics.radial_quotient_series(orb)
    assert abs(rq[-1] - 1.0) < 1e-3


def test_harness_small_suite_passes():
    suite = [
        (maps.SiegelTranslation(1.0), np.array([1.0, 0.0], np.complex128)),
        (maps.SiegelTranslation(1.5), np.array([2.0, 0.3], np.complex128)),
        (maps.HeisenbergTranslation((1.0 + 0j,), 0.0), np.array([2.0, 0.0], np.complex128)),
    ]
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=20_000))
    assert rep.n_failed == 0
    assert rep.n_skipped == 0
    assert rep.implications_ok()
    heis = [r for r in rep.rows if "Heisenberg" in r.label][0]
    assert heis.step_verdict == "nonzero_step" and heis.restricted is False
    trans = [r for r in rep.rows if r.restricted][0]
    assert trans.step_verdict == "zero_step"
    assert trans.radial_dev < 1e-2


def test_harness_skips_non_parabolic():
    suite = [(maps.HalfplaneAffine(2.0), 1.0 + 0j)]
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=5_000))
    assert rep.n_skipped == 1
    assert rep.rows[0].classified_type == "hyperbolic"


@pytest.mark.parametrize("spec, start, note", [
    # a parabolic disk map and a parabolic ball map: the harness names no vertex for them
    (maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0.2 + 0.1j,
     "disk and ball orbits need an explicit vertex X"),
    (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([0.1, 0.2], np.complex128),
     "disk and ball orbits need an explicit vertex X"),
    # 9.999e11 + 2e8 passes the 1e12 magnitude stop: a 3-point orbit
    (maps.SiegelTranslation(1e8), np.array([9.999e11, 0.0], np.complex128),
     "orbit too short for approach statistics"),
], ids=["planar", "ball", "too_short"])
def test_harness_skips_rows_the_analysis_cannot_read(spec, start, note):
    suite = [(spec, start), (maps.SiegelTranslation(1.0), np.array([1.5, 0.2], np.complex128))]
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=2_000))
    skipped, kept = rep.rows
    assert skipped.classified_type == "parabolic"
    assert skipped.skipped and not skipped.passed and skipped.notes == note
    assert kept.passed and not kept.skipped and kept.step_verdict == "zero_step"
    assert (rep.n_passed, rep.n_failed, rep.n_skipped) == (1, 0, 1)


@pytest.mark.parametrize("spec, start, n_max, match", [
    # 9 steps of 0.3 leave ||Z - e1|| above 0.5: a parabolic orbit that does not converge
    (maps.SiegelTranslation(0.3), np.array([1.5, 1.2], np.complex128), 9,
     "orbit does not converge to the vertex X"),
], ids=["not_converging"])
def test_harness_raises_other_precondition_errors(spec, start, n_max, match):
    with pytest.raises(PreconditionError, match=match):
        diagnostics.theorem_harness([(spec, start)], budgets=Budgets(n_max=n_max))


def test_harness_calls_an_inconclusive_restricted_row_weak_evidence_not_a_violation():
    # far out, 2,000 steps of z + 1 leave the step verdict inconclusive; the note
    # read "THEOREM VIOLATION: restricted but not zero step" on both rows
    suite = [(maps.SiegelTranslation(1.0), np.array([1e4, 0.0], np.complex128)),
             (maps.HalfplaneAffine(1.0, 1.0), 1e4 + 0j)]
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=2_000))
    for row in rep.rows:
        assert (row.restricted, row.step_verdict, row.passed) == (True, "inconclusive", False)
        assert row.notes == "step verdict inconclusive; raise the budget", row.label
    assert rep.n_failed == 2


def test_harness_names_a_restricted_nonzero_step_row_a_theorem_violation(monkeypatch):
    real = diagnostics.step_series

    def nonzero(orbit, budgets=None):
        return dataclasses.replace(real(orbit, budgets), verdict="nonzero_step")

    monkeypatch.setattr(diagnostics, "step_series", nonzero)
    suite = [(maps.SiegelTranslation(1.0), np.array([1.5, 0.2], np.complex128))]
    row, = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=2_000)).rows
    assert (row.restricted, row.step_verdict, row.passed) == (True, "nonzero_step", False)
    assert row.notes == "THEOREM VIOLATION: restricted but not zero step"


# (spec, step verdict, restricted): half-plane rows are the N = 1 case, where the
# check is the one-variable theorem, non-tangential parabolic approach => zero step
HALFPLANE_ROWS = [
    (maps.HalfplaneAffine(1.0, 1.0), "zero_step", True),
    (maps.HalfplaneAffine(1.0, 1.0 + 1.0j), "zero_step", True),
    (maps.HalfplaneAffine(1.0, 0.3 + 2.0j), "zero_step", True),
    (maps.HalfplanePerturbed(0.0, 1.0), "zero_step", True),
    (maps.HalfplanePerturbed(0.5, 1.0), "zero_step", True),
    (maps.HalfplanePerturbed(0.5 + 1.0j, 1.0), "zero_step", True),
    # b = i: a nonzero step and tangential approach
    (maps.HalfplaneAffine(1.0, 1.0j), "nonzero_step", False),
    (maps.HalfplanePerturbed(1.0j, 0.3), "nonzero_step", False),
    (maps.HalfplanePerturbed(1.0j, 1.0), "nonzero_step", False),
]


def test_harness_reads_half_plane_rows_and_skips_disk_and_ball_rows():
    suite = [(spec, z) for spec, _, _ in HALFPLANE_ROWS for z in (1.0 + 0j, 2.0 - 3.0j)]
    suite += [
        (maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0.2 + 0.1j),
        (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([0.1, 0.2], np.complex128)),
        (maps.SiegelTranslation(1.0), np.array([1.5, 0.2], np.complex128)),
    ]
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=100_000))
    assert (rep.n_passed, rep.n_failed, rep.n_skipped) == (19, 0, 2)
    assert rep.implications_ok()
    for row, (_, verdict, restricted) in zip(rep.rows, [r for r in HALFPLANE_ROWS for _ in "ab"]):
        assert row.passed and not row.skipped and not row.notes, row.label
        assert (row.classified_type, row.step_verdict) == ("parabolic", verdict), row.label
        assert row.restricted is restricted, row.label
        # no w column: the special ratio is 0, so restricted means non-tangential
        assert row.approach.X.at_infinity and row.approach.special_ratio_tail_mean == 0.0
    disk, ball, siegel = rep.rows[18:]
    for row in (disk, ball):
        assert row.classified_type == "parabolic" and row.approach is None
        assert row.skipped and not row.passed
        assert row.notes == "disk and ball orbits need an explicit vertex X"
    assert siegel.passed and siegel.step_verdict == "zero_step" and siegel.restricted


def test_approach_reads_a_disk_orbit_at_a_given_vertex():
    # the disk image of z -> z + 1 from 1 runs along the radius to 1: the N = 1 ball case
    orb = dynamics.iterate(maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0j, 20_000)
    ap = diagnostics.approach_report(orb, X=BoundaryPoint([1.0]))
    assert ap.is_special and ap.is_restricted and ap.is_nontangential
    rq = diagnostics.radial_quotient_series(orb, X=[1.0])
    assert abs(rq[-1] - 1.0) < 1e-3
    with pytest.raises(PreconditionError, match="disk and ball orbits need an explicit vertex"):
        diagnostics.approach_report(orb)


def test_approach_refuses_infinity_on_a_disk_or_ball_orbit():
    disk = dynamics.iterate(maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0j, 2_000)
    ball = dynamics.iterate(maps.Conjugated(maps.SiegelTranslation(1.0)),
                            np.array([0.0, 0.1], np.complex128), 2_000)
    for orb in (disk, ball):
        for read in (diagnostics.approach_report, diagnostics.radial_quotient_series):
            with pytest.raises(PreconditionError, match="unit vector X in C"):
                read(orb, BoundaryPoint.infinity())


def test_approach_refuses_a_vertex_of_another_dimension():
    disk = dynamics.iterate(maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0j, 2_000)
    ball = dynamics.iterate(maps.Conjugated(maps.SiegelTranslation(1.0)),
                            np.array([0.0, 0.1], np.complex128), 2_000)
    for orb, X in ((disk, [1.0, 0.0]), (ball, [1.0]), (ball, BoundaryPoint.e1(3))):
        for read in (diagnostics.approach_report, diagnostics.radial_quotient_series):
            with pytest.raises(PreconditionError, match="unit vector X in C"):
                read(orb, X)


def test_default_suite_composition():
    suite = diagnostics.default_harness_suite()
    fams = [type(s).__name__ for s, _ in suite]
    assert fams.count("SiegelTranslation") >= 20
    assert fams.count("HeisenbergTranslation") >= 10
    assert fams.count("Composition") >= 5


def test_probe_consistent_translation():
    rep = diagnostics.conjecture_probe(
        maps.HalfplaneAffine(1.0, 1.0), budgets=Budgets(n_max=20_000)
    )
    assert rep.flag == "CONSISTENT"
    assert set(rep.verdicts) == {"zero_step"}
    assert len(rep.starts) >= 5


def test_probe_rejects_non_parabolic():
    with pytest.raises(PreconditionError):
        diagnostics.conjecture_probe(maps.HalfplaneAffine(2.0))


def test_probe_needs_five_starts():
    with pytest.raises(PreconditionError):
        diagnostics.conjecture_probe(maps.HalfplaneAffine(1.0, 1.0), starts=[1.0, 2.0])


@pytest.mark.parametrize("starts", [[1.0] * 5, [1.0, 2.0, 3.0, 4.0, 1.0 + 0j, 2.0]])
def test_probe_needs_five_distinct_starts(starts):
    # five equal starts reported CONSISTENT
    with pytest.raises(PreconditionError, match="at least 5 distinct starts"):
        diagnostics.conjecture_probe(maps.HalfplaneAffine(1.0, 1.0), starts=starts)


class SiegelShift:
    """(z, w) -> (z + 1, w), a Siegel map of no built-in family: spec_to_dict cannot serialize it."""

    model = "siegel"

    def __call__(self, pt):
        return pt + np.array([1.0, 0.0])

    def __repr__(self):
        return "SiegelShift()"


def test_harness_and_probe_label_a_map_of_no_built_in_family_by_its_repr():
    # both raised ModelMismatchError ("cannot serialize SiegelShift") from the label
    spec, budgets = SiegelShift(), Budgets(n_max=20_000)
    with pytest.raises(ModelMismatchError, match="cannot serialize SiegelShift"):
        maps.spec_to_dict(spec)
    assert dynamics.classify(spec, budgets=budgets).type == "parabolic"
    rep = diagnostics.theorem_harness([(spec, np.array([1.0, 0.3], np.complex128))], budgets)
    assert [(r.label, r.passed, r.step_verdict) for r in rep.rows] == [
        ("SiegelShift()", True, "zero_step")]
    probe = diagnostics.conjecture_probe(spec, budgets=budgets)
    assert probe.label == "SiegelShift()" and probe.flag == "CONSISTENT"
    # a built-in family keeps its label from spec_to_dict
    label = diagnostics.theorem_harness([(maps.SiegelTranslation(1.0), [1.0, 0.3])], budgets)
    assert label.rows[0].label == "SiegelTranslation(b=[1.0, 0.0])"


def test_harness_classifies_each_distinct_spec_once(monkeypatch):
    suite = diagnostics.default_harness_suite(0)
    seen = []
    real = diagnostics.classify

    def counted(spec, *args, **kwargs):
        seen.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "classify", counted)
    rep = diagnostics.theorem_harness(suite, budgets=Budgets(n_max=1_000), classify_n_max=1_000)
    assert len(seen) == len(set(seen)) == 23
    assert len(rep.rows) == len(suite) == 37
    for row, (spec, start) in zip(rep.rows, suite):
        assert row.start is start
        assert row.label == diagnostics._spec_label(spec)


def test_prechecks_read_the_callers_tolerances(monkeypatch):
    # only n_max is the precheck's own; z -> 2z (c = 0.5) is parabolic at tol_c 0.6
    budgets = Budgets(n_max=1_000, tol_c=0.6, tol_dw=2e-4)
    seen = []
    real = dynamics.classify

    def recorded(spec, starts=None, budgets=None):
        seen.append(budgets)
        return real(spec, starts, budgets)

    monkeypatch.setattr(diagnostics, "classify", recorded)
    monkeypatch.setattr(dynamics, "classify", recorded)
    suite = [(maps.SiegelTranslation(1.0), np.array([1.0, 0.0], np.complex128))]
    assert diagnostics.theorem_harness(suite, budgets, classify_n_max=2_000).n_passed == 1
    rep = diagnostics.conjecture_probe(maps.HalfplaneAffine(2.0), budgets=budgets)
    assert rep.flag == "CONSISTENT"
    assert seen == [dataclasses.replace(budgets, n_max=2_000),
                    dataclasses.replace(budgets, n_max=dynamics._PRECHECK_N)]


def test_probe_takes_the_dimension_from_the_map():
    rep = diagnostics.conjecture_probe(maps.HeisenbergTranslation((0.5, 0.3j)),
                                       budgets=Budgets(n_max=5_000))
    assert len(rep.starts) == 5
    assert all(np.shape(s) == (3,) for s in rep.starts)
    assert rep.flag == "CONSISTENT"
    assert set(rep.verdicts) == {"nonzero_step"}


@pytest.mark.parametrize("spec, verdict", [
    (maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), "zero_step"),  # disk
    (maps.Conjugated(maps.HalfplaneAffine(1.0, 1j)), "nonzero_step"),  # disk
    (maps.Conjugated(maps.SiegelTranslation(1.0)), "zero_step"),  # ball
])
def test_probe_default_starts_in_the_disk_and_the_ball(spec, verdict):
    # the two extra starts are the Cayley images of the half-plane / Siegel ones
    rep = diagnostics.conjecture_probe(spec, budgets=Budgets(n_max=5_000))
    assert len(rep.starts) == 5
    assert rep.flag == "CONSISTENT"
    assert set(rep.verdicts) == {verdict}


# ---------------------------------------------------------------------------
# the approach and radial series are computed on the tail their statistics read


def _recording(monkeypatch, names):
    """Replace geometry.<name> by a wrapper that records how many rows it is given."""
    seen = {name: [] for name in names}
    for name in names:
        real = getattr(geometry, name)

        def recorded(P, *args, _real=real, _seen=seen[name]):
            _seen.append(len(P))
            return _real(P, *args)

        monkeypatch.setattr(geometry, name, recorded)
    return seen


def test_approach_and_radial_series_read_only_the_tail(monkeypatch):
    seen = _recording(monkeypatch, ["approach_series_siegel", "radial_quotient_series_siegel"])
    orb = siegel_orbit(maps.SiegelTranslation(1.0), [1.0, 0.3], 100_000)
    assert orb.length == 100_001
    diagnostics.approach_report(orb)
    assert seen == {"approach_series_siegel": [20_000], "radial_quotient_series_siegel": []}
    seen["approach_series_siegel"].clear()
    suite = [(maps.SiegelTranslation(1.0), np.array([1.0, 0.3], np.complex128))]
    rep = diagnostics.theorem_harness(suite, Budgets(n_max=100_000))
    assert rep.n_passed == 1
    assert seen == {"approach_series_siegel": [20_000],
                    "radial_quotient_series_siegel": [20_001]}


def _siegel_points(N, n=400, seed=0):
    """An n-point Siegel orbit at dimension N whose w moves when N > 1."""
    rng = np.random.default_rng(seed)
    w = 0.3 * (rng.standard_normal(N - 1) + 1j * rng.standard_normal(N - 1))
    start = np.concatenate(([1.0 + np.sum(np.abs(w) ** 2) + rng.uniform(0.1, 1.0)], w))
    spec = (maps.HeisenbergTranslation(tuple(0.2 * w), 0.5) if N > 1
            else maps.SiegelTranslation(1.0 + 0.5j))
    return dynamics.iterate(spec, start.astype(np.complex128), n - 1).points


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_the_series_of_a_tail_is_the_tail_of_the_series(N):
    P = _siegel_points(N)
    n = len(P)
    assert n == 400
    B = geometry.siegel_to_ball_array(P)
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vertices = [BoundaryPoint.e1(N).X, x / np.linalg.norm(x)]
    approach = [(geometry.approach_series_siegel, P, ())]
    approach += [(geometry.approach_series_ball, B, (X,)) for X in vertices]
    radial = [(geometry.radial_quotient_series_siegel, P, ())]
    radial += [(geometry.radial_quotient_series_ball, B, (X,)) for X in vertices]
    for k in (2, 3, 17, n):
        for fn, pts, args in approach:
            for whole, tail in zip(fn(pts, *args), fn(pts[-k:], *args)):
                assert tail.shape == (k,)
                assert np.array_equal(tail, whole[-k:]), (fn.__name__, k)
        for fn, pts, args in radial:
            whole, tail = fn(pts, *args), fn(pts[-k:], *args)
            assert tail.shape == (k - 1,)
            assert np.array_equal(tail, whole[len(whole) - (k - 1):]), (fn.__name__, k)


def _whole_orbit_report(orbit, X, budgets):
    """approach_report as computed from the whole-orbit series, with the harness's radial_dev."""
    X = diagnostics._resolve_vertex(orbit.model, X, orbit.points[0].size)
    special, koranyi, nt, angle, euclid, bdist = maps.MODELS[orbit.model].approach_series(
        orbit.points, X.X)
    k = max(2, int(round(special.size * 0.2)))
    assert bdist[-1] < bdist[-k] and bdist[-1] <= 0.5
    ko_sup, sp_mean = float(koranyi[-k:].max()), float(special[-k:].mean())
    nt_max, eu_max = float(nt[-k:].max()), float(euclid[-k:].max())
    is_special = sp_mean < budgets.tol_ratio
    in_koranyi = ko_sup < budgets.m_cap
    report = diagnostics.ApproachReport(
        X, ko_sup, sp_mean, nt_max, float(angle[-k:].max()), eu_max, is_special,
        is_special and nt_max < budgets.m_cap, in_koranyi, eu_max < budgets.m_cap,
        ko_sup if in_koranyi else float("inf"))
    rq = diagnostics.radial_quotient_series(orbit, X)
    k = max(1, int(round(rq.size * 0.2)))
    return report, float(np.mean(np.abs(rq[-k:] - 1.0)))


def _same_report(new, old):
    assert new.X.at_infinity == old.X.at_infinity
    if not old.X.at_infinity:
        assert np.array_equal(new.X.X, old.X.X)
    for f in dataclasses.fields(diagnostics.ApproachReport):
        if f.name != "X":
            assert getattr(new, f.name) == getattr(old, f.name), f.name


def test_tail_statistics_equal_the_whole_orbit_ones_on_the_default_suite():
    budgets = Budgets()
    first = {}  # every distinct spec of the suite, at its first start
    for spec, start in diagnostics.default_harness_suite(0):
        first.setdefault(spec, start)
    assert len(first) == 23
    rep = diagnostics.theorem_harness(list(first.items()), budgets)
    assert rep.n_skipped == 0
    for row, (spec, start) in zip(rep.rows, first.items()):
        orbit = dynamics.iterate(spec, start, budgets.n_max)
        old, radial_dev = _whole_orbit_report(orbit, None, budgets)
        _same_report(row.approach, old)
        _same_report(diagnostics.approach_report(orbit, budgets=budgets), old)
        # the report that diskdyn approach reads from its whole-orbit columns
        _same_report(diagnostics._approach(orbit, None, budgets, whole=True)[0], old)
        assert row.radial_dev == radial_dev


def test_tail_statistics_equal_the_whole_orbit_ones_on_a_ball_orbit():
    orbit = dynamics.iterate(maps.Conjugated(maps.SiegelTranslation(1.0)),
                             np.array([0.0, 0.1], np.complex128), 20_000)
    X = BoundaryPoint.e1(2)
    old, radial_dev = _whole_orbit_report(orbit, X, Budgets())
    _same_report(diagnostics.approach_report(orbit, X), old)
    k = max(1, int(round((orbit.length - 1) * 0.2)))
    rq = maps.MODELS[orbit.model].radial_series(orbit.points[-k - 1:], X.X)
    assert float(np.mean(np.abs(rq - 1.0))) == radial_dev


# ---------------------------------------------------------------------------
# the probe's precheck reads its orbits from the probe's own


def _record_orbits(monkeypatch):
    """The (start, n_max) of every orbit that dynamics and diagnostics compute."""
    log = []
    real = dynamics.iterate

    def recorded(spec, start, n_max, policy=None):
        log.append((start, n_max))
        return real(spec, start, n_max, policy)

    monkeypatch.setattr(dynamics, "iterate", recorded)
    monkeypatch.setattr(diagnostics, "iterate", recorded)
    return log


def _probe_reference(spec, budgets):
    """conjecture_probe's precheck and verdicts, each orbit computed for itself."""
    pre = dynamics.classify(spec, budgets=dataclasses.replace(budgets, n_max=dynamics._PRECHECK_N))
    assert pre.type == "parabolic"
    model = geometry.MODELS[spec.model]
    starts = [model.point(s) for s in model.starts + model.probe_starts]
    series = [dynamics.step_series(dynamics.iterate(spec, s, budgets.n_max), budgets)
              for s in starts]
    return [st.verdict for st in series], [st.d_inf_estimate for st in series]


@pytest.mark.parametrize("n_max", [dynamics._PRECHECK_N, 30_000])
def test_the_probe_computes_each_orbit_once(monkeypatch, n_max):
    spec, budgets = maps.HalfplanePerturbed(0.8 + 0.2j, 1.0 - 0.5j), Budgets(n_max=n_max)
    verdicts, dinfs = _probe_reference(spec, budgets)
    log = _record_orbits(monkeypatch)
    rep = diagnostics.conjecture_probe(spec, budgets=budgets)
    assert [n for _, n in log] == [n_max] * 5
    assert [s for s, _ in log] == list(rep.starts)
    assert list(rep.verdicts) == verdicts
    assert [float(d).hex() for d in rep.d_inf_estimates] == [float(d).hex() for d in dinfs]


def test_a_probe_below_the_precheck_budget_runs_the_precheck_first(monkeypatch):
    spec, budgets = maps.HalfplanePerturbed(0.8 + 0.2j, 1.0 - 0.5j), Budgets(n_max=5_000)
    verdicts, _ = _probe_reference(spec, budgets)
    log = _record_orbits(monkeypatch)
    rep = diagnostics.conjecture_probe(spec, budgets=budgets)
    assert [n for _, n in log] == [dynamics._PRECHECK_N] * 3 + [5_000] * 5
    assert list(rep.verdicts) == verdicts


class MapFault(Exception):
    pass


class FaultBeyond:
    """z -> z + 1 on the half-plane, raising MapFault at a point with Re z >= edge."""

    model = "halfplane"

    def __init__(self, edge):
        self.edge = edge

    def __call__(self, z):
        if z.real >= self.edge:
            raise MapFault(f"fault beyond {self.edge}")
        return z + 1.0


def test_a_probe_orbit_that_raises_leaves_the_errors_in_their_order(monkeypatch):
    # the 2e4-step precheck passes and the probe's first orbit raises past it
    log = _record_orbits(monkeypatch)
    with pytest.raises(MapFault, match="^fault beyond 30000$"):
        diagnostics.conjecture_probe(FaultBeyond(30_000), budgets=Budgets(n_max=40_000))
    # the precheck ran on orbits of its own, after the one that raised
    assert [n for _, n in log] == [40_000, 20_000, 20_000, 20_000, 40_000]
    # a precheck that fails still comes first, whatever the longer orbits would raise
    with pytest.raises(PreconditionError, match="need parabolic"):
        diagnostics.conjecture_probe(FaultBeyond(30_000), budgets=Budgets(n_max=40_000,
                                                                          tol_dw=1e-12))
