import numpy as np
import pytest

from diskdyn import diagnostics, dynamics, maps
from diskdyn.dynamics import Budgets
from diskdyn.errors import PreconditionError
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
    special, koranyi, nt, angle, euclid, _ = diagnostics._orbit_series(orb, ap.X)
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
            r = diagnostics.approach_report(orb, X, tol_ratio=tol_ratio, m_cap=m_cap)
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
