import inspect
import warnings

import numpy as np
import pytest

from diskdyn import diagnostics, dynamics, geometry, maps
from diskdyn.dynamics import Budgets, StoppingPolicy
from diskdyn.errors import (
    DomainError, EstimationError, EvaluationError, ModelMismatchError, PreconditionError,
)

import closed_form


def test_iterate_stops_at_max_iter():
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1j), 1.0, 50)
    assert orb.length == 51
    assert orb.stop_reason == "max_iter"
    # vertical translation: exact arithmetic progression
    assert np.allclose(orb.points, 1.0 + 1j * np.arange(51))


def test_iterate_stops_on_magnitude():
    orb = dynamics.iterate(maps.HalfplaneAffine(2.0), 1.0, 100)
    assert orb.stop_reason == "boundary_proximity"
    assert abs(orb.points[-1]) > StoppingPolicy().max_magnitude
    assert orb.length < 101


def test_iterate_stops_at_interior_fixed_point():
    orb = dynamics.iterate(maps.DiskMoebius(0.0), 0.3, 100)  # identity-like: f(z) = z
    assert orb.stop_reason == "interior_fixed_point"
    assert orb.length <= 3


def test_iterate_disk_boundary_proximity():
    # hyperbolic disk automorphism pushes orbits to the boundary
    f = maps.Conjugated(maps.HalfplaneAffine(4.0))
    orb = dynamics.iterate(f, 0.0, 100_000)
    assert orb.stop_reason == "boundary_proximity"
    assert 1.0 - abs(orb.points[-1]) < 1e-11


def test_iterate_rejects_outside_start():
    with pytest.raises(DomainError):
        dynamics.iterate(maps.HalfplaneAffine(1.0, 1.0), -2.0, 10)


def test_step_series_constant_oracle():
    # z + i: s_n = d(z, z+i) = 1/|2x + i| at x=1 gives 1/sqrt(5), every n
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1j), 1.0, 2_000)
    st = dynamics.step_series(orb)
    assert np.allclose(st.s, 1.0 / np.sqrt(5.0), atol=1e-12)
    assert st.verdict == "nonzero_step"
    assert st.d_inf_estimate == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)


def test_step_series_decaying_oracle():
    # z + 1 from z0 = 1: s_n = 1/(2n+3)
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1.0), 1.0, 2_000)
    st = dynamics.step_series(orb)
    n = np.arange(st.s.size)
    assert np.allclose(st.s, 1.0 / (2.0 * n + 3.0), atol=1e-12)
    assert st.verdict == "zero_step"


def test_step_series_inconclusive_band():
    # tail mean inside (tol_step, 10 tol_step) with decay: neither verdict fires
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1j), 1.0, 500)
    st = dynamics.step_series(orb, Budgets(tol_step=0.1))
    assert st.verdict == "inconclusive"


def test_step_series_needs_two_points():
    orb = dynamics.iterate(maps.DiskMoebius(0.0), 0.0, 0)
    assert orb.length == 1
    with pytest.raises(PreconditionError):
        dynamics.step_series(orb)


def test_estimate_denjoy_wolff_boundary():
    p, loc = dynamics.estimate_denjoy_wolff(
        maps.HalfplaneAffine(1.0, 1.0), [1.0, 2.0 + 1j], Budgets(n_max=20_000, tol_dw=1e-4)
    )
    assert loc == "boundary"
    assert abs(p[0] - 1.0) < 1e-4  # disk coordinates of infinity


def test_estimate_denjoy_wolff_interior():
    class Shrink:
        model = "disk"

        def __call__(self, z):
            return 0.5 * z

    p, loc = dynamics.estimate_denjoy_wolff(Shrink(), [0.3, -0.2 + 0.4j],
                                            Budgets(n_max=10_000, tol_dw=1e-6))
    assert loc == "interior"
    assert abs(p[0]) < 1e-10


def test_estimate_denjoy_wolff_disagreement():
    # rotation orbits stay on distinct circles
    rot = maps.DiskMoebius(0.0, 2.0)
    with pytest.raises(EstimationError):
        dynamics.estimate_denjoy_wolff(rot, [0.3, 0.6], Budgets(n_max=500, tol_dw=1e-6))


def test_estimate_denjoy_wolff_agrees_with_classify():
    # both read tol_dw from Budgets; the default starts' limits lie 2.8e-6 apart
    spec = maps.SiegelTranslation(1.0)
    starts = dynamics._fit_starts(spec, dynamics.default_starts(spec.model))
    p, loc = dynamics.estimate_denjoy_wolff(spec, starts)
    rep = dynamics.classify(spec)
    assert (loc, rep.dw_location, rep.type) == ("boundary", "boundary", "parabolic")
    assert rep.dw_point.at_infinity
    assert abs(p[0] - 1.0) < 1e-4 and np.linalg.norm(p[1:]) < 1e-4  # ball coordinates of infinity


# equal starts are one orbit and cannot show a common limit: the rotation's
# orbit of 0.3 stays on one circle, and [0.3, 0.3] read as parabolic
# (c = 0.9999999999999997, a boundary point) where [0.3, 0.5] is elliptic
@pytest.mark.parametrize("starts", [[0.3, 0.3], [0.3, 0.3 + 0j], [0.3, 0.3, 0.3]])
def test_classify_tops_up_fewer_than_two_distinct_starts(starts):
    rot = maps.DiskMoebius(0.0, 1.0)
    rep = dynamics.classify(rot, starts=starts)
    assert (rep.type, rep.dw_location) == ("elliptic", "interior")
    assert rep == dynamics.classify(rot, starts=starts + dynamics.default_starts("disk"))


@pytest.mark.parametrize("starts", [[0.3, 0.3], [0.3, 0.3 + 0j], [0.3]])
def test_estimate_denjoy_wolff_needs_two_distinct_starts(starts):
    # [0.3, 0.3] returned a "boundary" limit of norm 0.3
    with pytest.raises(PreconditionError, match="^need at least 2 distinct starts$"):
        dynamics.estimate_denjoy_wolff(maps.DiskMoebius(0.0, 1.0), starts)


def test_classify_keeps_repeated_starts_when_two_are_distinct(monkeypatch):
    calls = []
    _count_calls(monkeypatch, dynamics, "iterate", calls)
    rep = dynamics.classify(maps.DiskMoebius(0.0, 1.0), starts=[0.3, 0.3, 0.5])
    assert rep.type == "elliptic"
    assert [args[1] for args, _ in calls] == [0.3, 0.3, 0.5]


THRESHOLDS = {"tail_fraction", "tol_step", "tol_dw", "tol_c", "tol_ratio", "m_cap", "tol_radial"}


def test_thresholds_are_set_only_in_budgets():
    from diskdyn import cli, conjugation, plotting

    found = []
    for mod in (cli, conjugation, diagnostics, dynamics, geometry, maps, plotting):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):  # its public methods; Budgets is where thresholds live
                members = [] if obj is Budgets else [
                    getattr(m, "__func__", m) for n, m in vars(obj).items() if not n.startswith("_")]
            found += [f"{mod.__name__}.{fn.__qualname__}({p})" for fn in members
                      if inspect.isfunction(fn)
                      for p in inspect.signature(fn).parameters if p in THRESHOLDS]
    assert not found


def test_multiplier_hyperbolic():
    orb = dynamics.iterate(maps.HalfplaneAffine(2.0), 1.0, 100_000)
    est = dynamics.estimate_multiplier(orb)
    assert min(est, 1.0) == pytest.approx(0.5, abs=1e-6)


def test_multiplier_parabolic():
    spec = maps.HalfplaneAffine(1.0, 1.0)
    orb = dynamics.iterate(spec, 1.0, 50_000)
    est = dynamics.estimate_multiplier(orb)
    assert min(est, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_classify_hyperbolic():
    rep = dynamics.classify(maps.HalfplaneAffine(2.0))
    assert rep.type == "hyperbolic"
    assert rep.multiplier_c == pytest.approx(0.5, abs=1e-6)
    assert rep.dw_location == "boundary"
    assert rep.dw_point.at_infinity


def test_classify_parabolic_translations():
    for b in (1.0, 1j, 1.0 + 1j):
        rep = dynamics.classify(maps.HalfplaneAffine(1.0, b), budgets=Budgets(n_max=20_000))
        assert rep.type == "parabolic", b
        assert abs(rep.multiplier_c - 1.0) <= 1e-3


def test_classify_elliptic_rotation():
    rep = dynamics.classify(maps.DiskMoebius(0.0, 1.0), budgets=Budgets(n_max=2_000))
    assert rep.type == "elliptic"
    assert rep.dw_location == "interior"
    assert abs(rep.dw_point) < 1e-10
    assert rep.multiplier_c == pytest.approx(1.0, abs=1e-6)  # isometry


def test_classify_elliptic_moebius_offcenter():
    # elliptic automorphism with fixed point a/(1 - sqrt(1-|a|^2)) style; just
    # check the located point is actually fixed
    f = maps.DiskMoebius(0.3, 2.5)
    rep = dynamics.classify(f, budgets=Budgets(n_max=2_000))
    assert rep.type == "elliptic"
    assert abs(f(rep.dw_point) - rep.dw_point) < 1e-10


def test_classify_siegel_translation():
    rep = dynamics.classify(maps.SiegelTranslation(1.0), budgets=Budgets(n_max=20_000))
    assert rep.type == "parabolic"
    assert rep.dw_point.at_infinity


def test_classify_heisenberg():
    rep = dynamics.classify(
        maps.HeisenbergTranslation((1.0 + 0j,), 0.0), budgets=Budgets(n_max=20_000)
    )
    assert rep.type == "parabolic"


def test_classify_single_start_pads_defaults():
    rep = dynamics.classify(
        maps.HalfplaneAffine(1.0, 1.0), starts=[1.0 + 0j], budgets=Budgets(n_max=20_000)
    )
    assert rep.type == "parabolic"


def test_classify_takes_the_dimension_from_the_map():
    heis3 = maps.HeisenbergTranslation((0.5, 0.3j))
    for spec in (heis3, maps.compose(maps.SiegelTranslation(1.0), heis3)):
        rep = dynamics.classify(spec, budgets=Budgets(n_max=20_000))
        assert rep.type == "parabolic"
        assert rep.dw_point.at_infinity
    # a single start is padded with default starts of the same dimension
    rep = dynamics.classify(heis3, starts=[np.array([2.0, 0.1, 0.0], np.complex128)],
                            budgets=Budgets(n_max=20_000))
    assert rep.type == "parabolic"
    # the ball picture runs too (its orbits stop near the sphere before they agree)
    ball = dynamics.classify(maps.Conjugated(heis3), budgets=Budgets(n_max=2_000))
    assert isinstance(ball, dynamics.ClassificationReport)


def test_classify_tops_up_with_defaults_of_the_start_n():
    # the N = 2 defaults beside an N = 3 start raised numpy's "inhomogeneous shape"
    start = np.array([1.0, 0.1, 0.1], np.complex128)
    rep = dynamics.classify(maps.SiegelTranslation(1.0), starts=[start],
                            budgets=Budgets(n_max=20_000))
    assert rep.type == "parabolic"
    siegel = dynamics.default_starts("siegel")
    for like, dim in ((start, 3), (start[:1], 1), (None, 2)):
        fitted = dynamics._fit_starts(maps.SiegelTranslation(1.0), siegel, like)
        assert [s.shape for s in fitted] == [(dim,)] * 3
    # a map that fixes N keeps its N, and planar starts stay numbers
    assert dynamics._fit_starts(maps.HeisenbergTranslation((0.5,)), siegel, start)[0].shape == (2,)
    disk = dynamics.default_starts("disk")
    assert dynamics._fit_starts(maps.DiskMoebius(0.5), disk, 0.3) is disk


def test_default_starts_fit_the_map_dimension():
    siegel = dynamics.default_starts("siegel")
    for dim in (1, 2, 3):
        spec = maps.HeisenbergTranslation((0.5,) * (dim - 1))
        fitted = dynamics._fit_starts(spec, siegel)
        assert [s.shape for s in fitted] == [(dim,)] * 3
        for s, base in zip(fitted, siegel):
            assert np.array_equal(s, np.pad(base, (0, 1))[:dim])
            assert maps.MODELS["siegel"].margin(s) > 0.0
    # maps that fix no dimension keep the defaults themselves
    assert dynamics._fit_starts(maps.SiegelTranslation(1.0), siegel) is siegel


def test_default_starts_inside_domain():
    for model in maps.MODELS:
        for s in dynamics.default_starts(model):
            assert maps.MODELS[model].margin(s) > 0.0


# ---------------------------------------------------------------------------
# ball/Siegel orbit engine against the per-step loop it replaced


def reference_orbit(spec, start, n_max, policy=None):
    """The per-step ball/Siegel loop of iterate before block checking; (points, stop)."""
    policy = policy or StoppingPolicy()
    model = spec.model
    cur = np.array(start, np.complex128).reshape(-1)
    buf = np.empty((n_max + 1, cur.size), np.complex128)
    if maps.MODELS[model].margin(cur) <= 0.0:
        raise DomainError(f"start lies outside the {model} domain")
    buf[0] = cur
    stop = "max_iter"
    count = 1
    for k in range(n_max):
        nxt = spec(cur)
        if model == "siegel":
            w = nxt[1:]
            margin = nxt[0].real - float(np.vdot(w, w).real)
        else:  # ball
            margin = 1.0 - float(np.vdot(nxt, nxt).real)
        if not margin > 0.0:
            if margin != margin:  # NaN
                stop = "numeric_failure"
                break
            raise EvaluationError(
                f"orbit left the {model} domain at step {k + 1}",
                index=k + 1,
                margin=float(margin),
            )
        buf[count] = nxt
        count += 1
        if model == "ball":
            if margin < policy.boundary_gap:
                stop = "boundary_proximity"
                break
        elif abs(nxt[0]) > policy.max_magnitude:
            stop = "boundary_proximity"
            break
        if k % 16 == 0:
            if float(np.abs(nxt - cur).max()) < policy.fixed_point_tol:
                stop = "interior_fixed_point"
                break
        cur = nxt
    return buf[:count].copy(), stop


def _margin_rows(rng, m, n, unbounded):
    """m points of C^n over many scales, signed zeros, and Re z near ||w||^2 for unbounded rows."""
    P = (rng.normal(size=(m, 2 * n)) * 10.0 ** rng.uniform(-8.0, 8.0, (m, 2 * n))).view(complex)
    P[: m // 8] = np.where(rng.random((m // 8, n)) < 0.5, complex(-0.0, 0.0), complex(0.0, -0.0))
    if unbounded:
        P[m // 2 :, 0] += (P[m // 2 :, 1:].real ** 2 + P[m // 2 :, 1:].imag ** 2).sum(axis=1)
    return P


@pytest.mark.parametrize("name", sorted(geometry.MODELS))
def test_screen_margins_are_the_model_margins_bit_for_bit(name, monkeypatch):
    # the stopping rule decides on the margins it reads from _margin, and
    # raises with one of them; Model.margin must give the same bits
    model = geometry.MODELS[name]
    rng = np.random.default_rng(sorted(geometry.MODELS).index(name))
    read = []
    monkeypatch.setattr(dynamics, "_margin",
                        lambda x, w: read.append(geometry._margin(x, w)) or read[-1])
    for n in (1,) if model.planar else (1, 2, 5, 9, 16):
        pts = _margin_rows(rng, 301, n, model.unbounded)
        read.clear()
        try:
            dynamics._first_stop(model, StoppingPolicy(), pts, 0)
        except EvaluationError as err:
            assert np.float64(err.margin).tobytes() == read[0][err.index - 1].tobytes()
        [margins] = read
        x, w = (pts[:, 0].real, pts[:, 1:]) if model.unbounded else (1.0, pts)
        assert geometry._margin(x, w)[1:].tobytes() == margins.tobytes()
        for row, got in zip(pts[1:], margins):
            assert np.float64(model.margin(row)).tobytes() == got.tobytes()
            if model.planar:  # and the scalar formula of the planar models
                z = complex(row[0])
                old = z.real if model.unbounded else 1.0 - (z.real * z.real + z.imag * z.imag)
                assert np.float64(model.margin(z)).tobytes() == np.float64(old).tobytes()
                assert np.float64(old).tobytes() == got.tobytes()


class NanBeyond:
    """(z, w) -> (z + 1, w) that returns NaN once Re z passes `edge`."""

    model = "siegel"

    def __init__(self, edge):
        self.edge = edge

    def __call__(self, pt):
        out = np.array(pt, np.complex128)
        out[..., 0] += 1.0
        return np.where(out[..., :1].real > self.edge, np.nan, out)


class RaiseBeyond:
    """(z, w) -> (z + b, w) that raises on points with |z| > `edge`."""

    model = "siegel"

    def __init__(self, b, edge):
        self.b, self.edge = b, edge

    def __call__(self, pt):
        pt = np.asarray(pt, np.complex128)
        if np.any(np.abs(pt[..., 0]) > self.edge):
            raise ValueError("point beyond the edge")
        out = pt.copy()
        out[..., 0] += self.b
        return out


class SiegelDilation:
    """(z, w) -> (lam z, sqrt(lam) w), a hyperbolic automorphism for lam > 1."""

    model = "siegel"

    def __init__(self, lam):
        self.lam = lam

    def __call__(self, pt):
        pt = np.asarray(pt, np.complex128)
        return np.concatenate((self.lam * pt[..., :1], np.sqrt(self.lam) * pt[..., 1:]), axis=-1)


def _siegel(*pts):
    return [np.array(p, np.complex128) for p in pts]


# (spec, starts, n_max, stop reasons of the three orbits); every n_max ends
# inside a block of the schedule, so each orbit's last block is a short one
ENGINE_CASES = {
    "siegel": (maps.SiegelTranslation(1.0),
               _siegel([1.0, 0.3], [2.0 + 1.0j, 0.1], [1.5 - 0.5j, -0.1j]), 1000,
               ["max_iter"] * 3),
    "siegel_far": (maps.SiegelTranslation(1e8),
                   _siegel([1.0, 0.0], [3e11, 0.2], [7e11 + 1j, 0.5j]), 10_100,
                   ["boundary_proximity"] * 3),
    "heisenberg": (maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0),
                   _siegel([1.5, 0.2 - 0.1j], [2.0, 0.0], [3.0, -0.3]), 1000,
                   ["max_iter"] * 3),
    "heisenberg_3d": (maps.HeisenbergTranslation((0.3 + 0.1j, -0.2j), 0.5),
                      _siegel([1.5, 0.2, 0.1j], [2.0, 0.0, 0.0], [3.0, -0.3, 0.4]), 700,
                      ["max_iter"] * 3),
    "composition": (maps.compose(maps.SiegelTranslation(2.0),
                                 maps.HeisenbergTranslation((0.25 + 0j,), 0.0)),
                    _siegel([1.5, 0.2], [2.0 + 1.0j, 0.1], [1.0, 0.0]), 1000,
                    ["max_iter"] * 3),
    "identity_siegel": (maps.Identity("siegel"),
                        _siegel([1.0, 0.3], [2.0, 0.0], [1.5, 0.1j]), 300,
                        ["interior_fixed_point"] * 3),
    "identity_ball": (maps.Identity("ball"),
                      _siegel([0.0, 0.0], [0.2 + 0.1j, 0.3], [-0.3, 0.1 - 0.2j]), 300,
                      ["interior_fixed_point"] * 3),
    "ball_from_siegel": (maps.Conjugated(maps.SiegelTranslation(1.0)),
                         _siegel([0.0, 0.0], [0.2 + 0.1j, 0.3], [-0.3, 0.1 - 0.2j]), 1000,
                         ["max_iter"] * 3),
    "ball_boundary_gap": (maps.Conjugated(SiegelDilation(1.1)),
                          _siegel([0.0, 0.0], [0.2 + 0.1j, 0.3], [-0.3, 0.1 - 0.2j]), 1000,
                          ["boundary_proximity"] * 3),
    "ball_wide_gap": (maps.Conjugated(SiegelDilation(1.1)),
                      _siegel([0.0, 0.0], [0.2 + 0.1j, 0.3], [-0.3, 0.1 - 0.2j]), 1000,
                      ["boundary_proximity"] * 3),
    "siegel_from_ball": (maps.Conjugated(maps.Conjugated(maps.SiegelTranslation(1.0))),
                         _siegel([1.0, 0.3], [2.0 + 1.0j, 0.1], [1.5 - 0.5j, -0.1j]), 700,
                         ["max_iter"] * 3),
    "nan": (NanBeyond(300.5), _siegel([1.0, 0.0], [100.0, 0.5], [250.25, 0.1j]), 1000,
            ["numeric_failure"] * 3),
    "raise_past_stop": (RaiseBeyond(1e9, 1e12),
                        _siegel([1.0, 0.0], [2e11, 0.5], [5e11 + 1j, 0.1j]), 1000,
                        ["boundary_proximity"] * 3),
    "raise_past_stop_pair": (RaiseBeyond(1e9, 1e12), _siegel([1.0, 0.0], [5e11, 0.0]), 1000,
                             ["boundary_proximity"] * 2),
    "heisenberg_5d": (maps.HeisenbergTranslation((0.3 + 0.1j, -0.2j, 0.5, 0.1 - 0.4j), 0.25),
                      _siegel([2.5, 0.2, 0.1j, -0.3, 0.1 + 0.1j], [3.0, 0.0, 0.0, 0.0, 0.0],
                              [4.0 - 1.0j, -0.3, 0.4, 0.2j, 0.5]), 700,
                      ["max_iter"] * 3),
    # signed zeros in a and in the starts
    "signed_zero": (maps.compose(maps.SiegelTranslation(1.0),
                                 maps.HeisenbergTranslation((complex(0.5, -0.0),))),
                    _siegel([1.5, complex(0.2, -0.0)], [complex(2.0, -0.0), complex(-0.0, -0.0)]), 600,
                    ["max_iter"] * 2),
}

# every distinct map of the default harness suite, from its suite starts
_HARNESS_STARTS = {}
for _spec, _start in diagnostics.default_harness_suite(0):
    _HARNESS_STARTS.setdefault(_spec, []).append(_start)
for _i, (_spec, _starts) in enumerate(_HARNESS_STARTS.items()):
    ENGINE_CASES[f"harness_{_i:02d}"] = (_spec, _starts, 900, ["max_iter"] * len(_starts))


# stopping policies other than the default, by case
ENGINE_POLICIES = {"ball_wide_gap": StoppingPolicy(boundary_gap=1e-6)}


def _assert_same(orbit, ref):
    points, stop = ref
    assert orbit.stop_reason == stop
    assert orbit.points.shape == points.shape
    assert orbit.points.tobytes() == points.tobytes()


def _is_translation(spec):
    """Whether spec is in the translation group, whose orbits iterate writes in closed form."""
    if isinstance(spec, maps.Composition):
        return spec.model == "siegel" and all(map(_is_translation, spec.parts))
    return isinstance(spec, (maps.SiegelTranslation, maps.HeisenbergTranslation)) or (
        isinstance(spec, maps.HalfplaneAffine) and spec.lam == 1.0)


def _assert_like(orbit, ref):
    """_assert_same for a translation-group orbit: the stop of the loop, the points of the closed form."""
    points, stop = ref
    assert orbit.stop_reason == stop
    assert orbit.points.shape == points.shape
    closed_form.assert_orbit(orbit.spec, orbit.start, orbit.points)


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_matches_per_step_loop(name):
    spec, starts, n_max, stops = ENGINE_CASES[name]
    policy = ENGINE_POLICIES.get(name)
    check = _assert_like if _is_translation(spec) else _assert_same
    refs = [reference_orbit(spec, s, n_max, policy) for s in starts]
    assert [r[1] for r in refs] == stops
    for s, ref in zip(starts, refs):
        check(dynamics.iterate(spec, s, n_max, policy), ref)
    batch = [dynamics.iterate(spec, s, n_max, policy) for s in starts]
    assert len(batch) == len(starts)
    for orbit, s, ref in zip(batch, starts, refs):
        assert orbit.start is s
        check(orbit, ref)


def _evaluation_error(fn):
    with pytest.raises(EvaluationError) as info:
        fn()
    return info.value.index, info.value.margin


def test_engine_evaluation_error_matches_per_step_loop():
    # Re b < 0 drives Re z - ||w||^2 through zero; the starts leave at different steps
    spec = maps.SiegelTranslation(-1.0)
    starts = _siegel([700.25, 0.5], [300.5, 0.25j], [1000.125, 0.0])
    refs = [_evaluation_error(lambda s=s: reference_orbit(spec, s, 2000)) for s in starts]
    assert len(set(refs)) == 3
    for s, ref in zip(starts, refs):
        assert _evaluation_error(lambda s=s: dynamics.iterate(spec, s, 2000)) == ref
    # like a loop over the starts, the batch raises the first start's error
    assert _evaluation_error(lambda: [dynamics.iterate(spec, s, 2000) for s in starts]) == refs[0]
    assert _evaluation_error(lambda: [dynamics.iterate(spec, s, 2000) for s in starts[1:]]) == refs[1]


@pytest.mark.parametrize("spec", [
    maps.compose(maps.SiegelTranslation(-1.0 + 0.5j), maps.HeisenbergTranslation((0.25 + 0j,))),
    maps.compose(maps.HeisenbergTranslation((0.1j,), 1.0), maps.SiegelTranslation(-0.5)),
])
def test_block_map_evaluation_error_matches_per_step_loop(spec):
    # Re b < 0 lowers Re z - ||w||^2 by |Re b| a step; the starts leave at different steps.
    # The orbit is the closed form's: it leaves at the first step whose exact margin is
    # <= 0, and reports that margin.  From 700.25 the margin is exactly 0 at step 700
    # (spec0) or 1400 (spec1), where the loop's running sums can still read it positive
    starts = _siegel([700.25, 0.5], [300.5, 0.25j], [1000.125, 0.0])
    refs = [_evaluation_error(lambda s=s: reference_orbit(spec, s, 3000)) for s in starts]
    assert len(set(refs)) == 3
    errors = [_evaluation_error(lambda s=s: dynamics.iterate(spec, s, 3000)) for s in starts]
    for s, (index, margin) in zip(starts, errors):
        exact, size = closed_form.margin(spec, s, index)
        assert exact <= 0.0 < closed_form.margin(spec, s, index - 1)[0]
        assert abs(margin - exact) <= closed_form.RTOL * size
    assert _evaluation_error(lambda: [dynamics.iterate(spec, s, 3000) for s in starts]) == errors[0]


@pytest.mark.parametrize("spec, start", [
    (maps.HeisenbergTranslation((0.5,)), [2.0, 0.1, 0.1]),
    (maps.HeisenbergTranslation((0.5, 0.1j)), [2.0, 0.1]),
    (maps.compose(maps.SiegelTranslation(1.0), maps.HeisenbergTranslation((0.5,))), [2.0, 0.1, 0.1]),
])
def test_heisenberg_rejects_points_of_another_dimension(spec, start):
    with pytest.raises(ValueError):
        spec(np.array(start, np.complex128))
    with pytest.raises(ValueError):
        dynamics.iterate(spec, start, 10)


def test_engine_error_order_follows_the_starts():
    # the first start leaves the domain, the second makes the map raise
    spec = RaiseBeyond(-1.0, 1000.0)
    starts = _siegel([300.5, 0.25j], [2000.0, 0.0])
    ref = _evaluation_error(lambda: reference_orbit(spec, starts[0], 2000))
    assert _evaluation_error(lambda: [dynamics.iterate(spec, s, 2000) for s in starts]) == ref
    with pytest.raises(ValueError):
        [dynamics.iterate(spec, s, 2000) for s in starts[::-1]]


def test_engine_raises_map_errors_before_the_stop():
    spec = RaiseBeyond(1.0, 500.0)
    starts = _siegel([1.0, 0.0], [100.0, 0.5])
    with pytest.raises(ValueError):
        reference_orbit(spec, starts[0], 1000)
    with pytest.raises(ValueError):
        dynamics.iterate(spec, starts[0], 1000)
    with pytest.raises(ValueError):
        [dynamics.iterate(spec, s, 1000) for s in starts]
    # a bad third start raises, unless an earlier start's orbit raises first
    good = [dynamics.iterate(spec, s, 300) for s in starts]
    for orbit, s in zip(good, starts):
        _assert_same(orbit, reference_orbit(spec, s, 300))
    with pytest.raises(DomainError):
        [dynamics.iterate(spec, s, 300) for s in starts + _siegel([-1.0, 0.0])]
    with pytest.raises(ValueError):
        [dynamics.iterate(spec, s, 1000) for s in starts + _siegel([-1.0, 0.0])]


class MapFault(Exception):
    pass


class FaultAtStep:
    """z -> z + 1 (Siegel: (z, w) -> (z + 1, w)) from Re z_0 = 1, raising MapFault at step k."""

    def __init__(self, model, k):
        self.model, self.k = model, k

    def __call__(self, pt):
        if np.ravel(pt)[0].real >= self.k:  # z_{k-1} has Re z = k
            raise MapFault(f"fault at step {self.k}")
        if self.model == "halfplane":
            return pt + 1.0
        out = np.array(pt, np.complex128)
        out[0] += 1.0
        return out


@pytest.mark.parametrize("model, start", [("siegel", _siegel([1.0, 0.25j])[0]),
                                          ("halfplane", 1.0 + 0.5j)])
@pytest.mark.parametrize("k", [1, 2, 256, 257, 300, 769, 1793, 16129])
def test_map_error_on_any_step_of_a_block_comes_through(model, start, k):
    # at k = 1, 257, 769, 1793 and 16129 the map raises on the first step of a
    # block, the last three of blocks the schedule has grown
    spec = FaultAtStep(model, k)
    ref = reference_orbit if model == "siegel" else reference_planar_orbit
    n_max = max(1000, 2 * k)
    with pytest.raises(MapFault, match=f"^fault at step {k}$"):
        ref(spec, start, n_max)
    with pytest.raises(MapFault, match=f"^fault at step {k}$"):
        dynamics.iterate(spec, start, n_max)
    if k > 1:  # the orbit up to the step before the fault is the loop's
        _assert_same(dynamics.iterate(spec, start, k - 1), ref(spec, start, k - 1))


def test_iterate_batch_planar_runs_each_start():
    spec = maps.HalfplaneAffine(1.0, 1.0)
    orbits = [dynamics.iterate(spec, s, 100) for s in [1.0, 2.0 + 1j]]
    for orbit, s in zip(orbits, [1.0, 2.0 + 1j]):
        ref = dynamics.iterate(spec, s, 100)
        assert orbit.stop_reason == ref.stop_reason
        assert orbit.points.tobytes() == ref.points.tobytes()


# ---------------------------------------------------------------------------
# work counts


def _count_calls(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        log.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("spec", [maps.SiegelTranslation(1.0), maps.HalfplaneAffine(1.0, 1.0)])
def test_classify_iterates_each_start_once(monkeypatch, spec):
    calls = []
    _count_calls(monkeypatch, dynamics, "iterate", calls)
    rep = dynamics.classify(spec, budgets=Budgets(n_max=20_000))
    assert rep.type == "parabolic"
    starts = dynamics.default_starts(spec.model)
    assert len(calls) == len(starts)
    for (args, _), s in zip(calls, starts):
        assert np.array_equal(args[1], s)


def test_iterate_fills_translation_blocks_without_map_calls(monkeypatch):
    calls = []
    for cls in (maps.SiegelTranslation, maps.HeisenbergTranslation, maps.Composition):
        _count_calls(monkeypatch, cls, "__call__", calls)
    for spec, starts in _HARNESS_STARTS.items():
        orbit = dynamics.iterate(spec, starts[0], 10_000)
        assert orbit.length == 10_001
    assert calls == []


# ---------------------------------------------------------------------------
# planar orbits: the same engine, as the N = 1 case, against the scalar loop
# it replaced


def reference_planar_orbit(spec, start, n_max, policy=None):
    """The scalar disk/half-plane loop of iterate before the shared engine; (points, stop)."""
    policy = policy or StoppingPolicy()
    model = spec.model
    cur = complex(start)
    buf = np.empty(n_max + 1, np.complex128)
    if maps.MODELS[model].margin(cur) <= 0.0:
        raise DomainError(f"start lies outside the {model} domain")
    buf[0] = cur
    stop = "max_iter"
    count = 1
    for k in range(n_max):
        nxt = spec(cur)
        if model == "disk":
            margin = 1.0 - (nxt.real * nxt.real + nxt.imag * nxt.imag)
        else:
            margin = nxt.real
        if not margin > 0.0:
            if margin != margin:  # NaN
                stop = "numeric_failure"
                break
            raise EvaluationError(
                f"orbit left the {model} domain at step {k + 1}",
                index=k + 1,
                margin=float(margin),
            )
        buf[count] = nxt
        count += 1
        if model == "disk":
            if margin < policy.boundary_gap:  # margin is 1 - |.|^2 here
                stop = "boundary_proximity"
                break
        elif abs(nxt) > policy.max_magnitude:
            stop = "boundary_proximity"
            break
        if abs(nxt - cur) < policy.fixed_point_tol:
            stop = "interior_fixed_point"
            break
        cur = nxt
    return buf[:count].copy(), stop


class PlanarShrink:
    """z -> 0.5 z on the disk: orbits reach the fixed point 0."""

    model = "disk"

    def __call__(self, z):
        return 0.5 * z


class PlanarNanBeyond:
    """z -> z + 1 on the half-plane, NaN once Re z passes `edge`."""

    model = "halfplane"

    def __init__(self, edge):
        self.edge = edge

    def __call__(self, z):
        z = z + 1.0
        return complex("nan+nanj") if z.real > self.edge else z


class PlanarRaiseBeyond:
    """z -> z + b on the half-plane that raises on points with |z| > `edge`."""

    model = "halfplane"

    def __init__(self, b, edge):
        self.b, self.edge = b, edge

    def __call__(self, z):
        if abs(z) > self.edge:
            raise ValueError("point beyond the edge")
        return z + self.b


# (spec, start, n_max, stop reason, orbit length or None); every n_max ends
# inside a block of the schedule, so each orbit's last block is a short one
PLANAR_CASES = {
    "affine_vertical": (maps.HalfplaneAffine(1.0, 1j), 1.0, 1000, "max_iter", 1001),
    "affine_magnitude": (maps.HalfplaneAffine(1.0, 1e9), 1.0, 1500, "boundary_proximity", 1001),
    "affine_hyperbolic": (maps.HalfplaneAffine(2.0, 0.5 + 1j), 1.0, 300,
                          "boundary_proximity", None),
    "affine_contraction": (maps.HalfplaneAffine(0.5, 1.0), 1.0, 999, "interior_fixed_point", 48),
    "perturbed": (maps.HalfplanePerturbed(1j, 1.0), 2.0 + 1j, 999, "max_iter", 1000),
    "perturbed_real": (maps.HalfplanePerturbed(1.0, 1.0), 1.0, 777, "max_iter", 778),
    "moebius_gap": (maps.DiskMoebius(0.5), 0.3j, 700, "boundary_proximity", 28),
    "moebius_rotation": (maps.DiskMoebius(0.3, 2.5), 0.1 - 0.2j, 1000, "max_iter", 1001),
    "disk_from_halfplane": (maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)), 0.2 + 0.1j, 2000,
                            "max_iter", 2001),
    "disk_from_halfplane_gap": (maps.Conjugated(maps.HalfplaneAffine(4.0)), 0.2j, 3000,
                                "boundary_proximity", 22),
    "halfplane_from_disk": (maps.Conjugated(maps.DiskMoebius(0.3, 2.5)), 1.0, 1000,
                            "max_iter", 1001),
    "halfplane_from_disk_hyperbolic": (maps.Conjugated(maps.DiskMoebius(0.5)), 1.0 + 0.5j, 5000,
                                       "interior_fixed_point", 32),
    "identity_disk": (maps.Identity("disk"), 0.3, 100, "interior_fixed_point", 2),
    "identity_halfplane": (maps.Identity("halfplane"), 2.0 + 1j, 100, "interior_fixed_point", 2),
    "shrink": (PlanarShrink(), 0.3 + 0.4j, 500, "interior_fixed_point", None),
    "nan": (PlanarNanBeyond(300.5), 1.0, 1000, "numeric_failure", 300),
    "raise_past_stop": (PlanarRaiseBeyond(1e9, 1e12), 1.0, 1100, "boundary_proximity", 1001),
    "magnitude_policy": (maps.HalfplaneAffine(1.0, 1e9), 1.0, 1500, "boundary_proximity", 11),
    "gap_policy": (maps.DiskMoebius(0.5), 0.3j, 700, "boundary_proximity", None),
}


PLANAR_POLICIES = {
    "magnitude_policy": StoppingPolicy(max_magnitude=1e10),
    "gap_policy": StoppingPolicy(boundary_gap=1e-6),
}


@pytest.mark.parametrize("name", sorted(PLANAR_CASES))
def test_planar_engine_matches_scalar_loop(name):
    spec, start, n_max, stop, length = PLANAR_CASES[name]
    policy = PLANAR_POLICIES.get(name)
    ref = reference_planar_orbit(spec, start, n_max, policy)
    assert ref[1] == stop
    if length is not None:
        assert ref[0].size == length
    orbit = dynamics.iterate(spec, start, n_max, policy)
    assert orbit.start is start
    assert orbit.points.ndim == 1
    _assert_same(orbit, ref)


def test_planar_fixed_point_off_the_ball_stride():
    # planar orbits test for a fixed point at every step, not every 16th
    for name in ("affine_contraction", "shrink"):
        spec, start, n_max, _, _ = PLANAR_CASES[name]
        orbit = dynamics.iterate(spec, start, n_max)
        assert orbit.stop_reason == "interior_fixed_point"
        assert (orbit.length - 2) % 16 != 0


@pytest.mark.parametrize(
    "spec, start",
    [
        (maps.HalfplaneAffine(1.0, -1.0), 300.5 + 2j),  # Re z falls through zero
        (maps.HalfplaneAffine(1.0, -0.75), 700.25),
        (maps.Conjugated(maps.HalfplaneAffine(1.0, -1.0)), 0.99),  # the disk image of the above
        (maps.Conjugated(maps.DiskMoebius(0.0, 0.0)), -1.0 + 0.5j),  # outside: DomainError
    ],
)
def test_planar_evaluation_error_matches_scalar_loop(spec, start):
    if maps.MODELS[spec.model].margin(start) <= 0.0:
        with pytest.raises(DomainError):
            dynamics.iterate(spec, start, 1000)
        return
    ref = _evaluation_error(lambda: reference_planar_orbit(spec, start, 1000))
    assert _evaluation_error(lambda: dynamics.iterate(spec, start, 1000)) == ref


def test_planar_map_errors_before_the_stop():
    spec = PlanarRaiseBeyond(1.0, 500.0)
    with pytest.raises(ValueError):
        reference_planar_orbit(spec, 1.0, 1000)
    with pytest.raises(ValueError):
        dynamics.iterate(spec, 1.0, 1000)
    _assert_same(dynamics.iterate(spec, 1.0, 300), reference_planar_orbit(spec, 1.0, 300))


class PlanarArrayBeyond:
    """z -> z + 1 on the half-plane, returned as a (1,) array once Re z passes `edge`."""

    model = "halfplane"

    def __init__(self, edge):
        self.edge = edge

    def __call__(self, z):
        z = z + 1.0
        return np.array([z]) if z.real > self.edge else z


def test_planar_points_that_are_not_numbers_fail_as_in_the_scalar_loop():
    # a block's points are stored together; one that is not a number still
    # raises the loop's TypeError, and only if no earlier step stops
    spec = PlanarArrayBeyond(300.5)
    with pytest.raises(TypeError):
        reference_planar_orbit(spec, 1.0, 1000)
    with pytest.raises(TypeError):
        dynamics.iterate(spec, 1.0, 1000)
    policy = StoppingPolicy(max_magnitude=100.0)
    ref = reference_planar_orbit(spec, 1.0, 1000, policy)
    assert ref[1] == "boundary_proximity"
    _assert_same(dynamics.iterate(spec, 1.0, 1000, policy), ref)


@pytest.mark.parametrize("n_max", [0, 1, 17, 255, 256, 257, 4097])
def test_planar_engine_block_edges(n_max):
    for spec, start in [(maps.HalfplaneAffine(1.0, 1.0 + 1j), 1.0),
                        (maps.DiskMoebius(0.2 + 0.1j, 1.0), 0.5j)]:
        _assert_same(dynamics.iterate(spec, start, n_max),
                     reference_planar_orbit(spec, start, n_max))


class PlanarShift:
    """z -> z + d on the disk."""

    model = "disk"

    def __init__(self, d):
        self.d = d

    def __call__(self, z):
        return z + self.d


def test_planar_fixed_point_threshold_in_scalar_arithmetic():
    # tolerances at the displacement itself, as the scalar and the array abs
    # compute it (they can differ in the last bit): the stop must match the loop
    rng = np.random.default_rng(40)
    for _ in range(300):
        d = complex(*rng.normal(size=2)) * 1e-14
        spec = PlanarShift(d)
        for tol in {abs(d), float(np.abs(np.array([d]))[0])}:
            for tol in (tol, np.nextafter(tol, 1.0)):
                policy = StoppingPolicy(fixed_point_tol=tol)
                _assert_same(dynamics.iterate(spec, 0j, 3, policy),
                             reference_planar_orbit(spec, 0j, 3, policy))


def _array_abs_edges(z):
    """The k >= 1 where numpy's array abs of z_k differs from the scalar abs; all k >= 1 if none."""
    array_abs = np.abs(z)
    ks = [k for k in range(1, z.size) if array_abs[k] != abs(complex(z[k]))]
    return ks or range(1, z.size)


def _magnitude_limits(zk):
    lim = abs(complex(zk))
    return lim, np.nextafter(lim, 0.0), np.nextafter(lim, np.inf)


def _assert_magnitude_stops(spec, start):
    """The orbit stops at the first k whose scalar abs |z_k| passes the limit.

    The limits are |z_k| at the points where numpy's array abs differs from
    the scalar abs in the last bit, and one ulp either side.  The orbit is the
    closed form's, and an orbit that stops is a prefix of the one that does not.
    """
    full = dynamics.iterate(spec, start, 40).points
    closed_form.assert_orbit(spec, start, full)
    z = full.reshape(41, -1)[:, 0]
    for k in _array_abs_edges(z):
        for lim in _magnitude_limits(z[k]):
            orbit = dynamics.iterate(spec, start, 40, StoppingPolicy(max_magnitude=lim))
            stop = next((j for j in range(1, 41) if abs(complex(z[j])) > lim), None)
            assert orbit.stop_reason == ("max_iter" if stop is None else "boundary_proximity")
            _assert_same(orbit, (full[: 41 if stop is None else stop + 1], orbit.stop_reason))


def test_siegel_magnitude_threshold_in_scalar_arithmetic():
    rng = np.random.default_rng(41)
    for _ in range(20):
        b = complex(*rng.uniform(0.5, 2.0, 2)) * 10.0 ** rng.uniform(0, 6)
        spec = maps.SiegelTranslation(b)
        start = np.array([complex(*rng.uniform(1.0, 2.0, 2)) * 10.0 ** rng.uniform(0, 8), 0.5j])
        _assert_magnitude_stops(spec, start)


def test_halfplane_magnitude_threshold_in_scalar_arithmetic():
    # the same for the half-plane, whose closed-form block the rule reads
    rng = np.random.default_rng(42)
    for _ in range(20):
        b = complex(*rng.uniform(0.5, 2.0, 2)) * 10.0 ** rng.uniform(0, 6)
        spec = maps.HalfplaneAffine(1.0, b)
        start = complex(*rng.uniform(1.0, 2.0, 2)) * 10.0 ** rng.uniform(0, 8)
        _assert_magnitude_stops(spec, start)


class Shift:
    """pt -> pt + d on the ball or Siegel domain."""

    def __init__(self, model, d):
        self.model, self.d = model, d

    def __call__(self, pt):
        return pt + self.d


@pytest.mark.parametrize("model, start", [("ball", [0.3 - 0.1j, 0.2j]), ("siegel", [1.5 + 2j, 0.4])])
def test_ball_and_siegel_fixed_point_threshold_at_a_row_displacement(model, start):
    # tolerances at the displacement of a checked step and one ulp either side
    rng = np.random.default_rng(43)
    start = np.array(start, np.complex128)
    for _ in range(30):
        spec = Shift(model, rng.normal(size=(2, 2)).view(complex)[:, 0] * 1e-14)
        pts = dynamics.iterate(spec, start, 40, StoppingPolicy(fixed_point_tol=0.0)).points
        for k in (0, 16, 32):
            disp = float(np.abs(pts[k + 1] - pts[k]).max())
            for tol in (disp, np.nextafter(disp, 0.0), np.nextafter(disp, 1.0)):
                policy = StoppingPolicy(fixed_point_tol=tol)
                _assert_same(dynamics.iterate(spec, start, 40, policy),
                             reference_orbit(spec, start, 40, policy))


def _same_bits_or_both_nan(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def _rounding_points(rng, shape):
    """Complex points over 40 decades, with signed zeros, infinities and NaN mixed in."""
    parts = rng.normal(size=shape + (2,)) * 10.0 ** rng.uniform(-20.0, 20.0, shape + (2,))
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -3e-300], shape + (2,))
    parts = np.where(rng.random(shape + (2,)) < 0.1, special, parts)
    return parts.view(complex)[..., 0]


def test_rounding_facts_the_stopping_rule_reads():
    # np.hypot of re and im is the scalar abs, and the array abs of a block
    # row by row; on a numpy that broke either, an orbit would stop one step off
    rng = np.random.default_rng(44)
    z = _rounding_points(rng, (20_000,))
    hyp = np.hypot(z.real, z.imag)
    _same_bits_or_both_nan(hyp, [abs(complex(v)) for v in z])
    _same_bits_or_both_nan(hyp, [abs(v) for v in z])
    for n in (1, 2, 5, 16):
        block = _rounding_points(rng, (2_000, n))
        _same_bits_or_both_nan(np.abs(block), [np.abs(row) for row in block])


_NAN = float("nan")


# every model, with a NaN or an infinite coordinate; the half-plane and Siegel
# margins do not read Im z
@pytest.mark.parametrize("spec, start", [
    (maps.DiskMoebius(0.5), _NAN),
    (maps.HalfplaneAffine(1.0, 1.0), _NAN),
    (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([_NAN, 0.0])),
    (maps.SiegelTranslation(1.0), np.array([1.0, _NAN])),
    (maps.DiskMoebius(0.5), complex(0.1, _NAN)),
    (maps.DiskMoebius(0.5), complex(np.inf, 0.0)),
    (maps.HalfplaneAffine(1.0, 1.0), complex(1.0, _NAN)),
    (maps.HalfplaneAffine(1.0, 1.0), complex(1.0, np.inf)),
    (maps.HalfplaneAffine(1.0, 1.0), complex(1.0, -np.inf)),
    (maps.HalfplaneAffine(1.0, 1.0), complex(np.inf, 0.0)),
    (maps.HalfplanePerturbed(1j, 1.0), complex(2.0, _NAN)),
    (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([0.1, complex(0.0, _NAN)])),
    (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([complex(0.1, np.inf), 0.0])),
    (maps.SiegelTranslation(1.0), np.array([complex(1.0, _NAN), 0.0])),
    (maps.SiegelTranslation(1.0), np.array([complex(1.0, np.inf), 0.0])),
    (maps.SiegelTranslation(1.0), np.array([complex(np.inf, 0.0), 0.0])),
    (maps.SiegelTranslation(1.0), np.array([1.0, complex(0.1, _NAN)])),
    (maps.HeisenbergTranslation((0.5,)), np.array([complex(2.0, -np.inf), 0.1])),
])
def test_nan_start_is_outside_the_domain(spec, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on it
        with pytest.raises(DomainError):
            dynamics.iterate(spec, start, 10)
        with pytest.raises(DomainError):
            maps.evaluate(spec, start)
        with pytest.raises(DomainError):
            dynamics.classify(spec, [start, start])


def test_non_finite_point_dataclasses_are_rejected():
    # a non-finite coordinate is outside every domain, whichever transform reads it
    for cayley, p in [(geometry.cayley_disk_to_halfplane, complex(0.1, _NAN)),
                      (geometry.cayley_halfplane_to_disk, complex(1.0, np.inf)),
                      (geometry.cayley_ball_to_siegel, [0.1, complex(0.0, _NAN)]),
                      (geometry.cayley_siegel_to_ball, [complex(1.0, _NAN), 0.0])]:
        with pytest.raises(DomainError):
            cayley(p)


def test_unknown_model_name_is_a_model_mismatch():
    rng = np.random.default_rng(0)
    for lookup in (lambda: dynamics.default_starts("torus"),
                   lambda: maps.MODELS["torus"].margin(0.5),
                   lambda: maps.sample_domain("torus", 3, rng),
                   lambda: maps.Identity("torus")):
        with pytest.raises(ModelMismatchError, match="unknown model 'torus'"):
            lookup()


# ---------------------------------------------------------------------------
# the closed-form block of HalfplaneAffine(1, b) against the per-step calls


_NEG = complex(1.0, -0.0)

# (b, start, n_max, policy, stop reason, orbit length or None)
AFFINE_BLOCK_CASES = {
    "im_plus_zero": (0.5, 1.0 + 0j, 1000, None, "max_iter", 1001),
    "im_minus_zero": (0.5, _NEG, 1000, None, "max_iter", 1001),
    "b_im_minus_zero": (complex(0.5, -0.0), _NEG, 1000, None, "max_iter", 1001),
    "b_minus_zero_from_plus": (complex(0.125, -0.0), 3.0 + 0j, 700, None, "max_iter", 701),
    "inexact_sums": (0.3 - 0.7j, 1.1 + 0.2j, 5000, None, "max_iter", 5001),
    "vertical": (1j * np.pi, 1e-3 - 2j, 3000, None, "max_iter", 3001),
    "b_zero": (0j, 2.0 + 1j, 100, None, "interior_fixed_point", 2),
    "b_zero_minus_zero": (0j, _NEG, 100, None, "interior_fixed_point", 2),
    # 1 + 1000 * 1e9 passes 1e12 at step 1000, inside the third block (steps 769-1500)
    "magnitude_mid_block": (1e9, 1.0, 1500, None, "boundary_proximity", 1001),
    # |Im z| = 334 * 3e7 passes 1e10 at step 334, inside the second block
    "magnitude_policy": (0.75 + 3e7j, 1.0, 2000, StoppingPolicy(max_magnitude=1e10),
                         "boundary_proximity", 335),
    # past an overflow the calls give NaN (1 * inf - 0 * y); the block steps by calls there
    "overflow": (1e307j, 1.0, 400, StoppingPolicy(max_magnitude=np.inf), "numeric_failure",
                 None),
    "overflow_real": (1e307, 1.0 + 0.5j, 400, StoppingPolicy(max_magnitude=np.inf),
                      "numeric_failure", None),
    # the orbit stops at step 1, and the block overflows past the stop: the
    # screen's inf - inf must stay silent
    "overflow_past_the_stop": (1e306, 1.0, 1000, None, "boundary_proximity", 2),
}


@pytest.mark.parametrize("name", sorted(AFFINE_BLOCK_CASES))
def test_affine_translation_block_matches_per_step_calls(name, monkeypatch):
    b, start, n_max, policy, stop, length = AFFINE_BLOCK_CASES[name]
    spec = maps.HalfplaneAffine(1.0, b)
    ref = reference_planar_orbit(spec, start, n_max, policy)
    if stop is not None:
        assert ref[1] == stop
    if length is not None:
        assert ref[0].size == length
    calls = []
    monkeypatch.setattr(maps.HalfplaneAffine, "__call__",
                        lambda self, z: calls.append(z) or self.lam * z + self.b)
    orbit = dynamics.iterate(spec, start, n_max, policy)
    _assert_like(orbit, ref)
    if name.startswith("overflow"):
        return
    # every block is written in closed form, with no call
    assert calls == []


@pytest.mark.parametrize("spec", [
    maps.HalfplaneAffine(2.0, 1.0),
    maps.HalfplaneAffine(0.5, 1j),
    maps.HalfplaneAffine(1.0, complex(1.0, np.nan)),
    maps.HalfplaneAffine(1.0, complex(np.inf, 0.0)),
])
def test_affine_block_only_for_finite_translations(spec):
    assert maps._block_fill(spec, 1.0 + 0j) is None


# ---------------------------------------------------------------------------
# the translation group: its elements, its law and its closed-form orbits


_SUITE = diagnostics.default_harness_suite(0)


def _collapsed(spec):
    """A two-part map of the element maps._group_element gives for spec: T(0, Re b) o T(a, i Im b)."""
    a, beta = maps._group_element(spec)
    if a is None:
        return maps.SiegelTranslation(beta)
    return maps.compose(maps.SiegelTranslation(beta.real),
                        maps.HeisenbergTranslation(tuple(a), beta.imag))


def test_harness_compositions_follow_their_collapsed_element():
    mixed = [(spec, start) for spec, start in _SUITE if isinstance(spec, maps.Composition)]
    assert len(mixed) == 5
    for spec, start in mixed:
        calls, stop = reference_orbit(spec, start, 1000)
        assert stop == "max_iter"
        exact, size = closed_form.orbit(_collapsed(spec), start, range(1001))
        for points in (calls, dynamics.iterate(spec, start, 1000).points):
            assert np.all(np.abs(points - exact) <= 1e-13 * size)


def _random_translation(rng, dim):
    b = complex(*rng.normal(size=2))
    if rng.random() < 0.3:
        return maps.SiegelTranslation(complex(abs(b.real), b.imag))
    return maps.HeisenbergTranslation(tuple(rng.normal(size=(dim - 1, 2)) @ [1, 1j]), b.real)


def test_group_law_matches_composed_calls():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        for _ in range(20):
            parts = [_random_translation(rng, dim) for _ in range(rng.integers(2, 5))]
            spec = maps.Composition(tuple(parts))
            a, beta = maps._group_element(spec)
            a = np.zeros(dim - 1, complex) if a is None else a
            size = 1.0 + sum(abs(p.b) + np.abs(getattr(p, "a", ())).sum() for p in parts)
            for pt in maps.sample_domain("siegel", 5, rng, dim):
                z, w = pt[0], pt[1:]
                got = np.concatenate(([z + 2.0 * np.vdot(a, w) + np.vdot(a, a).real + beta], w + a))
                scale = (size + np.abs(pt).sum()) ** 2
                assert np.all(np.abs(got - spec(pt)) <= 1e-13 * scale)


# maps outside the translation group, with starts, and the loop that steps them
OUTSIDE_THE_GROUP = {
    "perturbed": (maps.HalfplanePerturbed(1j, 1.0), 2.0 + 1j),
    "moebius": (maps.DiskMoebius(0.5), 0.1j),
    "conjugated": (maps.Conjugated(maps.SiegelTranslation(1.0)), _siegel([0.2 + 0.1j, 0.3])[0]),
    "composition_conjugated": (
        maps.compose(maps.SiegelTranslation(1.0), maps.Conjugated(maps.Conjugated(
            maps.SiegelTranslation(1.0)))), _siegel([1.5, 0.2])[0]),
    "composition_perturbed": (
        maps.compose(maps.HalfplaneAffine(1.0, 1.0), maps.HalfplanePerturbed(1j, 1.0)), 1.0 + 0j),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_GROUP))
def test_maps_outside_the_group_step_by_calls(name):
    spec, start = OUTSIDE_THE_GROUP[name]
    assert maps._group_element(spec) is None
    assert maps._block_fill(spec, start) is None
    _assert_same(dynamics.iterate(spec, start, 2000), _reference_loop(spec)(spec, start, 2000))


def test_a_composition_of_two_dimensions_raises_as_its_calls_do():
    spec = maps.compose(maps.HeisenbergTranslation((0.5,)), maps.HeisenbergTranslation((0.1, 0.2j)))
    for pt in ([2.0, 0.1], [2.0, 0.1, 0.1]):
        with pytest.raises(ValueError):
            spec(np.array(pt, np.complex128))
        with pytest.raises(ValueError):
            maps._group_element(spec)


def test_a_siegel_translation_copies_w():
    # with a = 0 the filler copies w, which keeps the sign of a zero
    start = _siegel([1.5, complex(-0.0, -0.0), complex(0.25, -0.0)])[0]
    orbit = dynamics.iterate(maps.SiegelTranslation(0.5 + 1j), start, 1000)
    assert orbit.length == 1001
    assert orbit.points[:, 1:].tobytes() == np.tile(start[1:], (1001, 1)).tobytes()


_HEISENBERG_ROWS = [(i, spec, start) for i, (spec, start) in enumerate(_SUITE)
                    if isinstance(spec, maps.HeisenbergTranslation)]


def test_heisenberg_rows_keep_a_nonzero_step_at_every_budget():
    # a verdict must not turn with the budget: a margin that drifts like n^3 eps
    # turns rows inconclusive by 2e5 and lets row 30 leave the domain before 4e5
    assert [i for i, _, _ in _HEISENBERG_ROWS] == list(range(21, 31))
    for n_max in (100_000, 200_000, 400_000):
        for i, spec, start in _HEISENBERG_ROWS:
            orbit = dynamics.iterate(spec, start, n_max)
            assert orbit.stop_reason == "max_iter", (n_max, i)
            assert dynamics.step_series(orbit).verdict == "nonzero_step", (n_max, i)


@pytest.mark.parametrize("row", [26, 30])
def test_heisenberg_margin_and_step_hold_their_start_values(row):
    # an automorphism keeps the margin A_n = A_0 and the step s_n = s_0
    spec, start = _SUITE[row]
    orbit = dynamics.iterate(spec, start, 100_000)
    a0 = closed_form.margin(spec, start, 0)[0]
    an = geometry._margin(orbit.points[-1:, 0].real, orbit.points[-1:, 1:])[0]
    assert abs(an - a0) <= 1e-6 * a0
    s = dynamics.step_series(orbit).s
    assert abs(s[-1] - s[0]) <= 1e-6 * s[0]


# ---------------------------------------------------------------------------
# the block schedule: its edges, errors and stops inside grown blocks, and the
# steps an early stop costs


_BLOCK_ENDS = [256, 768, 1792, 3840, 7936, 16128, 32512, 48896, 65280]


def _reference_loop(spec):
    return reference_planar_orbit if maps.MODELS[spec.model].planar else reference_orbit


def test_block_schedule_doubles_from_256_to_16384():
    blocks = list(dynamics._blocks(100_000))
    assert [end for _, end in blocks[: len(_BLOCK_ENDS)]] == _BLOCK_ENDS
    assert blocks[0][0] == 0 and blocks[-1][1] == 100_000
    for (t, end), (nxt, _) in zip(blocks, blocks[1:]):
        assert nxt == end and t % 16 == 0
        # no block runs further past its start than the steps before it, plus 256
        assert end - t <= min(t + 256, 16_384)
    assert list(dynamics._blocks(0)) == []
    assert list(dynamics._blocks(1)) == [(0, 1)]


# one step either side of each of the first six block ends, and one step past the seventh
_SCHEDULE_EDGES = [end + d for end in _BLOCK_ENDS[:6] for d in (-1, 0, 1)] + [32_513]

SCHEDULE_CASES = {
    "siegel": (maps.SiegelTranslation(1.0), _siegel([1.5 - 0.5j, 0.3])[0]),
    "heisenberg": (maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0), _siegel([1.5, 0.2 - 0.1j])[0]),
    "ball_from_siegel": (maps.Conjugated(maps.SiegelTranslation(1.0)), _siegel([0.2 + 0.1j, 0.3])[0]),
    "affine": (maps.HalfplaneAffine(1.0, 0.5 + 1j), 1.0),
    "perturbed": (maps.HalfplanePerturbed(1j, 1.0), 2.0 + 1j),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_CASES))
def test_engine_schedule_edges(name):
    spec, start = SCHEDULE_CASES[name]
    # the loop runs to max_iter, so its orbit at a smaller n_max is a prefix of this one
    points, stop = _reference_loop(spec)(spec, start, _SCHEDULE_EDGES[-1])
    assert stop == "max_iter" and len(points) == _SCHEDULE_EDGES[-1] + 1
    if _is_translation(spec):
        # the longest orbit is the closed form's, which every shorter one is a prefix of
        points = dynamics.iterate(spec, start, _SCHEDULE_EDGES[-1]).points
        ks = sorted({*range(0, len(points), 7), *_SCHEDULE_EDGES})
        closed_form.assert_orbit(spec, start, points[ks], ks)
    for n_max in _SCHEDULE_EDGES:
        _assert_same(dynamics.iterate(spec, start, n_max), (points[: n_max + 1], "max_iter"))


# Re b < 0 lowers the margin by 1 or 0.75 a step; from Re z_0 = 1000.5 and 5000.5
# the orbits leave at steps 1001 and 5001 (1334 and 6668 at 0.75 a step),
# inside the third and the fifth block
@pytest.mark.parametrize("re0", [1000.5, 5000.5])
@pytest.mark.parametrize("spec, start", [
    (maps.SiegelTranslation(-1.0), [0.0, 0.25j]),
    (Shift("siegel", np.array([-1.0, 0.0])), [0.0, 0.25j]),
    (maps.HalfplaneAffine(1.0, -0.75), 0.0),
    (PlanarRaiseBeyond(-1.0, np.inf), 0.0),
])
def test_evaluation_error_inside_a_grown_block(spec, start, re0):
    start = start + re0 if np.isscalar(start) else np.array(start, np.complex128) + [re0, 0.0]
    ref = _evaluation_error(lambda: _reference_loop(spec)(spec, start, 10_000))
    assert 768 < ref[0] <= 7936
    assert _evaluation_error(lambda: dynamics.iterate(spec, start, 10_000)) == ref


@pytest.mark.parametrize("k", [768, 769, 16128, 16129])
@pytest.mark.parametrize("spec, start", [
    (maps.SiegelTranslation(1.0), _siegel([1.0, 0.25j])[0]),
    (Shift("siegel", np.array([1.0, 0.0])), _siegel([1.0, 0.25j])[0]),
    (maps.HalfplaneAffine(1.0, 1.0), 1.0),
    (PlanarRaiseBeyond(1.0, np.inf), 1.0),
])
def test_magnitude_stop_at_a_block_end_and_one_step_past(spec, start, k):
    # z_k = 1 + k is the first point with |z| > k + 0.5
    policy = StoppingPolicy(max_magnitude=k + 0.5)
    ref = _reference_loop(spec)(spec, start, 20_000, policy)
    assert ref[1] == "boundary_proximity" and len(ref[0]) == k + 1
    _assert_same(dynamics.iterate(spec, start, 20_000, policy), ref)


# ball/Siegel orbits test for a fixed point only at steps 1, 17, 33, ..., so
# there the stop falls one step past the block ends 768 and 16128
@pytest.mark.parametrize("spec, start, ks", [
    (maps.HalfplaneAffine(0.96), 1.0 + 0.5j, [768, 769, 16128, 16129]),
    (SiegelDilation(0.96), _siegel([1.5, 0.2j])[0], [769, 16129]),
])
def test_fixed_point_stop_at_a_block_end_and_one_step_past(spec, start, ks):
    # z -> 0.96 z: the displacement falls 4% a step, so a tolerance just
    # above it at step k stops the orbit there first
    ref_fn = _reference_loop(spec)
    pts = ref_fn(spec, start, 20_000, StoppingPolicy(fixed_point_tol=0.0))[0]
    for k in ks:
        d = pts[k] - pts[k - 1]  # each loop's displacement, in its own arithmetic
        disp = abs(complex(d)) if np.ndim(d) == 0 else float(np.abs(d).max())
        policy = StoppingPolicy(fixed_point_tol=float(np.nextafter(disp, 1.0)))
        ref = ref_fn(spec, start, 20_000, policy)
        assert ref[1] == "interior_fixed_point" and len(ref[0]) == k + 1
        _assert_same(dynamics.iterate(spec, start, 20_000, policy), ref)


@pytest.mark.parametrize("model, start", [("siegel", _siegel([1.0, 0.25j])[0]),
                                          ("halfplane", 1.0 + 0.5j)])
@pytest.mark.parametrize("k", [28, 300, 5000])
def test_early_stop_bounds_the_steps_past_it(monkeypatch, model, start, k):
    # a flat 16,384-step block would call the map 16,384 times for any of these stops
    calls = []
    _count_calls(monkeypatch, FaultAtStep, "__call__", calls)
    spec = FaultAtStep(model, np.inf)  # z -> z + 1, which never faults
    orbit = dynamics.iterate(spec, start, 100_000, StoppingPolicy(max_magnitude=k + 0.5))
    assert orbit.stop_reason == "boundary_proximity" and orbit.length == k + 1
    assert len(calls) <= max(256, 2 * k) + 256


def test_an_orbit_that_stops_in_the_first_block_costs_one_block(monkeypatch):
    calls = []
    _count_calls(monkeypatch, maps.DiskMoebius, "__call__", calls)
    orbit = dynamics.iterate(maps.DiskMoebius(0.5), 0.3j, 100_000)
    assert orbit.stop_reason == "boundary_proximity" and orbit.length == 28
    assert len(calls) == 256


# ---------------------------------------------------------------------------
# proven group orbits: no screen where no step can stop the orbit, and the
# closed-form step


def _outcome(spec, start, n_max, policy=None):
    """iterate's stop reason, length and point bytes, or its EvaluationError's index and margin."""
    try:
        orbit = dynamics.iterate(spec, start, n_max, policy)
    except EvaluationError as err:
        return err.index, err.margin
    return orbit.stop_reason, orbit.length, orbit.points.tobytes()


_EDGE_BOUND = abs(complex(dynamics.iterate(
    maps.SiegelTranslation(1e6), _siegel([1.0, 0.3])[0], 1000).points[-1, 0]))

# (spec, start, n_max, policy, whether the stop is proven free) of group orbits: at the
# edges of the proof, those it must leave to the screen and a few just inside, and below
# every group orbit of the engine and schedule cases
PROOF_CASES = {
    # |z_n| passes 1e12 at step 10_000
    "magnitude": (maps.SiegelTranslation(1e8), _siegel([1.0, 0.3])[0], 20_000, None, False),
    # |z_1000| is the limit, which the screen passes, but the bound's slack does not
    "magnitude_at_the_limit": (maps.SiegelTranslation(1e6), _siegel([1.0, 0.3])[0], 1000,
                               StoppingPolicy(max_magnitude=_EDGE_BOUND), False),
    "magnitude_past_the_limit": (maps.SiegelTranslation(1e6), _siegel([1.0, 0.3])[0], 1000,
                                 StoppingPolicy(max_magnitude=np.nextafter(_EDGE_BOUND, 0.0)),
                                 False),
    # z moves by a few ulps a step: a fixed point at step 1
    "tiny_beta": (maps.SiegelTranslation(1e-15), _siegel([1.0, 0.3])[0], 1000, None, False),
    "tiny_a": (maps.HeisenbergTranslation((1e-15,)), _siegel([1.0, 0.3])[0], 1000, None, False),
    # Re beta < 0: the orbit leaves the domain at step 601
    "negative_re_beta": (maps.compose(maps.SiegelTranslation(-0.5),
                                      maps.HeisenbergTranslation((0.25,))),
                         _siegel([300.5, 0.2])[0], 2000, None, False),
    # A_0 = 2^-32 is half an ulp of ||w_n||^2 = (1000 + n)^2 from n = 449 on, where
    # Re z_n - ||w_n||^2 rounds to 0; with A_0 = 1e-3 it stays clear of the rounding
    "margin_below_ulp": (maps.HeisenbergTranslation((1.0,)), _siegel([1e6 + 2.3e-10, 1e3])[0],
                         1000, None, False),
    "margin_above_ulp": (maps.HeisenbergTranslation((1.0,)), _siegel([1e6 + 1e-3, 1e3])[0],
                         1000, None, True),
    "planar": (maps.HalfplaneAffine(1.0, 0.5 + 1j), 1.0, 1000, None, True),
    "planar_magnitude": (maps.HalfplaneAffine(1.0, 1e9), 1.0, 1500, None, False),
    "planar_tiny_beta": (maps.HalfplaneAffine(1.0, 1e-15), 1.0, 100, None, False),
}
for _name, (_spec, _starts, _n_max, _stops) in ENGINE_CASES.items():
    if _is_translation(_spec):
        for _i, (_start, _stop) in enumerate(zip(_starts, _stops)):
            PROOF_CASES[f"engine_{_name}_{_i}"] = (_spec, _start, _n_max, None, _stop == "max_iter")
for _name, (_spec, _start) in SCHEDULE_CASES.items():
    if _is_translation(_spec):
        PROOF_CASES[f"schedule_{_name}"] = (_spec, _start, _SCHEDULE_EDGES[-1], None, True)


@pytest.mark.parametrize("name", sorted(PROOF_CASES))
def test_proven_orbits_match_the_screened_path(name, monkeypatch):
    spec, start, n_max, policy, free = PROOF_CASES[name]
    fill = maps._block_fill(spec, maps.MODELS[spec.model].point(start))
    assert maps._stop_free(n_max, policy or StoppingPolicy(), **fill.keywords) is free
    proven = _outcome(spec, start, n_max, policy)
    monkeypatch.setattr(maps, "_stop_free", lambda *args, **form: False)
    screened = _outcome(spec, start, n_max, policy)
    assert proven == screened
    if free:
        assert screened[:2] == ("max_iter", n_max + 1)


def test_a_proven_orbit_fills_its_blocks_and_screens_none(monkeypatch):
    fills, screens = [], []
    fill_block, first_stop = maps._fill_block, dynamics._first_stop
    monkeypatch.setattr(maps, "_fill_block", lambda *args, **form:
                        fills.append((args[-2], len(args[-1]))) or fill_block(*args, **form))
    monkeypatch.setattr(dynamics, "_first_stop",
                        lambda *args: screens.append(args[-1]) or first_stop(*args))
    for spec, starts in _HARNESS_STARTS.items():
        fills.clear()
        assert dynamics.iterate(spec, starts[0], 10_000).stop_reason == "max_iter"
        assert fills == [(t, end - t) for t, end in dynamics._blocks(10_000)]
    assert screens == []
    # an orbit the proof leaves to the screen fills and screens block by block
    spec, start, n_max, policy, _ = PROOF_CASES["magnitude"]
    fills.clear()
    assert dynamics.iterate(spec, start, n_max, policy).stop_reason == "boundary_proximity"
    assert [t for t, _ in fills] == screens == [0, *_BLOCK_ENDS[:5]]


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_GROUP))
def test_orbits_outside_the_group_take_the_stored_point_step(name):
    spec, start = OUTSIDE_THE_GROUP[name]
    orbit = dynamics.iterate(spec, start, 2000)
    stored = maps.MODELS[orbit.model].step_series(orbit.points)
    assert dynamics.step_series(orbit).s.tobytes() == stored.tobytes()
    # a hand-built orbit has no map to take (a, beta) from
    orbit = dynamics.iterate(maps.HalfplaneAffine(1.0, 0.3 + 0.1j), 1.0, 100)
    built = dynamics.Orbit(None, "halfplane", None, orbit.points, "max_iter")
    stored = maps.MODELS["halfplane"].step_series(orbit.points)
    assert dynamics.step_series(built).s.tobytes() == stored.tobytes()


@pytest.mark.parametrize("row", range(len(_SUITE)))
def test_the_final_step_is_the_50_digit_step(row):
    # the stored-point formula was off by up to 1.7e-7 on the Heisenberg rows
    spec, start = _SUITE[row]
    s = dynamics.step_series(dynamics.iterate(spec, start, 100_000)).s
    exact = closed_form.step(spec, start, 99_999)
    assert abs(s[-1] - exact) <= 1e-15 * exact


@pytest.mark.parametrize("spec, start", [
    (maps.SiegelTranslation(0.75), _siegel([1.5, 0.3 - 0.1j])[0]),
    (maps.compose(maps.SiegelTranslation(1j), maps.SiegelTranslation(0.5)), _siegel([2.0, 0.3])[0]),
    (maps.HalfplaneAffine(1.0, 0.5 - 0.25j), 1.0 + 0.5j),
])
def test_the_closed_form_step_of_a_pure_translation_is_the_stored_point_formula(spec, start):
    # with a = 0 and dyadic parameters every step is exactly beta, so the two formulas
    # read the same margins and the same |u|
    orbit = dynamics.iterate(spec, start, 20_000)
    closed = dynamics.step_series(orbit).s
    stored = maps.MODELS[orbit.model].step_series(orbit.points)
    assert closed.tobytes() == stored.tobytes()


# ---------------------------------------------------------------------------
# maps outside the translation group: one bound call per step, the loop's bytes


class UserHalfplaneMap:
    """A map of no built-in family: z -> z + 1/(z + 2) + i/4."""

    model = "halfplane"

    def __call__(self, z):
        return z + 1.0 / (z + 2.0) + 0.25j


# (spec, start): orbits that run to max_iter or stop at the boundary gap, the magnitude cap
# (the dilation) or a fixed point (the composition, at step 112)
BY_CALLS = {
    "perturbed": (maps.HalfplanePerturbed(0.5 + 1j, 1.0 - 0.5j), 1.5 - 0.5j),
    "moebius_elliptic": (maps.DiskMoebius(0.2 - 0.1j, 2.0), 0.3 + 0.4j),
    "moebius_hyperbolic": (maps.DiskMoebius(0.5), 0.1j),
    "affine_dilation": (maps.HalfplaneAffine(2.0, 0.5 + 1j), 1.0),
    "composition": (maps.compose(maps.HalfplanePerturbed(1j, 1.0), maps.HalfplaneAffine(0.75, 2.0)),
                    1.0 + 0j),
    "conjugated": (maps.Conjugated(maps.HalfplanePerturbed(1.0, 1j)), 0.2 + 0.1j),
    "user": (UserHalfplaneMap(), 2.0 + 1j),
}


@pytest.mark.parametrize("name", sorted(BY_CALLS))
def test_maps_stepped_by_calls_give_the_loops_orbit(name):
    spec, start = BY_CALLS[name]
    assert maps._block_fill(spec, start) is None
    _assert_same(dynamics.iterate(spec, start, 20_000), _reference_loop(spec)(spec, start, 20_000))


@pytest.mark.parametrize("model, start", [("siegel", _siegel([1.0, 0.25j])[0]),
                                          ("halfplane", 1.0 + 0.5j)])
@pytest.mark.parametrize("k", [1, 255, 256, 257, 20_000])
def test_a_map_error_keeps_the_prefix_before_it(model, start, k):
    # the error of step k comes through with its own text, and the k - 1 steps before it
    # are those of the loop, whether k falls inside a block, on its last step or past it
    spec = FaultAtStep(model, k)
    ref = reference_orbit if model == "siegel" else reference_planar_orbit
    with pytest.raises(MapFault, match=f"^fault at step {k}$"):
        dynamics.iterate(spec, start, 2 * k)
    if k > 1:
        _assert_same(dynamics.iterate(spec, start, k - 1), ref(spec, start, k - 1))
        # |z_{k-1}| passes k - 0.75: that stop, the step before the error, comes first
        policy = StoppingPolicy(max_magnitude=k - 0.75)
        orbit = dynamics.iterate(spec, start, 2 * k, policy)
        assert orbit.stop_reason == "boundary_proximity" and orbit.length == k
        _assert_same(orbit, ref(spec, start, 2 * k, policy))


class CountedPerturbed(maps.HalfplanePerturbed):
    """HalfplanePerturbed whose own __call__ logs each point it steps."""

    def __call__(self, z):
        _COUNTED.append(z)
        return super().__call__(z)


_COUNTED = []


def test_a_subclass_that_overrides_call_takes_its_own_calls(monkeypatch):
    spec = CountedPerturbed(0.5 + 1j, 1.0)
    _COUNTED.clear()
    orbit = dynamics.iterate(spec, 1.0, 1000)
    assert len(_COUNTED) == 1000
    _assert_same(orbit, reference_planar_orbit(maps.HalfplanePerturbed(0.5 + 1j, 1.0), 1.0, 1000))
    # a class __call__ patched after the map was made is the one that runs
    calls = []
    _count_calls(monkeypatch, maps.HalfplanePerturbed, "__call__", calls)
    dynamics.iterate(maps.HalfplanePerturbed(0.5 + 1j, 1.0), 1.0, 300)
    assert len(calls) == 300


# ---------------------------------------------------------------------------
# a shorter orbit is a prefix of a longer one: the fact the prechecks read orbits from


def _prefix_of(orbit, n):
    """(points, stop) of the n-step orbit that a longer orbit of the same start implies."""
    stop_step = orbit.length - (orbit.stop_reason != "numeric_failure")
    if orbit.stop_reason != "max_iter" and stop_step <= n:
        return orbit.points, orbit.stop_reason
    return orbit.points[: n + 1], "max_iter"


# (spec, start): every built-in family, group orbits the proof covers and ones it leaves to the
# screen, and orbits that stop (at steps 1, ~40, 1001, 10000) on either side of the n below
PREFIX_CASES = {
    "moebius": (maps.DiskMoebius(0.2 - 0.1j, 2.0), 0.3 + 0.4j),
    "moebius_boundary": (maps.DiskMoebius(0.5), 0.1j),
    "affine": (maps.HalfplaneAffine(1.0, 0.5 + 1j), 1.0),
    "affine_magnitude": (maps.HalfplaneAffine(1.0, 1e9), 1.0),
    "affine_dilation": (maps.HalfplaneAffine(2.0, 1.0), 1.0),
    "perturbed": (maps.HalfplanePerturbed(0.8 + 0.2j, 1.0 - 0.5j), 1.0),
    "siegel": (maps.SiegelTranslation(1.0), _siegel([1.0, 0.3])[0]),
    "siegel_magnitude": (maps.SiegelTranslation(1e8), _siegel([1.0, 0.3])[0]),
    "heisenberg": (maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0), _siegel([1.5, 0.2 - 0.1j])[0]),
    "identity": (maps.Identity("disk"), 0.5j),
    "composition": (maps.compose(maps.SiegelTranslation(0.5), maps.HeisenbergTranslation((0.25,))),
                    _siegel([1.5, 0.2])[0]),
    "conjugated": (maps.Conjugated(maps.SiegelTranslation(1.0)), _siegel([0.2 + 0.1j, 0.3])[0]),
    "nan": (PlanarNanBeyond(1001.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_a_shorter_orbit_is_the_prefix_of_a_longer_one(name):
    spec, start = PREFIX_CASES[name]
    longer = dynamics.iterate(spec, start, 20_000)
    for n in (0, 1, 40, 255, 256, 1000, 1001, 5000, 15_000):
        orbit = dynamics.iterate(spec, start, n)
        _assert_same(orbit, _prefix_of(longer, n))
        _assert_same(dynamics._orbit_from([longer], spec, start, n), _prefix_of(longer, n))
    wider = dynamics.iterate(spec, start, 30_000)  # where longer ran out, it serves no more
    _assert_same(dynamics._orbit_from([longer], spec, start, 30_000),
                 (wider.points, wider.stop_reason))


def test_an_orbit_serves_only_its_own_start():
    # the identity keeps the sign of a zero, so equal starts of other bytes have other orbits
    spec, other = maps.Identity("halfplane"), complex(1.0, -0.0)
    longer = dynamics.iterate(spec, 1.0 + 0j, 100)
    got = dynamics._orbit_from([longer], spec, other, 10)
    assert got.points.tobytes() == dynamics.iterate(spec, other, 10).points.tobytes()
    assert got.points.tobytes() != longer.points.tobytes()
