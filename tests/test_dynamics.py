import warnings

import numpy as np
import pytest

from diskdyn import diagnostics, dynamics, geometry, maps
from diskdyn.dynamics import Budgets, StoppingPolicy
from diskdyn.errors import (
    DomainError, EstimationError, EvaluationError, ModelMismatchError, PreconditionError,
)


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
    st = dynamics.step_series(orb, tol_step=0.1)
    assert st.verdict == "inconclusive"


def test_step_series_needs_two_points():
    orb = dynamics.iterate(maps.DiskMoebius(0.0), 0.0, 0)
    assert orb.length == 1
    with pytest.raises(PreconditionError):
        dynamics.step_series(orb)


def test_estimate_denjoy_wolff_boundary():
    p, loc = dynamics.estimate_denjoy_wolff(
        maps.HalfplaneAffine(1.0, 1.0), [1.0, 2.0 + 1j], n_max=20_000, tol_dw=1e-4
    )
    assert loc == "boundary"
    assert abs(p[0] - 1.0) < 1e-4  # disk coordinates of infinity


def test_estimate_denjoy_wolff_interior():
    class Shrink:
        model = "disk"

        def __call__(self, z):
            return 0.5 * z

    p, loc = dynamics.estimate_denjoy_wolff(Shrink(), [0.3, -0.2 + 0.4j], n_max=10_000)
    assert loc == "interior"
    assert abs(p[0]) < 1e-10


def test_estimate_denjoy_wolff_disagreement():
    # rotation orbits stay on distinct circles
    rot = maps.DiskMoebius(0.0, 2.0)
    with pytest.raises(EstimationError):
        dynamics.estimate_denjoy_wolff(rot, [0.3, 0.6], n_max=500)


def test_multiplier_hyperbolic():
    orb = dynamics.iterate(maps.HalfplaneAffine(2.0), 1.0, 100_000)
    est = dynamics.estimate_multiplier(maps.HalfplaneAffine(2.0), orb)
    assert est.value == pytest.approx(0.5, abs=1e-6)


def test_multiplier_parabolic():
    spec = maps.HalfplaneAffine(1.0, 1.0)
    orb = dynamics.iterate(spec, 1.0, 50_000)
    est = dynamics.estimate_multiplier(spec, orb)
    assert est.value == pytest.approx(1.0, abs=1e-4)


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


def test_default_starts_fit_the_map_dimension():
    siegel = dynamics.default_starts("siegel")
    for dim in (1, 2, 3):
        spec = maps.HeisenbergTranslation((0.5,) * (dim - 1))
        fitted = dynamics._fit_starts(spec, siegel)
        assert [s.shape for s in fitted] == [(dim,)] * 3
        for s, base in zip(fitted, siegel):
            assert np.array_equal(s, np.pad(base, (0, 1))[:dim])
            assert maps.domain_margin("siegel", s) > 0.0
    # maps that fix no dimension keep the defaults themselves
    assert dynamics._fit_starts(maps.SiegelTranslation(1.0), siegel) is siegel


def test_default_starts_inside_domain():
    for model in maps.MODELS:
        for s in dynamics.default_starts(model):
            assert maps.domain_margin(model, s) > 0.0


# ---------------------------------------------------------------------------
# ball/Siegel orbit engine against the per-step loop it replaced


def reference_orbit(spec, start, n_max, policy=None):
    """The per-step ball/Siegel loop of iterate before block checking; (points, stop)."""
    policy = policy or StoppingPolicy()
    model = spec.model
    cur = np.array(start, np.complex128).reshape(-1)
    buf = np.empty((n_max + 1, cur.size), np.complex128)
    if maps.domain_margin(model, cur) <= 0.0:
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


# (spec, starts, n_max, stop reasons of the three orbits); no n_max is a
# multiple of the 256-step check block
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
    # w keeps its -0.0 imaginary part only if the Siegel step copies w
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


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_matches_per_step_loop(name):
    spec, starts, n_max, stops = ENGINE_CASES[name]
    policy = ENGINE_POLICIES.get(name)
    refs = [reference_orbit(spec, s, n_max, policy) for s in starts]
    assert [r[1] for r in refs] == stops
    for s, ref in zip(starts, refs):
        _assert_same(dynamics.iterate(spec, s, n_max, policy), ref)
    batch = dynamics.iterate_batch(spec, starts, n_max, policy)
    assert len(batch) == len(starts)
    for orbit, s, ref in zip(batch, starts, refs):
        assert orbit.start is s
        _assert_same(orbit, ref)


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
    assert _evaluation_error(lambda: dynamics.iterate_batch(spec, starts, 2000)) == refs[0]
    assert _evaluation_error(lambda: dynamics.iterate_batch(spec, starts[1:], 2000)) == refs[1]


@pytest.mark.parametrize("spec", [
    maps.compose(maps.SiegelTranslation(-1.0 + 0.5j), maps.HeisenbergTranslation((0.25 + 0j,))),
    maps.compose(maps.HeisenbergTranslation((0.1j,), 1.0), maps.SiegelTranslation(-0.5)),
])
def test_block_map_evaluation_error_matches_per_step_loop(spec):
    # Re b < 0 lowers Re z - ||w||^2 by |Re b| a step; the starts leave at different steps
    starts = _siegel([700.25, 0.5], [300.5, 0.25j], [1000.125, 0.0])
    refs = [_evaluation_error(lambda s=s: reference_orbit(spec, s, 3000)) for s in starts]
    assert len(set(refs)) == 3
    for s, ref in zip(starts, refs):
        assert _evaluation_error(lambda s=s: dynamics.iterate(spec, s, 3000)) == ref
    assert _evaluation_error(lambda: dynamics.iterate_batch(spec, starts, 3000)) == refs[0]


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
    assert _evaluation_error(lambda: dynamics.iterate_batch(spec, starts, 2000)) == ref
    with pytest.raises(ValueError):
        dynamics.iterate_batch(spec, starts[::-1], 2000)


def test_engine_raises_map_errors_before_the_stop():
    spec = RaiseBeyond(1.0, 500.0)
    starts = _siegel([1.0, 0.0], [100.0, 0.5])
    with pytest.raises(ValueError):
        reference_orbit(spec, starts[0], 1000)
    with pytest.raises(ValueError):
        dynamics.iterate(spec, starts[0], 1000)
    with pytest.raises(ValueError):
        dynamics.iterate_batch(spec, starts, 1000)
    # a bad third start raises, unless an earlier start's orbit raises first
    good = dynamics.iterate_batch(spec, starts, 300)
    for orbit, s in zip(good, starts):
        _assert_same(orbit, reference_orbit(spec, s, 300))
    with pytest.raises(DomainError):
        dynamics.iterate_batch(spec, starts + _siegel([-1.0, 0.0]), 300)
    with pytest.raises(ValueError):
        dynamics.iterate_batch(spec, starts + _siegel([-1.0, 0.0]), 1000)


def test_iterate_batch_planar_runs_each_start():
    spec = maps.HalfplaneAffine(1.0, 1.0)
    orbits = dynamics.iterate_batch(spec, [1.0, 2.0 + 1j], 100)
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
    if maps.domain_margin(model, cur) <= 0.0:
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


# (spec, start, n_max, stop reason, orbit length or None); no n_max is a
# multiple of the 256-step check block
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
    if maps.domain_margin(spec.model, start) <= 0.0:
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
    for make, args in [(geometry.DiskPoint, (complex(0.1, _NAN),)),
                       (geometry.HalfPlanePoint, (complex(1.0, np.inf),)),
                       (geometry.BallPoint, (0.1, [complex(0.0, _NAN)])),
                       (geometry.SiegelPoint, (complex(1.0, _NAN), [0.0]))]:
        with pytest.raises(DomainError):
            make(*args)


def test_unknown_model_name_is_a_model_mismatch():
    rng = np.random.default_rng(0)
    for lookup in (lambda: dynamics.default_starts("torus"),
                   lambda: maps.domain_margin("torus", 0.5),
                   lambda: maps.sample_domain("torus", 3, rng),
                   lambda: maps.Identity("torus")):
        with pytest.raises(ModelMismatchError, match="unknown model 'torus'"):
            lookup()


# ---------------------------------------------------------------------------
# the running-sum block of HalfplaneAffine(1, b) against the per-step calls


_NEG = complex(1.0, -0.0)

# (b, start, n_max, policy, stop reason, orbit length or None)
AFFINE_BLOCK_CASES = {
    "im_plus_zero": (0.5, 1.0 + 0j, 1000, None, "max_iter", 1001),
    "im_minus_zero": (0.5, _NEG, 1000, None, "max_iter", 1001),
    # -0.0 + -0.0 is -0.0: a running sum from z_0 itself would keep the sign
    "b_im_minus_zero": (complex(0.5, -0.0), _NEG, 1000, None, "max_iter", 1001),
    "b_minus_zero_from_plus": (complex(0.125, -0.0), 3.0 + 0j, 700, None, "max_iter", 701),
    "inexact_sums": (0.3 - 0.7j, 1.1 + 0.2j, 5000, None, "max_iter", 5001),
    "vertical": (1j * np.pi, 1e-3 - 2j, 3000, None, "max_iter", 3001),
    "b_zero": (0j, 2.0 + 1j, 100, None, "interior_fixed_point", 2),
    "b_zero_minus_zero": (0j, _NEG, 100, None, "interior_fixed_point", 2),
    # 1 + 1000 * 1e9 passes 1e12 at step 1000, inside the fourth 256-step block
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
    _assert_same(orbit, ref)
    if name.startswith("overflow"):
        return
    # one call per 256-step block, for its first step; every stop here keeps its point
    assert len(calls) == -(-(orbit.length - 1) // 256)


@pytest.mark.parametrize("spec", [
    maps.HalfplaneAffine(2.0, 1.0),
    maps.HalfplaneAffine(0.5, 1j),
    maps.HalfplaneAffine(1.0, complex(1.0, np.nan)),
    maps.HalfplaneAffine(1.0, complex(np.inf, 0.0)),
])
def test_affine_block_only_for_finite_translations(spec):
    assert spec._block is None
