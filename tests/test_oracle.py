"""The orbit series and the metric against a 50-digit evaluation of their definitions.

The oracle reads the same stored doubles as the code under test (mpmath's mpf
of a double is exact) and evaluates the definitional formula

    Siegel / half-plane  1 - d^2 = 4 A A' / |z + conj(z') - 2<w, w'>|^2,  A = Re z - ||w||^2
    ball / disk          1 - d^2 = (1 - ||Z||^2)(1 - ||W||^2) / |1 - <Z, W>|^2

with 50 digits, so the cancellation that this form suffers in doubles costs
the oracle nothing at these step sizes.  The gap, approach and radial series
are the ball definitions at a vertex X, with t = <Z, X>; on a Siegel orbit the
oracle takes them at X = e1 of the Cayley image, formed with 50 digits too.
The multiplier estimate is the tail minimum of the gap ratios.
"""

import warnings

import mpmath
import numpy as np
import pytest

from diskdyn import dynamics, geometry as g, maps
from diskdyn.dynamics import Budgets

mpmath.mp.dps = 50

RTOL = 1e-12


def _mpc(v):
    return mpmath.mpc(float(np.real(v)), float(np.imag(v)))


def _ip(a, b):
    """<a, b> = sum a conj(b) over mpc vectors."""
    return mpmath.fsum(x * mpmath.conj(y) for x, y in zip(a, b))


def _oracle_siegel(p, q):
    p, q = [_mpc(v) for v in p], [_mpc(v) for v in q]
    a = mpmath.re(p[0]) - _ip(p[1:], p[1:]).real
    b = mpmath.re(q[0]) - _ip(q[1:], q[1:]).real
    cross = p[0] + mpmath.conj(q[0]) - 2 * _ip(p[1:], q[1:])
    return mpmath.sqrt(1 - 4 * a * b / abs(cross) ** 2)


def _oracle_ball(p, q):
    p, q = [_mpc(v) for v in p], [_mpc(v) for v in q]
    num = (1 - _ip(p, p).real) * (1 - _ip(q, q).real)
    return mpmath.sqrt(1 - num / abs(1 - _ip(p, q)) ** 2)


def _rows(points):
    return np.asarray(points).reshape(len(points), -1)


# (spec, start, steps): every built-in family, on orbits short enough for the oracle
UNBOUNDED = {
    "affine_translation": (maps.HalfplaneAffine(1.0, 0.3 + 0.7j), 1.0 + 0.5j, 200),
    "affine_dilation": (maps.HalfplaneAffine(2.0, 1.0 - 1.0j), 0.5 - 2.0j, 150),
    "affine_contraction": (maps.HalfplaneAffine(0.5, 1.0j), 3.0 + 1.0j, 60),
    "perturbed": (maps.HalfplanePerturbed(1.0j, 1.0), 1.0, 200),
    "siegel_translation": (maps.SiegelTranslation(1.0 + 0.5j), (1.5, 0.2 - 0.3j), 200),
    "heisenberg_n2": (maps.HeisenbergTranslation((0.5,), 0.25), (1.5, 0.2), 200),
    "heisenberg_n3": (maps.HeisenbergTranslation((0.5, -0.3j), 0.1), (2.0, 0.3j, -0.4), 200),
    "siegel_heisenberg": (maps.compose(maps.SiegelTranslation(1.0),
                                       maps.HeisenbergTranslation((0.25,), 0.0)),
                          (1.2 + 0.4j, 0.5 - 0.1j), 200),
}

BOUNDED = {
    "disk_moebius_hyperbolic": (maps.DiskMoebius(0.2), 0.1 + 0.2j, 200),
    "disk_moebius_elliptic": (maps.DiskMoebius(0.3 - 0.2j, 1.3), -0.4 + 0.1j, 200),
}


def _orbit(spec, start, steps):
    orbit = dynamics.iterate(spec, np.asarray(start) if isinstance(start, tuple) else start,
                             steps)
    assert orbit.length > 20
    return orbit


def _check(model, rows, keep=None):
    """The step series and pdist of rows against the oracle, at the steps where keep holds."""
    step = g.MODELS[model].step_series(rows)
    oracle = _oracle_siegel if g.MODELS[model].unbounded else _oracle_ball
    pdist = {"disk": g.pdist_disk, "halfplane": g.pdist_halfplane,
             "ball": g.pdist_ball, "siegel": g.pdist_siegel}[model]
    checked = 0
    for k in range(len(rows) - 1):
        if keep is not None and not (keep[k] and keep[k + 1]):
            continue
        want = oracle(*_rows(rows)[k:k + 2])
        for got in (step[k], pdist(rows[k], rows[k + 1])):
            assert abs(got - want) <= RTOL * abs(want), (model, k, got, want)
        checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(UNBOUNDED))
def test_unbounded_steps_match_the_oracle(name):
    orbit = _orbit(*UNBOUNDED[name])
    assert _check(orbit.model, orbit.points) == orbit.length - 1


@pytest.mark.parametrize("name", sorted(UNBOUNDED) + sorted(BOUNDED))
def test_bounded_steps_match_the_oracle_off_the_boundary(name):
    spec, start, steps = {**UNBOUNDED, **BOUNDED}[name]
    orbit = _orbit(spec, start, steps)
    model = g.MODELS[orbit.model]
    ball = model.to_ball(orbit.points)
    rows = _rows(ball)
    # closer to the sphere 1 - ||Z||^2 cancels in the stored doubles themselves
    keep = 1.0 - (rows.real**2 + rows.imag**2).sum(axis=1) >= 1e-3
    assert _check(model.partner if model.unbounded else model.name, ball, keep) >= 5


def _random_pairs(model, rng, count=30, dim=2):
    """count random points of the N = dim ball or Siegel half-plane, mostly far apart."""
    v = rng.normal(size=(count, 2 * dim)).view(np.complex128)
    if model == "ball":
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * rng.uniform(0.0, 0.97, (count, 1)) ** (1.0 / (2 * dim))
    w = v[:, 1:]
    z = (np.sum(np.abs(w) ** 2, axis=1) + np.exp(rng.uniform(-1.0, 3.0, count))
         + 1j * rng.normal(0.0, 3.0, count))
    return np.concatenate((z[:, None], w), axis=1)


@pytest.mark.parametrize("model", ["siegel", "ball"])
def test_random_far_steps_match_the_oracle(model):
    rows = _random_pairs(model, np.random.default_rng(11))
    assert _check(model, rows) == len(rows) - 1


def _oracle_series(Z, x):
    """t = <Z, X> and (special, koranyi, nt, angle, euclid_nt, boundary_dist, gap) at Z and X.

    Z and x are mpc vectors: a ball point and a vertex.
    """
    t = _ip(Z, x)
    orth = [a - t * b for a, b in zip(Z, x)]
    gap = 1 - mpmath.sqrt(_ip(Z, Z).real)
    dist = mpmath.sqrt(mpmath.fsum(abs(a - b) ** 2 for a, b in zip(Z, x)))
    return t, (_ip(orth, orth).real / (1 - abs(t) ** 2), abs(1 - t) / gap,
               abs(1 - t) / (1 - abs(t)), mpmath.arg(1 - t), dist / gap, dist, gap)


def _oracle_quotients(Z, x):
    """(special, koranyi, nt, angle) at the ball point Z and the vertex x, with 50 digits."""
    return _oracle_series([_mpc(v) for v in Z], [_mpc(v) for v in x])[1][:4]


def _cayley(p):
    """The ball image ((z - 1)/(z + 1), 2w/(z + 1)) of a Siegel point, with 50 digits."""
    z, *w = [_mpc(v) for v in p]
    return [(z - 1) / (z + 1)] + [2 * v / (z + 1) for v in w]


def _siegel_oracle(rows):
    """Row -> (t, SERIES) along a Siegel orbit, at the vertex e1 of its Cayley image."""
    e1 = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (rows.shape[1] - 1)
    return {k: _oracle_series(_cayley(p), e1) for k, p in enumerate(rows)}


SERIES = ("special", "koranyi", "nt", "angle", "euclid_nt", "boundary_dist", "gap")


def _check_series(got, radial, oracle, label):
    """got (the SERIES) and the radial series against oracle, a dict row -> (t, SERIES).

    The radial quotient of step k is checked where the oracle has rows k and k + 1.
    """
    for k, (t, want) in oracle.items():
        for name, series, w in zip(SERIES, got, want):
            assert abs(series[k] - w) <= RTOL * abs(w), (label, name, k, series[k], w)
        if k + 1 in oracle:
            w = (1 - oracle[k + 1][0]) / (1 - t)
            assert abs(radial[k] - w) <= RTOL * abs(w), (label, "radial", k, radial[k], w)
    return len(oracle)


@pytest.mark.parametrize("name", sorted(UNBOUNDED))
def test_unbounded_approach_series_match_the_oracle(name):
    orbit = _orbit(*UNBOUNDED[name])
    rows = _rows(orbit.points)
    got = g.approach_series_siegel(rows) + (g.MODELS[orbit.model].gap_series(orbit.points),)
    radial = g.radial_quotient_series_siegel(rows)
    assert _check_series(got, radial, _siegel_oracle(rows), name) == orbit.length


@pytest.mark.parametrize("name", sorted(UNBOUNDED) + sorted(BOUNDED))
def test_ball_approach_series_match_the_oracle_off_the_boundary(name):
    spec, start, steps = {**UNBOUNDED, **BOUNDED}[name]
    orbit = _orbit(spec, start, steps)
    rows = _rows(g.MODELS[orbit.model].to_ball(orbit.points))
    # closer to the sphere 1 - ||Z||^2 cancels in the stored doubles themselves
    keep = 1.0 - (rows.real**2 + rows.imag**2).sum(axis=1) >= 1e-3
    vertices = [g.BoundaryPoint.e1(rows.shape[1]).X]
    if rows.shape[1] > 1:  # a vertex off the axis; for N = 1 every vertex is a phase
        vertices.append(g.BoundaryPoint(np.random.default_rng(5).normal(size=2 * rows.shape[1])
                                        .view(np.complex128)).X)
    for x in vertices:
        got = g.approach_series_ball(rows, x) + (g.boundary_gap_series_ball(rows),)
        radial = g.radial_quotient_series_ball(rows, x)
        xm = [_mpc(v) for v in x]
        oracle = {k: _oracle_series([_mpc(v) for v in rows[k]], xm)
                  for k in np.flatnonzero(keep).tolist()}
        assert _check_series(got, radial, oracle, name) >= 10


# the orbit of 0.5 z + i stops as a fixed point, where no multiplier is estimated
@pytest.mark.parametrize("name", sorted(set(UNBOUNDED) - {"affine_contraction"}))
def test_multiplier_matches_the_oracle(name):
    spec, start, steps = UNBOUNDED[name]
    orbit = _orbit(spec, start, steps)
    gaps = [series[-1] for _, series in _siegel_oracle(_rows(orbit.points)).values()]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    want = min(ratios[-max(1, int(round(len(ratios) * Budgets().tail_fraction))):])
    got = dynamics.estimate_multiplier(orbit)
    assert abs(got - want) <= RTOL * abs(want), (name, got, want)


def test_pointwise_quotients_match_the_oracle():
    rng = np.random.default_rng(13)
    B = _random_pairs("ball", rng, count=20)
    vertices = [g.BoundaryPoint.e1(2).X, g.BoundaryPoint(rng.normal(size=4).view(np.complex128)).X]
    quotients = (g.special_ratio, g.koranyi_quotient, g.projection_nt_quotient, g.tangency_angle)
    for x in vertices:
        for Z in B:
            for f, want in zip(quotients, _oracle_quotients(Z, x)):
                got = f(Z, x)
                assert abs(got - want) <= RTOL * abs(want), (f.__name__, Z, x, got, want)


def test_siegel_step_of_the_unit_translation_matches_its_closed_form():
    # z_n = 1 + n, w = 0: d(z_n, z_{n+1}) = 1 / |2 (1 + n) + 1| exactly
    for n in [0, 1, 10, 1e3, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10]:
        p, q = np.array([1.0 + n, 0.0]), np.array([2.0 + n, 0.0])
        want = 1.0 / abs(2.0 * (1.0 + n) + 1.0)
        for got in (g.step_series_siegel(np.array([p, q]))[0], g.pdist_siegel(p, q)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_far_steps_do_not_overflow():
    cases = [  # (model, p, q, d, relative tolerance)
        ("halfplane", 1.0, 1e306, 1.0, 0.0),
        ("siegel", np.array([1.0, 0.0]), np.array([1e306, 0.0]), 1.0, 0.0),
        # A ||dw||^2 = 1e398: d = ||dw|| / sqrt(A) = 0.1
        ("siegel", np.array([1e200, 0.0]), np.array([1e200, 1e99]), 0.1, 1e-15),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, p, q, want, rel in cases:
            m = g.MODELS[model]
            for got in (m.step_series(np.array([p, q]))[0], m.pdist(p, q)):
                assert got == pytest.approx(want, rel=rel, abs=0.0)
