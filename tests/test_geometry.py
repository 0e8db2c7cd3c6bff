import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskdyn import geometry as g
from diskdyn.errors import DegenerateInputError, DomainError, ModelMismatchError


def disk_points():
    return st.complex_numbers(max_magnitude=0.97, allow_nan=False, allow_infinity=False)


def half_points():
    return st.builds(
        complex,
        st.floats(1e-3, 1e4),
        st.floats(-1e4, 1e4),
    )


def rand_ball(rng, dim=2, count=1):
    v = rng.normal(size=(count, 2 * dim)).view(np.complex128)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.uniform(0.0, 0.97, (count, 1)) ** (1.0 / (2 * dim))
    out = v * r
    return out[0] if count == 1 else out


def rand_siegel(rng, dim=2, count=1):
    w = rng.normal(size=(count, 2 * (dim - 1))).view(np.complex128)
    wn2 = np.sum(np.abs(w) ** 2, axis=1).real
    z = wn2 + np.exp(rng.uniform(-1.0, 3.0, count)) + 1j * rng.normal(0.0, 3.0, count)
    out = np.concatenate((z[:, None], w), axis=1)
    return out[0] if count == 1 else out


# --- reference values -------------------------------------------------------


def test_disk_metric_reference_value():
    # d(0.5, -0.3i) = |0.5 + 0.3i| / |1 + 0.15i|
    want = abs(0.5 + 0.3j) / abs(1.0 + 0.15j)
    assert g.pdist_disk(0.5, -0.3j) == pytest.approx(want, abs=1e-15)
    assert g.pdist_disk(0.0, 0.5) == 0.5


def test_ball_metric_reference_value():
    # d((1/2, 0), (0, 1/2)): 1 - d^2 = (3/4)^2 / 1 => d = sqrt(7)/4
    p = np.array([0.5, 0.0], np.complex128)
    q = np.array([0.0, 0.5], np.complex128)
    assert g.pdist_ball(p, q) == pytest.approx(np.sqrt(7.0) / 4.0, abs=1e-15)


def test_halfplane_metric_matches_disk_pullback():
    z, w = 2.0 + 1.0j, 0.5 - 0.3j
    dz = g.cayley_halfplane_to_disk(z).z
    dw = g.cayley_halfplane_to_disk(w).z
    assert g.pdist_halfplane(z, w) == pytest.approx(g.pdist_disk(dz, dw), abs=1e-14)


# --- metric axioms ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(disk_points(), disk_points())
def test_disk_metric_axioms(z, w):
    d = g.pdist_disk(z, w)
    assert 0.0 <= d < 1.0
    assert d == pytest.approx(g.pdist_disk(w, z), abs=1e-14)
    if z == w:
        assert d == 0.0


@settings(max_examples=200, deadline=None)
@given(half_points(), half_points())
def test_halfplane_metric_axioms(z, w):
    d = g.pdist_halfplane(z, w)
    assert 0.0 <= d < 1.0
    assert d == pytest.approx(g.pdist_halfplane(w, z), abs=1e-14)


def test_ball_metric_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p, q = rand_ball(rng), rand_ball(rng)
        d = g.pdist_ball(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(g.pdist_ball(q, p), abs=1e-13)


def test_ball_metric_dim_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(DomainError):
        g.pdist_ball(rand_ball(rng, dim=2), rand_ball(rng, dim=3))


def test_disk_is_onedim_ball():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z, w = rand_ball(rng, dim=1)[0], rand_ball(rng, dim=1)[0]
        assert g.pdist_ball(z, w) == pytest.approx(g.pdist_disk(z, w), abs=1e-13)


# --- Cayley transforms ------------------------------------------------------


def test_cayley_planar_roundtrip_and_normalization():
    assert g.cayley_halfplane_to_disk(1.0).z == 0.0
    # large Re z approaches the distinguished boundary point 1
    assert abs(g.cayley_halfplane_to_disk(1e9).z - 1.0) < 3e-9
    rng = np.random.default_rng(6)
    for _ in range(200):
        z = complex(np.exp(rng.uniform(-2, 5)), rng.normal(0, 10))
        back = g.cayley_disk_to_halfplane(g.cayley_halfplane_to_disk(z)).z
        assert back == pytest.approx(z, rel=1e-12)


def test_cayley_ball_roundtrip_and_normalization():
    rng = np.random.default_rng(7)
    p = g.cayley_ball_to_siegel(np.array([0.0, 0.0], np.complex128))
    assert p.z == 1.0 and np.all(p.w == 0.0)
    for _ in range(200):
        Z = rand_ball(rng)
        S = g.cayley_ball_to_siegel(Z)
        back = g.cayley_siegel_to_ball(S).coords
        assert np.allclose(back, Z, atol=1e-12)


# the Cayley pair against the formulas each site wrote out before the pair;
# planar points include signed zeros and magnitudes up to 1e12


def _bits(x):
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return type(x), x.real.hex(), x.imag.hex()


def _planar_samples(rng, count=300):
    zs = [complex(np.exp(rng.uniform(-5, 20)), rng.normal(0, 1) * np.exp(rng.uniform(-5, 20)))
          for _ in range(count)]
    return zs + [1.0 + 0j, complex(2.0, -0.0), complex(0.0, 3.0), complex(1e12, -0.0)]


def _disk_samples(rng, count=300):
    us = [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(count)]
    return us + [0j, complex(0.3, -0.0), complex(-0.0, 0.5), complex(1.0 - 2e-16, 0.0)]


def test_cayley_pair_on_numbers_keeps_their_arithmetic():
    rng = np.random.default_rng(20)
    for z in _planar_samples(rng):
        for x in (z, np.complex128(z)):
            assert _bits(g.siegel_to_ball_array(x)) == _bits((x - 1.0) / (x + 1.0))
    for u in _disk_samples(rng):
        for x in (u, np.complex128(u)):
            assert _bits(g.ball_to_siegel_array(x)) == _bits((1.0 + x) / (1.0 - x))
        assert _bits(g.cayley_disk_to_halfplane(u).z) == _bits((1.0 + u) / (1.0 - u))
    for z in _planar_samples(rng):
        # on the boundary or far out, the image is (or rounds onto) the circle
        if z.real > 0.0 and abs((z - 1.0) / (z + 1.0)) < 1.0:
            assert _bits(g.cayley_halfplane_to_disk(z).z) == _bits((z - 1.0) / (z + 1.0))


def _siegel_to_ball_point(arr):
    denom = arr[0] + 1.0
    return np.concatenate(([(arr[0] - 1.0) / denom], 2.0 * arr[1:] / denom))


def _ball_to_siegel_point(arr):
    denom = 1.0 - arr[0]
    return np.concatenate(([(1.0 + arr[0]) / denom], arr[1:] / denom))


def _siegel_to_ball_rows(P):
    out = np.empty_like(P)
    denom = P[:, 0] + 1.0
    out[:, 0] = (P[:, 0] - 1.0) / denom
    out[:, 1:] = 2.0 * P[:, 1:] / denom[:, None]
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cayley_pair_on_points_and_orbits(dim):
    rng = np.random.default_rng(21 + dim)
    P = rand_siegel(rng, dim=dim, count=200)
    P[:, 0] *= np.exp(rng.uniform(0, 25, 200))
    P[0, 1:] = -0.0
    B = rand_ball(rng, dim=dim, count=200)
    for p, b in zip(P, B):
        assert _bits(g.siegel_to_ball_array(p)) == _bits(_siegel_to_ball_point(p))
        assert _bits(g.ball_to_siegel_array(b)) == _bits(_ball_to_siegel_point(b))
        assert _bits(g.cayley_siegel_to_ball(p).coords) == _bits(_siegel_to_ball_point(p))
        assert _bits(g.cayley_ball_to_siegel(b).coords) == _bits(_ball_to_siegel_point(b))
    assert _bits(g.siegel_to_ball_array(P)) == _bits(_siegel_to_ball_rows(P))
    rows = np.array([_ball_to_siegel_point(b) for b in B])
    assert _bits(g.ball_to_siegel_array(B)) == _bits(rows)


def test_cayley_pair_is_an_inverse_pair():
    rng = np.random.default_rng(25)
    P = rand_siegel(rng, dim=3, count=50)
    assert np.allclose(g.ball_to_siegel_array(g.siegel_to_ball_array(P)), P, rtol=1e-12)
    for _ in range(50):
        z = complex(np.exp(rng.uniform(-2, 5)), rng.normal(0, 10))
        assert g.ball_to_siegel_array(g.siegel_to_ball_array(z)) == pytest.approx(z, rel=1e-12)


def test_cayley_is_isometry_planar():
    rng = np.random.default_rng(8)
    for _ in range(300):
        z = complex(np.exp(rng.uniform(-2, 5)), rng.normal(0, 5))
        w = complex(np.exp(rng.uniform(-2, 5)), rng.normal(0, 5))
        du = g.pdist_disk(g.cayley_halfplane_to_disk(z).z, g.cayley_halfplane_to_disk(w).z)
        assert g.pdist_halfplane(z, w) == pytest.approx(du, abs=1e-12)


def test_cayley_is_isometry_siegel():
    rng = np.random.default_rng(9)
    for _ in range(300):
        P, Q = rand_siegel(rng), rand_siegel(rng)
        dball = g.pdist_ball(g.cayley_siegel_to_ball(P).coords, g.cayley_siegel_to_ball(Q).coords)
        assert g.pdist_siegel(P, Q) == pytest.approx(dball, abs=1e-10)


# --- stable series identities ----------------------------------------------


def test_boundary_gap_series_matches_direct():
    rng = np.random.default_rng(10)
    zs = np.exp(rng.uniform(-1, 6, 50)) + 1j * rng.normal(0, 10, 50)
    direct = 1.0 - np.abs((zs - 1.0) / (zs + 1.0))
    assert np.allclose(g.boundary_gap_series_siegel(zs[:, None]), direct, atol=1e-14)

    P = rand_siegel(rng, count=50)
    ball = g.siegel_to_ball_array(P)
    direct = 1.0 - np.linalg.norm(ball, axis=1)
    assert np.allclose(g.boundary_gap_series_siegel(P), direct, atol=1e-13)


def test_boundary_gap_far_out_no_cancellation():
    # at Re z = 1e12 the direct subtraction loses every digit; the identity keeps them
    zs = np.array([1e12 + 3e11j, 1e12])
    gap = g.boundary_gap_series_siegel(zs[:, None])
    assert np.all(gap > 0.0)
    assert gap[1] == pytest.approx(1e-12, rel=1e-6)


def test_step_series_match_pointwise_metric():
    rng = np.random.default_rng(11)
    zs = np.exp(rng.uniform(-1, 3, 30)) + 1j * rng.normal(0, 2, 30)
    want = [g.pdist_halfplane(zs[i], zs[i + 1]) for i in range(29)]
    assert np.allclose(g.step_series_siegel(zs), want, atol=1e-14)

    P = rand_siegel(rng, count=30)
    want = [g.pdist_siegel(P[i], P[i + 1]) for i in range(29)]
    assert np.allclose(g.step_series_siegel(P), want, atol=1e-12)

    B = rand_ball(rng, count=30)
    want = [g.pdist_ball(B[i], B[i + 1]) for i in range(29)]
    assert np.allclose(g.step_series_ball(B), want, atol=1e-12)


def test_siegel_series_match_ball_definitions():
    rng = np.random.default_rng(12)
    P = rand_siegel(rng, count=40)
    B = g.siegel_to_ball_array(P)
    e1 = np.array([1.0, 0.0], np.complex128)
    special, koranyi, nt, angle, _, _ = g.approach_series_siegel(P)
    special_b, koranyi_b, nt_b, angle_b, _, _ = g.approach_series_ball(B, e1)
    assert np.allclose(special, special_b, atol=1e-11)
    assert np.allclose(koranyi, koranyi_b, rtol=1e-9)
    assert np.allclose(nt, nt_b, rtol=1e-9)
    assert np.allclose(angle, angle_b, atol=1e-11)
    assert np.allclose(
        g.radial_quotient_series_siegel(P), g.radial_quotient_series_ball(B, e1), rtol=1e-11
    )


def test_pointwise_quotients_match_series():
    rng = np.random.default_rng(13)
    B = rand_ball(rng, count=20)
    e1 = np.array([1.0, 0.0], np.complex128)
    special, koranyi, nt, _, _, _ = g.approach_series_ball(B, e1)
    for i in range(20):
        assert g.koranyi_quotient(B[i], e1) == pytest.approx(koranyi[i], rel=1e-12)
        assert g.special_ratio(B[i], e1) == pytest.approx(special[i], abs=1e-12)
        assert g.projection_nt_quotient(B[i], e1) == pytest.approx(nt[i], rel=1e-12)


def test_special_ratio_zero_on_axis():
    # points proportional to X have no orthogonal part
    e1 = np.array([1.0, 0.0], np.complex128)
    assert g.special_ratio(np.array([0.7j, 0.0]), e1) == 0.0
    assert g.special_ratio(np.array([0.0, 0.5]), e1) > 0.0


def test_tangency_angle_radial_is_zero():
    e1 = np.array([1.0, 0.0], np.complex128)
    assert g.tangency_angle(np.array([0.9, 0.0]), e1) == pytest.approx(0.0, abs=1e-15)


# --- point types and errors -------------------------------------------------


def test_point_validation():
    with pytest.raises(DomainError):
        g.DiskPoint(1.5)
    with pytest.raises(DomainError):
        g.HalfPlanePoint(-1.0)
    with pytest.raises(DomainError):
        g.BallPoint(0.8, [0.8])
    with pytest.raises(DomainError):
        g.SiegelPoint(0.1, [0.5])
    g.SiegelPoint(0.3, [0.5])  # Re z > ||w||^2 holds


def test_boundary_point():
    b = g.BoundaryPoint([2.0, 0.0])
    assert np.allclose(b.X, [1.0, 0.0])
    assert g.BoundaryPoint.infinity().at_infinity
    with pytest.raises(DomainError):
        g.BoundaryPoint([0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        g.koranyi_quotient(np.array([0.5, 0.0]), g.BoundaryPoint.infinity())


def test_frozen_arrays():
    p = g.BallPoint(0.1, [0.2])
    with pytest.raises(ValueError):
        p.w[0] = 0.0


@pytest.mark.parametrize(
    "fn", [g.special_ratio, g.koranyi_quotient, g.projection_nt_quotient, g.tangency_angle]
)
def test_quotients_reject_the_zero_boundary_vector(fn):
    Z = np.array([0.2, 0.1j], np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            fn(Z, [0.0, 0.0])
    # a raw vector is normalized as BoundaryPoint normalizes it
    assert fn(Z, [2.0, 0.0]) == fn(Z, g.BoundaryPoint([1.0, 0.0]))


# --- the per-model table -----------------------------------------------------


def _gap_halfplane(zs):
    """The half-plane gap series before it became the N = 1 Siegel one."""
    one_minus_sq = 4.0 * zs.real / np.abs(zs + 1.0) ** 2
    nrm = np.sqrt(np.clip(1.0 - one_minus_sq, 0.0, None))
    return one_minus_sq / (1.0 + nrm)


def _gap_disk(zs):
    """The disk gap series before it became the N = 1 ball one."""
    return 1.0 - np.abs(zs)


def test_planar_gap_series_are_the_n1_case_bit_for_bit():
    rng = np.random.default_rng(51)
    n = 100_000
    x = 10.0 ** rng.uniform(-6.0, 12.0, n)  # Re z up to 1e12
    half = np.concatenate((x + 1j * rng.normal(0.0, 3.0, n) * x,
                           1e12 + 1j * rng.normal(0.0, 1e12, 100), [1e12, 1e12 + 3e11j]))
    phi = rng.uniform(-np.pi, np.pi, 2 * n)
    r = np.concatenate((np.sqrt(rng.uniform(0.0, 1.0, n)),
                        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, n)))  # |z| near 1
    disk = r * np.exp(1j * phi)
    for got, want in [
        (g.boundary_gap_series_siegel(half[:, None]), _gap_halfplane(half)),
        (g.MODELS["halfplane"].gap_series(half), _gap_halfplane(half)),
        (g.boundary_gap_series_ball(disk[:, None]), _gap_disk(disk)),
        (g.MODELS["disk"].gap_series(disk), _gap_disk(disk)),
    ]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_model_table():
    for name, m in g.MODELS.items():
        partner = g.MODELS[m.partner]
        assert m.name == name and partner.partner == name
        assert m.planar == partner.planar and m.unbounded != partner.unbounded
        for s in m.starts + m.probe_starts:
            p = m.point(s)
            assert m.margin(p) > 0.0
            assert np.allclose(m.from_ball(m.to_ball(p)), p, rtol=1e-14)
    # the disk and ball probe starts are the Cayley images of the others
    for bounded in g.MODELS["disk"], g.MODELS["ball"]:
        unbounded = g.MODELS[bounded.partner]
        for p, q in zip(bounded.probe_starts, unbounded.probe_starts):
            assert np.array_equal(bounded.point(p), unbounded.to_ball(unbounded.point(q)))
    with pytest.raises(ModelMismatchError):
        g.MODELS["torus"]
