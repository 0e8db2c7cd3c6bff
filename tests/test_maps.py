import numpy as np
import pytest

from diskdyn import geometry as g
from diskdyn import maps
from diskdyn.errors import DomainError, EvaluationError, ModelMismatchError


def test_disk_moebius_is_self_map_and_automorphism():
    f = maps.DiskMoebius(0.3 + 0.2j, 0.5)
    assert f.params_ok() and f.is_automorphism()
    rep = maps.validate_self_map(f, sample_count=300)
    assert rep.analytic_ok and rep.sampled_ok and rep.worst_margin > 0.0


def test_halfplane_affine_constraints():
    assert maps.HalfplaneAffine(2.0, 0.0).params_ok()
    assert not maps.HalfplaneAffine(-1.0).params_ok()
    assert not maps.HalfplaneAffine(1.0, -0.5).params_ok()
    # an affine self-map is onto iff the boundary line is preserved
    assert maps.HalfplaneAffine(3.0, 2j).is_automorphism()
    assert not maps.HalfplaneAffine(1.0, 1.0).is_automorphism()


def test_halfplane_perturbed_constraints():
    # boundary minimum of Re(c/(z+1)) is (Re c - |c|)/2
    assert maps.HalfplanePerturbed(1j, 1.0).params_ok()
    assert maps.HalfplanePerturbed(0.5, 1j).params_ok()
    assert not maps.HalfplanePerturbed(0.0, 1j).params_ok()
    rep = maps.validate_self_map(maps.HalfplanePerturbed(1j, 1.0), sample_count=400)
    assert rep.sampled_ok


def test_siegel_translation_margin_invariance():
    f = maps.SiegelTranslation(1.0 + 2.0j)
    p = np.array([1.0 + 0.5j, 0.3], np.complex128)
    q = f(p)
    assert maps.MODELS["siegel"].margin(q) == pytest.approx(
        maps.MODELS["siegel"].margin(p) + 1.0
    )
    assert maps.SiegelTranslation(1j).is_automorphism()
    assert not maps.SiegelTranslation(1.0).is_automorphism()


def test_heisenberg_preserves_margin_exactly():
    # Re(z + 2<w,a> + ||a||^2) - ||w + a||^2 == Re z - ||w||^2
    f = maps.HeisenbergTranslation((0.4 - 0.3j,), 0.7)
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.normal(size=2).view(np.complex128)
        z = np.abs(w[0]) ** 2 + np.exp(rng.normal()) + 1j * rng.normal()
        p = np.concatenate(([z], w))
        assert maps.MODELS["siegel"].margin(f(p)) == pytest.approx(
            maps.MODELS["siegel"].margin(p), rel=1e-12
        )
    assert f.is_automorphism()


def test_heisenberg_closed_form_orbit():
    # f_n(z0, w0) = (z0 + 2n<w0,a> + n^2||a||^2 + i n b, w0 + n a)
    a, b = 0.5 + 0.2j, 0.3
    f = maps.HeisenbergTranslation((a,), b)
    p = np.array([2.0 + 1.0j, 0.1 - 0.4j], np.complex128)
    cur = p.copy()
    for n in range(1, 6):
        cur = f(cur)
        w0 = p[1]
        want_z = p[0] + 2 * n * w0 * np.conj(a) + n * n * abs(a) ** 2 + 1j * n * b
        assert cur[0] == pytest.approx(want_z, rel=1e-13)
        assert cur[1] == pytest.approx(w0 + n * a, rel=1e-13)


def test_evaluate_checks_domain():
    f = maps.HalfplaneAffine(1.0, 1.0)
    with pytest.raises(DomainError):
        maps.evaluate(f, -1.0)
    shrink = maps.DiskMoebius(0.0, 0.0)
    assert maps.evaluate(shrink, 0.5j) == 0.5j

    class Bad:
        model = "halfplane"

        def __call__(self, z):
            return z - 10.0

        def params_ok(self):
            return False

    with pytest.raises(EvaluationError):
        maps.evaluate(Bad(), 1.0)


def test_compose_semantics_and_flattening():
    f = maps.HalfplaneAffine(2.0, 1.0)
    h = maps.HalfplaneAffine(1.0, 1j)
    c = maps.compose(f, h)
    assert c(1.0) == f(h(1.0))
    c2 = maps.compose(c, h)
    assert len(c2.parts) == 3  # nested compositions flatten
    with pytest.raises(ModelMismatchError):
        maps.compose(f, maps.DiskMoebius(0.0))
    with pytest.raises(ModelMismatchError):
        maps.Composition(())


def test_conjugated_matches_cayley_transport():
    f = maps.HalfplaneAffine(2.0, 0.5)
    df = maps.Conjugated(f)
    assert df.model == "disk"
    for u in (0.0, 0.3 + 0.2j, -0.5j):
        z = g.cayley_disk_to_halfplane(u)
        want = g.cayley_halfplane_to_disk(f(z))
        assert df(u) == pytest.approx(want, abs=1e-14)


def test_conjugated_siegel_ball():
    f = maps.SiegelTranslation(1.0)
    bf = maps.Conjugated(f)
    assert bf.model == "ball"
    Z = np.array([0.2 + 0.1j, 0.3], np.complex128)
    S = g.cayley_ball_to_siegel(Z)
    want = g.cayley_siegel_to_ball(f(S))
    assert np.allclose(bf(Z), want, atol=1e-14)


def reference_conjugated(inner, pt):
    """Conjugated(inner)(pt) with the Cayley transforms written out, as before the shared pair."""
    m = inner.model
    if m == "halfplane":  # outer point is in the disk
        z = (1.0 + pt) / (1.0 - pt)
        r = inner(z)
        return (r - 1.0) / (r + 1.0)
    if m == "disk":
        u = (pt - 1.0) / (pt + 1.0)
        r = inner(u)
        return (1.0 + r) / (1.0 - r)
    if m == "siegel":  # outer point is in the ball
        arr = np.asarray(pt, np.complex128)
        denom = 1.0 - arr[0]
        inner_pt = np.concatenate(([(1.0 + arr[0]) / denom], arr[1:] / denom))
        r = inner(inner_pt)
        return np.concatenate(([(r[0] - 1.0) / (r[0] + 1.0)], 2.0 * r[1:] / (r[0] + 1.0)))
    arr = np.asarray(pt, np.complex128)
    denom = arr[0] + 1.0
    inner_pt = np.concatenate(([(arr[0] - 1.0) / denom], 2.0 * arr[1:] / denom))
    r = inner(inner_pt)
    d2 = 1.0 - r[0]
    return np.concatenate(([(1.0 + r[0]) / d2], r[1:] / d2))


def _bits(x):
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return type(x), x.real.hex(), x.imag.hex()


def test_conjugated_matches_written_out_transforms_bit_for_bit():
    rng = np.random.default_rng(30)
    disk = [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(200)] + [complex(0.3, -0.0), 0j]
    half = [complex(np.exp(rng.uniform(-3, 12)), rng.normal(0, 50)) for _ in range(200)]
    half += [complex(2.0, -0.0), 1.0 + 0j]
    planar = [
        # inner half-plane maps, outer points in the disk; Python and numpy results
        (maps.HalfplanePerturbed(1j, 1.0), disk),
        (maps.HalfplaneAffine(1.5, 0.25 - 1j), disk),
        (maps.Conjugated(maps.DiskMoebius(0.3 - 0.1j, 1.0)), disk),
        # inner disk maps, outer points in the half-plane
        (maps.DiskMoebius(0.3 - 0.1j, 1.0), half),
        (maps.Conjugated(maps.HalfplanePerturbed(1.0, 0.5 + 0.5j)), half),
    ]
    for inner, pts in planar:
        f = maps.Conjugated(inner)
        for p in pts:
            for x in (p, np.complex128(p)):
                assert _bits(f(x)) == _bits(reference_conjugated(inner, x))
        grid = np.array(pts)
        assert _bits(f(grid)) == _bits(reference_conjugated(inner, grid))
        grid = grid.reshape(2, -1)
        assert _bits(f(grid)) == _bits(reference_conjugated(inner, grid))
    heis3 = maps.HeisenbergTranslation((0.3 + 0.1j, -0.2j), 0.5)
    vector = [
        (maps.SiegelTranslation(1.0 + 0.5j), 2),
        (maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0), 2),
        (heis3, 3),
        (maps.Conjugated(maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0)), 2),
        (maps.Conjugated(heis3), 3),
    ]
    for inner, dim in vector:
        f = maps.Conjugated(inner)
        pts = maps.sample_domain(f.model, 100, rng, dim)
        for p in pts:
            assert _bits(f(p)) == _bits(reference_conjugated(inner, p))


def test_schwarz_pick_contraction_samples():
    rng = np.random.default_rng(1)
    f = maps.HalfplanePerturbed(1j, 1.0)  # strict contraction, not onto
    for _ in range(200):
        z = complex(np.exp(rng.uniform(-1, 4)), rng.normal(0, 3))
        w = complex(np.exp(rng.uniform(-1, 4)), rng.normal(0, 3))
        assert g.pdist_halfplane(f(z), f(w)) <= g.pdist_halfplane(z, w) + 1e-12


def test_automorphism_is_isometry():
    rng = np.random.default_rng(2)
    f = maps.DiskMoebius(0.4 - 0.2j, 1.1)
    for _ in range(200):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        w = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert g.pdist_disk(f(z), f(w)) == pytest.approx(g.pdist_disk(z, w), abs=1e-12)


def _uncached_moebius(spec, z):
    """DiskMoebius.__call__ as it was before the rotation and conj(a) were stored."""
    return np.exp(1j * spec.theta) * (z - spec.a) / (1.0 - np.conjugate(spec.a) * z)


@pytest.mark.parametrize("a, theta", [
    (0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.3 - 0.4j, 2.5), (-0.7j, -2.0),
    (complex(0.2, -0.0), np.pi), (complex(-0.0, 0.6), -0.0),
])
def test_disk_moebius_matches_the_uncached_formula(a, theta):
    spec = maps.DiskMoebius(a, theta)
    rng = np.random.default_rng(7)
    zs = 0.95 * np.sqrt(rng.uniform(size=64)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
    zs[:4] = [0.0, complex(0.0, -0.0), complex(-0.0, 0.5), complex(0.5, -0.0)]
    for z in zs.tolist() + list(zs[:8]):  # Python complex numbers and numpy scalars
        got, want = spec(z), _uncached_moebius(spec, z)
        assert type(got) is type(want)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
    for arr in (zs, zs.reshape(8, 8)):
        assert spec(arr).tobytes() == _uncached_moebius(spec, arr).tobytes()
    # the stored values stay out of the spec's dict, equality, hash and repr
    d = maps.spec_to_dict(spec)
    assert d == {"family": "DiskMoebius", "a": [complex(a).real, complex(a).imag],
                 "theta": float(theta)}
    back = maps.spec_from_dict(d)
    assert back == spec and hash(back) == hash(spec)
    assert back == maps.DiskMoebius(complex(a), float(theta))
    assert repr(spec) == f"DiskMoebius(a={complex(a)!r}, theta={float(theta)!r})"


def test_serialization_roundtrip_bit_exact():
    specs = [
        maps.DiskMoebius(0.1 - 0.7j, 2.5),
        maps.HalfplaneAffine(1.5, 0.25 + 1j),
        maps.HalfplanePerturbed(1j, 0.125),
        maps.SiegelTranslation(0.3 + 0.1j),
        maps.HeisenbergTranslation((0.5 + 0.25j, 0.125), 1.75),
        maps.Identity("ball"),
        maps.compose(maps.HalfplaneAffine(2.0), maps.HalfplaneAffine(1.0, 1j)),
        maps.Conjugated(maps.HalfplaneAffine(1.0, 1.0)),
    ]
    import json

    for spec in specs:
        d = maps.spec_to_dict(spec)
        back = maps.spec_from_dict(json.loads(json.dumps(d)))
        assert back == spec


# the serialized form of every family, keys in order: harness labels and saved
# configs depend on it
SPEC_DICTS = [
    (maps.DiskMoebius(0.1 - 0.7j, 2.5),
     {"family": "DiskMoebius", "a": [0.1, -0.7], "theta": 2.5}),
    (maps.HalfplaneAffine(1.5, 0.25 + 1j),
     {"family": "HalfplaneAffine", "lam": 1.5, "b": [0.25, 1.0]}),
    (maps.HalfplanePerturbed(1j, 0.125),
     {"family": "HalfplanePerturbed", "b": [0.0, 1.0], "c": [0.125, 0.0]}),
    (maps.SiegelTranslation(0.3 + 0.1j), {"family": "SiegelTranslation", "b": [0.3, 0.1]}),
    (maps.HeisenbergTranslation((0.5 + 0.25j, 0.125), 1.75),
     {"family": "HeisenbergTranslation", "a": [[0.5, 0.25], [0.125, 0.0]], "b": 1.75}),
    (maps.Identity("ball"), {"family": "Identity", "model": "ball"}),
    (maps.compose(maps.HalfplaneAffine(2.0), maps.HalfplaneAffine(1.0, 1j)),
     {"family": "Composition", "parts": [
         {"family": "HalfplaneAffine", "lam": 2.0, "b": [0.0, 0.0]},
         {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]}]}),
    (maps.Conjugated(maps.SiegelTranslation(1.0)),
     {"family": "Conjugated", "inner": {"family": "SiegelTranslation", "b": [1.0, 0.0]}}),
]


@pytest.mark.parametrize("spec, want", SPEC_DICTS, ids=[w["family"] for _, w in SPEC_DICTS])
def test_spec_to_dict_exact(spec, want):
    d = maps.spec_to_dict(spec)
    assert d == want
    assert list(d) == list(want)
    assert repr(d) == repr(want)  # the same value types, e.g. floats stay floats
    assert maps.spec_from_dict(want) == spec


def test_spec_from_dict_defaults_and_errors():
    assert maps.spec_from_dict({"family": "DiskMoebius", "a": [0.5, 0.0]}) == maps.DiskMoebius(0.5)
    affine = {"family": "HalfplaneAffine", "lam": 2.0}
    assert maps.spec_from_dict(affine) == maps.HalfplaneAffine(2.0)
    assert maps.spec_from_dict({"family": "HalfplanePerturbed", "b": [1.0, 0.0]}) == (
        maps.HalfplanePerturbed(1.0))
    assert maps.spec_from_dict({"family": "Identity"}) == maps.Identity("halfplane")
    heis = {"family": "HeisenbergTranslation", "a": [[0.5, 0.0]], "extra": 1}
    with pytest.raises(ModelMismatchError, match="extra"):
        maps.spec_from_dict(heis)
    with pytest.raises(ModelMismatchError):
        maps.spec_from_dict({"family": "Nope"})
    with pytest.raises(ModelMismatchError):
        maps.spec_to_dict(object())
    for d in ({"family": "SiegelTranslation"}, {"family": "Conjugated"},
              {"family": "Composition"}, {"family": "HalfplaneAffine", "b": [0.0, 1.0]}):
        with pytest.raises(KeyError):
            maps.spec_from_dict(d)


def test_spec_from_dict_names_the_path_of_a_bad_parameter():
    # the error named no key: "'b'", "'int' object has no attribute 'get'"
    siegel = {"family": "SiegelTranslation"}
    with pytest.raises(KeyError, match=r"^'map\.parts\[1\]\.b is missing'$"):
        maps.spec_from_dict({"family": "Composition", "parts": [{**siegel, "b": [1, 0]}, siegel]})
    inner = {"family": "Conjugated", "inner": {"family": "HalfplaneAffine", "lam": "2"}}
    with pytest.raises(ValueError, match=r"^suite\[2\]\.map\.inner\.lam must be a number, got '2'$"):
        maps.spec_from_dict(inner, "suite[2].map")
    with pytest.raises(ValueError, match=r"^map\.inner must be an object, got 5$"):
        maps.spec_from_dict({"family": "Conjugated", "inner": 5})
    # a family's own check of its parameters is prefixed with the path of the map
    with pytest.raises(ModelMismatchError, match=r"^suite\[3\]\.map: unknown model 'torus'$"):
        maps.spec_from_dict({"family": "Identity", "model": "torus"}, "suite[3].map")
    parts = [{"family": "HalfplaneAffine", "lam": 1.0}, {"family": "Identity", "model": "siegel"}]
    with pytest.raises(ModelMismatchError, match=r"^map\.inner: mixed models in composition"):
        maps.spec_from_dict({"family": "Conjugated",
                             "inner": {"family": "Composition", "parts": parts}})


# lam != 1 and a non-finite b: test_affine_block_only_for_finite_translations
@pytest.mark.parametrize("spec, start", [
    (maps.HalfplanePerturbed(1j, 1.0), 1.0 + 0j),
    (maps.Conjugated(maps.SiegelTranslation(1.0)), np.array([0.2, 0.1], complex)),
    (maps.compose(maps.SiegelTranslation(1.0), maps.Identity("siegel")),
     np.array([1.0, 0.0], complex)),
    (maps.compose(maps.HalfplaneAffine(1.0, 1.0), maps.HalfplaneAffine(1.0, 1.0)), 1.0 + 0j),
    # a row of half-plane translation starts with a point of Re z <= 0
    (maps.HalfplaneAffine(1.0, 1.0), np.array([1.0, 2.0 + 1j, complex(0.0, -0.0)])),
    (maps.HalfplaneAffine(1.0, 1.0), np.array([1.0, -1.0 + 1j])),
])
def test_block_fill_is_none_where_a_map_steps_by_calls(spec, start):
    assert maps._block_fill(spec, start) is None


def test_sample_domain_stays_interior():
    rng = np.random.default_rng(3)
    for model in maps.MODELS:
        for pt in maps.sample_domain(model, 200, rng):
            assert maps.MODELS[model].margin(pt) > 0.0


def test_dimension_comes_from_the_map():
    heis3 = maps.HeisenbergTranslation((0.5, 0.3j))
    assert maps.fixed_dim(heis3) == 3
    assert maps.fixed_dim(maps.compose(maps.SiegelTranslation(1.0), heis3)) == 3
    assert maps.fixed_dim(maps.Conjugated(heis3)) == 3
    assert maps.fixed_dim(maps.SiegelTranslation(1.0)) is None
    assert maps.fixed_dim(maps.HalfplaneAffine(1.0, 1.0)) is None
    for spec in (heis3, maps.Conjugated(heis3), maps.compose(maps.SiegelTranslation(1.0), heis3)):
        rep = maps.validate_self_map(spec, sample_count=100)
        assert rep.sampled_ok and rep.worst_margin > 0.0


def test_validate_self_map_keeps_the_two_dimensional_samples():
    # maps that fix N = 2, or no N, sample exactly the points they sampled before
    for spec in (maps.HeisenbergTranslation((0.5,)), maps.SiegelTranslation(1.0)):
        rep = maps.validate_self_map(spec, sample_count=50, seed=4)
        pts = maps.sample_domain(spec.model, 50, np.random.default_rng(4))
        assert rep.worst_margin == min(maps.MODELS[spec.model].margin(spec(p)) for p in pts)
