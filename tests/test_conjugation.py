import warnings

import numpy as np
import pytest

from diskdyn import conjugation, dynamics, maps
from diskdyn.errors import PreconditionError

import closed_form

CPS = (100, 1_000, 10_000)


def test_default_grid_shape():
    grid = conjugation.default_grid()
    assert grid.shape == (25,)
    assert np.all(grid.real >= 1.0) and np.all(grid.real <= 3.0)


def test_pommerenke_rejects_non_parabolic():
    with pytest.raises(PreconditionError):
        conjugation.pommerenke_normalized(maps.HalfplaneAffine(2.0), checkpoints=CPS)
    with pytest.raises(PreconditionError):
        conjugation.pommerenke_normalized(maps.SiegelTranslation(1.0), checkpoints=CPS)


def test_pommerenke_vertical_translation_exact():
    # f = z + i: f_n(z) = z + in, basepoint orbit x_n = 1, y_n = n,
    # psi_n(z) = z + i(n - y_n) = z for every n; residual is exactly 0
    res = conjugation.pommerenke_normalized(maps.HalfplaneAffine(1.0, 1j), checkpoints=CPS)
    assert np.all(res.residual_series < 1e-12)
    assert res.b_estimate == pytest.approx(1.0, abs=1e-12)
    for n in CPS:
        assert np.allclose(res.psi_n[n], res.grid, atol=1e-12)


def test_pommerenke_horizontal_translation_exact():
    # f = z + 1: psi_n(z) = (z + n)/(1 + n); increment is real, residual ~ 0
    res = conjugation.pommerenke_normalized(maps.HalfplaneAffine(1.0, 1.0), checkpoints=CPS)
    assert np.all(res.residual_series < 1e-12)
    assert abs(res.b_estimate) < 1e-12
    n = CPS[-1]
    assert np.allclose(res.psi_n[n], (res.grid + n) / (1.0 + n), atol=1e-12)


def test_pommerenke_perturbed_residual_decreases():
    res = conjugation.pommerenke_normalized(maps.HalfplanePerturbed(1j, 1.0), checkpoints=CPS)
    r = res.residual_series
    assert np.all(np.diff(r) < 0.0)
    assert r[-1] < 0.05


def test_baker_pommerenke_exact_translation():
    # f = z + 1: z_{n+1} - z_n = 1, psi_n(z) = f_n(z) - z_n = z - 1 exactly
    res = conjugation.baker_pommerenke_normalized(
        maps.HalfplaneAffine(1.0, 1.0), checkpoints=CPS
    )
    assert np.all(res.residual_series < 1e-12)
    for n in CPS:
        assert np.allclose(res.psi_n[n], res.grid - 1.0, atol=1e-12)


def test_baker_pommerenke_perturbed_residual_decreases():
    res = conjugation.baker_pommerenke_normalized(
        maps.HalfplanePerturbed(1.0, 1j), checkpoints=CPS
    )
    r = res.residual_series
    assert np.all(np.diff(r) < 0.0)
    assert r[-1] < 0.05


def test_baker_pommerenke_refuses_nonzero_step():
    # z + i never loses its step; the Abel normalization degenerates
    with pytest.raises(PreconditionError):
        conjugation.baker_pommerenke_normalized(
            maps.HalfplaneAffine(1.0, 1j), checkpoints=CPS
        )


@pytest.mark.parametrize("kind", ["pommerenke", "baker_pommerenke"])
def test_normalizations_follow_their_definitions(kind):
    # psi_n, the increment and the residual, formed here from per-step calls, bit for bit
    spec, basepoint = maps.HalfplanePerturbed(1.0, 0.5), 1.5 + 0.25j
    res = getattr(conjugation, f"{kind}_normalized")(spec, basepoint, checkpoints=(7, 40))
    cur = np.concatenate((conjugation.default_grid(), [basepoint]))
    n = 0
    for k, c in enumerate(res.checkpoints):
        for _ in range(n, c):
            cur = spec(cur)
        n, nxt = c, spec(cur)
        zn, zn1 = complex(cur[-1]), complex(nxt[-1])
        shift, scale = (1j * zn.imag, zn.real) if kind == "pommerenke" else (zn, zn1 - zn)
        psi, psi_of_f = (cur[:-1] - shift) / scale, (nxt[:-1] - shift) / scale
        inc = complex((psi_of_f - psi).mean()) if kind == "pommerenke" else 1.0
        assert np.array_equal(res.psi_n[c], psi)
        assert res.increment_series[k] == inc
        assert res.residual_series[k] == np.max(np.abs(psi_of_f - psi - inc))
    assert res.b_estimate == (inc.imag if kind == "pommerenke" else None)


def test_deltas_shrink_for_convergent_case():
    res = conjugation.pommerenke_normalized(maps.HalfplanePerturbed(1j, 1.0), checkpoints=CPS)
    d = res.deltas
    assert d.size == 2
    # grid functions settle as n grows
    assert d[-1] < d[0]


def test_report_mentions_checkpoints():
    res = conjugation.pommerenke_normalized(maps.HalfplaneAffine(1.0, 1j), checkpoints=CPS)
    text = conjugation.conjugation_report(res)
    for n in CPS:
        assert str(n) in text
    assert "b_estimate" in text


# ---------------------------------------------------------------------------
# the closed-form grid of HalfplaneAffine(1, b) against the per-step calls


def reference_run_grid(spec, grid, basepoint, checkpoints):
    """_run_grid's loop before translations stepped the grid in blocks: one call per step."""
    pts = np.concatenate((np.asarray(grid, np.complex128), [complex(basepoint)]))
    want = sorted(set(int(c) for c in checkpoints))
    samples = {}
    cur = pts
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing translation
        for n in range(1, want[-1] + 1):
            cur = spec(cur)
            if n in want:
                nxt = spec(cur)
                samples[n] = (cur[:-1].copy(), nxt[:-1].copy(), complex(cur[-1]), complex(nxt[-1]))
    return samples, tuple(want)


def _sample_bytes(sample):
    return [np.asarray(v, np.complex128).tobytes() for v in sample]


def _assert_closed_form(spec, grid, basepoint, samples, ref):
    """Each sample is finite where the calls' is, and is the closed form's point there."""
    starts = np.append(grid, basepoint)
    for n, (fn, fn1, zn, zn1) in samples.items():
        for k, row, want in ((n, np.append(fn, zn), np.append(ref[n][0], ref[n][2])),
                             (n + 1, np.append(fn1, zn1), np.append(ref[n][1], ref[n][3]))):
            assert np.array_equal(np.isfinite(row), np.isfinite(want))
            for s, p in zip(starts, row):
                closed_form.assert_orbit(spec, s, [p], steps=[k])


_GRID_CPS = (1, 2, 255, 256, 257, 400, 5000)
_NEG = complex(1.0, -0.0)
_SIGNED_GRID = np.array([_NEG, complex(2.5, -0.0), complex(0.5, 0.0), 3.0 - 1j, 1e-3 + 4j])

# (spec, grid, basepoint); grid None is the default grid
GRID_CASES = {
    "b_real": (maps.HalfplaneAffine(1.0, 1.0), None, 1.0),
    "b_im_minus_zero": (maps.HalfplaneAffine(1.0, complex(0.5, -0.0)), _SIGNED_GRID, _NEG),
    "b_im_plus_zero": (maps.HalfplaneAffine(1.0, complex(0.125, 0.0)), _SIGNED_GRID, _NEG),
    "inexact_sums": (maps.HalfplaneAffine(1.0, 0.3 - 0.7j), None, 1.1 + 0.2j),
    "vertical": (maps.HalfplaneAffine(1.0, 1j * np.pi), _SIGNED_GRID, 2.0),
    # past an overflow the calls give NaN (1 * inf - 0 * y); the block steps by calls there
    "overflow": (maps.HalfplaneAffine(1.0, 1e306), None, 1.0),
    "overflow_imag": (maps.HalfplaneAffine(1.0, 1e306j), _SIGNED_GRID, 1.0),
    # one point overflows at step 298, inside the chunk up to 400, the others near step 1797
    "overflow_one_point": (maps.HalfplaneAffine(1.0, 1e305), np.array([1.5e308, 2.0 + 1j]), 1.0),
    # a start with Re z < 0 can turn a -0.0 into +0.0 later: the calls step it
    "outside_start": (maps.HalfplaneAffine(1.0, complex(0.4, -0.0)),
                      np.array([complex(-1.0, -0.0), 2.0]), 1.0),
    "perturbed": (maps.HalfplanePerturbed(1j, 1.0), None, 1.0),
    "contraction": (maps.HalfplaneAffine(0.5, 1j), _SIGNED_GRID, _NEG),
}
# the cases that step by calls; the others are written in closed form
_BY_CALLS = {"outside_start", "perturbed", "contraction"}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_run_grid_matches_per_step_calls(name):
    spec, grid, basepoint = GRID_CASES[name]
    grid = conjugation.default_grid() if grid is None else grid
    ref, ref_cps = reference_run_grid(spec, grid, basepoint, _GRID_CPS)
    samples, cps = conjugation._run_grid(spec, grid, basepoint, _GRID_CPS)
    assert cps == ref_cps == _GRID_CPS
    assert sorted(samples) == sorted(ref)
    if name in _BY_CALLS:
        for n in cps:
            assert _sample_bytes(samples[n]) == _sample_bytes(ref[n])
    else:
        _assert_closed_form(spec, grid, basepoint, samples, ref)
    if name.startswith("overflow"):
        assert np.isnan(samples[5000][0]).all()


def test_run_grid_steps_translations_in_blocks(monkeypatch):
    calls, blocks = [], []
    monkeypatch.setattr(maps.HalfplaneAffine, "__call__",
                        lambda self, z: calls.append(z) or self.lam * z + self.b)
    fill = maps._fill_block
    monkeypatch.setattr(maps, "_fill_block",
                        lambda *args, **form: blocks.append((args[-2], args[-1].shape))
                        or fill(*args, **form))
    conjugation._run_grid(maps.HalfplaneAffine(1.0, 0.5 + 1j), conjugation.default_grid(),
                          1.0, _GRID_CPS)
    # a block of min(c, 256) rows ends at each checkpoint c, and one call per checkpoint
    assert blocks == [(c - min(c, 256), (min(c, 256), 26)) for c in _GRID_CPS]
    assert len(calls) == len(_GRID_CPS)
    assert all(np.shape(z) == (26,) for z in calls)


@pytest.mark.parametrize("spec, checkpoints", [
    (maps.HalfplaneAffine(2.0, 1.0), (2000,)),  # the per-step calls overflow
    (maps.HalfplaneAffine(1.0, 1e306), (179, 180)),  # the checkpoint calls overflow
])
def test_run_grid_overflows_without_warnings(spec, checkpoints):
    grid = conjugation.default_grid()
    ref, _ = reference_run_grid(spec, grid, 1.0, checkpoints)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, cps = conjugation._run_grid(spec, grid, 1.0, checkpoints)
    assert cps == checkpoints
    for n in cps:
        assert not np.isfinite(samples[n][1]).all()
    if spec.lam == 1.0:  # the translation is written in closed form
        _assert_closed_form(spec, grid, 1.0, samples, ref)
    else:
        assert all(_sample_bytes(samples[n]) == _sample_bytes(ref[n]) for n in cps)


# ---------------------------------------------------------------------------
# the precheck's orbits serve the basepoint, and HalfplanePerturbed grids step in place


def _record_orbits(monkeypatch):
    log = []
    real = dynamics.iterate

    def recorded(spec, start, n_max, policy=None):
        log.append((start, n_max))
        return real(spec, start, n_max, policy)

    monkeypatch.setattr(dynamics, "iterate", recorded)
    return log


@pytest.mark.parametrize("kind, basepoint, orbits", [
    ("pommerenke", 1.0 + 0.0j, 3),
    ("baker_pommerenke", 1.0 + 0.0j, 3),  # a default start: its precheck orbit serves
    ("baker_pommerenke", 2.0 + 1.0j, 3),
    ("baker_pommerenke", 1.5 + 0.25j, 4),
])
def test_the_conjugations_compute_each_orbit_once(monkeypatch, kind, basepoint, orbits):
    spec = maps.HalfplanePerturbed(1.0, 0.5)
    normalized = getattr(conjugation, f"{kind}_normalized")
    want = normalized(spec, basepoint, checkpoints=(7, 40), precheck_n=5_000)
    log = _record_orbits(monkeypatch)
    got = normalized(spec, basepoint, checkpoints=(7, 40), precheck_n=5_000)
    assert [n for _, n in log] == [5_000] * orbits
    assert got.residual_series.tobytes() == want.residual_series.tobytes()
    assert all(got.psi_n[n].tobytes() == want.psi_n[n].tobytes() for n in got.checkpoints)


_NAN_GRID = np.array([2.0 + 1j, complex(np.nan, 0.5), 1.5 - 0.5j])

# (spec, grid, basepoint) of HalfplanePerturbed, which _grid_advance steps in place
ADVANCE_CASES = {
    "default": (maps.HalfplanePerturbed(0.5 + 1j, 1.0 - 0.5j), conjugation.default_grid(), 1.0),
    "signed_zeros": (maps.HalfplanePerturbed(complex(0.5, -0.0), complex(1.0, -0.0)),
                     _SIGNED_GRID, _NEG),
    "overflow": (maps.HalfplanePerturbed(1e306, 1.0), conjugation.default_grid(), 1.0),
    "nan_point": (maps.HalfplanePerturbed(1j, 1.0), _NAN_GRID, 1.0),
}


@pytest.mark.parametrize("name", sorted(ADVANCE_CASES))
def test_perturbed_grids_step_in_place_as_the_calls_do(name, monkeypatch):
    spec, grid, basepoint = ADVANCE_CASES[name]
    ref, _ = reference_run_grid(spec, grid, basepoint, _GRID_CPS)
    calls = []
    call = maps.HalfplanePerturbed.__call__
    monkeypatch.setattr(maps.HalfplanePerturbed, "__call__",
                        lambda self, z: calls.append(z) or call(self, z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, cps = conjugation._run_grid(spec, grid, basepoint, _GRID_CPS)
    assert len(calls) == len(cps)  # f_{n+1} at each checkpoint: every other step is in place
    for n in cps:
        assert _sample_bytes(samples[n]) == _sample_bytes(ref[n])
    assert np.array_equal(grid, ADVANCE_CASES[name][1], equal_nan=True)


class OwnPerturbed(maps.HalfplanePerturbed):
    """A HalfplanePerturbed subclass with a __call__ of its own, z + b + c/(z + 1) + 0."""

    def __call__(self, z):
        return super().__call__(z) + 0.0


def test_a_perturbed_subclass_steps_by_its_own_calls(monkeypatch):
    calls = []
    own = OwnPerturbed.__call__
    monkeypatch.setattr(OwnPerturbed, "__call__", lambda self, z: calls.append(z) or own(self, z))
    spec = OwnPerturbed(0.5 + 1j, 1.0)
    assert maps._grid_advance(spec, conjugation.default_grid()) is None
    conjugation._run_grid(spec, conjugation.default_grid(), 1.0, (3, 10))
    assert len(calls) == 10 + 2  # one a step, and f_{n+1} at each checkpoint
