import numpy as np

from diskdyn import dynamics, maps, plotting


def test_orbit_disk_coords_models():
    orb = dynamics.iterate(maps.HalfplaneAffine(1.0, 1.0), 1.0, 10)
    pts = plotting.orbit_disk_coords(orb)
    # Cayley image of a real orbit is real and inside the disk
    assert np.all(np.abs(pts.imag) < 1e-15)
    assert np.all(np.abs(pts) < 1.0)

    orb = dynamics.iterate(
        maps.SiegelTranslation(1.0), np.array([1.0, 0.2], np.complex128), 10
    )
    pts = plotting.orbit_disk_coords(orb)
    z = orb.points[:, 0]
    assert np.allclose(pts, (z - 1.0) / (z + 1.0))


def test_svg_deterministic():
    pts = np.array([0.0, 0.1 + 0.2j, 0.3 + 0.1j])
    a = plotting.render_orbit_svg(pts, title="x")
    b = plotting.render_orbit_svg(pts, title="x")
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_svg_geometry():
    svg = plotting.render_orbit_svg(np.array([0.0 + 0.0j]))
    # origin maps to the canvas center, unit circle to r = 220
    assert 'cx="250.000000" cy="250.000000" r="220.000000"' in svg
    # y axis is flipped: i should land above the center
    svg = plotting.render_orbit_svg(np.array([1j * 0.5]))
    assert 'cy="140.000000"' in svg  # 250 - 220*0.5


def test_svg_marks_endpoints():
    pts = np.linspace(0.0, 0.5, 20).astype(complex)
    svg = plotting.render_orbit_svg(pts, tail_highlight=5)
    assert "crimson" in svg  # last point
    assert "seagreen" in svg  # start ring
    assert "darkorange" in svg  # highlighted tail
    assert svg.count("<circle") == 20 + 3  # markers + unit circle + 2 rings


def reference_disk_coords(orbit):
    """orbit_disk_coords with its own Cayley transforms, as before the shared pair."""
    pts = orbit.points
    if orbit.model == "disk":
        return np.asarray(pts)
    if orbit.model == "halfplane":
        return (pts - 1.0) / (pts + 1.0)
    if orbit.model == "ball":
        return np.atleast_2d(pts)[:, 0]
    z = np.atleast_2d(pts)[:, 0]
    return (z - 1.0) / (z + 1.0)


def test_orbit_disk_coords_bit_for_bit_in_every_model():
    cases = [
        (maps.DiskMoebius(0.3 - 0.1j, 1.0), 0.2 + 0.1j),
        (maps.HalfplanePerturbed(1j, 1.0), 2.0 - 1j),
        (maps.Conjugated(maps.HeisenbergTranslation((0.3 + 0.4j,), 1.0)),
         np.array([0.2 + 0.1j, -0.3j], np.complex128)),
        (maps.HeisenbergTranslation((0.3 + 0.1j, -0.2j), 0.5),
         np.array([1.5, 0.2, 0.1j], np.complex128)),
    ]
    for spec, start in cases:
        orb = dynamics.iterate(spec, start, 3000)
        got, want = plotting.orbit_disk_coords(orb), reference_disk_coords(orb)
        assert got.shape == want.shape == (orb.length,)
        assert got.tobytes() == want.tobytes()
