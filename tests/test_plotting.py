import numpy as np
import pytest

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


def reference_render_orbit_svg(disk_pts, dw=1.0 + 0.0j, marker_size=2.0, tail_highlight=0,
                               title=""):
    """render_orbit_svg one point at a time, as before the column-wise writer."""

    def fmt(x):
        return format(x, ".6f")

    def xy(z):
        return 250.0 + 220.0 * z.real, 250.0 - 220.0 * z.imag

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500" '
        'viewBox="0 0 500 500">',
        '<rect width="500" height="500" fill="white"/>',
        f'<circle cx="{fmt(250.0)}" cy="{fmt(250.0)}" r="{fmt(220.0)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="10" y="20" font-size="14">{title}</text>')
    pts = [complex(z) for z in np.atleast_1d(disk_pts)]
    if len(pts) >= 2:
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in (xy(z) for z in pts))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="0.8"/>'
        )
    for i, z in enumerate(pts):
        x, y = xy(z)
        last = i == len(pts) - 1
        tail = tail_highlight and i >= len(pts) - tail_highlight
        color = "crimson" if last else ("darkorange" if tail else "steelblue")
        r = marker_size * (1.6 if last else 1.0)
        out.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(r)}" fill="{color}"/>')
    if pts:
        x, y = xy(pts[0])
        out.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(marker_size * 1.6)}" '
            'fill="none" stroke="seagreen" stroke-width="1.2"/>'
        )
    dx, dy = xy(complex(dw))
    out.append(
        f'<circle cx="{fmt(dx)}" cy="{fmt(dy)}" r="{fmt(marker_size * 2.0)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_inputs():
    rng = np.random.default_rng(5)
    disk = np.sqrt(rng.uniform(0.0, 1.0, 300)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    odd = np.empty(12, np.complex128)
    odd.real = [-0.0, 0.0, 1e12, -1e12 / 3.0, 5e-324, -2.5e-310, np.nan, np.inf, 0.5, 1e-7,
                -0.9999999, 1.0 / 3.0]
    odd.imag = [-0.0, -0.0, 2.5e-310, np.nan, -np.inf, 1e12, 0.25, 0.0, -0.0, -1e-7, 3e11,
                -1.0 / 7.0]
    orbit = dynamics.iterate(maps.HalfplaneAffine(1.0, 0.3 - 0.7j), complex(1.0, -0.0), 2000)
    return {
        "disk": disk,
        "odd": odd,
        "one": np.array([0.25 - 0.5j]),
        "real": np.linspace(-0.5, 0.5, 7),  # a real array, as the old loop took it
        "empty": np.array([], np.complex128),
        "orbit": plotting.orbit_disk_coords(orbit),
    }


SVG_INPUTS = _svg_inputs()


@pytest.mark.parametrize("name", sorted(SVG_INPUTS))
def test_svg_matches_the_point_loop(name):
    pts = SVG_INPUTS[name]
    n = np.atleast_1d(pts).size
    for tail in (0, 1, 5, -3, n, n + 10):
        for kwargs in ({}, {"marker_size": 0.7, "dw": -0.5 + 0.25j, "title": "t"}):
            got = plotting.render_orbit_svg(pts, tail_highlight=tail, **kwargs)
            assert got == reference_render_orbit_svg(pts, tail_highlight=tail, **kwargs)
