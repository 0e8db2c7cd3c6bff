"""Deterministic SVG rendering of orbits in the unit-disk cross-section."""

from __future__ import annotations

import numpy as np

from . import geometry

__all__ = ["orbit_disk_coords", "render_orbit_svg"]

_SIZE = 500.0
_SCALE = 220.0
_CENTER = 250.0


def orbit_disk_coords(orbit) -> np.ndarray:
    """First-coordinate disk cross-section of an orbit in any model."""
    pts = orbit.points.reshape(orbit.length, -1)  # planar orbits are the N = 1 case
    if orbit.model in ("halfplane", "siegel"):
        pts = geometry.siegel_to_ball_array(pts)
    return pts[:, 0]


def _fmt(x: float) -> str:
    return format(x, ".6f")


def _xy(z: complex) -> tuple:
    return _CENTER + _SCALE * z.real, _CENTER - _SCALE * z.imag


def render_orbit_svg(
    disk_pts: np.ndarray,
    dw: complex = 1.0 + 0.0j,
    marker_size: float = 2.0,
    tail_highlight: int = 0,
    title: str = "",
) -> str:
    """Unit circle, orbit polyline + markers, Denjoy-Wolff marker.

    Pure function of its arguments; identical inputs give identical bytes.
    """
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:g}" height="{_SIZE:g}" '
        f'viewBox="0 0 {_SIZE:g} {_SIZE:g}">',
        f'<rect width="{_SIZE:g}" height="{_SIZE:g}" fill="white"/>',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_SCALE)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="10" y="20" font-size="14">{title}</text>')
    pts = [complex(z) for z in np.atleast_1d(disk_pts)]
    if len(pts) >= 2:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (_xy(z) for z in pts))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="0.8"/>'
        )
    for i, z in enumerate(pts):
        x, y = _xy(z)
        last = i == len(pts) - 1
        tail = tail_highlight and i >= len(pts) - tail_highlight
        color = "crimson" if last else ("darkorange" if tail else "steelblue")
        r = marker_size * (1.6 if last else 1.0)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>')
    if pts:
        x, y = _xy(pts[0])
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(marker_size * 1.6)}" '
            'fill="none" stroke="seagreen" stroke-width="1.2"/>'
        )
    dx, dy = _xy(complex(dw))
    out.append(
        f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" r="{_fmt(marker_size * 2.0)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
