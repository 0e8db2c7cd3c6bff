"""Deterministic SVG rendering of orbits in the unit-disk cross-section."""

from __future__ import annotations

import numpy as np

from .geometry import MODELS

__all__ = ["orbit_disk_coords", "render_orbit_svg"]

_SIZE = 500.0
_SCALE = 220.0
_CENTER = 250.0


def orbit_disk_coords(orbit) -> np.ndarray:
    """First-coordinate disk cross-section of an orbit in any model."""
    pts = MODELS[orbit.model].to_ball(orbit.points)
    return pts.reshape(orbit.length, -1)[:, 0]  # planar orbits are the N = 1 case


_fmt = "{:.6f}".format  # a bound method: the coordinate columns map it over their floats


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
    if title:  # XML-escaped as xml.sax.saxutils.escape does, without its urllib imports
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="10" y="20" font-size="14">{title}</text>')
    pts = np.atleast_1d(np.asarray(disk_pts, np.complex128))
    # the operations of _xy on every point at once, each coordinate formatted once
    xs = list(map(_fmt, (_CENTER + _SCALE * pts.real).tolist()))
    ys = list(map(_fmt, (_CENTER - _SCALE * pts.imag).tolist()))
    n = len(xs)
    if n >= 2:
        coords = " ".join(map("{},{}".format, xs, ys))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="0.8"/>'
        )
    if n:
        # steelblue markers, then the highlighted tail, then the last point
        tail = min(n - 1, max(0, n - tail_highlight) if tail_highlight else n)
        runs = ((0, tail, marker_size * 1.0, "steelblue"),
                (tail, n - 1, marker_size * 1.0, "darkorange"),
                (n - 1, n, marker_size * 1.6, "crimson"))
        for a, b, r, color in runs:
            template = f'<circle cx="{{}}" cy="{{}}" r="{_fmt(r)}" fill="{color}"/>'
            out += map(template.format, xs[a:b], ys[a:b])
        out.append(
            f'<circle cx="{xs[0]}" cy="{ys[0]}" r="{_fmt(marker_size * 1.6)}" '
            'fill="none" stroke="seagreen" stroke-width="1.2"/>'
        )
    dx, dy = _xy(complex(dw))
    out.append(
        f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" r="{_fmt(marker_size * 2.0)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
