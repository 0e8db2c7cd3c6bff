"""Deterministic SVG rendering of orbits in the unit-disk cross-section.

The text is pieces joined once: the polyline and markers from ``_decimal`` cells, in chunks of
``_decimal.CHUNK`` lines, so the whole text is never copied on the way."""

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


_fmt = "{:.6f}".format  # the scalars; the coordinate columns are _decimal cells


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
    from . import _decimal  # compiled on first use, not by every import of plotting
    out = [  # the text in pieces, joined once at the end
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:g}" height="{_SIZE:g}" '
        f'viewBox="0 0 {_SIZE:g} {_SIZE:g}">\n',
        f'<rect width="{_SIZE:g}" height="{_SIZE:g}" fill="white"/>\n',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_SCALE)}" '
        'fill="none" stroke="black" stroke-width="1"/>\n',
    ]
    if title:  # XML-escaped as xml.sax.saxutils.escape does, without its urllib imports
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="10" y="20" font-size="14">{title}</text>\n')
    pts = np.atleast_1d(np.asarray(disk_pts, np.complex128))
    # every point's canvas coordinates at once, each formatted once
    x, y = _CENTER + _SCALE * pts.real, _CENTER - _SCALE * pts.imag
    xs, ys = _decimal.cells(x, ".6f"), _decimal.cells(y, ".6f")
    n = len(pts)

    def rows(a, b, *parts):
        """Lines a..b of the points, laid out as parts say, _decimal.CHUNK lines at a time."""
        for i in range(a, b, _decimal.CHUNK):
            j = min(i + _decimal.CHUNK, b)
            out.append(_decimal.join([p[i:j] if isinstance(p, np.ndarray) else p for p in parts]))

    if n >= 2:
        out.append('<polyline points="')
        space = np.full((n - 1, 1), ord(" "), np.uint8)  # between the points, not after them
        rows(0, n, xs, b",", ys, space)
        out.append('" fill="none" stroke="steelblue" stroke-width="0.8"/>\n')
    if n:
        # steelblue markers, then the highlighted tail, then the last point
        tail = min(n - 1, max(0, n - tail_highlight) if tail_highlight else n)
        runs = ((0, tail, marker_size * 1.0, "steelblue"),
                (tail, n - 1, marker_size * 1.0, "darkorange"),
                (n - 1, n, marker_size * 1.6, "crimson"))
        for a, b, r, color in runs:
            end = f'" r="{_fmt(r)}" fill="{color}"/>\n'.encode()
            rows(a, b, b'<circle cx="', xs, b'" cy="', ys, end)
        out.append(
            f'<circle cx="{_fmt(x[0])}" cy="{_fmt(y[0])}" r="{_fmt(marker_size * 1.6)}" '
            'fill="none" stroke="seagreen" stroke-width="1.2"/>\n'
        )
    dx, dy = _CENTER + _SCALE * complex(dw).real, _CENTER - _SCALE * complex(dw).imag
    out.append(
        f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" r="{_fmt(marker_size * 2.0)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>\n'
    )
    out.append("</svg>\n")
    return "".join(out)
