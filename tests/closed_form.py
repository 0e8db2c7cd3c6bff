"""The orbits of the translation group in closed form, with 50 digits.

``SiegelTranslation(b)`` is T(0, b), ``HeisenbergTranslation(a, b)`` is
T(a, ib) and ``HalfplaneAffine(1, b)`` is T(0, b) with no w, where

    T(a, beta): (z, w) -> (z + 2<w, a> + ||a||^2 + beta, w + a).

A composition's element is folded by the group law
T(a1, b1) o T(a2, b2) = T(a1 + a2, b1 + b2 + 2i Im<a2, a1>), evaluated here
with 50 digits from the maps' stored doubles.  T(a, beta)^n = T(na, n beta),
so the orbit of (z_0, w_0) is

    z_n = z_0 + n (2<w_0, a> + beta) + n^2 ||a||^2,   w_n = w_0 + n a.

``assert_orbit`` compares computed points with it, coordinate by coordinate,
against the size of the terms each coordinate sums: the rounding of a double
evaluation of these formulas is a few units of that size.  ``step`` gives the
pseudo-hyperbolic step d(p_n, p_{n+1}) of the exact orbit by the metric's
definition, 1 - d^2 = 4 A_n A_{n+1} / |z_n + conj(z_{n+1}) - 2<w_n, w_{n+1}>|^2.
"""

import mpmath
import numpy as np

from diskdyn import maps

DPS = 50
# error bound, relative to the terms' size; a double evaluation rounds each
# coordinate a few times, so this leaves about 40 units in the last place
RTOL = 1e-14


def _mpc(v):
    return mpmath.mpc(float(np.real(v)), float(np.imag(v)))


def _ip(x, y):
    """<x, y> = sum x conj(y)."""
    return mpmath.fsum(p * mpmath.conj(q) for p, q in zip(x, y))


def element(spec, dim):
    """(a, beta) of spec acting on points of C^dim, a as a list of dim - 1 mpc."""
    with mpmath.workdps(DPS):
        if isinstance(spec, maps.Composition):
            a, beta = element(spec.parts[0], dim)
            for part in spec.parts[1:]:
                a2, beta2 = element(part, dim)
                beta = beta + beta2 + 2j * mpmath.im(_ip(a2, a))
                a = [x + y for x, y in zip(a, a2)]
            return a, beta
        zero = [mpmath.mpc(0)] * (dim - 1)
        if isinstance(spec, maps.SiegelTranslation):
            return zero, _mpc(spec.b)
        if isinstance(spec, maps.HeisenbergTranslation):
            assert len(spec.a) == dim - 1
            return [_mpc(x) for x in spec.a], mpmath.mpc(0, spec.b)
        if isinstance(spec, maps.HalfplaneAffine) and spec.lam == 1.0:
            return zero, _mpc(spec.b)
        raise TypeError(f"{spec!r} is not a translation-group map")


def _points(spec, start):
    """The 50-digit orbit of start: n -> (z_n, w_n, size of z_n's terms), and start's N."""
    start = np.atleast_1d(np.asarray(start, np.complex128))
    a, beta = element(spec, start.size)
    z0, w0 = _mpc(start[0]), [_mpc(v) for v in start[1:]]
    c1 = 2 * _ip(w0, a) + beta
    c2 = mpmath.re(_ip(a, a))

    def point(n):
        n = mpmath.mpf(int(n))
        return (z0 + n * c1 + n * n * c2, [x + n * d for x, d in zip(w0, a)],
                abs(z0) + n * abs(c1) + n * n * c2)

    return point, w0, a, start.size


def orbit(spec, start, steps):
    """(exact, size): points ``steps`` (indices) of the orbit of start, rounded to doubles,
    and the size of the terms each coordinate sums, both (len(steps), N)."""
    with mpmath.workdps(DPS):
        point, w0, a, dim = _points(spec, start)
        exact = np.empty((len(steps), dim), np.complex128)
        size = np.empty((len(steps), dim))
        for i, n in enumerate(steps):
            z, w, z_size = point(n)
            exact[i] = [complex(z)] + [complex(x) for x in w]
            size[i] = [float(z_size)] + [float(abs(x) + int(n) * abs(d)) for x, d in zip(w0, a)]
    return exact, size


def step(spec, start, n):
    """The step d(p_n, p_{n+1}) of the exact orbit of start, as a double."""
    with mpmath.workdps(DPS):
        point = _points(spec, start)[0]
        (z, w, _), (z1, w1, _) = point(n), point(n + 1)
        cross = z + mpmath.conj(z1) - 2 * _ip(w, w1)
        margins = [mpmath.re(p) - mpmath.re(_ip(q, q)) for p, q in ((z, w), (z1, w1))]
        return float(mpmath.sqrt(1 - 4 * margins[0] * margins[1] / abs(cross) ** 2))


def assert_orbit(spec, start, points, steps=None, rtol=RTOL):
    """points[i] is point steps[i] (default i) of the orbit of start, within rtol of the terms' size.

    A point that is not finite passes only where the exact point lies beyond the doubles.
    """
    pts = np.asarray(points, np.complex128).reshape(len(points), -1)
    steps = range(len(pts)) if steps is None else steps
    exact, size = orbit(spec, start, steps)
    finite = np.isfinite(pts)
    assert np.all(finite | ~np.isfinite(exact) | (size > np.finfo(float).max))
    err = np.abs(np.where(finite, pts, 0.0) - np.where(finite, exact, 0.0))
    bad = np.argwhere(err > rtol * size)
    assert bad.size == 0, (bad[:3], pts[tuple(bad[0])], exact[tuple(bad[0])])


def margin(spec, start, n):
    """The exact margin Re z_n - ||w_n||^2 = A_0 + n Re beta, and the size of Re z_n's terms."""
    start = np.atleast_1d(np.asarray(start, np.complex128))
    with mpmath.workdps(DPS):
        _, beta = element(spec, start.size)
        w0 = [_mpc(v) for v in start[1:]]
        a0 = mpmath.mpf(float(start[0].real)) - mpmath.re(_ip(w0, w0))
        return float(a0 + n * mpmath.re(beta)), float(orbit(spec, start, [n])[1][0, 0])
