"""Domain models and metrics.

Four mutually biholomorphic pictures are supported:

* the unit disk  D = {|z| < 1}            <->  the right half-plane  H = {Re z > 0}
* the unit ball  B^N = {||Z|| < 1}        <->  the Siegel half-plane H^N = {Re z > ||w||^2}

The disk and the half-plane are the N = 1 cases of the ball and the Siegel
half-plane.  One Cayley pair, ``siegel_to_ball_array`` and its inverse
``ball_to_siegel_array``, links each unbounded model to its bounded partner in
every module, so all agree on the normalization: the half-plane / Siegel
boundary point at infinity corresponds to 1 in the disk and to (1, 0) on the
sphere.

``MODELS`` maps each model's name to its ``Model`` record, which the other
modules read instead of branching on the name: whether the model is unbounded
and planar, its starts, its point coercion and domain margin, its side of the
Cayley pair, its metric and its step, gap, approach and radial series.  Each
quantity has one formula, on the ball or the Siegel side, whose N = 1 case is
the planar one; the metric ``pdist`` is the step series of a two-point orbit,
``_margin`` the margin of a point, of an orbit block and of the step series.

The step d(p_n, p_{n+1}) is formed from the step itself (``step_series_siegel``,
``step_series_ball``), never as sqrt(1 - (product of margins)/|cross|^2), which
cancels for small steps.  Quantities that degenerate near the boundary
(1 - |z1|^2, 1 - ||Z||, the special ratio, the Koranyi quotient, ...) are never
formed by subtracting nearly equal ball coordinates when the data is native to
a half-plane model; the exact identities

    1 - z1      = 2 / (z + 1)
    1 - |z1|^2  = 4 Re z / |z + 1|^2
    1 - ||Z||^2 = 4 (Re z - ||w||^2) / |z + 1|^2
    ||w_ball||^2 = 4 ||w||^2 / |z + 1|^2

are used instead, so orbits reaching |z| ~ 1e6 and far beyond keep their
relative accuracy in double precision.  Ball-native data has no such escape:
its 1 - ||Z||^2 cancels in the stored coordinates near the sphere.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DomainError, ModelMismatchError

__all__ = [
    "MODELS",
    "Model",
    "DiskPoint",
    "HalfPlanePoint",
    "BallPoint",
    "SiegelPoint",
    "BoundaryPoint",
    "cayley_halfplane_to_disk",
    "cayley_disk_to_halfplane",
    "cayley_ball_to_siegel",
    "cayley_siegel_to_ball",
    "pdist_disk",
    "pdist_halfplane",
    "pdist_ball",
    "pdist_siegel",
    "koranyi_quotient",
    "special_ratio",
    "projection_nt_quotient",
    "tangency_angle",
]


# ---------------------------------------------------------------------------
# point types


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self):
        object.__setattr__(self, "z", _coords("disk", self.z))


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point of the open right half-plane."""

    z: complex

    def __post_init__(self):
        object.__setattr__(self, "z", _coords("halfplane", self.z))


def _freeze_vector(v) -> np.ndarray:
    arr = np.array(v, dtype=np.complex128).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BallPoint:
    """A point of the unit ball B^N, split as (z1, w) with w in C^{N-1}."""

    z1: complex
    w: np.ndarray = field(default_factory=lambda: np.empty(0, np.complex128))

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "w", _freeze_vector(self.w))
        _coords("ball", self.coords)

    @property
    def dim(self) -> int:
        return 1 + self.w.size

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate(([self.z1], self.w))


@dataclass(frozen=True)
class SiegelPoint:
    """A point of the Siegel half-plane H^N: Re z > ||w||^2."""

    z: complex
    w: np.ndarray = field(default_factory=lambda: np.empty(0, np.complex128))

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", _freeze_vector(self.w))
        _coords("siegel", self.coords)

    @property
    def dim(self) -> int:
        return 1 + self.w.size

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate(([self.z], self.w))


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: a unit vector of C^N, or infinity for half-plane models."""

    X: np.ndarray | None = None
    at_infinity: bool = False

    def __post_init__(self):
        if self.at_infinity:
            object.__setattr__(self, "X", None)
            return
        if self.X is None:
            raise DomainError("BoundaryPoint needs a vector or at_infinity=True")
        arr = np.array(self.X, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise DomainError("boundary vector must be nonzero")
        arr = arr / nrm
        arr.setflags(write=False)
        object.__setattr__(self, "X", arr)

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(at_infinity=True)

    @classmethod
    def e1(cls, dim: int) -> "BoundaryPoint":
        v = np.zeros(dim, np.complex128)
        v[0] = 1.0
        return cls(v)


# ---------------------------------------------------------------------------
# coercion helpers: every public op accepts the dataclass or a raw value


def _coords(name: str, p):
    """A point dataclass or a raw value as a point of the model; DomainError unless interior."""
    if isinstance(p, (BallPoint, SiegelPoint)):
        p = p.coords
    elif isinstance(p, (DiskPoint, HalfPlanePoint)):
        p = p.z
    model = MODELS[name]
    p = model.point(p)
    if not model.contains(p):
        raise DomainError(f"point outside the {name} domain")
    return p


def _x_vector(X, dim: int) -> np.ndarray:
    if not isinstance(X, BoundaryPoint):
        X = BoundaryPoint(X)  # normalizes, and rejects the zero vector
    if X.at_infinity:
        raise DegenerateInputError(
            "quotients need a finite boundary vector; map infinity to (1,0) first"
        )
    v = X.X
    if v.size != dim:
        raise DomainError(f"boundary vector has dim {v.size}, point has dim {dim}")
    return v


# ---------------------------------------------------------------------------
# Cayley transforms


def cayley_halfplane_to_disk(p) -> DiskPoint:
    """C(z) = (z - 1)/(z + 1); sends 1 -> 0 and infinity -> 1."""
    return DiskPoint(siegel_to_ball_array(_coords("halfplane", p)))


def cayley_disk_to_halfplane(p) -> HalfPlanePoint:
    """Inverse transform (1 + u)/(1 - u)."""
    return HalfPlanePoint(ball_to_siegel_array(_coords("disk", p)))


def cayley_ball_to_siegel(p) -> SiegelPoint:
    """Psi(z1, w) = ((1 + z1)/(1 - z1), w/(1 - z1)); sends (1,0) -> infinity."""
    P = ball_to_siegel_array(_coords("ball", p))
    return SiegelPoint(P[0], P[1:])


def cayley_siegel_to_ball(p) -> BallPoint:
    """Inverse transform (z - 1)/(z + 1), 2w/(z + 1)."""
    Z = siegel_to_ball_array(_coords("siegel", p))
    return BallPoint(Z[0], Z[1:])


# the array-level pair behind every Cayley transform in the package: a number
# is a half-plane / disk point and keeps its own arithmetic (Python and numpy
# complex division differ in the last bit); an array holds points (z, w) along
# its last axis, so an (N,) point, an (n, N) orbit, and planar points as (..., 1)


def siegel_to_ball_array(P):
    """(z, w) -> ((z - 1)/(z + 1), 2w/(z + 1)), on a number or along the last axis."""
    if isinstance(P, numbers.Number):
        return (P - 1.0) / (P + 1.0)
    P = np.asarray(P, np.complex128)
    z = P[..., :1]
    denom = z + 1.0
    return np.concatenate(((z - 1.0) / denom, 2.0 * P[..., 1:] / denom), axis=-1)


def ball_to_siegel_array(Z):
    """(z1, w) -> ((1 + z1)/(1 - z1), w/(1 - z1)), the inverse of siegel_to_ball_array."""
    if isinstance(Z, numbers.Number):
        return (1.0 + Z) / (1.0 - Z)
    Z = np.asarray(Z, np.complex128)
    z1 = Z[..., :1]
    denom = 1.0 - z1
    return np.concatenate(((1.0 + z1) / denom, Z[..., 1:] / denom), axis=-1)


# ---------------------------------------------------------------------------
# pseudo-hyperbolic metrics: the two-point case of the step series


def pdist_disk(p, q) -> float:
    """d(z, w) = |z - w| / |1 - conj(z) w|."""
    return MODELS["disk"].pdist(p, q)


def pdist_halfplane(p, q) -> float:
    """Pullback of the disk metric: d(z, w) = |z - w| / |z + conj(w)|."""
    return MODELS["halfplane"].pdist(p, q)


def pdist_ball(p, q) -> float:
    """Ball metric, 1 - d^2 = (1 - ||Z||^2)(1 - ||W||^2)/|1 - <Z,W>|^2."""
    return MODELS["ball"].pdist(p, q)


def pdist_siegel(p, q) -> float:
    """Pullback of the ball metric: 1 - d^2 = 4 A A' / |z + conj(z') - 2<w,w'>|^2, A = margin."""
    return MODELS["siegel"].pdist(p, q)


# ---------------------------------------------------------------------------
# boundary-approach quotients: row 0 of the ball approach series


def _quotients(p, X) -> list:
    """(special, koranyi, nt, angle, euclid_nt, boundary_dist) at one ball point."""
    Z = _coords("ball", p)
    x = _x_vector(X, Z.size)
    if complex(np.vdot(x, Z)) == 1.0:
        raise DegenerateInputError("<Z, X> = 1")
    return [float(s[0]) for s in approach_series_ball(Z[None], x)]


def koranyi_quotient(p, X) -> float:
    """|1 - <Z, X>| / (1 - ||Z||); Z lies in K(X, M) iff the value is < M."""
    return _quotients(p, X)[1]


def special_ratio(p, X) -> float:
    """||Z - <Z,X>X||^2 / (1 - ||<Z,X>X||^2); 0 iff Z is a multiple of X."""
    return _quotients(p, X)[0]


def projection_nt_quotient(p, X) -> float:
    """|1 - <Z,X>| / (1 - |<Z,X>|); bounded iff the projection is non-tangential."""
    return _quotients(p, X)[2]


def tangency_angle(p, X) -> float:
    """Arg(1 - <Z,X>) in (-pi, pi]; |angle| -> pi/2 signals tangential approach."""
    return _quotients(p, X)[3]


# ---------------------------------------------------------------------------
# vectorized series over orbit arrays
#
# An orbit is an (n, N) complex array with column 0 holding the distinguished
# coordinate; a planar orbit, an (n,) array, is read as the (n, 1) one.


def _rows(P) -> np.ndarray:
    P = np.asarray(P)
    return P.reshape(len(P), -1)


def _dot(a, b) -> np.ndarray:
    """<a_n, b_n> = sum a_n conj(b_n), row by row."""
    return np.einsum("ij,ij->i", a, np.conj(b))


def _norm2(a) -> np.ndarray:
    """||a_n||^2, row by row, for the margins and the Siegel approach and gap series.

    Squaring re and im rounds once less than squaring np.abs, which matters
    where A = Re z - ||w||^2 cancels.  The ball series keep np.sum(np.abs(a) ** 2):
    with it the ball gap's N = 1 case is the disk's 1 - |z| bit for bit.
    """
    return (a.real**2 + a.imag**2).sum(axis=1)


def _margin(x, w) -> np.ndarray:
    """x - ||w_n||^2 row by row: the margin Re z - ||w||^2 (x = Re z), or 1 - ||Z||^2 (x = 1).

    With one column it is x - (re * re + im * im), the scalar planar formula.
    """
    return x - _norm2(w)


def step_series_siegel(P) -> np.ndarray:
    """d(p_n, p_{n+1}) along a Siegel orbit, free of cancellation.

    With A = Re z - ||w||^2 at p_n and u = dz - 2<dw, w>, the cross term is
    2A + conj(u) and |cross|^2 - 4 A A' = |u|^2 + 4 A ||dw||^2, so
    d = hypot(|u|, 2 sqrt(A ||dw||^2)) / |2A + u|; N = 1 is the half-plane.
    """
    P = _rows(P)
    z, w = P[:, 0], P[:-1, 1:]
    dz = z[1:] - z[:-1]
    dw = P[1:, 1:] - w
    a = np.maximum(_margin(z.real[:-1], w), 0.0)
    u = dz - 2.0 * _dot(dw, w)
    # sqrt(A) sqrt(||dw||^2), not sqrt(A ||dw||^2): the product overflows first
    return np.hypot(np.abs(u), 2.0 * np.sqrt(a) * np.sqrt(_norm2(dw))) / np.abs(2.0 * a + u)


def step_series_ball(P) -> np.ndarray:
    """d(Z_n, Z_{n+1}) along a ball orbit, free of cancellation.

    With D = Z_{n+1} - Z_n, m = 1 - ||Z_n||^2 and v = <D, Z_n>, 1 - <Z_n, Z_{n+1}>
    is m - conj(v) and d^2 = (m ||D||^2 + |v|^2) / |m - v|^2; N = 1 is the disk.
    """
    P = _rows(P)
    Z, D = P[:-1], P[1:] - P[:-1]
    m = np.maximum(_margin(1.0, Z), 0.0)
    v = _dot(D, Z)
    return np.sqrt(m * _norm2(D) + np.abs(v) ** 2) / np.abs(m - v)


def _siegel_parts(P):
    """z, ||w||^2, the margin Re z - ||w||^2, |z + 1|, 1 - ||Z||^2 and ||Z|| (Z the ball image)."""
    z = P[:, 0]
    wn2 = _norm2(P[:, 1:])
    margin = z.real - wn2
    abs_zp1 = np.abs(z + 1.0)
    one_minus_sq = 4.0 * margin / abs_zp1**2
    return z, wn2, margin, abs_zp1, one_minus_sq, np.sqrt(np.clip(1.0 - one_minus_sq, 0.0, None))


def boundary_gap_series_siegel(P) -> np.ndarray:
    """1 - ||ball image|| computed without cancellation."""
    one_minus_sq, nrm = _siegel_parts(_rows(P))[4:]  # the rest is freed at once
    return one_minus_sq / (1.0 + nrm)


def boundary_gap_series_ball(P) -> np.ndarray:
    return 1.0 - np.sqrt(np.sum(np.abs(_rows(P)) ** 2, axis=1))


def approach_series_siegel(P) -> tuple:
    """(special, koranyi, nt, angle, euclid_nt, boundary_dist) at the vertex e1 = Cayley(infinity).

    The ball quotients of the Cayley image, by the identities above, from one _siegel_parts.
    """
    z, wn2, margin, abs_zp1, _, nrm = _siegel_parts(_rows(P))
    root = np.sqrt(1.0 + wn2)
    return (
        wn2 / z.real,
        abs_zp1 * (1.0 + nrm) / (2.0 * margin),
        abs_zp1 * (1.0 + np.abs(z - 1.0) / abs_zp1) / (2.0 * z.real),  # |z1| = |z - 1| / |z + 1|
        np.angle(2.0 / (z + 1.0)),
        root * abs_zp1 * (1.0 + nrm) / (2.0 * margin),
        2.0 * root / abs_zp1,  # ||Z - e1||
    )


def radial_quotient_series_siegel(P) -> np.ndarray:
    """(1 - z1_{n+1}) / (1 - z1_n) = (z_n + 1)/(z_{n+1} + 1)."""
    z = _rows(P)[:, 0]
    return (z[:-1] + 1.0) / (z[1:] + 1.0)


def approach_series_ball(P, X) -> tuple:
    """(special, koranyi, nt, angle, euclid_nt, boundary_dist) at the vertex X, in one pass.

    With t = <Z, X>: ||Z - tX||^2 / (1 - |t|^2), |1 - t| / (1 - ||Z||), |1 - t| / (1 - |t|),
    arg(1 - t), ||Z - X|| / (1 - ||Z||) and ||Z - X||.
    """
    P = _rows(P)
    x = np.asarray(X, np.complex128).reshape(-1)
    t = P @ np.conj(x)
    abs_t = np.abs(t)
    abs_1mt = np.abs(1.0 - t)
    gap = boundary_gap_series_ball(P)
    dist = np.linalg.norm(P - x[None, :], axis=1)
    return (
        np.sum(np.abs(P - t[:, None] * x[None, :]) ** 2, axis=1) / (1.0 - abs_t**2),
        abs_1mt / gap,
        abs_1mt / (1.0 - abs_t),
        np.angle(1.0 - t),
        dist / gap,
        dist,
    )


def radial_quotient_series_ball(P, X) -> np.ndarray:
    t = _rows(P) @ np.conj(np.asarray(X, np.complex128).reshape(-1))
    denom = 1.0 - t[:-1]
    if np.any(denom == 0.0):
        idx = int(np.nonzero(denom == 0.0)[0][0])
        raise DegenerateInputError(f"<Z_n, X> = 1 at index {idx}")
    return (1.0 - t[1:]) / denom


# ---------------------------------------------------------------------------
# the per-model table: what every other module needs to know about a model


@dataclass(frozen=True)
class Model:
    """One of the four models.

    ``unbounded`` models are Re z > ||w||^2 (half-plane, Siegel), the others
    ||Z|| < 1 (disk, ball); a point of a ``planar`` model (disk, half-plane)
    is a complex number, of the others an (N,) complex128 array.
    """

    name: str
    partner: str  # the model at the other end of the Cayley pair
    unbounded: bool
    planar: bool
    starts: tuple  # the default starts; N = 2 for ball and Siegel
    probe_starts: tuple  # the two starts conjecture_probe adds to them

    def point(self, p):
        """p as a point of the model: a complex, or a new (N,) complex128 array."""
        if not self.planar:
            return np.array(p, np.complex128).reshape(-1)
        # a (1,) row of a planar orbit buffer is indexed first
        return complex(p[0] if isinstance(p, np.ndarray) and p.shape == (1,) else p)

    def margin(self, p) -> float:
        """1 - ||Z||^2, or Re z - ||w||^2 for the unbounded models: positive iff p is interior."""
        P = np.reshape(self.point(p), (1, -1))
        x, w = (P[:, 0].real, P[:, 1:]) if self.unbounded else (1.0, P)
        # an overflow or inf - inf gives inf or NaN silently, as float arithmetic does
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_margin(x, w)[0])

    def contains(self, p) -> bool:
        """Whether the point p is interior: every coordinate finite and the margin positive.

        The unbounded margin does not read Im z, so a NaN or infinite Im z is
        caught by the finiteness test alone.
        """
        return bool(self.margin(p) > 0.0 and np.isfinite(p).all())

    def to_ball(self, p):
        """A point, or an array of points, in the disk / ball picture."""
        return self._cayley(siegel_to_ball_array, p) if self.unbounded else p

    def from_ball(self, p):
        """The inverse of to_ball."""
        return self._cayley(ball_to_siegel_array, p) if self.unbounded else p

    def _cayley(self, pair, p):
        if self.planar and not isinstance(p, numbers.Number):
            # an array of planar points is a batch of N = 1 points for the pair
            return pair(np.asarray(p)[..., None])[..., 0]
        return pair(p)

    def pdist(self, p, q) -> float:
        """The pseudo-hyperbolic distance of two points: the step of the orbit (p, q)."""
        p, q = _coords(self.name, p), _coords(self.name, q)
        if np.size(p) != np.size(q):
            raise DomainError("dimension mismatch")
        return float(self.step_series(np.array([p, q]))[0])

    def step_series(self, pts) -> np.ndarray:
        """d(z_n, z_{n+1}) along an orbit of the model; planar orbits are the N = 1 case."""
        return (step_series_siegel if self.unbounded else step_series_ball)(pts)

    def gap_series(self, pts) -> np.ndarray:
        """1 - ||Z_n|| along an orbit of the model; planar orbits are the N = 1 case."""
        return (boundary_gap_series_siegel if self.unbounded else boundary_gap_series_ball)(pts)

    def approach_series(self, pts, X) -> tuple:
        """The approach quotients along an orbit at X, or at infinity if unbounded (X unused)."""
        return approach_series_siegel(pts) if self.unbounded else approach_series_ball(pts, X)

    def radial_series(self, pts, X) -> np.ndarray:
        """The radial quotient along an orbit, at X as approach_series reads it."""
        if self.unbounded:
            return radial_quotient_series_siegel(pts)
        return radial_quotient_series_ball(pts, X)


class _Table(dict):
    """A dict whose lookup of an unknown model name raises ModelMismatchError."""

    def __missing__(self, name):
        raise ModelMismatchError(f"unknown model {name!r}")


_HALFPLANE_PROBE = (3.0 - 1.0j, 1.5 + 2.0j)
_SIEGEL_PROBE = ((3.0, 0.5), (2.0 + 2.0j, -0.4j))

MODELS = _Table((m.name, m) for m in (
    Model("disk", partner="halfplane", unbounded=False, planar=True,
          starts=(0j, 0.3 + 0.2j, -0.4 + 0.1j),
          probe_starts=tuple(siegel_to_ball_array(z) for z in _HALFPLANE_PROBE)),
    Model("halfplane", partner="disk", unbounded=True, planar=True,
          starts=(1.0 + 0.0j, 2.0 + 1.0j, 0.5 - 0.5j),
          probe_starts=_HALFPLANE_PROBE),
    Model("ball", partner="siegel", unbounded=False, planar=False,
          starts=((0.0, 0.0), (0.2 + 0.1j, 0.3), (-0.3, 0.1 - 0.2j)),
          probe_starts=tuple(tuple(siegel_to_ball_array(p).tolist()) for p in _SIEGEL_PROBE)),
    # small w-components: translation orbits shed their w only like 1/n,
    # so widely split starts would stall the Denjoy-Wolff agreement check
    Model("siegel", partner="ball", unbounded=True, planar=False,
          starts=((1.0, 0.0), (2.0 + 1.0j, 0.1), (1.5 - 0.5j, -0.1j)),
          probe_starts=_SIEGEL_PROBE),
))
