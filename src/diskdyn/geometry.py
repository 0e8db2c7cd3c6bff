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
Cayley pair, its metric and its step and gap series.  The planar gap series
are the N = 1 case of the ball / Siegel ones; the planar step series are not.

Quantities that degenerate near the boundary (1 - |z1|^2, 1 - ||Z||, the
special ratio, the Koranyi quotient, ...) are never formed by subtracting
nearly equal ball coordinates when the data is native to a half-plane model;
the exact identities

    1 - z1      = 2 / (z + 1)
    1 - |z1|^2  = 4 Re z / |z + 1|^2
    1 - ||Z||^2 = 4 (Re z - ||w||^2) / |z + 1|^2
    ||w_ball||^2 = 4 ||w||^2 / |z + 1|^2

are used instead, so orbits reaching |z| ~ 1e6 and far beyond keep their
relative accuracy in double precision.
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
# pseudo-hyperbolic metrics


def pdist_disk(p, q) -> float:
    """d(z, w) = |z - w| / |1 - conj(z) w|."""
    z, w = _coords("disk", p), _coords("disk", q)
    return abs(z - w) / abs(1.0 - z.conjugate() * w)


def pdist_halfplane(p, q) -> float:
    """Pullback of the disk metric: d(z, w) = |z - w| / |z + conj(w)|."""
    z, w = _coords("halfplane", p), _coords("halfplane", q)
    return abs(z - w) / abs(z + w.conjugate())


def pdist_ball(p, q) -> float:
    """Ball metric, 1 - d^2 = (1 - ||Z||^2)(1 - ||W||^2)/|1 - <Z,W>|^2."""
    Z, W = _coords("ball", p), _coords("ball", q)
    if Z.size != W.size:
        raise DomainError("dimension mismatch")
    one_minus_ip = 1.0 - np.vdot(W, Z)  # <Z, W> = sum Z conj(W)
    num = (1.0 - float(np.sum(np.abs(Z) ** 2))) * (1.0 - float(np.sum(np.abs(W) ** 2)))
    d2 = 1.0 - num / abs(one_minus_ip) ** 2
    return float(np.sqrt(min(max(d2, 0.0), 1.0)))


def pdist_siegel(p, q) -> float:
    """Siegel-native form: 1 - d^2 = 4 A A' / |z + conj(z') - 2<w,w'>|^2.

    Here A = Re z - ||w||^2 is the boundary margin; the formula is the exact
    pullback of the ball metric under the fixed Cayley transform.
    """
    P, Q = _coords("siegel", p), _coords("siegel", q)
    if P.size != Q.size:
        raise DomainError("dimension mismatch")
    a = P[0].real - float(np.sum(np.abs(P[1:]) ** 2))
    b = Q[0].real - float(np.sum(np.abs(Q[1:]) ** 2))
    cross = P[0] + Q[0].conjugate() - 2.0 * complex(np.vdot(Q[1:], P[1:]))
    d2 = 1.0 - 4.0 * a * b / abs(cross) ** 2
    return float(np.sqrt(min(max(d2, 0.0), 1.0)))


# ---------------------------------------------------------------------------
# boundary-approach quotients (pointwise; series versions further down)


def koranyi_quotient(p, X) -> float:
    """|1 - <Z, X>| / (1 - ||Z||); Z lies in K(X, M) iff the value is < M."""
    Z = _coords("ball", p)
    x = _x_vector(X, Z.size)
    t = complex(np.vdot(x, Z))
    return abs(1.0 - t) / (1.0 - float(np.linalg.norm(Z)))


def special_ratio(p, X) -> float:
    """||Z - <Z,X>X||^2 / (1 - ||<Z,X>X||^2); 0 iff Z is a multiple of X."""
    Z = _coords("ball", p)
    x = _x_vector(X, Z.size)
    t = complex(np.vdot(x, Z))
    orth = Z - t * x
    return float(np.sum(np.abs(orth) ** 2)) / (1.0 - abs(t) ** 2)


def projection_nt_quotient(p, X) -> float:
    """|1 - <Z,X>| / (1 - |<Z,X>|); bounded iff the projection is non-tangential."""
    Z = _coords("ball", p)
    x = _x_vector(X, Z.size)
    t = complex(np.vdot(x, Z))
    if t == 1.0:
        raise DegenerateInputError("<Z, X> = 1")
    return abs(1.0 - t) / (1.0 - abs(t))


def tangency_angle(p, X) -> float:
    """Arg(1 - <Z,X>) in (-pi, pi]; |angle| -> pi/2 signals tangential approach."""
    Z = _coords("ball", p)
    x = _x_vector(X, Z.size)
    t = complex(np.vdot(x, Z))
    if t == 1.0:
        raise DegenerateInputError("<Z, X> = 1")
    return float(np.angle(1.0 - t))


# ---------------------------------------------------------------------------
# vectorized series over orbit arrays
#
# Planar orbits are 1-d complex arrays; ball/Siegel orbits are (n, N) complex
# arrays with column 0 holding the distinguished coordinate.


def step_series_disk(zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs)
    return np.abs(zs[1:] - zs[:-1]) / np.abs(1.0 - np.conj(zs[:-1]) * zs[1:])


def step_series_halfplane(zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs)
    return np.abs(zs[1:] - zs[:-1]) / np.abs(zs[:-1] + np.conj(zs[1:]))


def _siegel_parts(P):
    P = np.atleast_2d(np.asarray(P))
    z = P[:, 0]
    w = P[:, 1:]
    wn2 = np.sum(np.abs(w) ** 2, axis=1).real
    return z, w, wn2


def step_series_siegel(P: np.ndarray) -> np.ndarray:
    z, w, wn2 = _siegel_parts(P)
    margin = z.real - wn2
    cross = z[:-1] + np.conj(z[1:]) - 2.0 * np.sum(w[:-1] * np.conj(w[1:]), axis=1)
    d2 = 1.0 - 4.0 * margin[:-1] * margin[1:] / np.abs(cross) ** 2
    return np.sqrt(np.clip(d2, 0.0, 1.0))


def step_series_ball(P: np.ndarray) -> np.ndarray:
    P = np.atleast_2d(np.asarray(P))
    nrm2 = np.sum(np.abs(P) ** 2, axis=1).real
    ip = np.sum(P[:-1] * np.conj(P[1:]), axis=1)
    d2 = 1.0 - (1.0 - nrm2[:-1]) * (1.0 - nrm2[1:]) / np.abs(1.0 - ip) ** 2
    return np.sqrt(np.clip(d2, 0.0, 1.0))


def boundary_gap_series_siegel(P: np.ndarray) -> np.ndarray:
    """1 - ||ball image|| computed without cancellation."""
    z, _, wn2 = _siegel_parts(P)
    one_minus_sq = 4.0 * (z.real - wn2) / np.abs(z + 1.0) ** 2
    nrm = np.sqrt(np.clip(1.0 - one_minus_sq, 0.0, None))
    return one_minus_sq / (1.0 + nrm)


def boundary_gap_series_ball(P: np.ndarray) -> np.ndarray:
    P = np.atleast_2d(np.asarray(P))
    return 1.0 - np.sqrt(np.sum(np.abs(P) ** 2, axis=1).real)


# Siegel-native approach quotients; the vertex is implicitly e1 = Cayley(inf).


def special_ratio_series_siegel(P: np.ndarray) -> np.ndarray:
    z, _, wn2 = _siegel_parts(P)
    return wn2 / z.real


def koranyi_series_siegel(P: np.ndarray) -> np.ndarray:
    z, _, wn2 = _siegel_parts(P)
    margin = z.real - wn2
    one_minus_sq = 4.0 * margin / np.abs(z + 1.0) ** 2
    nrm = np.sqrt(np.clip(1.0 - one_minus_sq, 0.0, None))
    return np.abs(z + 1.0) * (1.0 + nrm) / (2.0 * margin)


def nt_quotient_series_siegel(P: np.ndarray) -> np.ndarray:
    z, _, _ = _siegel_parts(P)
    mod_z1 = np.abs(z - 1.0) / np.abs(z + 1.0)
    return np.abs(z + 1.0) * (1.0 + mod_z1) / (2.0 * z.real)


def tangency_angle_series_siegel(P: np.ndarray) -> np.ndarray:
    z, _, _ = _siegel_parts(P)
    return np.angle(2.0 / (z + 1.0))


def euclid_nt_series_siegel(P: np.ndarray) -> np.ndarray:
    """||Z - e1|| / (1 - ||Z||) in ball coordinates, via Siegel identities."""
    z, _, wn2 = _siegel_parts(P)
    margin = z.real - wn2
    one_minus_sq = 4.0 * margin / np.abs(z + 1.0) ** 2
    nrm = np.sqrt(np.clip(1.0 - one_minus_sq, 0.0, None))
    return np.sqrt(1.0 + wn2) * np.abs(z + 1.0) * (1.0 + nrm) / (2.0 * margin)


def boundary_dist_series_siegel(P: np.ndarray) -> np.ndarray:
    """Euclidean distance ||Z - e1|| of the ball image to the vertex."""
    z, _, wn2 = _siegel_parts(P)
    return 2.0 * np.sqrt(1.0 + wn2) / np.abs(z + 1.0)


def radial_quotient_series_siegel(P: np.ndarray) -> np.ndarray:
    """(1 - z1_{n+1}) / (1 - z1_n) = (z_n + 1)/(z_{n+1} + 1)."""
    z = np.atleast_2d(np.asarray(P))[:, 0]
    return (z[:-1] + 1.0) / (z[1:] + 1.0)


# ball-native versions, general vertex X


def _ball_projections(P, X):
    P = np.atleast_2d(np.asarray(P))
    x = np.asarray(X, np.complex128).reshape(-1)
    t = P @ np.conj(x)  # <Z_n, X>
    return P, x, t


def special_ratio_series_ball(P, X) -> np.ndarray:
    P, x, t = _ball_projections(P, X)
    orth = P - t[:, None] * x[None, :]
    return np.sum(np.abs(orth) ** 2, axis=1).real / (1.0 - np.abs(t) ** 2)


def koranyi_series_ball(P, X) -> np.ndarray:
    P, _, t = _ball_projections(P, X)
    return np.abs(1.0 - t) / (1.0 - np.sqrt(np.sum(np.abs(P) ** 2, axis=1).real))


def nt_quotient_series_ball(P, X) -> np.ndarray:
    _, _, t = _ball_projections(P, X)
    return np.abs(1.0 - t) / (1.0 - np.abs(t))


def tangency_angle_series_ball(P, X) -> np.ndarray:
    _, _, t = _ball_projections(P, X)
    return np.angle(1.0 - t)


def euclid_nt_series_ball(P, X) -> np.ndarray:
    P, x, _ = _ball_projections(P, X)
    dist = np.linalg.norm(P - x[None, :], axis=1)
    return dist / (1.0 - np.sqrt(np.sum(np.abs(P) ** 2, axis=1).real))


def boundary_dist_series_ball(P, X) -> np.ndarray:
    P, x, _ = _ball_projections(P, X)
    return np.linalg.norm(P - x[None, :], axis=1)


def radial_quotient_series_ball(P, X) -> np.ndarray:
    _, _, t = _ball_projections(P, X)
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
        if self.planar:
            z = self.point(p)
            return z.real if self.unbounded else 1.0 - (z.real * z.real + z.imag * z.imag)
        P = np.asarray(p, np.complex128).reshape(-1)
        x, w = (P[0].real, P[1:]) if self.unbounded else (1.0, P)
        return x - float(np.vdot(w, w).real)

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
        """The pseudo-hyperbolic distance of two points of the model."""
        if self.planar:
            return (pdist_halfplane if self.unbounded else pdist_disk)(p, q)
        return (pdist_siegel if self.unbounded else pdist_ball)(p, q)

    def step_series(self, pts) -> np.ndarray:
        """d(z_n, z_{n+1}) along an orbit of the model."""
        if self.planar:  # not yet computed as the N = 1 case of the ball/Siegel series
            return (step_series_halfplane if self.unbounded else step_series_disk)(pts)
        return (step_series_siegel if self.unbounded else step_series_ball)(pts)

    def gap_series(self, pts) -> np.ndarray:
        """1 - ||Z_n|| along an orbit of the model; planar orbits are the N = 1 case."""
        rows = np.reshape(pts, (len(pts), -1))
        return (boundary_gap_series_siegel if self.unbounded else boundary_gap_series_ball)(rows)


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
