"""Orbit computation, step analysis, Denjoy-Wolff estimation, classification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, maps
from .errors import (
    DomainError,
    EstimationError,
    EvaluationError,
    PreconditionError,
)
from .geometry import BoundaryPoint

__all__ = [
    "Budgets",
    "StoppingPolicy",
    "Orbit",
    "StepSeries",
    "ClassificationReport",
    "iterate",
    "iterate_batch",
    "step_series",
    "estimate_denjoy_wolff",
    "estimate_multiplier",
    "classify",
    "default_starts",
]


@dataclass(frozen=True)
class Budgets:
    n_max: int = 100_000
    tail_fraction: float = 0.1
    tol_c: float = 1e-3
    # starts with different w-components approach a common Siegel limit only
    # like 1/n, so the agreement tolerance cannot be much below 1e-4 at n ~ 1e4
    tol_dw: float = 1e-4
    tol_step: float = 1e-3


@dataclass(frozen=True)
class StoppingPolicy:
    # beyond this Siegel/half-plane magnitude, doubles lose the digits we need
    max_magnitude: float = 1e12
    # disk/ball orbits stop this close to the boundary
    boundary_gap: float = 1e-12
    fixed_point_tol: float = 1e-14


@dataclass(frozen=True)
class Orbit:
    spec: object
    model: str
    start: object
    points: np.ndarray  # (n,) complex for planar models, (n, N) for ball/siegel
    stop_reason: str  # max_iter | boundary_proximity | interior_fixed_point | numeric_failure

    @property
    def length(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class StepSeries:
    s: np.ndarray
    d_inf_estimate: float
    verdict: str  # zero_step | nonzero_step | inconclusive
    evidence: dict


@dataclass(frozen=True)
class ClassificationReport:
    dw_point: object  # interior point (complex / ndarray) or BoundaryPoint
    dw_location: str  # interior | boundary
    multiplier_c: float
    type: str  # elliptic | hyperbolic | parabolic | inconclusive
    notes: tuple = ()


def default_starts(model: str):
    if model == "disk":
        return [0.0 + 0.0j, 0.3 + 0.2j, -0.4 + 0.1j]
    if model == "halfplane":
        return [1.0 + 0.0j, 2.0 + 1.0j, 0.5 - 0.5j]
    if model == "ball":
        return [
            np.array([0.0, 0.0], np.complex128),
            np.array([0.2 + 0.1j, 0.3], np.complex128),
            np.array([-0.3, 0.1 - 0.2j], np.complex128),
        ]
    if model == "siegel":
        # small w-components: translation orbits shed their w only like 1/n,
        # so widely split starts would stall the Denjoy-Wolff agreement check
        return [
            np.array([1.0, 0.0], np.complex128),
            np.array([2.0 + 1.0j, 0.1], np.complex128),
            np.array([1.5 - 0.5j, -0.1j], np.complex128),
        ]
    raise DomainError(f"unknown model {model!r}")


def _fit_starts(spec, starts):
    """N = 2 ball/Siegel starts, cut or padded with zeros to the N that spec fixes."""
    n = maps.fixed_dim(spec)
    if n is None:
        return starts
    return [np.pad(s[:n], (0, n - s[:n].size)) for s in starts]


# ---------------------------------------------------------------------------
# iteration

# the stopping checks of an orbit run once per block of this many steps,
# vectorized over the block, instead of once per step; this serves all four
# models, the planar ones as the N = 1 case
_BLOCK = 256
# the fixed-point test is only a stopping shortcut, made every this many steps
_FP_STRIDE = {"disk": 1, "halfplane": 1, "ball": 16, "siegel": 16}
# the block screen widens every threshold by this relative slack, so that its
# vectorized rounding can only add candidate steps for the exact per-step
# check, never hide a step where that check stops.  Two orders of summing the
# 2N squares of a point differ by about 4N ulps, far below it for N < 1000;
# a wider slack would flag every late step of a Heisenberg orbit, whose
# Re z and ||w||^2 both grow like n^2 while their difference stays fixed
_SLACK = 1e-12


def iterate(spec, start, n_max: int, policy: StoppingPolicy | None = None) -> Orbit:
    """Forward orbit z_0, f(z_0), f_2(z_0), ... with at most n_max steps.

    One engine serves all four models.  The map steps the point through a
    whole block first; a vectorized screen then flags every step of the block
    that might stop, and only those steps go through the per-step rule of
    ``_check_step``.  The orbit is the one a per-step check would give, and
    its points are a view of the buffer.

    A map with a block method (Siegel and Heisenberg translations and their
    compositions, see :mod:`diskdyn.maps`) fills the whole block in one call,
    as running sums that equal its step-by-step points bit for bit; every
    other map is called once per step.
    """
    policy = policy or StoppingPolicy()
    model = spec.model
    fill = getattr(spec, "_block", None)
    # a planar point stays a number, so the map keeps its own arithmetic
    cur = complex(start) if model in maps.PLANAR else np.array(start, np.complex128).reshape(-1)
    if maps.domain_margin(model, cur) <= 0.0:
        raise DomainError(f"start lies outside the {model} domain")
    buf = np.empty((n_max + 1,) + np.shape(cur), np.complex128)
    rows = buf.reshape(n_max + 1, -1)  # planar points are the N = 1 case
    buf[0] = cur
    t = 0
    while t < n_max:
        end = min(t + _BLOCK, n_max)
        exc = None
        if fill is not None:
            fill(buf[t], buf[t + 1 : end + 1])
        else:
            for j in range(t + 1, end + 1):
                try:
                    cur = spec(cur)
                    buf[j] = cur
                except Exception as err:  # raised only if no earlier step stops
                    exc, end = err, j - 1
                    break
        block = rows[t : end + 1]
        for i in np.flatnonzero(~_screen(model, policy, block, t)).tolist():
            reason, kept = _check_step(model, policy, block[i + 1], block[i], t + i)
            if reason is not None:
                return Orbit(spec, model, start, buf[: t + i + 1 + kept], reason)
        if exc is not None:
            raise exc
        t = end
    return Orbit(spec, model, start, buf, "max_iter")


def iterate_batch(spec, starts, n_max: int, policy: StoppingPolicy | None = None) -> list:
    """Forward orbits of several starts, one ``iterate`` Orbit per start, in order.

    The first start whose orbit fails raises, as a loop over ``iterate`` would.
    """
    return [iterate(spec, s, n_max, policy) for s in starts]


def _screen(model: str, policy: StoppingPolicy, pts, t: int):
    """(m,) mask of the steps of pts that certainly pass _check_step.

    pts is (m + 1, N) and its point i is point t + i of the orbit.
    """
    nxt, cur = pts[1:], pts[:-1]
    if model in ("halfplane", "siegel"):
        x, w = nxt[..., 0].real, nxt[..., 1:]
    else:
        x, w = 1.0, nxt
    q = (w.real**2 + w.imag**2).sum(axis=-1)
    margin = x - q
    slack = _SLACK * (np.abs(x) + q)
    clear = margin > slack
    if model in ("disk", "ball"):
        clear &= margin >= policy.boundary_gap + slack
    else:
        clear &= np.abs(nxt[..., 0]) <= policy.max_magnitude * (1.0 - _SLACK)
    stride = _FP_STRIDE[model]
    first = -t % stride
    disp = np.abs(nxt[first::stride] - cur[first::stride]).max(axis=-1)
    clear[first::stride] &= disp >= policy.fixed_point_tol * (1.0 + _SLACK)
    return clear


def _check_step(model: str, policy: StoppingPolicy, nxt, cur, k: int):
    """The stopping rule for step k, from the (N,) point cur to nxt.

    Returns (stop reason or None, whether nxt belongs to the orbit); raises
    EvaluationError when nxt left the domain.  Planar points (N = 1) are
    checked in scalar arithmetic: numpy's array abs, for one, can differ from
    the scalar abs in the last bit.
    """
    if model == "disk":
        z = nxt[0]
        margin = 1.0 - (z.real * z.real + z.imag * z.imag)
    elif model == "ball":
        margin = 1.0 - float(np.vdot(nxt, nxt).real)
    else:  # Siegel, and the half-plane as its N = 1 case with an empty w
        w = nxt[1:]
        margin = nxt[0].real - float(np.vdot(w, w).real)
    if not margin > 0.0:
        if margin != margin:  # NaN
            return "numeric_failure", False
        raise EvaluationError(
            f"orbit left the {model} domain at step {k + 1}",
            index=k + 1,
            margin=float(margin),
        )
    if model in ("disk", "ball"):
        if margin < policy.boundary_gap:  # margin is 1 - ||.||^2 here
            return "boundary_proximity", True
    elif abs(nxt[0]) > policy.max_magnitude:
        return "boundary_proximity", True
    if k % _FP_STRIDE[model] == 0:
        d = nxt - cur
        disp = abs(d[0]) if model in maps.PLANAR else float(np.abs(d).max())
        if disp < policy.fixed_point_tol:
            return "interior_fixed_point", True
    return None, True


_STEP_FN = {
    "disk": geometry.step_series_disk,
    "halfplane": geometry.step_series_halfplane,
    "ball": geometry.step_series_ball,
    "siegel": geometry.step_series_siegel,
}

_GAP_FN = {
    "disk": geometry.boundary_gap_series_disk,
    "halfplane": geometry.boundary_gap_series_halfplane,
    "ball": geometry.boundary_gap_series_ball,
    "siegel": geometry.boundary_gap_series_siegel,
}


def step_series(orbit: Orbit, tail_fraction: float = 0.1, tol_step: float = 1e-3) -> StepSeries:
    """s_n = d(z_n, z_{n+1}) with a finite-sample zero-step verdict.

    zero_step:    tail mean < tol_step and the series lost at least half its
                  mean between the first and second halves;
    nonzero_step: tail mean > 10 tol_step and the two halves agree to 1%.
    Anything else is inconclusive.
    """
    if orbit.length < 2:
        raise PreconditionError("orbit too short for a step series")
    s = _STEP_FN[orbit.model](orbit.points)
    n = s.size
    tail = s[-max(1, int(round(n * tail_fraction))):]
    d_inf = float(tail.mean())
    half1 = float(s[: n // 2].mean()) if n >= 2 else float(s.mean())
    half2 = float(s[n // 2 :].mean())
    decrease = 1.0 - half2 / half1 if half1 > 0.0 else 1.0
    if d_inf < tol_step and (half1 == 0.0 or half2 <= 0.5 * half1):
        verdict = "zero_step"
    elif d_inf > 10.0 * tol_step and half1 > 0.0 and abs(half2 - half1) <= 1e-2 * half1:
        verdict = "nonzero_step"
    else:
        verdict = "inconclusive"
    evidence = {"tail_window": int(tail.size), "decrease_rate": float(decrease)}
    return StepSeries(s, d_inf, verdict, evidence)


# ---------------------------------------------------------------------------
# Denjoy-Wolff point and multiplier


def _closure_coords(model: str, pt):
    """Represent a point (or its limit) in disk/ball closure coordinates."""
    if model in maps.PLANAR:
        pt = complex(pt)
    if model in ("halfplane", "siegel"):
        pt = geometry.siegel_to_ball_array(pt)
    return np.asarray(pt, np.complex128).reshape(-1)


def estimate_denjoy_wolff(spec, starts, n_max: int = 100_000, tol_dw: float = 1e-6):
    """Common orbit limit across starts, as (point, 'interior'|'boundary').

    The point is returned in disk/ball closure coordinates (length-N complex
    array).  Raises EstimationError when the starts disagree.
    """
    if len(starts) < 2:
        raise PreconditionError("need at least 2 distinct starts")
    return _common_limit(spec.model, iterate_batch(spec, starts, n_max), tol_dw)


def _common_limit(model: str, orbits, tol_dw: float):
    """estimate_denjoy_wolff from orbits already computed."""
    finals = np.array([_closure_coords(model, orb.points[-1]) for orb in orbits])
    interior_hits = sum(orb.stop_reason == "interior_fixed_point" for orb in orbits)
    spread = max(
        float(np.linalg.norm(finals[i] - finals[j]))
        for i in range(len(finals))
        for j in range(i + 1, len(finals))
    )
    if spread > tol_dw:
        raise EstimationError(
            f"orbit limits disagree by {spread:.3g} (> tol_dw); "
            "elliptic-automorphism-like map or n_max too small"
        )
    p = finals.mean(axis=0)
    nrm = float(np.linalg.norm(p))
    if interior_hits == len(orbits) and nrm < 1.0 - tol_dw:
        return p, "interior"
    return p, "boundary"


@dataclass(frozen=True)
class MultiplierEstimate:
    value: float
    raw: float
    clipped: bool


def estimate_multiplier(spec, orbit: Orbit, tail_fraction: float = 0.1) -> MultiplierEstimate:
    """liminf of (1 - ||f(Z_n)||)/(1 - ||Z_n||) via a running tail minimum."""
    if orbit.stop_reason == "interior_fixed_point":
        raise PreconditionError("multiplier is defined for boundary Denjoy-Wolff points")
    gaps = _GAP_FN[orbit.model](orbit.points)
    good = gaps > 0.0
    if not np.all(good):
        last = int(np.argmin(good))
        gaps = gaps[:last]
    if gaps.size < 3:
        raise PreconditionError("orbit too short for a multiplier estimate")
    ratios = gaps[1:] / gaps[:-1]
    tail = ratios[-max(1, int(round(ratios.size * tail_fraction))):]
    raw = float(tail.min())
    return MultiplierEstimate(min(raw, 1.0), raw, raw > 1.0)


def _midpoint_fixed_point(spec, start, n_max: int = 20_000, tol: float = 1e-13):
    """Damped iteration p <- midpoint(p, f(p)); attracts elliptic fixed points."""
    planar = spec.model in maps.PLANAR
    cur = complex(start) if planar else np.array(start, np.complex128).reshape(-1)
    for _ in range(n_max):
        try:
            nxt = spec(cur)
        except (ZeroDivisionError, FloatingPointError):
            return None
        mid = (cur + nxt) / 2.0
        disp = abs(mid - cur) if planar else float(np.linalg.norm(mid - cur))
        cur = mid
        if disp < tol:
            if maps.domain_margin(spec.model, cur) > 0.0:
                return cur
            return None
    return None


def _contraction_probe(spec, p, delta: float = 1e-5) -> float:
    """Local pseudo-hyperbolic contraction factor at an interior fixed point."""
    dist = getattr(geometry, "pdist_" + spec.model)
    worst = 0.0
    for k in range(4):
        if spec.model in maps.PLANAR:
            q = p + delta * np.exp(1j * np.pi * k / 2.0)
        else:
            q = np.array(p, np.complex128)
            q[k % q.size] += delta * (1.0 if k < 2 else 1j)
        if maps.domain_margin(spec.model, q) <= 0.0:
            continue
        d0 = dist(p, q)
        if d0 == 0.0:
            continue
        worst = max(worst, dist(spec(p), spec(q)) / d0)
    return worst if worst > 0.0 else 1.0


def _native_boundary_point(model: str, p: np.ndarray):
    """Express a disk/ball closure limit as the model's boundary object."""
    if model in ("halfplane", "siegel"):
        # all built-in half-plane/Siegel families are normalized to infinity
        if abs(p[0] - 1.0) < 1e-3:
            return BoundaryPoint.infinity()
    nrm = float(np.linalg.norm(p))
    if nrm == 0.0:
        return BoundaryPoint.e1(p.size)
    return BoundaryPoint(p / nrm)


def classify(spec, starts=None, budgets: Budgets | None = None) -> ClassificationReport:
    """Elliptic / hyperbolic / parabolic verdict from orbit behavior."""
    budgets = budgets or Budgets()
    defaults = _fit_starts(spec, default_starts(spec.model))
    starts = list(starts) if starts is not None else defaults
    if len(starts) < 2:
        for extra in defaults:
            if all(np.any(extra != np.asarray(s)) for s in starts):
                starts.append(extra)
    notes = []
    # one orbit per start serves both the Denjoy-Wolff point and the multiplier
    orbits = iterate_batch(spec, starts, budgets.n_max)
    try:
        p, location = _common_limit(spec.model, orbits, budgets.tol_dw)
    except EstimationError as exc:
        notes.append(str(exc))
        fp = _midpoint_fixed_point(spec, starts[0])
        if fp is None:
            return ClassificationReport(None, "boundary", float("nan"), "inconclusive", tuple(notes))
        c = _contraction_probe(spec, fp)
        notes.append("fixed point located by damped (midpoint) iteration")
        return ClassificationReport(fp, "interior", min(c, 1.0), "elliptic", tuple(notes))

    if location == "interior":
        native = p[0] if spec.model in maps.PLANAR else p
        if spec.model in ("halfplane", "siegel"):
            native = geometry.ball_to_siegel_array(native)
        c = _contraction_probe(spec, native)
        return ClassificationReport(native, "interior", min(c, 1.0), "elliptic", tuple(notes))

    values = []
    for orb in orbits:
        est = estimate_multiplier(spec, orb, budgets.tail_fraction)
        if est.clipped:
            notes.append(f"multiplier estimate {est.raw:.6g} clipped to 1")
        values.append(est.value)
    c = float(np.mean(values))
    if c < 1.0 - budgets.tol_c:
        kind = "hyperbolic"
    elif abs(c - 1.0) <= budgets.tol_c:
        kind = "parabolic"
    else:
        kind = "inconclusive"
        notes.append(f"multiplier {c!r} outside both verdict bands")
    return ClassificationReport(
        _native_boundary_point(spec.model, p), "boundary", c, kind, tuple(notes)
    )
