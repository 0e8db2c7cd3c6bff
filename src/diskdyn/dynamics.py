"""Orbit computation, step analysis, Denjoy-Wolff estimation, classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import maps
from .errors import (
    DomainError,
    EstimationError,
    EvaluationError,
    PreconditionError,
)
from .geometry import MODELS, BoundaryPoint, Model, _margin, _norm2, _rows

__all__ = [
    "Budgets",
    "StoppingPolicy",
    "Orbit",
    "StepSeries",
    "ClassificationReport",
    "iterate",
    "step_series",
    "estimate_denjoy_wolff",
    "estimate_multiplier",
    "classify",
    "default_starts",
]


@dataclass(frozen=True)
class Budgets:
    """The orbit budget and every verdict threshold that a caller can set.

    n_max: orbit length.  tail_fraction: step_series, estimate_multiplier.
    tol_c: classify's type.  tol_dw: classify, estimate_denjoy_wolff.
    tol_step: step_series.  tol_ratio, m_cap: approach_report's flags.
    """

    n_max: int = 100_000
    tail_fraction: float = 0.1
    tol_c: float = 1e-3
    # starts with different w-components approach a common Siegel limit only
    # like 1/n, so the agreement tolerance cannot be much below 1e-4 at n ~ 1e4
    tol_dw: float = 1e-4
    tol_step: float = 1e-3
    tol_ratio: float = 1e-2
    m_cap: float = 1e3


# the classify budget of the parabolic prechecks of conjugations, probes and harness specs
_PRECHECK_N = 20_000


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
    m = MODELS[model]
    return [m.point(s) for s in m.starts]


def _distinct(starts) -> int:
    """How many of starts differ in value: equal points (np.array_equal) count once."""
    return sum(not any(np.array_equal(s, t) for t in starts[:i]) for i, s in enumerate(starts))


def _fit_starts(spec, starts, like=None):
    """N = 2 ball/Siegel starts, cut or padded with zeros to the N spec fixes, else like's N."""
    n = maps.fixed_dim(spec) or (None if like is None else np.size(like))
    if n is None or MODELS[spec.model].planar:
        return starts
    return [np.pad(s[:n], (0, n - s[:n].size)) for s in starts]


# ---------------------------------------------------------------------------
# iteration

# the stopping rule runs once per block, vectorized over the block, instead
# of once per step; this serves all four models, the planar ones as the N = 1
# case.  The first block has _BLOCK steps and each later one twice as many, up
# to _BLOCK_CAP: a long orbit pays for few rule runs and block fills, while an
# orbit that stops early computes no more past its stop than the steps it had
# run, plus _BLOCK
_BLOCK = 256
_BLOCK_CAP = 16_384
# the fixed-point test is only a stopping shortcut, made every this many
# ball/Siegel steps; planar orbits make it at every step
_FP_STRIDE = 16


def _blocks(n_max: int):
    """(t, end) of each block of an n_max-step orbit: its steps are t + 1 .. end."""
    t, size = 0, _BLOCK
    while t < n_max:
        end = min(t + size, n_max)
        yield t, end
        t, size = end, min(2 * size, _BLOCK_CAP)


def iterate(spec, start, n_max: int, policy: StoppingPolicy | None = None) -> Orbit:
    """Forward orbit z_0, f(z_0), f_2(z_0), ... with at most n_max steps.

    One engine serves all four models.  The map steps the point through a
    whole block first; ``_first_stop`` then finds the block's first step that
    stops the orbit, in the arithmetic of a per-step check, so the orbit is
    the one such a check would give.  Its points are a view of the buffer.
    Blocks grow from 256 steps, doubling up to 16,384 (``_blocks``), so an
    orbit that stops after k steps computes at most max(256, 2k) + 256.

    A translation-group map (``maps._block_fill``) writes each block in closed form, and
    where ``maps._stop_free`` proves that no step stops the orbit, no block is screened.
    Other maps are called once a step by ``spec.__call__``, bound once, a block's points stored
    together, so a map must not change its point; a non-finite start raises DomainError.
    """
    policy = policy or StoppingPolicy()
    model = MODELS[spec.model]
    # a planar point stays a number, so the map keeps its own arithmetic
    cur = model.point(start)
    if not model.contains(cur):
        raise DomainError(f"start lies outside the {spec.model} domain")
    fill = maps._block_fill(spec, cur)
    proven = fill is not None and maps._stop_free(n_max, policy, **fill.keywords)
    call = spec.__call__  # bound once: the class's __call__, as spec(cur) would call
    buf = np.empty((n_max + 1,) + np.shape(cur), np.complex128)
    rows = buf.reshape(n_max + 1, -1)  # planar points are the N = 1 case
    buf[0] = cur
    for t, end in _blocks(n_max):
        exc = None
        if fill is not None:
            fill(t, buf[t + 1 : end + 1])
        else:
            pts = []
            try:
                for _ in range(t, end):
                    cur = call(cur)
                    pts.append(cur)
            except Exception as err:  # raised only if no earlier step stops
                exc, end = err, t + len(pts)
            try:
                buf[t + 1 : end + 1] = pts
            except Exception:  # a point that is not a number: find the first one
                for j, p in enumerate(pts, t + 1):
                    try:
                        buf[j] = p
                    except Exception as err:  # raised only if no earlier step stops
                        exc, end = err, j - 1
                        break
        stop = None if proven else _first_stop(model, policy, rows[t : end + 1], t)
        if stop is not None:
            return Orbit(spec, spec.model, start, buf[: stop[0]], stop[1])
        if exc is not None:
            raise exc
    return Orbit(spec, spec.model, start, buf, "max_iter")


# past an overflow an orbit can hold inf, and inf - inf is NaN: a NaN margin is
# a numeric failure and a NaN displacement no fixed point, as they should be;
# the decorator keeps numpy from warning about them
@np.errstate(invalid="ignore")
def _first_stop(model: Model, policy: StoppingPolicy, pts, t: int):
    """(orbit length, stop reason) at the first step of pts that stops, or None.

    pts is (m + 1, N) and its point i is point t + i of the orbit.  Within a
    step the tests run in this order: a NaN margin is a numeric failure that
    drops the point, a margin <= 0 raises EvaluationError, then come the
    boundary and the fixed-point tests.  |z| and the planar displacement are
    np.hypot of re and im, which rounds as the scalar abs does; numpy's array
    abs can differ from it in the last bit.
    """
    nxt, cur = pts[1:], pts[:-1]
    if model.unbounded:
        margin = _margin(nxt[:, 0].real, nxt[:, 1:])
        edge = np.hypot(nxt[:, 0].real, nxt[:, 0].imag) > policy.max_magnitude
    else:
        margin = _margin(1.0, nxt)
        edge = margin < policy.boundary_gap  # margin is 1 - ||.||^2 here
    stop = ~(margin > 0.0) | edge
    stride = 1 if model.planar else _FP_STRIDE
    first = -t % stride
    d = nxt[first::stride] - cur[first::stride]
    disp = np.hypot(d.real, d.imag) if model.planar else np.abs(d)
    stop[first::stride] |= disp.max(axis=-1) < policy.fixed_point_tol
    if not stop.any():  # pts can hold one point, when the map raised at step t + 1
        return None
    i = int(stop.argmax())
    k = t + i + 1  # the point step i reached
    if margin[i] != margin[i]:  # NaN
        return k, "numeric_failure"
    if not margin[i] > 0.0:
        raise EvaluationError(
            f"orbit left the {model.name} domain at step {k}", index=k, margin=float(margin[i])
        )
    return k + 1, "boundary_proximity" if edge[i] else "interior_fixed_point"


def step_series(orbit: Orbit, budgets: Budgets | None = None) -> StepSeries:
    """s_n = d(z_n, z_{n+1}) with a finite-sample zero-step verdict.

    With the tail the last budgets.tail_fraction of s and tol_step from budgets:
    zero_step:    tail mean < tol_step and the series lost at least half its
                  mean between the first and second halves;
    nonzero_step: tail mean > 10 tol_step and the two halves agree to 1%.
    Anything else is inconclusive.  An orbit of a translation-group map T(a, beta) takes
    s_n in closed form from (a, beta) (``_group_steps``).
    """
    budgets = budgets or Budgets()
    if orbit.length < 2:
        raise PreconditionError("orbit too short for a step series")
    g = maps._group_element(orbit.spec)
    s = MODELS[orbit.model].step_series(orbit.points) if g is None else _group_steps(*g, orbit.points)
    n = s.size
    tail = s[-max(1, int(round(n * budgets.tail_fraction))):]
    d_inf = float(tail.mean())
    half1 = float(s[: n // 2].mean()) if n >= 2 else float(s.mean())
    half2 = float(s[n // 2 :].mean())
    decrease = 1.0 - half2 / half1 if half1 > 0.0 else 1.0
    if d_inf < budgets.tol_step and (half1 == 0.0 or half2 <= 0.5 * half1):
        verdict = "zero_step"
    elif d_inf > 10.0 * budgets.tol_step and half1 > 0.0 and abs(half2 - half1) <= 1e-2 * half1:
        verdict = "nonzero_step"
    else:
        verdict = "inconclusive"
    evidence = {"tail_window": int(tail.size), "decrease_rate": float(decrease)}
    return StepSeries(s, d_inf, verdict, evidence)


def _group_steps(a, beta, points) -> np.ndarray:
    """s_n = hypot(|u|, 2 sqrt(A_n) ||a||) / |2 A_n + u| along an orbit of T(a, beta), with the
    constant u = ||a||^2 + beta + 4i Im<w_0, a> and A_n = A_0 + n Re beta; where a = 0, u is beta
    and A_n is read from the stored z, Re z_n - ||w_0||^2, as the stored-point formula reads it.
    """
    P = _rows(points)
    w0 = P[:1, 1:]
    if a is None:  # |beta| by the array abs, as the stored-point formula takes |dz|
        return np.abs([beta]) / np.abs(2.0 * _margin(P[:-1, 0].real, w0) + beta)
    margin = np.arange(len(P) - 1.0) * beta.real + _margin(P[0, 0].real, w0)
    a2 = _norm2(a[None])[0]
    u = complex(a2 + beta.real, beta.imag + 4.0 * maps._inner(w0[0], a)[1])
    return np.hypot(abs(u), 2.0 * np.sqrt(margin) * np.sqrt(a2)) / np.abs(2.0 * margin + u)


# ---------------------------------------------------------------------------
# Denjoy-Wolff point and multiplier


def estimate_denjoy_wolff(spec, starts, budgets: Budgets | None = None):
    """Common orbit limit across starts, as (point, 'interior'|'boundary').

    The point is returned in disk/ball closure coordinates (length-N complex
    array).  Raises EstimationError when the starts disagree by more than tol_dw.
    """
    budgets = budgets or Budgets()
    if _distinct(starts) < 2:
        raise PreconditionError("need at least 2 distinct starts")
    orbits = [iterate(spec, s, budgets.n_max) for s in starts]
    return _common_limit(MODELS[spec.model], orbits, budgets.tol_dw)


def _common_limit(model: Model, orbits, tol_dw: float):
    """estimate_denjoy_wolff from orbits already computed."""
    # the last points in disk/ball closure coordinates
    finals = np.array([np.atleast_1d(model.to_ball(model.point(orb.points[-1])))
                       for orb in orbits])
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


def estimate_multiplier(orbit: Orbit, budgets: Budgets | None = None) -> float:
    """liminf of (1 - ||f(Z_n)||)/(1 - ||Z_n||), as the minimum of the ratios' tail, unclipped."""
    budgets = budgets or Budgets()
    if orbit.stop_reason == "interior_fixed_point":
        raise PreconditionError("multiplier is defined for boundary Denjoy-Wolff points")
    gaps = MODELS[orbit.model].gap_series(orbit.points)
    good = gaps > 0.0
    if not np.all(good):
        last = int(np.argmin(good))
        gaps = gaps[:last]
    if gaps.size < 3:
        raise PreconditionError("orbit too short for a multiplier estimate")
    ratios = gaps[1:] / gaps[:-1]
    tail = ratios[-max(1, int(round(ratios.size * budgets.tail_fraction))):]
    return float(tail.min())


def _midpoint_fixed_point(spec, start, n_max: int = 20_000, tol: float = 1e-13):
    """Damped iteration p <- midpoint(p, f(p)); attracts elliptic fixed points."""
    model = MODELS[spec.model]
    cur = model.point(start)
    for _ in range(n_max):
        try:
            nxt = spec(cur)
        except (ZeroDivisionError, FloatingPointError):
            return None
        mid = (cur + nxt) / 2.0
        disp = abs(mid - cur) if model.planar else float(np.linalg.norm(mid - cur))
        cur = mid
        if disp < tol:
            if model.margin(cur) > 0.0:
                return cur
            return None
    return None


def _contraction_probe(spec, p, delta: float = 1e-5) -> float:
    """Local pseudo-hyperbolic contraction factor at an interior fixed point."""
    model = MODELS[spec.model]
    worst = 0.0
    for k in range(4):
        if model.planar:
            q = p + delta * np.exp(1j * np.pi * k / 2.0)
        else:
            q = np.array(p, np.complex128)
            q[k % q.size] += delta * (1.0 if k < 2 else 1j)
        if model.margin(q) <= 0.0:
            continue
        d0 = model.pdist(p, q)
        if d0 == 0.0:
            continue
        worst = max(worst, model.pdist(spec(p), spec(q)) / d0)
    return worst if worst > 0.0 else 1.0


def _native_boundary_point(model: Model, p: np.ndarray):
    """Express a disk/ball closure limit as the model's boundary object."""
    if model.unbounded:
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
    starts = list(starts) if starts is not None else []
    defaults = _fit_starts(spec, default_starts(spec.model), starts[0] if starts else None)
    if _distinct(starts) < 2:
        starts += [d for d in defaults if not any(np.array_equal(d, s) for s in starts)]
    # one orbit per start serves both the Denjoy-Wolff point and the multiplier
    return _classify(spec, starts, [iterate(spec, s, budgets.n_max) for s in starts], budgets)


def _classify(spec, starts, orbits, budgets: Budgets) -> ClassificationReport:
    """classify from the orbits of its starts, budgets.n_max steps each."""
    model = MODELS[spec.model]
    notes = []
    try:
        p, location = _common_limit(model, orbits, budgets.tol_dw)
    except EstimationError as exc:
        notes.append(str(exc))
        fp = _midpoint_fixed_point(spec, starts[0])
        if fp is None:
            return ClassificationReport(None, "boundary", float("nan"), "inconclusive", tuple(notes))
        c = _contraction_probe(spec, fp)
        notes.append("fixed point located by damped (midpoint) iteration")
        return ClassificationReport(fp, "interior", min(c, 1.0), "elliptic", tuple(notes))

    if location == "interior":
        native = model.from_ball(p[0] if model.planar else p)
        c = _contraction_probe(spec, native)
        return ClassificationReport(native, "interior", min(c, 1.0), "elliptic", tuple(notes))

    values = []
    for orb in orbits:
        raw = estimate_multiplier(orb, budgets)
        if raw > 1.0:
            notes.append(f"multiplier estimate {raw:.6g} clipped to 1")
        values.append(min(raw, 1.0))
    c = float(np.mean(values))
    if c < 1.0 - budgets.tol_c:
        kind = "hyperbolic"
    elif abs(c - 1.0) <= budgets.tol_c:
        kind = "parabolic"
    else:
        kind = "inconclusive"
        notes.append(f"multiplier {c!r} outside both verdict bands")
    return ClassificationReport(_native_boundary_point(model, p), "boundary", c, kind, tuple(notes))


def _require_parabolic(spec, n_max: int, budgets: Budgets | None = None, orbits=None):
    """Raise PreconditionError unless classify, in n_max steps of budgets, calls spec parabolic;
    given orbits of spec, return the default starts' orbits, read from them where one serves."""
    budgets = replace(budgets or Budgets(), n_max=n_max)
    starts = _fit_starts(spec, default_starts(spec.model))
    own = None if orbits is None else [_orbit_from(orbits, spec, s, n_max) for s in starts]
    rep = classify(spec, budgets=budgets) if own is None else _classify(spec, starts, own, budgets)
    if rep.type != "parabolic":
        raise PreconditionError(f"map classifies as {rep.type}, need parabolic")
    return own


def _orbit_from(orbits, spec, start, n_max: int) -> Orbit:
    """iterate(spec, start, n_max), copied from the first of orbits from the same point that ran
    n_max steps or stopped before: a shorter orbit's steps and stop tests are a longer one's."""
    key = lambda s: np.asarray(MODELS[spec.model].point(s)).tobytes()  # noqa: E731
    for orb in (o for o in orbits if key(o.start) == key(start)):
        stop = orb.length - (orb.stop_reason != "numeric_failure")  # the step that stopped it
        done = orb.stop_reason != "max_iter" and stop <= n_max
        if done or orb.length > n_max:
            reason = orb.stop_reason if done else "max_iter"
            return replace(orb, points=orb.points[: n_max + 1].copy(), stop_reason=reason)
    return iterate(spec, start, n_max)
