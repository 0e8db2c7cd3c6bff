"""Numerical normalized-iterate conjugations in the half-plane.

Two normalizations are provided for parabolic self-maps of H with
Denjoy-Wolff point at infinity:

* ``pommerenke_normalized``       psi_n(z) = (f_n(z) - i y_n)/x_n, where
  z_n = x_n + i y_n is the basepoint orbit; in the limit psi o f = phi o psi
  with phi a vertical translation z + ib (the identity in the zero-step case).
* ``baker_pommerenke_normalized`` psi_n(z) = (f_n(z) - z_n)/(z_{n+1} - z_n),
  which in the zero-step case converges to a solution of the Abel equation
  psi(f(z)) = psi(z) + 1.

The theorems assert limits with no rate, so results carry the full residual
history over logarithmically spaced checkpoints rather than a single verdict.

The per-checkpoint residual is measured against the fitted complex increment
(grid mean of psi_n(f(g)) - psi_n(g)); at finite n the increment of an exact
closed-form conjugation can still carry a real O(1/n) part (e.g. f = z + 1
gives increment 1/(1+n)), and measuring deviation from the fitted increment
keeps such cases at machine-level residuals.  The reported b_estimate is the
imaginary part of the fitted increment at the largest checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps
from .dynamics import _PRECHECK_N, _require_parabolic, iterate, step_series
from .errors import DegenerateInputError, PreconditionError

__all__ = [
    "ConjugationResult",
    "default_grid",
    "DEFAULT_CHECKPOINTS",
    "pommerenke_normalized",
    "baker_pommerenke_normalized",
    "conjugation_report",
]

DEFAULT_CHECKPOINTS = (100, 1_000, 10_000, 100_000)
# a translation-group grid reaches each checkpoint c as the last row of a block of
# min(c, this many) steps, so that a point past an overflow turns NaN, as the per-step calls' does
_CHUNK = 256


def default_grid(nx: int = 5, ny: int = 5) -> np.ndarray:
    """5x5 lattice over the compact rectangle [1,3] x [-1,1] inside H."""
    xs = np.linspace(1.0, 3.0, nx)
    ys = np.linspace(-1.0, 1.0, ny)
    return (xs[None, :] + 1j * ys[:, None]).reshape(-1)


@dataclass(frozen=True)
class ConjugationResult:
    kind: str  # pommerenke | baker_pommerenke
    grid: np.ndarray
    psi_n: dict  # checkpoint -> complex array over the grid
    b_estimate: float | None
    increment_series: np.ndarray  # fitted complex increment per checkpoint
    residual_series: np.ndarray
    basepoint: complex
    checkpoints: tuple

    @property
    def deltas(self) -> np.ndarray:
        """sup-grid |psi_{n_{k+1}} - psi_{n_k}| between consecutive checkpoints."""
        cps = self.checkpoints
        return np.array(
            [
                float(np.max(np.abs(self.psi_n[cps[k + 1]] - self.psi_n[cps[k]])))
                for k in range(len(cps) - 1)
            ]
        )


def _precheck(spec, precheck_n: int) -> None:
    if spec.model != "halfplane":
        raise PreconditionError("conjugations are defined for half-plane maps")
    _require_parabolic(spec, precheck_n)


# an overflowing grid point turns inf, then NaN, silently, as in the block method
@np.errstate(over="ignore", invalid="ignore")
def _run_grid(spec, grid, basepoint, checkpoints):
    """Push grid + basepoint through the iterates, sampling at checkpoints.

    A translation-group map (``maps._block_fill``) writes the row at
    checkpoint n in closed form from the grid, as the last row of a block of
    up to ``_CHUNK`` steps; every other map is called once per step.  At each
    checkpoint n, f_{n+1} is one more call.

    Returns per-checkpoint tuples (f_n(grid), f_{n+1}(grid), z_n, z_{n+1}).
    """
    pts = np.concatenate((np.asarray(grid, np.complex128), [complex(basepoint)]))
    want = sorted(set(int(c) for c in checkpoints))
    if want[0] < 1:
        raise PreconditionError("checkpoints must be >= 1")
    fill = maps._block_fill(spec, pts)
    rows = None if fill is None else np.empty((_CHUNK, pts.size), np.complex128)
    samples = {}
    cur = pts
    n = 0
    for c in want:
        if fill is None:
            for _ in range(n, c):
                cur = spec(cur)
        else:
            m = min(_CHUNK, c)
            fill(c - m, rows[:m])
            cur = rows[m - 1].copy()
        n = c
        nxt = spec(cur)
        samples[n] = (cur[:-1].copy(), nxt[:-1].copy(), complex(cur[-1]), complex(nxt[-1]))
    return samples, tuple(want)


def _frame(kind: str, n: int, zn: complex, zn1: complex):
    """The (shift, scale) of psi_n at checkpoint n; a degenerate one raises."""
    if kind == "pommerenke":
        if zn.real <= 0.0:
            raise DegenerateInputError(f"Re f_{n}(basepoint) <= 0")
        return 1j * zn.imag, zn.real
    scale = zn1 - zn
    if scale == 0.0:
        raise DegenerateInputError(f"z_{n + 1} = z_{n}: degenerate normalization")
    return zn, scale


def _normalized(kind, spec, basepoint, grid, checkpoints, precheck_n) -> ConjugationResult:
    """psi_n(z) = (f_n(z) - shift)/scale at every checkpoint, as ``_frame`` sets them.

    The residual is sup |psi_n(f(g)) - psi_n(g) - increment| over the grid;
    Pommerenke's increment is fitted (the grid mean), Baker-Pommerenke's is 1.
    """
    _precheck(spec, precheck_n)
    if kind == "baker_pommerenke":
        verdict = step_series(iterate(spec, basepoint, precheck_n)).verdict
        if verdict != "zero_step":
            raise PreconditionError(
                f"basepoint orbit is {verdict}; the Abel normalization needs zero_step"
            )
    grid = default_grid() if grid is None else np.asarray(grid, np.complex128)
    samples, cps = _run_grid(spec, grid, basepoint, checkpoints)
    psi = {}
    increments = []
    residuals = []
    for n in cps:
        fn, fn1, zn, zn1 = samples[n]
        shift, scale = _frame(kind, n, zn, zn1)
        p = (fn - shift) / scale
        diff = (fn1 - shift) / scale - p
        inc = complex(diff.mean()) if kind == "pommerenke" else 1.0
        psi[n] = p
        increments.append(inc)
        residuals.append(float(np.max(np.abs(diff - inc))))
    return ConjugationResult(
        kind,
        grid,
        psi,
        float(increments[-1].imag) if kind == "pommerenke" else None,
        np.array(increments, np.complex128),
        np.array(residuals),
        complex(basepoint),
        cps,
    )


def pommerenke_normalized(
    spec,
    basepoint: complex = 1.0 + 0.0j,
    grid: np.ndarray | None = None,
    checkpoints=DEFAULT_CHECKPOINTS,
    precheck_n: int = _PRECHECK_N,
) -> ConjugationResult:
    """psi_n(z) = (f_n(z) - i y_n)/x_n with z_n = f_n(basepoint)."""
    return _normalized("pommerenke", spec, basepoint, grid, checkpoints, precheck_n)


def baker_pommerenke_normalized(
    spec,
    basepoint: complex = 1.0 + 0.0j,
    grid: np.ndarray | None = None,
    checkpoints=DEFAULT_CHECKPOINTS,
    precheck_n: int = _PRECHECK_N,
) -> ConjugationResult:
    """psi_n(z) = (f_n(z) - z_n)/(z_{n+1} - z_n); Abel residual |psi(f) - psi - 1|."""
    return _normalized("baker_pommerenke", spec, basepoint, grid, checkpoints, precheck_n)


def conjugation_report(result: ConjugationResult) -> str:
    """Checkpoint table: residuals, fitted increments and grid-convergence deltas."""
    lines = [f"kind: {result.kind}", f"basepoint: {result.basepoint}"]
    if result.b_estimate is not None:
        lines.append(f"b_estimate: {result.b_estimate:.12g}")
    lines.append(f"{'n':>10}  {'residual':>14}  {'increment':>28}")
    for k, n in enumerate(result.checkpoints):
        inc = complex(result.increment_series[k])
        lines.append(f"{n:>10}  {result.residual_series[k]:>14.6e}  {inc!r:>28}")
    deltas = result.deltas
    for k in range(deltas.size):
        n1, n2 = result.checkpoints[k], result.checkpoints[k + 1]
        lines.append(f"sup |psi_{n2} - psi_{n1}| = {deltas[k]:.6e}")
    return "\n".join(lines)
