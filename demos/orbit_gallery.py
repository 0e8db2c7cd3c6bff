"""Side-by-side orbit gallery: tangential vs radial convergence.

Iterates two parabolic translations of the right half-plane from the same
start and renders both orbits in disk coordinates:

* z -> z + i   keeps a constant pseudo-hyperbolic step and slides into the
  boundary point tangentially (the angle of 1 - z_n tends to -pi/2);
* z -> z + 1   loses its step (s_n = 1/(2n+3)) and approaches radially.

Writes tangential.svg and radial.svg next to this script.
"""

import os

import numpy as np

from diskdyn import dynamics, maps, plotting
from diskdyn.geometry import approach_series_siegel

HERE = os.path.dirname(os.path.abspath(__file__))


def describe(name, spec, n=2000):
    orbit = dynamics.iterate(spec, 1.0, n)
    st = dynamics.step_series(orbit)
    angles = approach_series_siegel(orbit.points)[3]
    print(f"{name}: verdict={st.verdict}  d_inf~{st.d_inf_estimate:.6f}  "
          f"final angle of 1-z_n = {angles[-1]:+.4f} rad")
    svg = plotting.render_orbit_svg(
        plotting.orbit_disk_coords(orbit), tail_highlight=50, title=name
    )
    path = os.path.join(HERE, f"{name}.svg")
    with open(path, "w") as fh:
        fh.write(svg)
    print(f"  wrote {path} ({orbit.length} points)")


if __name__ == "__main__":
    describe("tangential", maps.HalfplaneAffine(1.0, 1j))
    describe("radial", maps.HalfplaneAffine(1.0, 1.0))
    print(f"\nfor reference, the constant step of z + i from z0 = 1 is "
          f"1/sqrt(5) = {1 / np.sqrt(5):.6f}")
