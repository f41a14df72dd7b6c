"""Anatomy of a Robin closure on a deliberately coarse grid.

Builds the boundary discretization for du/dn + u = g on an ellipse and
prints what the assembly produced: the support cells, the enlarged
trace set, any exterior helper nodes, and the closure block shapes.
In the end it solves the problem once and reports the interior error.
"""

import numpy as np

from latticebae import Grid, classify, ellipse, select_intersections
from latticebae.closure import assemble_closure, build_support_cells, robin
from latticebae import harness

grid = Grid.from_box((-1.5, 1.5), (-1.5, 1.5), 16)
shape = ellipse(2.0)
ps = classify(grid, shape)
xs = select_intersections(ps, shape)

support = build_support_cells(xs, ps)
counts = support.interior_counts
print(f"support cells: {len(support.anchors)}, interior nodes per cell "
      f"min/max = {counts.min()}/{counts.max()}")
print(f"gamma+ grew from {len(ps.gamma_plus_indices)} to "
      f"{len(support.gamma_tilde_plus)} trace nodes")
print(f"exterior helper nodes (eta): {len(support.eta)}")


def g(x, y):
    # boundary data manufactured from u = sin(x)cos(y)
    gx, gy = shape.grad(x, y)
    norm = np.hypot(gx, gy)
    du = np.cos(x) * np.cos(y) * gx - np.sin(x) * np.sin(y) * gy
    return du / norm + np.sin(x) * np.cos(y)


cm = assemble_closure(ps, xs, robin(1.0, 1.0, g))
print(f"closure blocks: Phi+ {cm.phi_plus.shape}, Phi- {cm.phi_minus.shape}, "
      f"Phi'- {cm.phi_prime_minus.shape}")
print(f"extrapolation blocks: R+ {cm.r_plus.shape}, R- {cm.r_minus.shape}")

cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc="robin",
                               formulation="single-direct", n=64)
sol = harness.solve_problem(cfg)
print(f"\nsolve at n = 64: max interior error {sol.max_error:.3e}")
