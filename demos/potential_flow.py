"""Potential flow past a circle, solved on the unbounded exterior.

The boundary equations live on a thin layer of lattice nodes around
the circle; no artificial boundary condition is imposed anywhere.  The
reference field is the x-dipole u = x / (x^2 + y^2).  Interior values
inside the viewing box come from the same difference-potential box
solve as on bounded domains, with the lattice potential's own values,
summed directly from the density, as data on the box edge.
"""

import numpy as np

from latticebae import ExperimentConfig, solve_problem
from latticebae.harness import dump_solution_csv

for bc in ("dirichlet", "neumann"):
    cfg = ExperimentConfig(geometry="circle-exterior", bc=bc,
                           formulation="single-direct", n=128)
    sol = solve_problem(cfg)
    print(f"{bc:9s}: {len(sol.values)} exterior nodes in the box, "
          f"max error {sol.max_error:.3e}")

# where does the error sit relative to the solution magnitude?
err = sol.errors
big = np.abs(sol.exact) >= 0.5 * np.abs(sol.exact).max()
print(f"nodes with |u| above half its peak carry "
      f"{err[big].max() / err.max():.0%} of the peak error")

dump_solution_csv(sol, "potential_flow.csv")
print("wrote potential_flow.csv")
