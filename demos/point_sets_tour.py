"""Classify the lattice against an ellipse and walk the point sets.

Shows the counts of the interior set, the boundary layers, and the
selected boundary/mesh intersection points, then writes the whole
classification to CSV for plotting elsewhere.
"""

import numpy as np

from latticebae import Grid, classify, ellipse, select_intersections
from latticebae.geometry import dump_classification_csv

grid = Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 64)
shape = ellipse(2.0)
ps = classify(grid, shape)

print(f"grid: {grid.nx} x {grid.ny} nodes, h = {grid.h:.5f}")
print(f"interior M+ nodes:      {int(ps.m_plus.sum())}")
print(f"boundary layer gamma:   {len(ps.gamma_indices)}")
print(f"  inner part gamma+:    {len(ps.gamma_plus_indices)}")
print(f"  outer part gamma-:    {len(ps.gamma_minus_indices)}")

xs = select_intersections(ps, shape)
print(f"intersection points:    {len(xs)} (one per gamma- node)")
print(f"  alpha range:          [{xs.alpha.min():.4f}, {xs.alpha.max():.4f}]")
print(f"  snapped to a node:    {int((xs.alpha == 0.0).sum())}")

residual = np.abs(shape.psi(*xs.location.T))
print(f"  worst |psi| at point: {residual.max():.2e}")

dump_classification_csv(ps, "point_sets.csv")
print("wrote point_sets.csv")
