"""Boundary algebraic equations for the unfitted difference Laplacian.

A solver library for the 2-D Poisson problem -lap(u) = f on domains
described implicitly by a level-set function, discretized with the
classical 5-point stencil on a regular lattice that does not fit the
boundary.  The discrete solution is represented by single- or
double-layer lattice potentials whose densities live on a thin layer of
exterior grid nodes; boundary conditions enter through local polynomial
interpolation on cut cells.  Interior values are the lattice potential
itself, recovered by one FFT box solve on a rectangular window of the
lattice: its right-hand side is the density's lattice sources, and its
edge data the potential's own values on the window edge, streamed from
the density in one kernel product.  Bounded domains and the unbounded
exterior take the same path, and no artificial boundary condition
enters.  Plain arrays cross every layer: a window field is a float array
shaped like the window, and a solve returns the pair (density, cond).

The package root holds the error types, the experiment entry points and
the four geometry names a classification needs; every other name is
imported from its own module (``latticebae.lgf``, ``latticebae.closure``,
and so on), which is its one import path.
"""

from .errors import (
    AssemblyError,
    BoxTooSmallError,
    ConfigError,
    DegenerateDomainError,
    DoubleLayerInapplicableError,
    ExtrapolationStencilError,
    FormulationSingularError,
    GeometryError,
    GeometryTooTightError,
    InconsistentClassificationError,
    LatticeBaeError,
    QuadratureError,
    SingularSystemError,
    UnderResolvedBoundaryError,
)
from .geometry import Grid, classify, ellipse, select_intersections
from .harness import ExperimentConfig, run_conditioning, run_convergence, solve_problem

__version__ = "0.1.0"
