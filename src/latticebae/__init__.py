"""Boundary algebraic equations for the unfitted difference Laplacian.

A solver library for the 2-D Poisson problem -lap(u) = f on domains
described implicitly by a level-set function, discretized with the
classical 5-point stencil on a regular lattice that does not fit the
boundary.  The discrete solution is represented by single- or
double-layer lattice potentials whose densities live on a thin layer of
exterior grid nodes; boundary conditions enter through local polynomial
interpolation on cut cells, and interior values are recovered by an
FFT-accelerated difference-potential solve on the lattice's own
rectangular box.  On the unbounded exterior the box edge lies inside the
domain; there the box solve takes the lattice potential's own edge
values, streamed from the density in the same kernel product as its
trace on the boundary layer, so no artificial boundary condition enters.
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
from .lgf import (
    R_SWITCH,
    LatticeIndex,
    LgfTable,
    canonical_index,
    lgf,
    lgf_asymptotic,
    lgf_quadrature,
    lgf_recursion_table,
)
from .geometry import (
    Grid,
    Intersections,
    LevelSetShape,
    PointSets,
    circle_exterior,
    classify,
    diamond,
    ellipse,
    select_intersections,
)
from .potentials import (
    LayerKind,
    apply_layer_matrix,
    contract_layer_matrix,
)
from .closure import (
    BoundaryCondition,
    ClosureMatrices,
    RobinSupport,
    assemble_closure,
    build_support_cells,
    dirichlet,
    neumann,
    robin,
)
from .solver import (
    Formulation,
    SolveResult,
    SystemForm,
    assemble_system,
    condition_number,
    condition_numbers,
    dense_solve,
    formulation_from_tag,
    solve_system,
)
from .diffpot import (
    GridFunction,
    correct_boundary_rhs,
    difference_potential,
    fft_poisson_solve,
    particular_solution,
)
from .harness import (
    ConditioningReport,
    ConvergenceReport,
    ExperimentConfig,
    ResultRow,
    run_conditioning,
    run_convergence,
    run_solve,
    solve_problem,
)

__version__ = "0.1.0"
