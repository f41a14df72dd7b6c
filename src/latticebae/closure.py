"""Boundary-condition closure rows on cut cells.

The layer representation leaves |gamma-| densities undetermined; the
boundary condition supplies exactly that many equations, one per
intersection point x_i on Gamma.

Dirichlet closures interpolate the discrete solution at x_i with the
bilinear (P1) hat basis.  Because x_i lies on the lattice segment
between its gamma+ node and its gamma- owner, the interpolation
degenerates to the 1-D convex combination

    (1 - alpha) u(inner) + alpha u(owner) = g(x_i),

so Phi- is diagonal with entries alpha in [0, 1).  A node exactly on
Gamma has alpha = 0 and the row becomes the identity on that gamma+
node; the zero Phi- diagonal there is harmless since the full row is
nonzero.

Robin closures alpha_c du/dn + beta_c u = g need gradients, so each
intersection gets a 3x3-node support cell carrying tensor-product
quadratic Lagrange polynomials.  Cells prefer placements with as many
interior (M+) nodes as possible; remaining exterior cell nodes split
into gamma- (already unknowns) and the auxiliary set eta.  Each eta
value is eliminated through a one-sided quadratic extrapolation along a
grid axis,

    u_eta = 3 u(p1) - 3 u(p2) + u(p3),

written in homogeneous form u_eta + R+ u_{gamma~+} + R- u_{gamma-} = 0.
Interior nodes the extrapolation needs beyond the original cells are
simply added to gamma~+ (interior target points do not alter the layer
structure).  Lagrange denominators are recomputed from the node
spacing; for the record, the correct barycentric weights on three
equispaced nodes are (1/(2h^2), -1/h^2, 1/(2h^2)).

The closure algebra lives here and nowhere else: only this module reads
the Phi'-, R+ and R- blocks and eta.  Other modules see the eliminated
weights C+ and C- (:attr:`ClosureMatrices.c_plus`, ``c_minus``), the
right-hand side corrected for a particular solution
(:func:`correct_boundary_rhs`) and the closure residual of a recovered
field (:func:`residual`), the latter two read from box-window arrays
by :func:`latticebae.diffpot.window_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import (
    AssemblyError,
    ConfigError,
    ExtrapolationStencilError,
    UnderResolvedBoundaryError,
)
from .diffpot import INSET, window_values
from .geometry import DIRECTIONS, Grid, Intersections, PointSets

#: Quadratic extrapolation weights at distances (1, 2, 3) from the target.
_EXTRAP_WEIGHTS = (3.0, -3.0, 1.0)

#: Offsets of the 9 nodes of a 3x3 support cell from its anchor, x offset major.
_CELL = np.array([(i, j) for i in range(3) for j in range(3)])


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary data alpha_c du/dn + beta_c u = g on Gamma.

    ``kind`` is "dirichlet" or "robin"; Neumann is robin(1, 0).  A robin
    condition with alpha_c = 0 is rejected (state it as dirichlet).
    ``data`` is g: it is called once, on the x and y coordinate arrays of
    all the crossings, so like psi and f it must broadcast; a constant
    result is spread over every crossing.
    """

    kind: str
    data: Callable
    alpha_coef: float = 0.0
    beta_coef: float = 1.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ConfigError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "robin" and self.alpha_coef == 0.0:
            raise ConfigError(
                "robin condition with zero normal-derivative coefficient; "
                "use a dirichlet condition instead"
            )


def dirichlet(g: Callable) -> BoundaryCondition:
    return BoundaryCondition(kind="dirichlet", data=g)


def robin(alpha_coef: float, beta_coef: float, g: Callable) -> BoundaryCondition:
    return BoundaryCondition(kind="robin", data=g,
                             alpha_coef=float(alpha_coef), beta_coef=float(beta_coef))


def neumann(g: Callable) -> BoundaryCondition:
    return robin(1.0, 0.0, g)


def _lagrange3(t: np.ndarray):
    """Quadratic Lagrange basis on nodes {0, 1, 2} and its derivative at t,
    each shaped t.shape + (3,)."""
    value = np.stack([0.5 * (t - 1.0) * (t - 2.0), t * (2.0 - t), 0.5 * t * (t - 1.0)], axis=-1)
    slope = np.stack([t - 1.5, 2.0 - 2.0 * t, t - 0.5], axis=-1)
    return value, slope


def quadratic_basis(anchors, points, grid: Grid):
    """Tensor-product quadratic Lagrange basis of 3x3 cells at points.

    ``anchors`` are the cells' lower-left nodes and ``points`` physical
    points, both (P, 2).  Returns the basis values and their x and y
    derivatives, each (P, 3, 3) indexed by [point, x offset, y offset].
    """
    h = grid.h
    xi = (np.asarray(points, dtype=float) - grid.nodes(anchors)) / h
    lx, dlx = _lagrange3(xi[:, 0])
    ly, dly = _lagrange3(xi[:, 1])
    value = lx[:, :, None] * ly[:, None, :]
    gx = dlx[:, :, None] * ly[:, None, :] / h
    gy = lx[:, :, None] * dly[:, None, :] / h
    return value, gx, gy


@dataclass
class ClosureMatrices:
    """Sparse closure blocks, one boundary row per gamma- node.

    The boundary rows read Phi+ u_{gamma~+} + Phi- u_{gamma-}
    + Phi'- u_eta = rhs; the extrapolation rows read
    u_eta + R+ u_{gamma~+} + R- u_{gamma-} = 0.  In the Dirichlet case
    gamma~+ = gamma+, eta is empty and the Phi'-/R blocks have zero
    columns/rows, so downstream algebra needs no special cases.
    """

    phi_plus: sparse.csr_array
    phi_minus: sparse.csr_array
    phi_prime_minus: sparse.csr_array
    r_plus: sparse.csr_array
    r_minus: sparse.csr_array
    rhs: np.ndarray
    gamma_tilde_plus: np.ndarray
    gamma_minus: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        n = len(self.gamma_minus)
        expected = {
            "phi_plus": (n, len(self.gamma_tilde_plus)),
            "phi_minus": (n, n),
            "phi_prime_minus": (n, len(self.eta)),
            "r_plus": (len(self.eta), len(self.gamma_tilde_plus)),
            "r_minus": (len(self.eta), n),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise AssemblyError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )
        if len(self.rhs) != n:
            raise AssemblyError(f"rhs length {len(self.rhs)} for {n} boundary rows")

    @cached_property
    def c_plus(self) -> sparse.csr_array:
        """C+ = Phi+ - Phi'- R+, the gamma~+ weights of the boundary rows
        once u_eta = -(R+ u_{gamma~+} + R- u_{gamma-}) is substituted."""
        return self.phi_plus - self.phi_prime_minus @ self.r_plus

    @cached_property
    def c_minus(self) -> sparse.csr_array:
        """C- = Phi- - Phi'- R-, the gamma- weights of the same rows."""
        return self.phi_minus - self.phi_prime_minus @ self.r_minus


def _check_owners(xs: Intersections, ps: PointSets) -> None:
    """The crossings must be those of ``ps``: their owners are its gamma-
    nodes in canonical order, one crossing per node."""
    if not np.array_equal(xs.owner, ps.gamma_minus_indices):
        raise AssemblyError(
            f"{len(xs)} intersection points are not owned one to one, in canonical "
            f"order, by the {len(ps.gamma_minus_indices)} gamma- nodes of the point sets"
        )


def _boundary_data(g: Callable, xs: Intersections) -> np.ndarray:
    """g at every crossing, from one call on the coordinate arrays."""
    return np.array(np.broadcast_to(g(*xs.location.T), (len(xs),)), dtype=float)


def _labels(grid: Grid, *index_sets) -> np.ndarray:
    """Grid-shaped column labels: each node's row in its index set, -1
    off every set.  The sets are disjoint, so one array serves them all."""
    labels = np.full((grid.nx, grid.ny), -1, dtype=np.int32)
    for indices in index_sets:
        labels[indices[:, 0], indices[:, 1]] = np.arange(len(indices), dtype=np.int32)
    return labels


def _rows(count: int, width: int) -> np.ndarray:
    return np.broadcast_to(np.arange(count, dtype=np.int32)[:, None], (count, width))


def _block(keep, rows, cols, values, shape) -> sparse.csr_array:
    """One sparse block from the kept (row, col, value) entries, each
    (row, col) given once; exact zeros are dropped.  Indices are int32,
    the dtype scipy itself picks for blocks this small."""
    keep = keep & (values != 0.0)
    return sparse.csr_array((values[keep], (rows[keep], cols[keep])), shape=shape)


def _scatter(ps: PointSets, nodes, weights, gamma_tilde_plus, eta, stencils,
             rhs) -> ClosureMatrices:
    """The closure blocks of boundary rows and their eta rows.

    Boundary row i weights the lattice nodes ``nodes[i]`` (P, m, 2) by
    ``weights[i]`` (P, m), and the rows go to the blocks by node class:
    M+ nodes to Phi+ (columns over ``gamma_tilde_plus``), gamma- nodes to
    Phi-, the rest to Phi'- (columns over ``eta``).  The extrapolation
    rows take the nodes of ``stencils`` (E, 3, 2) with weights
    -``_EXTRAP_WEIGHTS`` into R+ and R- the same way.
    """
    n, n_tilde, n_eta = len(nodes), len(gamma_tilde_plus), len(eta)
    labels = _labels(ps.grid, gamma_tilde_plus, ps.gamma_minus_indices, eta)
    j, k = nodes[..., 0], nodes[..., 1]
    rows, cols = _rows(n, nodes.shape[1]), labels[j, k]
    interior, minus = ps.m_plus[j, k], ps.gamma_minus[j, k]
    sj, sk = stencils[..., 0], stencils[..., 1]
    r_rows, r_cols, r_interior = _rows(n_eta, 3), labels[sj, sk], ps.m_plus[sj, sk]
    r_weights = np.broadcast_to(-np.array(_EXTRAP_WEIGHTS), (n_eta, 3))
    return ClosureMatrices(
        phi_plus=_block(interior, rows, cols, weights, (n, n_tilde)),
        phi_minus=_block(minus, rows, cols, weights, (n, n)),
        phi_prime_minus=_block(~interior & ~minus, rows, cols, weights, (n, n_eta)),
        r_plus=_block(r_interior, r_rows, r_cols, r_weights, (n_eta, n_tilde)),
        r_minus=_block(~r_interior, r_rows, r_cols, r_weights, (n_eta, n)),
        rhs=rhs,
        gamma_tilde_plus=np.array(gamma_tilde_plus, copy=True),
        gamma_minus=np.array(ps.gamma_minus_indices, copy=True),
        eta=np.array(eta, copy=True),
    )


def assemble_dirichlet(ps: PointSets, xs: Intersections, g: Callable) -> ClosureMatrices:
    """Bilinear interpolation rows at the intersection points.

    Row i collects the hat values at x_i of every gamma node whose
    support covers it; on the lattice segment those are just the inner
    gamma+ node (weight 1 - alpha) and the owner (weight alpha).  The
    row is written as exactly that pair: evaluating the hats in floating
    point would leak one-ulp weights onto third nodes.
    """
    _check_owners(xs, ps)
    on_plus = ps.gamma_plus[xs.inner[:, 0], xs.inner[:, 1]]
    if not on_plus.all():
        i = int(np.argmin(on_plus))
        raise AssemblyError(f"inner node {tuple(map(int, xs.inner[i]))} of the intersection "
                            f"at {tuple(map(float, xs.location[i]))} is not a gamma+ node")
    no_eta = np.empty((0, 2), dtype=np.int64)
    return _scatter(ps, np.stack([xs.inner, xs.owner], axis=1),
                    np.stack([1.0 - xs.alpha, xs.alpha], axis=1), ps.gamma_plus_indices,
                    no_eta, no_eta.reshape(0, 3, 2), _boundary_data(g, xs))


@dataclass
class RobinSupport:
    """Support cells plus the augmented sets they induce.

    Row i of ``anchors`` is the lower-left node of the 3x3 cell of
    intersection i, and ``interior_counts[i]`` its number of M+ nodes.
    Row e of ``eta_stencils`` (E, 3, 2) holds the nodes at distances
    1, 2, 3 from eta node e whose values, weighted by ``_EXTRAP_WEIGHTS``,
    extrapolate to it.
    """

    anchors: np.ndarray
    interior_counts: np.ndarray
    gamma_tilde_plus: np.ndarray
    eta: np.ndarray
    eta_stencils: np.ndarray


def build_support_cells(xs: Intersections, ps: PointSets) -> RobinSupport:
    """Place one 3x3 support cell per intersection and derive the sets.

    Candidate anchors keep x_i inside the cell's 2x2-cell square
    (boundary contact included); the placement with the most interior
    nodes wins, ties going to the lexicographically smallest anchor.
    gamma~+ collects gamma+ plus every interior cell node (plus any
    interior nodes the eta extrapolations reach); eta collects the
    exterior cell nodes outside gamma-.
    """
    _check_owners(xs, ps)
    grid = ps.grid
    xi = (xs.location - np.asarray(grid.origin)) / grid.h
    xi = np.where(np.abs(xi - np.round(xi)) < 1e-9, np.round(xi), xi)
    # Per axis the candidates run from ceil(xi) - 2 to floor(xi), within the grid.
    cand = np.ceil(xi).astype(np.int64)[:, :, None] - 2 + np.arange(3)
    fits = ((cand <= np.floor(xi)[:, :, None]) & (cand >= 0)
            & (cand <= np.array([grid.nx - 3, grid.ny - 3])[:, None]))
    placed = fits.any(axis=2).all(axis=1)
    if not placed.all():
        i = int(np.argmin(placed))
        raise UnderResolvedBoundaryError("no 3x3 support cell fits around "
                                         f"{tuple(map(float, xs.location[i]))}")
    ca, cb = np.clip(cand[:, 0], 0, grid.nx - 3), np.clip(cand[:, 1], 0, grid.ny - 3)
    # The 3x3 windows of M+ at the candidate anchors, (P, a, b, 3, 3).
    windows = sliding_window_view(ps.m_plus, (3, 3))[ca[:, :, None], cb[:, None, :]]
    counts = np.where(fits[:, 0, :, None] & fits[:, 1, None, :],
                      windows.sum(axis=(3, 4)), -1).reshape(len(xs), 9)
    # argmax takes the first maximum, and the 9 candidates run in (a, b) order.
    best = counts.argmax(axis=1)
    points = np.arange(len(xs))
    anchors = np.stack([ca[points, best // 3], cb[points, best % 3]], axis=1)

    cells = anchors[:, None] + _CELL
    covered = np.zeros_like(ps.m_plus)
    covered[cells[..., 0], cells[..., 1]] = True
    eta = np.argwhere(covered & ~ps.m_plus & ~ps.gamma_minus)
    stencils = _eta_stencils(eta, ps)
    covered[stencils[..., 0], stencils[..., 1]] = True
    return RobinSupport(
        anchors=anchors,
        interior_counts=counts[points, best],
        gamma_tilde_plus=np.argwhere(ps.gamma_plus | (covered & ps.m_plus)),
        eta=eta,
        eta_stencils=stencils,
    )


def _eta_stencils(eta: np.ndarray, ps: PointSets) -> np.ndarray:
    """One-sided quadratic extrapolation stencils of the eta nodes.

    Along each of the four ``DIRECTIONS`` an eta node's run counts the
    usable nodes (interior or gamma-, inside the grid) met in a row at
    steps 1, 2, 3.  The axis with the longer run wins, x on ties.  On
    that axis the negative direction is taken when its run is three,
    else the positive one.  Returns the nodes at steps 1, 2, 3, shaped
    (E, 3, 2); every one of them is usable.  Fails for the first eta
    node, in canonical order, that no direction gives three usable nodes.
    """
    steps = np.arange(1, 4)[None, None, :, None] * np.array(DIRECTIONS)[None, :, None, :]
    nodes = eta[:, None, None, :] + steps  # (E, direction, step, 2)
    within = ((nodes >= 0) & (nodes < (ps.grid.nx, ps.grid.ny))).all(axis=-1)
    j = np.clip(nodes[..., 0], 0, ps.grid.nx - 1)
    k = np.clip(nodes[..., 1], 0, ps.grid.ny - 1)
    usable = within & ps.n_plus[j, k]
    runs = np.cumprod(usable, axis=2).sum(axis=2)  # (E, direction)
    axis_runs = runs.reshape(-1, 2, 2).max(axis=2)
    feasible = (axis_runs == 3).any(axis=1)
    if not feasible.all():
        node = eta[int(np.argmin(feasible))]
        raise ExtrapolationStencilError(
            f"eta node {tuple(int(v) for v in node)} has no direction with "
            "three consecutive usable nodes"
        )
    positive = 2 * (axis_runs[:, 1] > axis_runs[:, 0])  # its negative one is next
    rows = np.arange(len(eta))
    return nodes[rows, positive + (runs[rows, positive + 1] == 3)]


def assemble_robin(ps: PointSets, xs: Intersections, support: RobinSupport,
                   bc: BoundaryCondition) -> ClosureMatrices:
    """Quadratic closure rows alpha_c du/dn + beta_c u = g at the x_i.

    Each row evaluates the 9 basis coefficients of its support cell and
    scatters them by node class into the Phi blocks; the eta columns are
    tied back to real unknowns by the extrapolation rows in R+/R-.
    """
    if bc.kind != "robin":
        raise ConfigError("assemble_robin requires a robin boundary condition")
    _check_owners(xs, ps)
    value, gx, gy = quadratic_basis(support.anchors, xs.location, ps.grid)
    nx_, ny_ = xs.normal[:, 0, None, None], xs.normal[:, 1, None, None]
    coeff = (bc.alpha_coef * (gx * nx_ + gy * ny_) + bc.beta_coef * value).reshape(-1, 9)
    return _scatter(ps, support.anchors[:, None] + _CELL, coeff, support.gamma_tilde_plus,
                    support.eta, support.eta_stencils, _boundary_data(bc.data, xs))


def assemble_closure(ps: PointSets, xs: Intersections, bc: BoundaryCondition) -> ClosureMatrices:
    """Dispatch to the Dirichlet or Robin assembler for a condition."""
    if bc.kind == "dirichlet":
        return assemble_dirichlet(ps, xs, bc.data)
    return assemble_robin(ps, xs, build_support_cells(xs, ps), bc)


def correct_boundary_rhs(cm: ClosureMatrices, u_p: np.ndarray, ps: PointSets) -> np.ndarray:
    """Boundary data for the homogeneous part after splitting off u_p, a
    box-window array of ``ps``.

    Substituting u = u^h + u^p into the closure rows moves the particular
    values to the right-hand side.  The extrapolation identity is imposed
    on the homogeneous part alone, so the eta columns are charged with
    u^p sampled at the eta nodes themselves; the R blocks stay untouched.
    Every closure node must lie two nodes inside u^p's edge.
    """
    return (
        cm.rhs
        - cm.phi_plus @ window_values(u_p, cm.gamma_tilde_plus, ps, INSET)
        - cm.phi_minus @ window_values(u_p, cm.gamma_minus, ps, INSET)
        - cm.phi_prime_minus @ window_values(u_p, cm.eta, ps, INSET)
    )


def residual(cm: ClosureMatrices, u_h: np.ndarray, ps: PointSets) -> float:
    """max |C+ u_h(gamma~+) + C- u_h(gamma-) - rhs| of a box-window array
    ``u_h`` of ``ps``: how far it is from satisfying the closure rows
    once eta is eliminated."""
    return float(np.abs(cm.c_plus @ window_values(u_h, cm.gamma_tilde_plus, ps)
                        + cm.c_minus @ window_values(u_h, cm.gamma_minus, ps)
                        - cm.rhs).max())
