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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import (
    AssemblyError,
    ClosureDegeneracyError,
    ConfigError,
    ExtrapolationStencilError,
    UnderResolvedBoundaryError,
)
from .geometry import DIRECTIONS, Grid, PointSets
from .lgf import LatticeIndex

#: Quadratic extrapolation weights at distances (1, 2, 3) from the target.
_EXTRAP_WEIGHTS = (3.0, -3.0, 1.0)


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary data alpha_c du/dn + beta_c u = g on Gamma.

    ``kind`` is "dirichlet" or "robin"; Neumann is robin(1, 0).  A robin
    condition with alpha_c = 0 is rejected (state it as dirichlet).
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


def bilinear_eval(node, point, grid: Grid) -> float:
    """P1 hat of the given node evaluated at a physical point."""
    xn, yn = grid.node(int(node[0]), int(node[1]))
    tx = 1.0 - abs(point[0] - xn) / grid.h
    ty = 1.0 - abs(point[1] - yn) / grid.h
    return max(0.0, tx) * max(0.0, ty)


def _lagrange3(xi: float):
    """Values of the quadratic Lagrange basis on nodes {0, 1, 2} at xi."""
    return (
        0.5 * (xi - 1.0) * (xi - 2.0),
        xi * (2.0 - xi),
        0.5 * xi * (xi - 1.0),
    )


def _lagrange3_prime(xi: float):
    return (xi - 1.5, 2.0 - 2.0 * xi, xi - 0.5)


@dataclass(frozen=True)
class SupportCell:
    """A 3x3 node patch anchored at its lower-left node."""

    anchor: LatticeIndex
    interior_count: int

    @property
    def nodes(self):
        """The 9 nodes in local order (i, j), x-offset major."""
        a, b = self.anchor
        return [LatticeIndex(a + i, b + j) for i in range(3) for j in range(3)]


def quadratic_eval(cell: SupportCell, local, point, grid: Grid) -> float:
    """Tensor-product quadratic Lagrange basis value at a physical point."""
    xa, yb = grid.node(*cell.anchor)
    xi = (point[0] - xa) / grid.h
    eta = (point[1] - yb) / grid.h
    return _lagrange3(xi)[local[0]] * _lagrange3(eta)[local[1]]


def quadratic_grad(cell: SupportCell, local, point, grid: Grid):
    """Analytic gradient of the quadratic basis at a physical point."""
    xa, yb = grid.node(*cell.anchor)
    xi = (point[0] - xa) / grid.h
    eta = (point[1] - yb) / grid.h
    gx = _lagrange3_prime(xi)[local[0]] * _lagrange3(eta)[local[1]] / grid.h
    gy = _lagrange3(xi)[local[0]] * _lagrange3_prime(eta)[local[1]] / grid.h
    return gx, gy


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


def _column_map(indices) -> dict:
    return {(int(j), int(k)): col for col, (j, k) in enumerate(indices)}


def _empty_index_array() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


class _Triplets:
    """(row, col, value) entries of one sparse block, each (row, col) given once."""

    def __init__(self):
        self.rows, self.cols, self.values = [], [], []

    def add(self, row: int, col: int, value: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.values.append(value)

    def csr(self, shape) -> sparse.csr_array:
        # int32 indices: the dtype scipy itself picks for blocks this small.
        return sparse.csr_array(
            (np.array(self.values, dtype=float),
             (np.array(self.rows, dtype=np.int32), np.array(self.cols, dtype=np.int32))),
            shape=shape,
        )


def assemble_dirichlet(ps: PointSets, xs, g: Callable, grid: Grid) -> ClosureMatrices:
    """Bilinear interpolation rows at the intersection points.

    Row i collects the hat values at x_i of every gamma node whose
    support covers it; on the lattice segment those are just the inner
    gamma+ node (weight 1 - alpha) and the owner (weight alpha).
    """
    plus_map = _column_map(ps.gamma_plus_indices)
    minus_map = _column_map(ps.gamma_minus_indices)
    n = len(ps.gamma_minus_indices)
    plus, minus = _Triplets(), _Triplets()
    rhs = np.empty(n)
    for i, point in enumerate(xs):
        # On the lattice segment the hats of all other nodes vanish, so
        # the row is exactly the endpoint pair; evaluating the hats in
        # floating point would leak one-ulp weights onto third nodes.
        wrote = False
        for node, weight in ((point.inner, 1.0 - point.alpha),
                             (point.owner, point.alpha)):
            if weight == 0.0:
                continue
            key = (int(node[0]), int(node[1]))
            if key in plus_map:
                plus.add(i, plus_map[key], weight)
            elif key in minus_map:
                minus.add(i, minus_map[key], weight)
            else:
                raise AssemblyError(
                    f"node {key} carries interpolation weight at "
                    f"{point.location} but is not a gamma node"
                )
            wrote = True
        if not wrote:
            raise ClosureDegeneracyError(f"empty boundary row at {point.location}")
        rhs[i] = g(*point.location)
    return ClosureMatrices(
        phi_plus=plus.csr((n, len(ps.gamma_plus_indices))),
        phi_minus=minus.csr((n, n)),
        phi_prime_minus=sparse.csr_array((n, 0)),
        r_plus=sparse.csr_array((0, len(ps.gamma_plus_indices))),
        r_minus=sparse.csr_array((0, n)),
        rhs=rhs,
        gamma_tilde_plus=np.array(ps.gamma_plus_indices, copy=True),
        gamma_minus=np.array(ps.gamma_minus_indices, copy=True),
        eta=_empty_index_array(),
    )


@dataclass
class RobinSupport:
    """Support cells plus the augmented sets they induce.

    ``eta_stencils[e]`` lists (node, weight) pairs whose weighted sum
    reproduces the value at eta node e by one-sided extrapolation.
    """

    cells: list
    gamma_tilde_plus: np.ndarray
    eta: np.ndarray
    eta_stencils: list = field(default_factory=list)


def _candidate_anchors(coord: float, origin: float, h: float, n_nodes: int):
    xi = (coord - origin) / h
    if abs(xi - round(xi)) < 1e-9:
        xi = round(xi)
    lo = int(np.ceil(xi)) - 2
    hi = int(np.floor(xi))
    return [a for a in range(lo, hi + 1) if 0 <= a <= n_nodes - 3]


def build_support_cells(xs, ps: PointSets, grid: Grid) -> RobinSupport:
    """Place one 3x3 support cell per intersection and derive the sets.

    Candidate anchors keep x_i inside the cell's 2x2-cell square
    (boundary contact included); the placement with the most interior
    nodes wins, ties going to the lexicographically smallest anchor.
    gamma~+ collects gamma+ plus every interior cell node (plus any
    interior nodes the eta extrapolations reach); eta collects the
    exterior cell nodes outside gamma-.
    """
    m_plus = ps.m_plus
    cells = []
    plus_extra = set()
    eta_set = set()
    for point in xs:
        ax = _candidate_anchors(point.location[0], grid.origin[0], grid.h, grid.nx)
        ay = _candidate_anchors(point.location[1], grid.origin[1], grid.h, grid.ny)
        if not ax or not ay:
            raise UnderResolvedBoundaryError(
                f"no 3x3 support cell fits around {point.location}"
            )
        best = None
        best_count = -1
        for a in ax:
            for b in ay:
                count = int(m_plus[a : a + 3, b : b + 3].sum())
                if count > best_count:
                    best, best_count = (a, b), count
        cell = SupportCell(anchor=LatticeIndex(*best), interior_count=best_count)
        cells.append(cell)
        for node in cell.nodes:
            if m_plus[node]:
                plus_extra.add(tuple(node))
            elif not ps.gamma_minus[node]:
                eta_set.add(tuple(node))

    gamma_minus_set = {tuple(map(int, idx)) for idx in ps.gamma_minus_indices}
    eta = sorted(eta_set)
    stencils = []
    for node in eta:
        stencil = _eta_stencil(node, ps)
        for (j, k), _ in stencil:
            if m_plus[j, k]:
                plus_extra.add((j, k))
        stencils.append(stencil)

    tilde = {tuple(map(int, idx)) for idx in ps.gamma_plus_indices} | plus_extra
    support = RobinSupport(
        cells=cells,
        gamma_tilde_plus=np.array(sorted(tilde), dtype=np.int64).reshape(-1, 2),
        eta=np.array(eta, dtype=np.int64).reshape(-1, 2),
        eta_stencils=stencils,
    )
    # Sanity: extrapolations may only reference interior or gamma- nodes.
    for stencil in stencils:
        for (j, k), _ in stencil:
            if not m_plus[j, k] and (j, k) not in gamma_minus_set:
                raise ExtrapolationStencilError(
                    f"stencil node {(j, k)} is neither interior nor gamma-"
                )
    return support


def _eta_stencil(node, ps: PointSets):
    """One-sided quadratic extrapolation stencil for an eta node.

    Scans both directions of both axes for three consecutive usable
    nodes (interior or gamma-) starting next to the eta node; prefers
    the axis with the longer usable run (x on ties), then the positive
    direction.  Fails if no direction offers three nodes.
    """
    j, k = node
    grid = ps.grid
    usable_runs = {}
    for d1, d2 in DIRECTIONS:
        run = 0
        for step in (1, 2, 3):
            jj, kk = j + step * d1, k + step * d2
            if not grid.contains_index(jj, kk):
                break
            if ps.m_plus[jj, kk] or ps.gamma_minus[jj, kk]:
                run += 1
            else:
                break
        usable_runs[(d1, d2)] = run
    axis_best = {
        "x": max(usable_runs[(1, 0)], usable_runs[(-1, 0)]),
        "y": max(usable_runs[(0, 1)], usable_runs[(0, -1)]),
    }
    axis = "x" if axis_best["x"] >= axis_best["y"] else "y"
    if axis_best[axis] < 3:
        raise ExtrapolationStencilError(
            f"eta node {tuple(int(v) for v in node)} has no direction with "
            "three consecutive usable nodes"
        )
    directions = DIRECTIONS[:2] if axis == "x" else DIRECTIONS[2:]
    d1, d2 = max(directions, key=lambda d: (usable_runs[d], -d[0], -d[1]))
    return [((j + step * d1, k + step * d2), w)
            for step, w in zip((1, 2, 3), _EXTRAP_WEIGHTS)]


def assemble_robin(ps: PointSets, xs, support: RobinSupport,
                   bc: BoundaryCondition, grid: Grid) -> ClosureMatrices:
    """Quadratic closure rows alpha_c du/dn + beta_c u = g at the x_i.

    Each row evaluates the 9 basis coefficients of its support cell and
    scatters them by node class into the Phi blocks; the eta columns are
    tied back to real unknowns by the extrapolation rows in R+/R-.
    """
    if bc.kind != "robin":
        raise ConfigError("assemble_robin requires a robin boundary condition")
    tilde_map = _column_map(support.gamma_tilde_plus)
    minus_map = _column_map(ps.gamma_minus_indices)
    eta_map = _column_map(support.eta)
    n = len(ps.gamma_minus_indices)
    n_eta = len(support.eta)
    plus, minus, prime = _Triplets(), _Triplets(), _Triplets()
    rhs = np.empty(n)
    for i, (point, cell) in enumerate(zip(xs, support.cells)):
        nx_, ny_ = point.normal
        wrote = False
        for li in range(3):
            for lj in range(3):
                node = (cell.anchor[0] + li, cell.anchor[1] + lj)
                value = quadratic_eval(cell, (li, lj), point.location, grid)
                gx, gy = quadratic_grad(cell, (li, lj), point.location, grid)
                coeff = bc.alpha_coef * (gx * nx_ + gy * ny_) + bc.beta_coef * value
                if coeff == 0.0:
                    continue
                if node in tilde_map:
                    plus.add(i, tilde_map[node], coeff)
                elif node in minus_map:
                    minus.add(i, minus_map[node], coeff)
                elif node in eta_map:
                    prime.add(i, eta_map[node], coeff)
                else:
                    raise AssemblyError(
                        f"cell node {node} missing from every closure column set"
                    )
                wrote = True
        if not wrote:
            raise ClosureDegeneracyError(f"empty boundary row at {point.location}")
        rhs[i] = bc.data(*point.location)

    r_plus, r_minus = _Triplets(), _Triplets()
    for e, stencil in enumerate(support.eta_stencils):
        for node, weight in stencil:
            if node in tilde_map:
                r_plus.add(e, tilde_map[node], -weight)
            elif node in minus_map:
                r_minus.add(e, minus_map[node], -weight)
            else:
                raise AssemblyError(f"extrapolation node {node} missing from column sets")
    return ClosureMatrices(
        phi_plus=plus.csr((n, len(support.gamma_tilde_plus))),
        phi_minus=minus.csr((n, n)),
        phi_prime_minus=prime.csr((n, n_eta)),
        r_plus=r_plus.csr((n_eta, len(support.gamma_tilde_plus))),
        r_minus=r_minus.csr((n_eta, n)),
        rhs=rhs,
        gamma_tilde_plus=np.array(support.gamma_tilde_plus, copy=True),
        gamma_minus=np.array(ps.gamma_minus_indices, copy=True),
        eta=np.array(support.eta, copy=True),
    )


def assemble_closure(ps: PointSets, xs, bc: BoundaryCondition, grid: Grid) -> ClosureMatrices:
    """Dispatch to the Dirichlet or Robin assembler for a condition."""
    if bc.kind == "dirichlet":
        return assemble_dirichlet(ps, xs, bc.data, grid)
    support = build_support_cells(xs, ps, grid)
    return assemble_robin(ps, xs, support, bc, grid)
