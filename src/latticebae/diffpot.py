"""Difference potentials and particular solutions by fast box solves.

Interior values of a homogeneous solution could be recovered by direct
lattice convolution at O(N^3) cost.  Cheaper: solve the 5-point system
with a sine transform on a window of the classification grid, whose edge
is the box edge.  The window, :attr:`PointSets.box_window`, is the
bounding box of N+ grown by ``geometry.WINDOW_MARGIN`` nodes, clipped
to the grid and widened to a fast transform length; any box whose interior holds gamma plus one ring gives
the same potential on M+, up to rounding.  The difference potential of
boundary data u_gamma is the box solution whose right-hand side is [A u] of the zero-extension of
u_gamma, restricted to the exterior band; it is discretely harmonic on
M+ and reproduces u_gamma on gamma, so a single FFT solve replaces the
convolution.

The box edge carries Dirichlet data: zero where the edge lies outside
the domain, and the lattice potential's own values on the edge nodes of
M+ (:func:`edge_nodes`).  A bounded domain has no such nodes.  On the
unbounded exterior M+ reaches the grid edge, so the window is the whole
grid, every edge node is one of them, and its value, which
:func:`latticebae.solver.recover` streams from the density in the same
kernel product as the trace on gamma, makes the box solve reproduce the
lattice potential on the whole box-restricted domain without any
artificial boundary condition.

The same box solver, on the same window, yields particular solutions of
the nonhomogeneous problem from rhs = h^2 f on M+, after which the
boundary right-hand side is corrected; the caller adds the homogeneous
and particular parts.  Laplace data (the exterior's) has no particular
part, and its solves skip both steps.

Memory: each solve holds one window array.  Its rhs is built there, f
one block of window rows at a time and [A u] only next to the nodes
that carry data, and is then transformed in place into the solution, so
no stage holds a second window-sized float array.  The public
:func:`fft_poisson_solve` leaves its argument as it was and solves in a
copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import fft as sfft

from .closure import ClosureMatrices
from .errors import AssemblyError, BoxTooSmallError
from .geometry import _ROW_BLOCK, DIRECTIONS, Grid, PointSets

#: How many nodes inside the window edge the gamma and closure nodes must
#: lie, so that every node whose [A u] reads them is off the edge, where
#: the box solve takes its Dirichlet data.
_INSET = 2


def _local(indices: np.ndarray, grid: Grid, offset, inset: int):
    """(n, 2) classification-grid indices as an index pair (j, k) into a
    window at ``offset``.

    Raises BoxTooSmallError when a node lies fewer than ``inset`` nodes
    inside the window edge (``inset = 0``: outside the window).
    """
    j = indices[:, 0] - offset[0]
    k = indices[:, 1] - offset[1]
    if len(j) and (min(j.min(), k.min()) < inset
                   or j.max() >= grid.nx - inset or k.max() >= grid.ny - inset):
        bad = (np.minimum(j, k) < inset) | (j >= grid.nx - inset) | (k >= grid.ny - inset)
        node = tuple(int(v) for v in indices[np.argmax(bad)])
        raise BoxTooSmallError(
            f"node {node} lies fewer than {inset} nodes inside the box-solve window edge"
        )
    return j, k


@dataclass
class GridFunction:
    """A real field sampled on every node of a grid.

    The grid may be a window of the classification grid: its node (0, 0)
    is node ``offset`` there, and :meth:`at` reads the field at
    classification-grid indices.
    """

    grid: Grid
    values: np.ndarray
    offset: tuple = (0, 0)

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise AssemblyError(
                f"grid function has shape {self.values.shape}, grid wants {shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid, offset=(0, 0)) -> "GridFunction":
        return cls(grid=grid, values=np.zeros((grid.nx, grid.ny)), offset=offset)

    def at(self, indices: np.ndarray, inset: int = 0) -> np.ndarray:
        """Values at (n, 2) classification-grid indices, each of which must
        lie at least ``inset`` nodes inside this grid's edge."""
        return self.values[_local(indices, self.grid, self.offset, inset)]


def _window_of(mask: np.ndarray, grid: Grid, offset) -> np.ndarray:
    """The part of a classification-grid mask that the window covers."""
    j0, k0 = offset
    return mask[j0 : j0 + grid.nx, k0 : k0 + grid.ny]


def _neighbours(j: np.ndarray, k: np.ndarray):
    """The nodes (j, k) and their four lattice neighbours, as one index
    pair with repeats."""
    steps = ((0, 0), *DIRECTIONS)
    return (np.concatenate([j + dj for dj, _ in steps]),
            np.concatenate([k + dk for _, dk in steps]))


def _stencil_at(values: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[A u] at off-edge nodes (j, k), A the 5-point operator: the centre
    term, then the neighbours in the order -x, +x, -y, +y."""
    return (4.0 * values[j, k] - values[j - 1, k] - values[j + 1, k]
            - values[j, k - 1] - values[j, k + 1])


def fft_poisson_solve(rhs: GridFunction) -> GridFunction:
    """Solve [Aw] = rhs with w = 0 on the box edge via DST-I.

    The sine basis diagonalizes the 5-point operator on the interior
    nodes with eigenvalues 4 - 2cos(j pi / nx) - 2cos(k pi / ny), the
    n's counting grid intervals per axis.  The solution is a new window
    array, so the rhs is left as it was.  A zero rhs returns zero
    without transforms.  The solution keeps the rhs's offset.
    """
    return _solve_in_place(GridFunction(rhs.grid, rhs.values.copy(), rhs.offset))


def _solve_in_place(rhs: GridFunction) -> GridFunction:
    """:func:`fft_poisson_solve` in the rhs's own array: its interior is
    transformed in place and returned as the solution."""
    grid = rhs.grid
    if not rhs.values.any():
        return rhs
    edge_max = max(
        np.abs(rhs.values[0, :]).max(),
        np.abs(rhs.values[-1, :]).max(),
        np.abs(rhs.values[:, 0]).max(),
        np.abs(rhs.values[:, -1]).max(),
    )
    if edge_max != 0.0:
        raise AssemblyError("rhs carries data on the box boundary")
    mx, my = grid.nx - 1, grid.ny - 1
    lam_x = 4.0 - 2.0 * np.cos(np.pi * np.arange(1, mx) / mx)
    lam_y = 2.0 * np.cos(np.pi * np.arange(1, my) / my)
    inner = rhs.values[1:-1, 1:-1]
    coeff = sfft.dstn(inner, type=1, overwrite_x=True)
    for lo in range(0, mx - 1, _ROW_BLOCK):
        coeff[lo : lo + _ROW_BLOCK] /= lam_x[lo : lo + _ROW_BLOCK, None] - lam_y
    values = sfft.idstn(coeff, type=1, overwrite_x=True)
    if not np.may_share_memory(values, inner):  # overwrite_x permits, not promises
        inner[...] = values
    return rhs


def edge_nodes(ps: PointSets) -> np.ndarray:
    """The M+ nodes on the window edge, in canonical order: where u_edge
    lives.  A bounded domain has none; on the exterior they are the grid
    edge."""
    grid, offset = ps.box_window
    inside = _window_of(ps.m_plus, grid, offset)
    # Row 0, then the two ends of each middle row, then the last row.
    first, last = np.flatnonzero(inside[0]), np.flatnonzero(inside[-1])
    j, side = np.nonzero(inside[1:-1, [0, -1]])
    return np.concatenate([
        np.column_stack([np.full_like(first, 0), first]),
        np.column_stack([j + 1, side * (grid.ny - 1)]),
        np.column_stack([np.full_like(last, grid.nx - 1), last]),
    ]) + offset


def difference_potential(u_gamma: np.ndarray, ps: PointSets, u_edge=()) -> GridFunction:
    """Box solution reproducing u_gamma on gamma, discretely harmonic on M+.

    Zero-extends the gamma data, applies the 5-point operator, keeps the
    result on the exterior band only, and solves the box system on
    :attr:`PointSets.box_window` with u_edge imposed on :func:`edge_nodes`
    (zero on the rest of the window edge).
    """
    u_gamma = np.asarray(u_gamma, dtype=float)
    if u_gamma.shape != (len(ps.gamma_indices),):
        raise AssemblyError(
            f"gamma data has shape {u_gamma.shape}, expected ({len(ps.gamma_indices)},)"
        )
    grid, offset = ps.box_window
    on_edge = edge_nodes(ps) - offset
    u_edge = np.asarray(u_edge, dtype=float)
    if u_edge.shape != (len(on_edge),):
        raise AssemblyError(
            f"edge data has shape {u_edge.shape}, expected ({len(on_edge)},)"
        )
    # One window array holds the rhs and, in turn, each zero-extension whose
    # [A u] it needs; [A u] is evaluated only next to the extended nodes.
    rhs = GridFunction.zeros(grid, offset)
    # Lift the edge values into the rhs of the adjacent interior ring.
    ej, ek = on_edge.T
    rhs.values[ej, ek] = u_edge
    j, k = _neighbours(ej, ek)
    ring = (np.minimum(j, k) > 0) & (j < grid.nx - 1) & (k < grid.ny - 1)
    rj, rk = j[ring], k[ring]
    lift = _stencil_at(rhs.values, rj, rk)
    rhs.values[ej, ek] = 0.0
    # [A u] of the gamma data, kept on the exterior band.
    gj, gk = _local(ps.gamma_indices, grid, offset, _INSET)
    rhs.values[gj, gk] = u_gamma
    j, k = _neighbours(gj, gk)
    band = ~ps.m_plus[j + offset[0], k + offset[1]]
    j, k = j[band], k[band]
    applied = _stencil_at(rhs.values, j, k)
    rhs.values[gj, gk] = 0.0
    rhs.values[j, k] = applied
    rhs.values[rj, rk] -= lift
    w = _solve_in_place(rhs)
    w.values[ej, ek] = u_edge
    return w


def particular_solution(f: Callable, ps: PointSets) -> GridFunction:
    """Box solve of [Au] = h^2 f on M+ (zero forcing outside the domain),
    on :attr:`PointSets.box_window`.

    f is evaluated only at the window-interior nodes of M+, at the
    coordinates ``ps.grid`` gives them, one block of window rows at a
    time, each block's nodes picked by its rows of the M+ mask.  A
    harmonic problem has no forcing and need not call this: its
    particular solution is zero.
    """
    grid, offset = ps.box_window
    rhs = GridFunction.zeros(grid, offset)
    interior = rhs.values[1:-1, 1:-1]
    inside = _window_of(ps.m_plus, grid, offset)[1:-1, 1:-1]
    for lo in range(0, len(interior), _ROW_BLOCK):
        rows = inside[lo : lo + _ROW_BLOCK]
        x, y = ps.grid.nodes_where(rows, (offset[0] + 1 + lo, offset[1] + 1))
        interior[lo : lo + _ROW_BLOCK][rows] = grid.h**2 * np.asarray(f(x, y))
    return _solve_in_place(rhs)


def correct_boundary_rhs(cm: ClosureMatrices, u_p: GridFunction) -> np.ndarray:
    """Boundary data for the homogeneous part after splitting off u_p.

    Substituting u = u^h + u^p into the closure rows moves the particular
    values to the right-hand side.  The extrapolation identity is imposed
    on the homogeneous part alone, so the eta columns are charged with
    u^p sampled at the eta nodes themselves; the R blocks stay untouched.
    Every closure node must lie two nodes inside u^p's window edge.
    """
    return (
        cm.rhs
        - cm.phi_plus @ u_p.at(cm.gamma_tilde_plus, _INSET)
        - cm.phi_minus @ u_p.at(cm.gamma_minus, _INSET)
        - cm.phi_prime_minus @ u_p.at(cm.eta, _INSET)
    )
