"""Layer potentials, difference potentials and particular solutions by
fast box solves.

Interior values of a lattice layer potential Kq could be recovered by
direct lattice convolution at O(N^3) cost.  Cheaper: solve the 5-point
system with a sine transform on a window of the classification grid.
The window, :attr:`PointSets.box_window`, is the bounding box of N+
grown by ``geometry.WINDOW_MARGIN`` nodes, clipped to the grid and
widened to a fast transform length; on the unbounded exterior, where M+
reaches the grid edge, it is the whole grid.  A field on the window is a
plain float array shaped (nx, ny) like the window, in lattice units: its
node (0, 0) is the classification-grid node that ``box_window`` pairs
with the window, and :func:`window_values` reads it at
classification-grid indices.

The 5-point operator A applied to Kq is the density's lattice sources,
zero elsewhere (A G is the unit impulse), so :func:`box_solve` of those
sources, with Kq's own values on the window edge (:func:`edge_nodes`)
as Dirichlet data, is Kq on the whole window.  This is how
:func:`latticebae.solver.recover` recovers every domain, bounded or
not, without any artificial boundary condition.

The paper's difference potential of boundary data u_gamma is the box
solution, zero on the window edge, whose right-hand side is [A u] of the
zero-extension of u_gamma restricted to the exterior band; it is
discretely harmonic on M+ and reproduces u_gamma on gamma when u_gamma
is the trace of such a field, as a layer potential's trace is
(:func:`difference_potential`).

The same box solver, on the same window, yields particular solutions of
the nonhomogeneous problem from rhs = h^2 f on M+, after which
:func:`latticebae.closure.correct_boundary_rhs` corrects the boundary
right-hand side; the caller adds the homogeneous and particular parts.
Laplace data (the exterior's) has no particular part, and its solves
skip both steps.  :func:`m_plus_rows` walks the M+ nodes of a window
array one block of rows at a time, for whoever reads its M+ values.
This module knows the window and the lattice, not the closure: the
closure nodes it must serve only have to lie :data:`INSET` nodes inside
the window edge.

Memory: each solve holds one window array.  Its rhs is built there, f
one block of window rows at a time and [A u] only next to the nodes
that carry data, and is then transformed in place into the solution, so
no stage holds a second window-sized float array.  The public
:func:`fft_poisson_solve` leaves its argument as it was and solves in a
copy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import fft as sfft

from .errors import AssemblyError, BoxTooSmallError
from .geometry import DIRECTIONS, ROW_BLOCK, Grid, PointSets

#: How many nodes inside the window edge the gamma and closure nodes must
#: lie, so that every node whose [A u] reads them is off the edge, where
#: the box solve takes its Dirichlet data.
INSET = 2


def _local(indices: np.ndarray, shape, offset, inset: int):
    """(n, 2) classification-grid indices as an index pair (j, k) into a
    window array of ``shape`` whose node (0, 0) is node ``offset``.

    Raises BoxTooSmallError when a node lies fewer than ``inset`` nodes
    inside the window edge (``inset = 0``: outside the window).
    """
    j = indices[:, 0] - offset[0]
    k = indices[:, 1] - offset[1]
    nx, ny = shape
    if len(j) and (min(j.min(), k.min()) < inset
                   or j.max() >= nx - inset or k.max() >= ny - inset):
        bad = (np.minimum(j, k) < inset) | (j >= nx - inset) | (k >= ny - inset)
        node = tuple(int(v) for v in indices[np.argmax(bad)])
        raise BoxTooSmallError(
            f"node {node} lies fewer than {inset} nodes inside the box-solve window edge"
        )
    return j, k


def window_values(values: np.ndarray, indices: np.ndarray, ps: PointSets,
                  inset: int = 0) -> np.ndarray:
    """A box-window array's values at (n, 2) classification-grid indices,
    each of which must lie at least ``inset`` nodes inside its edge."""
    return values[_local(indices, values.shape, ps.box_window[1], inset)]


def _window_of(mask: np.ndarray, grid: Grid, offset) -> np.ndarray:
    """The part of a classification-grid mask that the window covers."""
    j0, k0 = offset
    return mask[j0 : j0 + grid.nx, k0 : k0 + grid.ny]


def m_plus_rows(ps: PointSets):
    """The M+ nodes one block of box-window rows at a time, in canonical
    order: (out, rows, mask), ``out`` locating the block in M+ order,
    ``rows`` its window rows and ``mask`` their M+ nodes over the
    window's columns.  M+ lies inside the window, which holds N+."""
    window, offset = ps.box_window
    inside = _window_of(ps.m_plus, window, offset)
    start = 0
    for lo in range(0, window.nx, ROW_BLOCK):
        mask = inside[lo : lo + ROW_BLOCK]
        count = np.count_nonzero(mask)
        yield slice(start, start + count), slice(lo, lo + len(mask)), mask
        start += count


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


def fft_poisson_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve [Aw] = rhs with w = 0 on the box edge via DST-I.

    ``rhs`` is any 2-D array whose edge is zero.  The sine basis
    diagonalizes the 5-point operator on its interior nodes with
    eigenvalues 4 - 2cos(j pi / mx) - 2cos(k pi / my), the m's counting
    intervals per axis.  The solution is a new array, so the rhs is left
    as it was.  A zero rhs returns zero without transforms.
    """
    rhs = np.array(rhs, dtype=float)
    if rhs.ndim != 2:
        raise AssemblyError(f"box-solve rhs has shape {rhs.shape}; it needs two axes")
    return _solve_in_place(rhs)


def _solve_in_place(rhs: np.ndarray) -> np.ndarray:
    """:func:`fft_poisson_solve` in the rhs's own array: its interior is
    transformed in place and returned as the solution."""
    if not rhs.any():
        return rhs
    edge_max = max(
        np.abs(rhs[0, :]).max(),
        np.abs(rhs[-1, :]).max(),
        np.abs(rhs[:, 0]).max(),
        np.abs(rhs[:, -1]).max(),
    )
    if edge_max != 0.0:
        raise AssemblyError("rhs carries data on the box boundary")
    mx, my = rhs.shape[0] - 1, rhs.shape[1] - 1
    lam_x = 4.0 - 2.0 * np.cos(np.pi * np.arange(1, mx) / mx)
    lam_y = 2.0 * np.cos(np.pi * np.arange(1, my) / my)
    inner = rhs[1:-1, 1:-1]
    coeff = sfft.dstn(inner, type=1, overwrite_x=True)
    for lo in range(0, mx - 1, ROW_BLOCK):
        coeff[lo : lo + ROW_BLOCK] /= lam_x[lo : lo + ROW_BLOCK, None] - lam_y
    values = sfft.idstn(coeff, type=1, overwrite_x=True)
    if not np.may_share_memory(values, inner):  # overwrite_x permits, not promises
        inner[...] = values
    return rhs


def edge_nodes(ps: PointSets) -> np.ndarray:
    """The 2(nx + ny) - 4 edge nodes of :attr:`PointSets.box_window`, in
    canonical order: row 0, the two ends of each middle row, then the
    last row."""
    grid, offset = ps.box_window
    nx, ny = grid.nx, grid.ny
    cols = np.arange(ny)
    return np.column_stack([
        np.concatenate([np.zeros(ny, int), np.repeat(np.arange(1, nx - 1), 2),
                        np.full(ny, nx - 1)]),
        np.concatenate([cols, np.tile([0, ny - 1], nx - 2), cols]),
    ]) + offset


def box_solve(sources: np.ndarray, charges, edge_values, ps: PointSets) -> np.ndarray:
    """Solve [Aw] = ``charges`` at ``sources`` and 0 at the other interior
    nodes of :attr:`PointSets.box_window`, with w = ``edge_values`` on
    :func:`edge_nodes`, in one window array.

    The edge values are lifted into the rhs of the adjacent ring of
    interior nodes, the interior is solved in place, and the edge values
    are written onto the solution's edge.  Every source must lie inside
    the window edge.
    """
    grid, offset = ps.box_window
    values = np.zeros((grid.nx, grid.ny))
    values[_local(sources, values.shape, offset, 1)] = charges
    first, last = edge_values[: grid.ny], edge_values[-grid.ny :]
    sides = np.reshape(edge_values[grid.ny : -grid.ny], (-1, 2))
    values[1, 1:-1] += first[1:-1]
    values[-2, 1:-1] += last[1:-1]
    values[1:-1, 1] += sides[:, 0]
    values[1:-1, -2] += sides[:, 1]
    _solve_in_place(values)
    values[0], values[-1], values[1:-1, 0], values[1:-1, -1] = first, last, *sides.T
    return values


def difference_potential(u_gamma: np.ndarray, ps: PointSets) -> np.ndarray:
    """Box solution reproducing u_gamma on gamma, discretely harmonic on M+.

    Zero-extends the gamma data, applies the 5-point operator, keeps the
    result on the exterior band only, and solves the box system on
    :attr:`PointSets.box_window` with zero on the window edge.
    """
    u_gamma = np.asarray(u_gamma, dtype=float)
    if u_gamma.shape != (len(ps.gamma_indices),):
        raise AssemblyError(
            f"gamma data has shape {u_gamma.shape}, expected ({len(ps.gamma_indices)},)"
        )
    grid, offset = ps.box_window
    # One window array holds the rhs and, in turn, the zero-extension whose
    # [A u] it needs; [A u] is evaluated only next to the extended nodes.
    rhs = np.zeros((grid.nx, grid.ny))
    gj, gk = _local(ps.gamma_indices, rhs.shape, offset, INSET)
    rhs[gj, gk] = u_gamma
    j, k = _neighbours(gj, gk)
    band = ~ps.m_plus[j + offset[0], k + offset[1]]
    j, k = j[band], k[band]
    applied = _stencil_at(rhs, j, k)
    rhs[gj, gk] = 0.0
    rhs[j, k] = applied
    return _solve_in_place(rhs)


def particular_solution(f: Callable, ps: PointSets) -> np.ndarray:
    """Box solve of [Au] = h^2 f on M+ (zero forcing outside the domain),
    on :attr:`PointSets.box_window`.

    f is evaluated only at the window-interior nodes of M+, at the
    coordinates ``ps.grid`` gives them, one block of window rows at a
    time, each block's nodes picked by its rows of the M+ mask.  A
    harmonic problem has no forcing and need not call this: its
    particular solution is zero.
    """
    grid, offset = ps.box_window
    rhs = np.zeros((grid.nx, grid.ny))
    interior = rhs[1:-1, 1:-1]
    inside = _window_of(ps.m_plus, grid, offset)[1:-1, 1:-1]
    for lo in range(0, len(interior), ROW_BLOCK):
        rows = inside[lo : lo + ROW_BLOCK]
        x, y = ps.grid.nodes_where(rows, (offset[0] + 1 + lo, offset[1] + 1))
        interior[lo : lo + ROW_BLOCK][rows] = grid.h**2 * np.asarray(f(x, y))
    return _solve_in_place(rhs)
