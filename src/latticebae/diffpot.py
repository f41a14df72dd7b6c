"""Difference potentials and particular solutions by fast box solves.

Interior values of a homogeneous solution could be recovered by direct
lattice convolution at O(N^3) cost.  Cheaper: solve the 5-point system
on the classification grid itself, whose edge is the box edge, with a
sine transform.  The difference potential of boundary data u_gamma is
the box solution whose right-hand side is [A u] of the zero-extension of
u_gamma, restricted to the exterior band; it is discretely harmonic on
M+ and reproduces u_gamma on gamma, so a single FFT solve replaces the
convolution.

The box edge carries Dirichlet data: zero where the edge lies outside
the domain, and the lattice potential's own values on the edge nodes of
M+.  A bounded domain has no such nodes.  On the unbounded exterior
every edge node is one, and its value, summed directly from the
density, makes the box solve reproduce the lattice potential on the
whole box-restricted domain without any artificial boundary condition.

The same box solver yields particular solutions of the nonhomogeneous
problem from rhs = h^2 f on M+, after which the boundary right-hand
side is corrected; the caller adds the homogeneous and particular parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import fft as sfft

from .closure import ClosureMatrices
from .errors import AssemblyError, BoxTooSmallError
from .geometry import Grid, PointSets


def _edge_mask(grid: Grid) -> np.ndarray:
    """The nodes on the edge of a grid, where box solves take Dirichlet data."""
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


@dataclass
class GridFunction:
    """A real field sampled on every node of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise AssemblyError(
                f"grid function has shape {self.values.shape}, grid wants {shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid=grid, values=np.zeros((grid.nx, grid.ny)))


def apply_stencil(values: np.ndarray) -> np.ndarray:
    """[A u] at box-interior nodes (edges return 0), A the 5-point operator."""
    out = np.zeros_like(values)
    out[1:-1, 1:-1] = (
        4.0 * values[1:-1, 1:-1]
        - values[:-2, 1:-1]
        - values[2:, 1:-1]
        - values[1:-1, :-2]
        - values[1:-1, 2:]
    )
    return out


def fft_poisson_solve(rhs: GridFunction) -> GridFunction:
    """Solve [Aw] = rhs with w = 0 on the box edge via DST-I.

    The sine basis diagonalizes the 5-point operator on the interior
    nodes with eigenvalues 4 - 2cos(j pi / nx) - 2cos(k pi / ny), the
    n's counting grid intervals per axis.  A zero rhs returns zero
    without transforms (the exterior's particular solution).
    """
    grid = rhs.grid
    if not rhs.values.any():
        return GridFunction.zeros(grid)
    edge_max = max(
        np.abs(rhs.values[0, :]).max(),
        np.abs(rhs.values[-1, :]).max(),
        np.abs(rhs.values[:, 0]).max(),
        np.abs(rhs.values[:, -1]).max(),
    )
    if edge_max != 0.0:
        raise AssemblyError("rhs carries data on the box boundary")
    mx, my = grid.nx - 1, grid.ny - 1
    j = np.arange(1, mx)
    k = np.arange(1, my)
    lam = (4.0 - 2.0 * np.cos(np.pi * j / mx))[:, None] - 2.0 * np.cos(
        np.pi * k / my
    )[None, :]
    coeff = sfft.dstn(rhs.values[1:-1, 1:-1], type=1)
    w = GridFunction.zeros(grid)
    w.values[1:-1, 1:-1] = sfft.idstn(coeff / lam, type=1)
    return w


def edge_nodes(ps: PointSets) -> np.ndarray:
    """The M+ nodes on the grid edge, in canonical order: where u_edge lives."""
    return np.argwhere(_edge_mask(ps.grid) & ps.m_plus)


def difference_potential(u_gamma: np.ndarray, ps: PointSets, u_edge=()) -> GridFunction:
    """Box solution reproducing u_gamma on gamma, discretely harmonic on M+.

    Zero-extends the gamma data, applies the 5-point operator, keeps the
    result on the exterior band only, and solves the box system with
    u_edge imposed on :func:`edge_nodes` (zero on the rest of the edge).
    """
    gamma_nodes = ps.gamma_indices
    u_gamma = np.asarray(u_gamma, dtype=float)
    if u_gamma.shape != (len(gamma_nodes),):
        raise AssemblyError(
            f"gamma data has shape {u_gamma.shape}, expected ({len(gamma_nodes)},)"
        )
    on_edge = edge_nodes(ps)
    u_edge = np.asarray(u_edge, dtype=float)
    if u_edge.shape != (len(on_edge),):
        raise AssemblyError(
            f"edge data has shape {u_edge.shape}, expected ({len(on_edge)},)"
        )
    edge = _edge_mask(ps.grid)
    near_edge = edge.copy()
    near_edge[1:-1, 1:-1] = (
        edge[:-2, 1:-1] | edge[2:, 1:-1] | edge[1:-1, :-2] | edge[1:-1, 2:]
    )
    if (ps.gamma & near_edge).any():
        raise BoxTooSmallError("a gamma node touches or neighbors the box edge")
    extension = np.zeros((ps.grid.nx, ps.grid.ny))
    extension[gamma_nodes[:, 0], gamma_nodes[:, 1]] = u_gamma
    rhs = GridFunction.zeros(ps.grid)
    band = ps.m_minus & ~edge
    rhs.values[band] = apply_stencil(extension)[band]
    # Lift the edge values into the rhs of the adjacent interior ring.
    lift = np.zeros_like(extension)
    lift[on_edge[:, 0], on_edge[:, 1]] = u_edge
    rhs.values -= apply_stencil(lift)
    w = fft_poisson_solve(rhs)
    w.values[on_edge[:, 0], on_edge[:, 1]] = u_edge
    return w


def particular_solution(f: Callable, ps: PointSets) -> GridFunction:
    """Box solve of [Au] = h^2 f on M+ (zero forcing outside the domain).

    f is evaluated only at the box-interior nodes of M+.
    """
    grid = ps.grid
    rhs = GridFunction.zeros(grid)
    inside = ps.m_plus & ~_edge_mask(grid)
    x, y = grid.nodes(np.argwhere(inside)).T
    rhs.values[inside] = grid.h**2 * np.asarray(f(x, y))
    return fft_poisson_solve(rhs)


def _restrict(gf: GridFunction, indices: np.ndarray) -> np.ndarray:
    return gf.values[indices[:, 0], indices[:, 1]]


def correct_boundary_rhs(cm: ClosureMatrices, u_p: GridFunction) -> np.ndarray:
    """Boundary data for the homogeneous part after splitting off u_p.

    Substituting u = u^h + u^p into the closure rows moves the particular
    values to the right-hand side.  The extrapolation identity is imposed
    on the homogeneous part alone, so the eta columns are charged with
    u^p sampled at the eta nodes themselves; the R blocks stay untouched.
    """
    return (
        cm.rhs
        - cm.phi_plus @ _restrict(u_p, cm.gamma_tilde_plus)
        - cm.phi_minus @ _restrict(u_p, cm.gamma_minus)
        - cm.phi_prime_minus @ _restrict(u_p, cm.eta)
    )
