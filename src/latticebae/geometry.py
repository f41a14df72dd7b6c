"""Level-set geometry embedded in a uniform lattice.

The domain Omega is described implicitly by a continuous level-set
function psi with the sign convention

    psi(x, y) < 0  strictly inside Omega,
    psi(x, y) = 0  on the boundary Gamma,
    psi(x, y) > 0  outside.

A node with psi = 0 counts as inside (it joins M+ and, when it borders
the exterior, gamma+ rather than gamma-), which is what makes the
interpolation fraction alpha live in [0, 1).

Classification of the box nodes follows the 5-point stencil structure:
M+ holds the inside nodes, N+ adds their four-neighbours, and the
boundary layers are

    gamma  = N+ intersect N-,
    gamma+ = gamma intersect M+   (inside nodes with an outside neighbour),
    gamma- = gamma minus gamma+   (outside nodes with an inside neighbour).

Layer densities live on gamma-; boundary conditions are imposed at one
boundary crossing per gamma- node, found by bisection along lattice
segments.  For unbounded exterior domains the classification is simply
restricted to the computational box; the lattice kernels themselves need
no truncation, so no artificial boundary condition ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy import fft as sfft

from .errors import (
    DegenerateDomainError,
    GeometryTooTightError,
    InconsistentClassificationError,
    UnderResolvedBoundaryError,
)

#: The four lattice directions in tie-break order: x-axis before y-axis,
#: positive step before negative.  It fixes the tie-breaks of
#: select_intersections and of the closure's eta stencils.
DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))

#: Nodes the box window keeps around the bounding box of N+ on each side.
WINDOW_MARGIN = 3

_BISECT_ITERS = 50
_MULTI_ROOT_SAMPLES = 17

#: Grid rows per block wherever a stage runs over the grid or the box
#: window, so its temporaries never grow to the grid's size.
ROW_BLOCK = 64


@dataclass(frozen=True)
class Grid:
    """Uniform node-centred grid covering the computational box.

    Node (j, k) sits at ``origin + (j h, k h)`` for 0 <= j < nx,
    0 <= k < ny.
    """

    h: float
    origin: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs at least 4 nodes per axis, got {self.nx}x{self.ny}")

    @classmethod
    def from_box(cls, xlim, ylim, n_cells: int) -> "Grid":
        """Square-celled grid with ``n_cells`` intervals along x.

        The y extent must be an integer multiple of the resulting h (the
        standard case is a square box, where ny = nx).
        """
        h = (xlim[1] - xlim[0]) / n_cells
        ny_cells = (ylim[1] - ylim[0]) / h
        if abs(ny_cells - round(ny_cells)) > 1e-9:
            raise ValueError("box y-extent is not an integer number of cells")
        return cls(h=h, origin=(xlim[0], ylim[0]), nx=n_cells + 1, ny=int(round(ny_cells)) + 1)

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)

    def node(self, j: int, k: int) -> tuple[float, float]:
        return (self.origin[0] + j * self.h, self.origin[1] + k * self.h)

    def nodes(self, indices: np.ndarray) -> np.ndarray:
        """Coordinates of an (n, 2) integer index array, shape (n, 2).

        Built in one array.  Callers pass boundary nodes, never the
        whole grid at once; blocks of grid rows go through
        :meth:`nodes_where`."""
        xy = np.multiply(indices, self.h)
        return np.add(xy, self.origin, out=xy)

    def nodes_where(self, mask: np.ndarray, corner) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x, y) of the nodes where ``mask`` is true, in
        canonical order; ``mask`` covers the grid rows and columns from
        node ``corner`` on.  Each coordinate is an index times h plus the
        origin, as :meth:`nodes` computes it, so the two agree bitwise."""
        (j0, k0), shape = corner, np.shape(mask)
        x = np.arange(j0, j0 + shape[0]) * self.h + self.origin[0]
        y = np.arange(k0, k0 + shape[1]) * self.h + self.origin[1]
        return np.broadcast_to(x[:, None], shape)[mask], np.broadcast_to(y, shape)[mask]


@dataclass(frozen=True)
class LevelSetShape:
    """Implicit domain description.

    ``psi`` must accept numpy arrays and broadcast.  ``grad`` (optional)
    returns the two gradient components; when absent, intersection
    normals fall back to central differences.  ``label`` names the shape
    in result rows.
    """

    psi: Callable
    grad: Optional[Callable] = None
    label: str = "custom"


def ellipse(aspect: float = 1.0) -> LevelSetShape:
    """Interior of x^2 + aspect^2 y^2 = 1 (aspect = 1 is the unit circle)."""
    if aspect <= 0.0:
        raise ValueError("aspect must be positive")
    a2 = float(aspect) ** 2

    def psi(x, y):
        return x * x + a2 * (y * y) - 1.0

    def grad(x, y):
        return 2.0 * x, 2.0 * a2 * y

    return LevelSetShape(psi=psi, grad=grad, label=f"ellipse-a{aspect:g}")


def diamond(r1: float = 0.9, r2: float = 0.5) -> LevelSetShape:
    """Interior of |x/r1| + |y/r2| = 1 (corners on the axes)."""
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError("diamond half-diagonals must be positive")

    def psi(x, y):
        return np.abs(x) / r1 + np.abs(y) / r2 - 1.0

    def grad(x, y):
        # copysign keeps a deterministic one-sided value on the axes.
        return np.copysign(1.0 / r1, x), np.copysign(1.0 / r2, y)

    return LevelSetShape(psi=psi, grad=grad, label=f"diamond-r{r1:g}x{r2:g}")


def circle_exterior(radius: float = 1.0) -> LevelSetShape:
    """Unbounded exterior of a circle: psi = radius^2 - x^2 - y^2."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    r2 = float(radius) ** 2

    def psi(x, y):
        return r2 - x * x - y * y

    def grad(x, y):
        return -2.0 * x, -2.0 * y

    return LevelSetShape(psi=psi, grad=grad, label=f"circle-exterior-r{radius:g}")


def custom(psi: Callable, grad: Optional[Callable] = None, label: str = "custom") -> LevelSetShape:
    return LevelSetShape(psi=psi, grad=grad, label=label)


@dataclass
class PointSets:
    """Node classification masks on a grid, all shaped (nx, ny).

    Three masks are stored: M+, gamma+ and gamma-.  The others are exact
    unions and complements of these: N+ = M+ | gamma- and
    gamma = gamma+ | gamma- are built anew on each read; nothing in the
    package reads M- = ~M+ or N- = M- | gamma+, so neither is built.
    The index arrays derived from the gamma masks (``*_indices``) list
    nodes in canonical order: lexicographic by (j, k), as ``np.argwhere``
    lists any mask's nodes.  Every matrix and vector in the package is
    ordered by these arrays, so they are the single source of truth for
    degrees of freedom.
    """

    grid: Grid
    m_plus: np.ndarray
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray

    @property
    def n_plus(self) -> np.ndarray:
        return self.m_plus | self.gamma_minus

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma_plus | self.gamma_minus

    def _spans(self, *masks) -> tuple[tuple[int, int], tuple[int, int]]:
        """Per axis, the first and last grid index that the union of
        ``masks`` occupies, found without building the union."""
        spans = []
        # Reducing over axis 1 finds the occupied x indices, over axis 0 the y ones.
        for axis in (1, 0):
            occupied = np.flatnonzero(np.logical_or.reduce([m.any(axis=axis) for m in masks]))
            spans.append((int(occupied[0]), int(occupied[-1])))
        return tuple(spans)

    @cached_property
    def _gamma_box(self) -> tuple[slice, slice]:
        """The bounding box of gamma, which holds gamma+ and gamma- too."""
        (j0, j1), (k0, k1) = self._spans(self.gamma_plus, self.gamma_minus)
        return slice(j0, j1 + 1), slice(k0, k1 + 1)

    def _indices_in_gamma_box(self, *masks) -> np.ndarray:
        """The nodes of the union of ``masks``, all inside gamma's box."""
        box = self._gamma_box
        union = np.logical_or.reduce([m[box] for m in masks])
        return np.argwhere(union) + (box[0].start, box[1].start)

    @cached_property
    def gamma_indices(self) -> np.ndarray:
        return self._indices_in_gamma_box(self.gamma_plus, self.gamma_minus)

    @cached_property
    def gamma_plus_indices(self) -> np.ndarray:
        return self._indices_in_gamma_box(self.gamma_plus)

    @cached_property
    def gamma_minus_indices(self) -> np.ndarray:
        return self._indices_in_gamma_box(self.gamma_minus)

    @cached_property
    def kernel_reach(self) -> tuple[int, int]:
        """The half-widths (rx, ry) of the Green's-function table that a
        kernel gather on these sets reads.

        A gather's targets lie in :attr:`box_window`, and every node it
        reads from lies in gamma- or is one step from it (a double-layer
        source's exterior connections), so within the bounding box of
        gamma- grown by one node.  Per axis the reach is the largest
        distance from the window to that grown box.
        """
        window, offset = self.box_window
        sources = self._spans(self.gamma_minus)
        return tuple(max(t0 + n - s0, s1 + 1 - t0)
                     for t0, n, (s0, s1) in zip(offset, (window.nx, window.ny), sources))

    @cached_property
    def box_window(self) -> tuple[Grid, tuple[int, int]]:
        """The window of ``grid`` on which box solves run.

        The bounding box of N+, grown by ``WINDOW_MARGIN`` nodes and
        clipped to the grid, is widened on each axis to a 5-smooth
        interval count m (a DST-I over m intervals is an FFT of length
        2m), extra nodes split about evenly between its two sides.  The
        window is a grid of its own, returned with the grid index of its
        node (0, 0).
        """
        spans = []
        occupied = self._spans(self.m_plus, self.gamma_minus)
        for (first, last), n_nodes in zip(occupied, (self.grid.nx, self.grid.ny)):
            lo = max(first - WINDOW_MARGIN, 0)
            hi = min(last + WINDOW_MARGIN, n_nodes - 1)
            m = min(sfft.next_fast_len(hi - lo, real=True), n_nodes - 1)
            lo = max(0, min(lo - (m - (hi - lo)) // 2, n_nodes - 1 - m))
            spans.append((lo, m + 1))
        (j0, nx), (k0, ny) = spans
        return Grid(h=self.grid.h, origin=self.grid.node(j0, k0), nx=nx, ny=ny), (j0, k0)


def _dilate(mask: np.ndarray) -> np.ndarray:
    """Union of a mask with its four lattice neighbours (box-clipped)."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def classify(grid: Grid, shape: LevelSetShape) -> PointSets:
    """Build the M+, gamma+ and gamma- node sets for a shape on a grid.

    psi is evaluated one block of grid rows at a time, so no float array
    of the grid's size is held.

    Raises
    ------
    DegenerateDomainError
        If no node lies inside, or the zero level set misses the box
        entirely (empty gamma).
    GeometryTooTightError
        If boundary-layer nodes reach into the outermost two node rings,
        i.e. Gamma runs within about 2h of the box edge.
    """
    xs = grid.xs()
    m_plus = np.empty((grid.nx, grid.ny), dtype=bool)
    for lo in range(0, grid.nx, ROW_BLOCK):
        x, y = np.meshgrid(xs[lo : lo + ROW_BLOCK], grid.ys(), indexing="ij")
        m_plus[lo : lo + ROW_BLOCK] = np.asarray(shape.psi(x, y)) <= 0.0
    if not m_plus.any():
        raise DegenerateDomainError("no grid node lies inside the domain")
    # gamma+ = M+ nodes with an outside neighbour, gamma- = M- nodes with
    # an inside neighbour.
    gamma_plus = _dilate(~m_plus)
    gamma_plus &= m_plus
    gamma_minus = _dilate(m_plus)
    gamma_minus &= ~m_plus
    if not gamma_minus.any():  # then M- is empty, and gamma+ with it
        raise DegenerateDomainError("zero level set does not cross the computational box")
    for gamma in (gamma_plus, gamma_minus):
        if gamma[:2].any() or gamma[-2:].any() or gamma[:, :2].any() or gamma[:, -2:].any():
            raise GeometryTooTightError(
                "boundary runs within 2h of the box edge; enlarge the box or refine"
            )
    for mask in (m_plus, gamma_plus, gamma_minus):
        mask.flags.writeable = False
    return PointSets(grid=grid, m_plus=m_plus, gamma_plus=gamma_plus, gamma_minus=gamma_minus)


@dataclass(frozen=True)
class Intersections:
    """The boundary crossings, one per gamma- node in canonical order.

    Row i is the crossing owned by gamma- node ``owner[i]``: it lies on
    the lattice segment to the inside neighbour ``inner[i]`` (both (P, 2)
    lattice indices), at ``location[i]`` = (1 - alpha[i]) * node(inner[i])
    + alpha[i] * node(owner[i]), with alpha in [0, 1); alpha = 0 exactly
    when the inner node sits on Gamma.  ``normal[i]`` is the unit outward
    normal there (psi increases along it).
    """

    owner: np.ndarray
    inner: np.ndarray
    alpha: np.ndarray
    location: np.ndarray
    normal: np.ndarray

    def __len__(self) -> int:
        return len(self.owner)


def gradient_at(shape: LevelSetShape, x, y, h: float):
    """The shape's gradient (gx, gy) at points (x, y): its own, or else
    central differences of psi on the scale of the grid spacing h."""
    if shape.grad is not None:
        gx, gy = shape.grad(x, y)
        return np.broadcast_to(gx, np.shape(x)).astype(float), \
            np.broadcast_to(gy, np.shape(x)).astype(float)
    step = 1e-6 * h
    gx = (shape.psi(x + step, y) - shape.psi(x - step, y)) / (2.0 * step)
    gy = (shape.psi(x, y + step) - shape.psi(x, y - step)) / (2.0 * step)
    return gx, gy


def select_intersections(ps: PointSets, shape: LevelSetShape) -> Intersections:
    """Pick one boundary crossing per gamma- node.

    Every lattice segment from a gamma- node to one of its inside
    neighbours crosses Gamma; among those candidates the crossing closest
    to the gamma- node (largest alpha) wins, with ties resolved by the
    fixed direction order (x before y, positive step before negative).
    Only the winners are located and given a normal, so the shape's
    gradient is evaluated once per gamma- node.

    Raises
    ------
    GeometryTooTightError
        If any candidate segment crosses Gamma more than once, which
        means the grid does not resolve the geometry.
    InconsistentClassificationError
        If a gamma- node has no inside neighbour (classification and
        root finding disagree; should be impossible).
    UnderResolvedBoundaryError
        If the level-set gradient vanishes at a winning crossing, where
        no normal can be taken.  The message names the gamma- node, its
        inner node, whether the crossing snapped onto it, and h: a shape
        much narrower than a cell has its crossings snap onto a node
        where the gradient is zero.
    """
    owners = ps.gamma_minus_indices
    # classify keeps gamma out of the outer two rings, so every neighbour
    # lies in the grid; np.nonzero lists the candidates by owner, then
    # direction.
    steps = np.array(DIRECTIONS)
    neighbours = owners[:, None, :] + steps
    candidate = ps.m_plus[neighbours[..., 0], neighbours[..., 1]]
    lonely = ~candidate.any(axis=1)
    if lonely.any():
        j, k = owners[int(np.argmax(lonely))]
        raise InconsistentClassificationError(
            f"gamma- node {(int(j), int(k))} has no inside neighbour"
        )
    cand_owner_row, cand_dir = np.nonzero(candidate)
    outer_idx = owners[cand_owner_row]
    inner_idx = outer_idx + steps[cand_dir]
    # Each segment runs from the outer node (t = 0) to the inner one (t = 1)
    # along its coordinate step; outer + t * step is its point at t.
    outer = ps.grid.nodes(outer_idx)
    step = ps.grid.nodes(inner_idx) - outer
    (ox, oy), (sx, sy) = outer.T, step.T

    # Screen for multiple crossings: sample psi along each segment and
    # count sign transitions of the inside indicator.
    ts = np.linspace(0.0, 1.0, _MULTI_ROOT_SAMPLES)
    inside_samples = np.asarray(shape.psi(ox[:, None] + ts * sx[:, None],
                                          oy[:, None] + ts * sy[:, None])) <= 0.0
    transitions = np.count_nonzero(inside_samples[:, 1:] != inside_samples[:, :-1], axis=1)
    if (transitions > 1).any():
        bad = int(np.argmax(transitions > 1))
        j, k = outer_idx[bad]
        raise GeometryTooTightError(
            f"segment at gamma- node {(int(j), int(k))} crosses the boundary "
            f"{int(transitions[bad])} times; the grid under-resolves the geometry"
        )

    # Bisection along t in [0, 1] from the outer node (psi > 0) to the
    # inner node (psi <= 0); converges to the crossing nearest the outer
    # node, which is unique after the screen above.
    lo = np.zeros(len(cand_dir))
    hi = np.ones(len(cand_dir))
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        neg = np.asarray(shape.psi(ox + mid * sx, oy + mid * sy)) <= 0.0
        hi = np.where(neg, mid, hi)
        lo = np.where(neg, lo, mid)
    alphas = 1.0 - hi
    alphas[alphas < 1e-12] = 0.0  # a snapped crossing is its inner node

    # Per owner, the first largest alpha in direction order wins (-1 marks
    # the directions that are not candidates); the winners stay in owner order.
    table = np.full(candidate.shape, -1.0)
    table[cand_owner_row, cand_dir] = alphas
    best = np.flatnonzero(cand_dir == table.argmax(axis=1)[cand_owner_row])
    inner, alpha = inner_idx[best], alphas[best]
    location = np.where((alpha == 0.0)[:, None], ps.grid.nodes(inner),
                        outer[best] + hi[best, None] * step[best])
    gx, gy = gradient_at(shape, *location.T, ps.grid.h)
    norms = np.hypot(gx, gy)
    if (norms < 1e-300).any():
        i = int(np.argmax(norms < 1e-300))
        owner, node = tuple(owners[i].tolist()), tuple(inner[i].tolist())
        snap = "snapped onto" if alpha[i] == 0.0 else f"at alpha {alpha[i]:.3g} from"
        raise UnderResolvedBoundaryError(
            f"vanishing level-set gradient at the crossing of gamma- node {owner}, {snap} its "
            f"inner node {node}, h = {ps.grid.h:g}; the grid does not resolve the boundary there")
    return Intersections(owner=outer_idx[best], inner=inner, alpha=alpha, location=location,
                         normal=np.stack([gx / norms, gy / norms], axis=1))


def dump_classification_csv(ps: PointSets, path) -> None:
    """Write one ``x,y,class`` row per box node, for plotting the sets."""
    labels = np.where(ps.m_plus, "M+", "M-").astype(object)
    labels[ps.gamma_plus] = "gamma+"
    labels[ps.gamma_minus] = "gamma-"
    xs = ps.grid.xs()
    ys = ps.grid.ys()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,class\n")
        for j in range(ps.grid.nx):
            for k in range(ps.grid.ny):
                fh.write(f"{xs[j]:.17g},{ys[k]:.17g},{labels[j, k]}\n")
