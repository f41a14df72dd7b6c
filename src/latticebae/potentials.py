"""Discrete single- and double-layer potentials on the lattice.

With G the lattice Green's function, the single-layer kernel is

    S(m, n) = G(m - n),

and the double-layer kernel differences G against the exterior
connections D_n of each source node (its neighbours in M- outside the
boundary layer):

    D(m, n) = sum_{k in D_n} [G(m - n) - G(m - k)].

Both kernels are discretely harmonic in m away from the source set, so a
potential u(m) = sum_n K(m, n) q(n) with density q on gamma- satisfies
the 5-point Laplace equation at every interior node.  The classical
operator blocks are restrictions of these kernels:

    S-, D-  : targets gamma-  (square, |gamma-| x |gamma-|),
    S+, D+  : targets gamma+  (|gamma+| x |gamma-|),

and any other target set inside the box window (augmented
interpolation sets, or the window's own edge) is equally legal since
the kernels are defined on the whole lattice.

Everything is dense: at the intended problem sizes (a few thousand
boundary nodes) dense assembly plus LAPACK factorizations is both
simpler and faster than hierarchical compression.  Kernel values are
gathered from the process's one table of G (:func:`latticebae.lgf.kernel_table`),
grown when needed to cover the point sets' kernel reach
(:attr:`PointSets.kernel_reach`): every offset from a target in the
box window to a node within one step of gamma-, which is every offset a
gather reads.
So each distinct lattice offset costs one evaluation in total, and no
entry is built that no gather reads.  Since G depends only on m - n and
G(-d) = G(d), the table holds half of the offsets [-Rx, Rx] x [-Ry, Ry],
rows j in [0, Rx] by columns k in [-Ry, Ry], and is read
raveled from its entry (0, 0) on: with W = 2Ry + 1 its row length,
G(m - n) sits at flat offset |t(m) - s(n)|, where t(m) = m1 W + m2 and
s(n) = n1 W + n2 are computed once per target and once per source.  A
block is filled a fixed number of target rows at a time, so index
temporaries never grow to the block's size.

The double kernel is a sparse combination of single-layer columns.  With
E the sources together with their exterior connections, and B the
|E| x |sources| matrix holding |D_n| at (n, n) and -1 at (k, n) for each
k in D_n,

    D(targets, sources) = S(targets, E) B,

so both kernels share one gather: a double row block is the single
block over E, multiplied by B as soon as it is gathered.  S(targets, E)
is never held whole.

The solver never needs the large target blocks themselves, only sparse
combinations of their rows and their products with a density:
:func:`contract_layer_matrix` adds each row block into such a combination
as it is gathered, and :func:`apply_layer_matrix` multiplies each row
block by the density, so neither holds the block whole.  The contraction
gives every matrix the solver factors (the direct matrix, and K- with it
where K- is factored); the product gives, in one call, the potential
on the box-window edge.  Both take (n, 2) index arrays, the product one
density value per source, and return plain arrays; the gather they
share converts and checks the index sets (sources in gamma-, targets in
the box window) before it reads them.

Values off the window edge need no gather: A G is the unit impulse, so
[A K q] is q on gamma- for the single kernel and B q on E for the
double (:func:`layer_sources`) and zero elsewhere, and the box solve in
:mod:`latticebae.diffpot` of those sources, with the edge values the
product gives, is K q on the whole window.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import sparse

from .errors import AssemblyError, DoubleLayerInapplicableError
from .geometry import DIRECTIONS, PointSets
from .lgf import kernel_table

#: Target rows gathered per step of a kernel block.
_ROW_BLOCK = 64


class LayerKind(Enum):
    SINGLE = "single"
    DOUBLE = "double"


def _as_index_array(indices) -> np.ndarray:
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise AssemblyError(f"expected an (n, 2) index array, got shape {arr.shape}")
    return arr


def _check_membership(indices, what, inside):
    """AssemblyError unless ``inside``, one flag per node, holds for
    every node."""
    if not inside.all():
        bad = indices[~inside][0]
        raise AssemblyError(f"{what} contains node {tuple(int(v) for v in bad)} outside its allowed set")


def _exterior_connections(ps: PointSets, sources):
    """E, the sources with their exterior connections, and B, with
    D(., sources) = S(., E) B.

    A connection of a source is a four-neighbour inside the box, in M-
    and not in gamma-.  E lists each node once, in canonical order.  B is
    sparse, |E| x |sources|: column n holds |D_n| at n's row and -1 at
    the row of each connection, so every column sums to zero.
    """
    connectable = np.pad(~ps.n_plus, 1)  # False outside the box
    neighbours = sources[:, None, :] + np.array(DIRECTIONS)
    present = connectable[neighbours[..., 0] + 1, neighbours[..., 1] + 1]
    counts = present.sum(axis=1)
    if not counts.all():
        bad = sources[np.flatnonzero(counts == 0)[0]]
        raise DoubleLayerInapplicableError(
            f"double-layer matrix inapplicable: source {tuple(int(v) for v in bad)} "
            "has no exterior connections"
        )
    col, d = np.nonzero(present)
    nodes = np.concatenate([sources, neighbours[col, d]])
    keys, rows = np.unique(nodes[:, 0] * ps.grid.ny + nodes[:, 1], return_inverse=True)
    b = sparse.csc_array(
        (np.concatenate([counts, np.full(len(col), -1)]).astype(float),
         (rows, np.concatenate([np.arange(len(sources)), col]))),
        shape=(len(keys), len(sources)),
    )
    return np.column_stack(np.divmod(keys, ps.grid.ny)), b


def layer_sources(density, kind: LayerKind, ps: PointSets):
    """The nodes where [A K density] is nonzero, A the 5-point operator,
    and its values there: A G is the unit impulse, so they are the density
    on gamma- for the single kernel, and B density on E for the double."""
    sources = ps.gamma_minus_indices
    if kind is LayerKind.SINGLE:
        return sources, density
    nodes, b = _exterior_connections(ps, sources)
    return nodes, b @ density


def _row_gatherer(targets, sources, kind: LayerKind, ps: PointSets):
    """A function ``fill(out, start=0)`` writing the kernel rows
    ``start : start + len(out)`` of the (targets, sources) block into
    ``out``, one row block at a time, from the table of G.  Sources
    outside gamma- or targets outside :attr:`PointSets.box_window` raise
    AssemblyError first.

    The double kernel gathers a row block of the single kernel over E,
    as an |E| x rows array (|s - t| = |t - s|), and combines its rows
    through B.  Every offset from a target in the box window to a source
    in gamma- or to one of its exterior connections lies within the sets'
    kernel reach (:attr:`PointSets.kernel_reach`), which the table
    covers, so no flat offset leaves the table, and the lookups clip
    instead of checking (a checked ``np.take`` buffers and copies its
    whole output).
    """
    targets = _as_index_array(targets)
    sources = _as_index_array(sources)
    _check_membership(sources, "source set", ps.gamma_minus[sources[:, 0], sources[:, 1]])
    window, offset = ps.box_window
    local = targets - offset
    _check_membership(targets, "target set",
                      ((local >= 0) & (local < (window.nx, window.ny))).all(axis=1))
    table = kernel_table(*ps.kernel_reach)
    width = table.shape[1]
    flat = table.ravel()[width // 2 :]
    b_t = None
    if kind is LayerKind.DOUBLE:
        sources, b = _exterior_connections(ps, sources)
        b_t = b.T.tocsr()
    t_flat = targets[:, 0] * width + targets[:, 1]
    s_flat = sources[:, 0] * width + sources[:, 1]

    def offsets(a, b):
        # |a - b|, in one temporary that dies with the take reading it.
        d = a - b
        return np.abs(d, out=d)

    def fill(out, start=0):
        for lo in range(0, len(out), _ROW_BLOCK):
            block = out[lo : lo + _ROW_BLOCK]
            rows = t_flat[start + lo : start + lo + len(block)]
            if b_t is None:
                np.take(flat, offsets(rows[:, None], s_flat), out=block, mode="clip")
            else:
                block[...] = (b_t @ np.take(flat, offsets(s_flat[:, None], rows), mode="clip")).T

    return fill


def contract_layer_matrix(weights, targets, sources, kind: LayerKind, ps: PointSets) -> np.ndarray:
    """``weights @ K`` for K the kernel block on (targets, sources),
    without ever holding K.

    ``weights`` is sparse with one column per target.  K is gathered one
    row block at a time in target order (neighbouring targets read
    neighbouring table entries), and each block is added into the product
    rows its weights reach, and into no other: a block whose targets are
    weighted by far-apart rows (at the seam of two concatenated target
    sets, say) adds a few rows, not the span between them.
    """
    fill = _row_gatherer(targets, sources, kind, ps)
    weights = sparse.coo_array(weights)
    if weights.shape[1] != len(targets):
        raise AssemblyError(f"{weights.shape[1]} weight columns for {len(targets)} targets")
    # The weights' entries sorted once by (row block of their column, row,
    # column): each block's entries are then its slab's CSR entries, each
    # run of one row a slab row.
    weights.sum_duplicates()
    blocks = weights.col // _ROW_BLOCK
    order = np.lexsort((weights.col, weights.row, blocks))
    blocks, rows = blocks[order], weights.row[order]
    cols, values = weights.col[order], weights.data[order]
    runs = np.flatnonzero(np.diff(blocks, prepend=-1) | np.diff(rows, prepend=-1))
    starts = np.arange(0, len(targets), _ROW_BLOCK)
    edges = np.searchsorted(blocks, np.arange(len(starts) + 1))
    run_edges = np.searchsorted(runs, edges)
    product = np.zeros((weights.shape[0], len(sources)))
    scratch = np.empty((min(_ROW_BLOCK, len(targets)), len(sources)))
    for start, first, last, run_lo, run_hi in zip(
        starts, edges[:-1], edges[1:], run_edges[:-1], run_edges[1:]
    ):
        if first == last:
            continue
        block = scratch[: len(targets) - start]
        fill(block, start)
        heads = runs[run_lo:run_hi]
        slab = sparse.csr_array(
            (values[first:last], cols[first:last] - start, np.append(heads, last) - first),
            shape=(len(heads), len(block)),
        )
        product[rows[heads]] += slab @ block
    return product


def apply_layer_matrix(targets, sources, density, kind: LayerKind, ps: PointSets) -> np.ndarray:
    """``K @ density`` for K the kernel block on (targets, sources), with
    one density value per source, without ever holding K.

    Targets may lie anywhere in the box window.  K is gathered one row block at a
    time, and each block is multiplied by the density as it is gathered;
    a double block is formed as S(block, E) B before it meets the density.
    """
    fill = _row_gatherer(targets, sources, kind, ps)
    if len(density) != len(sources):
        raise AssemblyError(f"{len(density)} values on {len(sources)} support nodes")
    out = np.empty(len(targets))
    scratch = np.empty((min(_ROW_BLOCK, len(targets)), len(sources)))
    for start in range(0, len(targets), _ROW_BLOCK):
        block = scratch[: len(targets) - start]
        fill(block, start)
        np.matmul(block, density, out=out[start : start + len(block)])
    return out
