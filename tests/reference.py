"""Reference oracles the tests compare the package against.

Each builds whole what the package only streams or reads in part: a held
kernel block, a dense full-window table of G, and the 5-point operator
over a whole array.  No solve path needs them, so they live here.
"""

import numpy as np

from latticebae.lgf import kernel_table
from latticebae.potentials import LayerKind, _row_gatherer


def assemble_layer_matrix(targets, sources, kind: LayerKind, ps) -> np.ndarray:
    """Dense kernel block for the given target and source index lists: the
    held-block reference for ``contract_layer_matrix`` and
    ``apply_layer_matrix``, filled by the gather they share.

    Sources must lie in gamma-; targets anywhere in N+.  For the double
    kernel the exterior connections are resolved once per source, and a
    source with none aborts assembly (the unbounded-domain failure mode).
    """
    fill = _row_gatherer(targets, sources, kind, ps)
    entries = np.empty((len(targets), len(sources)))
    fill(entries)
    return entries


def lgf_grid(rx: int, ry: int) -> np.ndarray:
    """Dense table of G over the window [-rx, rx] x [-ry, ry].

    Entry ``[i, j]`` holds G(i - rx, j - ry), mirrored from
    ``kernel_table``, so every entry is bitwise the matching entry of
    any larger table and the value kernel gathers read.  A new read-only
    array on each call.
    """
    half = kernel_table(rx, ry)
    centre = half.shape[1] // 2
    full = np.empty((2 * rx + 1, 2 * ry + 1))
    full[rx:] = half[: rx + 1, centre - ry : centre + ry + 1]
    full[:rx] = full[2 * rx : rx : -1]
    full.flags.writeable = False
    return full


def apply_stencil(values: np.ndarray) -> np.ndarray:
    """[A u] at box-interior nodes (edges return 0), A the 5-point operator,
    term for term as ``diffpot._stencil_at``."""
    out = np.zeros_like(values)
    out[1:-1, 1:-1] = (
        4.0 * values[1:-1, 1:-1]
        - values[:-2, 1:-1]
        - values[2:, 1:-1]
        - values[1:-1, :-2]
        - values[1:-1, 2:]
    )
    return out
