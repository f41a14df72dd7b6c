"""Reference oracles the tests compare the package against.

Each builds whole what the package only streams or reads in part: a held
kernel block, a density's trace on all of gamma, a dense full-window
table of G, the 5-point operator over a whole array, and every singular
value of a matrix.  One more takes a route the package does not: a
whole bounded solve without the lattice Green's function.  No solve
path needs them, so they live here.
"""

import numpy as np
import scipy.linalg

from latticebae.closure import correct_boundary_rhs
from latticebae.diffpot import difference_potential, particular_solution, window_values
from latticebae.lgf import kernel_table
from latticebae.potentials import LayerKind, _row_gatherer, apply_layer_matrix


def assemble_layer_matrix(targets, sources, kind: LayerKind, ps) -> np.ndarray:
    """Dense kernel block for the given target and source index lists: the
    held-block reference for ``contract_layer_matrix`` and
    ``apply_layer_matrix``, filled by the gather they share.

    Sources must lie in gamma-; targets anywhere in the box window.  For the double
    kernel the exterior connections are resolved once per source, and a
    source with none aborts assembly (the unbounded-domain failure mode).
    """
    fill = _row_gatherer(targets, sources, kind, ps)
    entries = np.empty((len(targets), len(sources)))
    fill(entries)
    return entries


def gamma_trace(density, kind: LayerKind, ps) -> np.ndarray:
    """The layer potential of a gamma- density on ``ps.gamma_indices``, in
    canonical order, as the gathered kernel product: the trace that the
    closure rows and the difference potential read."""
    return apply_layer_matrix(ps.gamma_indices, ps.gamma_minus_indices, density, kind, ps)


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


def svd_condition_number(matrix) -> float:
    """2-norm condition number from the full SVD: the reference for
    ``solver.condition_number``, which takes only the extreme singular
    values."""
    sv = scipy.linalg.svdvals(matrix)
    return sv[0] / sv[-1]


def auxiliary_domain_solve(mf, ps, cm) -> np.ndarray:
    """The discrete solution on M+, in canonical order, by the paper's
    bounded auxiliary domain instead of the lattice Green's function.

    The unknown is the trace u_gamma on all of gamma.  The projection
    P_gamma has as column j the difference potential of the j-th unit
    vector on gamma, one box solve each, read at gamma and gamma~+.  The
    homogeneous part satisfies the boundary equation with projection,
    u_gamma - P_gamma,gamma u_gamma = 0, and the closure rows give the
    rest, C+ P_gamma~+,gamma u_gamma + C- E- u_gamma = g, E- selecting
    gamma- from gamma and g the right-hand side corrected for the
    particular solution u_p.  The stacked system is solved by least
    squares, and the values are the difference potential of u_gamma
    plus u_p.  This route shares the closure ``cm`` and the box solver
    with the package's solve, and no Green's-function table, kernel
    gather, double-layer connection matrix or LU.

    ``mf``, ``ps`` and ``cm`` are what ``harness._discretize`` returns.
    Bounded domains only: on the unbounded exterior, M+ reaches the
    window edge, where the difference potential's zero edge values are
    not the solution's, and only the lattice potential gives those.
    """
    gamma = ps.gamma_indices
    targets = np.concatenate([gamma, cm.gamma_tilde_plus])
    projection = np.empty((len(targets), len(gamma)))
    unit = np.zeros(len(gamma))
    for j in range(len(gamma)):
        unit[j] = 1.0
        projection[:, j] = window_values(difference_potential(unit, ps), targets, ps)
        unit[j] = 0.0
    closure_rows = cm.c_plus @ projection[len(gamma):]
    closure_rows[:, ps.gamma_minus[gamma[:, 0], gamma[:, 1]]] += cm.c_minus.toarray()
    u_p = None if mf.f is None else particular_solution(mf.f, ps)
    g = cm.rhs if u_p is None else correct_boundary_rhs(cm, u_p, ps)
    system = np.vstack([np.eye(len(gamma)) - projection[: len(gamma)], closure_rows])
    u_gamma = scipy.linalg.lstsq(system, np.concatenate([np.zeros(len(gamma)), g]))[0]
    values = difference_potential(u_gamma, ps)
    if u_p is not None:
        values += u_p
    return window_values(values, np.argwhere(ps.m_plus), ps)
