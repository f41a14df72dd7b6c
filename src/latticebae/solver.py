"""Dense assembly and solution of the boundary algebraic systems.

Combining a closure with layer matrices gives a square system of size
|gamma-| in one of two algebraically equivalent forms per kernel.  With
the eta rows eliminated, the boundary rows weight gamma~+ by the sparse
C+ = Phi+ - Phi'- R+ and gamma- by C- = Phi- - Phi'- R-.  The direct
form keeps the density as the unknown,

    (C+ K+ + C- K-) q = g,

and needs no inversion.  The Schur form substitutes the gamma- trace
v = K- q as the unknown; its matrix is the direct one right-divided by
K-,

    (C+ K+ + C- K-) K-^{-1} v = ((C+ K+) K-^{-1} + C-) v = g,

whose conditioning mirrors the preconditioned operator the trace map
induces.  Both forms have the same solution, so a solve in either form
solves the direct system for q; the Schur matrix is formed only where
its conditioning is the point, for ``compute_cond`` and the conditioning
study.  There the right division factors K-^T in place, over K-'s own
entries (K- is C-ordered, so K-^T is Fortran-ordered and LAPACK needs no
copy), and solves |gamma-| right-hand sides against it, in place in the
direct matrix; no inverse is ever formed.  For Dirichlet closures eta is
empty, so C+ = Phi+ and C- = Phi-.

The direct matrix is built in one way only: one contraction of the
weights [C+ | C-] against the targets gamma~+ followed by gamma-, taken
from the kernel gather block by block.  So K+ (|gamma~+| x |gamma-|) is
never held, and a solve holds no kernel block at all: its one |gamma-|^2
array is the matrix.  Where K- is factored, the same contraction gives
it too: the weights [[C+ | C-], [0 | I]] over the same targets give
[M; K-] as one (2|gamma-|, |gamma-|) array, whose two halves are both
C-ordered, so K- needs no gather of its own.

These kernel blocks never leave the module: :func:`assemble_system`
gathers them from the closure it is given and returns the direct matrix
as a plain array, with K- stacked under it when asked.  Only
:func:`_right_divide` forms the Schur matrix from those two.
:func:`dense_solve` factors the matrix in place, so a solve peaks at one
|gamma-|^2 array.  Once the density q is known, :func:`recover` streams
the layer potential on gamma, in the canonical order the difference
potential reads, and on the box-window edge nodes of M+ (the exterior's
box-solve data; a bounded domain has none) through the kernel gather in
one product, never holding a block.  :func:`solve_system` runs the whole
line in one call; asked for the condition number of a Schur form, it
contracts [M; K-] and right-divides a copy of M before M is factored, so
only then does a solve gather and factor K-.  :func:`condition_numbers`
serves the conditioning study from the same contraction of [M; K-]: it
takes cond(K-), then cond(M), which it then right-divides in place into
the Schur matrix for the third; no array is copied.
:func:`condition_number` takes the singular values of an exactly
symmetric matrix as the moduli of its eigenvalues, from the symmetric
eigensolver at about a quarter of the cost of an SVD.  S- is the one
such matrix, since G(d) = G(-d) and its gather reads entries (i, j) and
(j, i) at the same table offset; every other matrix takes the SVD.

All factorizations share one pivot-guarded LU: a singular system raises
SingularSystemError, and a singular K-, where it is factored,
FormulationSingularError.  A matrix that is factored, or whose condition
number is taken, is checked for finiteness here rather than again inside
LAPACK, and a non-finite one raises AssemblyError.  A factored matrix
needs no scan of its own for it: the scale its pivot guard reads,
max |entry|, is NaN or inf exactly when an entry is.

Everything here is dense: at desk scales |gamma-| stays in the low
thousands, and the conditioning study wants the explicit matrices
anyway.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import LinAlgWarning

from .closure import ClosureMatrices
from .diffpot import edge_nodes
from .errors import AssemblyError, FormulationSingularError, SingularSystemError
from .geometry import PointSets
from .potentials import LayerKind, apply_layer_matrix, contract_layer_matrix

#: Relative pivot threshold below which an LU factor counts as singular.
_PIVOT_RTOL = 1e-14


class SystemForm(Enum):
    DIRECT = "direct"
    SCHUR = "schur"


@dataclass(frozen=True)
class Formulation:
    """Which kernel feeds the layer matrices, and which form of the system
    is built; a solve in either form solves for the density."""

    kernel: LayerKind
    form: SystemForm

    @property
    def tag(self) -> str:
        return f"{self.kernel.value}-{self.form.value}"


def formulation_from_tag(tag: str) -> Formulation:
    if not isinstance(tag, str):
        raise AssemblyError(f"formulation tag must be a string, got {tag!r}")
    try:
        kernel_name, form_name = tag.split("-", 1)
        return Formulation(kernel=LayerKind(kernel_name), form=SystemForm(form_name))
    except ValueError:
        raise AssemblyError(f"unknown formulation tag {tag!r}") from None


@dataclass
class SolveResult:
    """A solved density on gamma- with the layer potential's ``trace`` on
    gamma, both plain arrays in canonical order; ``trace_minus`` is the
    trace's gamma- part, and ``edge`` the potential on the box-window edge
    nodes of M+ (:func:`latticebae.diffpot.edge_nodes`; none on a bounded
    domain).  ``system_cond`` is the system's condition number when
    :func:`solve_system` was asked for it."""

    density: np.ndarray
    trace: np.ndarray
    trace_minus: np.ndarray
    edge: np.ndarray
    system_cond: Optional[float] = None


def assemble_system(kernel: LayerKind, cm: ClosureMatrices, ps: PointSets,
                    with_k_minus: bool = False) -> np.ndarray:
    """The direct matrix M = C+ K+ + C- K- of ``cm``, whose right-hand
    side is ``cm.rhs``, in one contraction of [C+ | C-] over gamma~+ and
    gamma- together, so no kernel block is held.  ``with_k_minus`` stacks
    the rows [0 | I] under those weights, and the same contraction gives
    [M; K-], whose two halves are both C-ordered.  The matrix is checked
    for finiteness where it is read: by :func:`dense_solve` and
    :func:`condition_number`."""
    weights = [[cm.c_plus, cm.c_minus]]
    if with_k_minus:
        weights.append([None, sparse.identity(len(cm.gamma_minus))])
    return contract_layer_matrix(
        sparse.bmat(weights),
        np.concatenate([cm.gamma_tilde_plus, cm.gamma_minus]),
        cm.gamma_minus, kernel, ps,
    )


def _guarded_lu(matrix: np.ndarray, name: str, singular_error: type, message: str):
    """LU factors; AssemblyError if ``matrix`` has a non-finite entry, and
    ``singular_error(message)`` if a pivot is below threshold.  Consumes
    ``matrix``: a Fortran-ordered float array is factored in place."""
    # NaN or inf exactly when an entry is, so the scale is the finiteness check.
    scale = max(matrix.max(), -matrix.min())
    if not np.isfinite(scale):
        raise AssemblyError(f"{name} contains non-finite entries")
    # The pivot check below is the singularity diagnosis; scipy's own
    # warning about exact zeros would just duplicate it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = linalg.lu_factor(matrix, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < _PIVOT_RTOL * scale:
        raise singular_error(message)
    return lu, piv


def _finite(array: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(array).all():
        raise AssemblyError(f"{name} contains non-finite entries")
    return array


def _right_divide(matrix: np.ndarray, k_minus: np.ndarray, kernel: LayerKind) -> np.ndarray:
    """``matrix`` K-^{-1}, in place: K-^T is factored by the guarded LU
    over K-'s own entries, and |gamma-| right-hand sides are solved
    against it."""
    name = "D-" if kernel is LayerKind.DOUBLE else "S-"
    kernel_lu = _guarded_lu(k_minus.T, name, FormulationSingularError,
                            f"{name} is numerically singular; its Schur form is unavailable")
    return linalg.lu_solve(kernel_lu, matrix.T, overwrite_b=True, check_finite=False).T


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with a pivot-based singularity guard; a non-finite
    matrix or right-hand side raises AssemblyError.

    Consumes ``matrix``: it is factored as its transpose, in place when
    ``matrix`` is a C-ordered float array (its transpose is then
    Fortran-ordered and LAPACK needs no copy), so its entries are the
    factor afterwards.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise AssemblyError(f"system matrix has shape {matrix.shape}")
    if rhs.shape[:1] != matrix.shape[:1]:
        raise AssemblyError(f"right-hand side has shape {rhs.shape} for a "
                            f"{matrix.shape} system matrix")
    lu = _guarded_lu(matrix.T, "system matrix", SingularSystemError,
                     "system matrix is numerically singular")
    return linalg.lu_solve(lu, _finite(rhs, "right-hand side"), trans=1, check_finite=False)


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number; +inf when the smallest singular value is 0,
    and AssemblyError for a non-finite matrix.

    An exactly symmetric matrix takes its singular values as the moduli
    of its eigenvalues, from the symmetric eigensolver (as backward
    stable as the SVD, at about a quarter of its cost); any other matrix
    takes the SVD.
    """
    matrix = _finite(np.asarray(matrix, dtype=float), "matrix")
    if matrix.shape[0] == matrix.shape[-1] and linalg.issymmetric(matrix):
        sv = np.abs(linalg.eigvalsh(matrix, check_finite=False))
        largest, smallest = sv.max(), sv.min()
    else:
        sv = linalg.svdvals(matrix, check_finite=False)
        largest, smallest = sv[0], sv[-1]
    if smallest == 0.0:
        return np.inf
    return float(largest / smallest)


def recover(density: np.ndarray, kernel: LayerKind, ps: PointSets) -> SolveResult:
    """The solved density and its layer potential on gamma, then on the
    box-window edge nodes of M+, streamed through the kernel gather on
    ``ps`` in one product."""
    gamma = ps.gamma_indices
    values = apply_layer_matrix(np.concatenate([gamma, edge_nodes(ps)]),
                                ps.gamma_minus_indices, density, kernel, ps)
    trace, edge = values[: len(gamma)], values[len(gamma) :]
    return SolveResult(density=density, trace=trace, edge=edge,
                       trace_minus=trace[ps.gamma_minus[gamma[:, 0], gamma[:, 1]]])


def solve_system(formulation: Formulation, cm: ClosureMatrices, ps: PointSets,
                 compute_cond: bool = False) -> SolveResult:
    """Gather, assemble, solve, and recover in one sweep.  Either form
    solves the direct system, so a Schur solve is bitwise the direct solve
    of its kernel.  The condition number, when asked for, is of the
    formulation's own matrix, taken before the direct one is factored in
    place; for the Schur form it is of M K-^{-1}, right-divided in a copy
    of M's half of the one contraction of [M; K-]."""
    kernel = formulation.kernel
    schur_cond = compute_cond and formulation.form is SystemForm.SCHUR
    matrix = assemble_system(kernel, cm, ps, with_k_minus=schur_cond)
    cond = None
    if schur_cond:
        matrix, k_minus = np.split(matrix, 2)
        cond = condition_number(_right_divide(matrix.copy(), k_minus, kernel))
    elif compute_cond:
        cond = condition_number(matrix)
    result = recover(dense_solve(matrix, cm.rhs), kernel, ps)
    result.system_cond = cond
    return result


def condition_numbers(kernel: LayerKind, cm: ClosureMatrices, ps: PointSets) -> tuple:
    """cond(K-), then the condition numbers of the Schur and the direct
    system of ``cm``, from one contraction of [M; K-], each number taken
    before its array is overwritten: K- by its factor, M by the Schur
    matrix M K-^{-1}."""
    matrix, k_minus = np.split(assemble_system(kernel, cm, ps, with_k_minus=True), 2)
    cond_minus = condition_number(k_minus)
    cond_direct = condition_number(matrix)
    cond_schur = condition_number(_right_divide(matrix, k_minus, kernel))
    return cond_minus, cond_schur, cond_direct
