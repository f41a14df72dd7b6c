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
induces.  The right division factors K-^T in place, over K-'s own
entries (K- is C-ordered, so K-^T is Fortran-ordered and LAPACK needs no
copy), and solves |gamma-| right-hand sides against it, in place in the
direct matrix; no inverse is ever formed, and recovery reuses that
factor for the density q = K-^{-1} v.  For Dirichlet closures eta is
empty, so C+ = Phi+ and C- = Phi-.

The direct matrix is built in one way only: one contraction of the
weights [C+ | C-] against the targets gamma~+ followed by gamma-, taken
from the kernel gather block by block.  So K+ (|gamma~+| x |gamma-|) is
never held, and the direct form holds no kernel block at all: its one
|gamma-|^2 array is the matrix.  The Schur form holds that array and K-.

These kernel blocks never leave the module: :func:`assemble_system`
gathers them from the closure it is given and returns a :class:`System`
holding the matrix and the Schur form's K-^T factor.  :func:`dense_solve`
factors the matrix in place, so a direct solve peaks at one |gamma-|^2
array and a Schur solve at two.  Once the density q is known,
:func:`recover` streams the layer potential's trace on gamma through the
kernel gather, in the canonical gamma order the difference potential
reads: K(gamma, gamma-) q for the direct form, and for the Schur form
the solved v on gamma- with K(gamma+, gamma-) q on gamma+, never holding
a block.  :func:`solve_system` runs the whole line in one call.
:func:`condition_numbers` serves the conditioning study with the very
matrices a solve factors: from one gather of K- and one contraction of
the direct matrix it takes cond(K-), then cond of the direct matrix,
which it then right-divides in place into the Schur matrix for the
third; no array is copied.  :func:`condition_number` takes the singular
values of an exactly symmetric matrix as the moduli of its eigenvalues,
from the symmetric eigensolver at about a quarter of the cost of an SVD.
S- is the one such matrix, since G(d) = G(-d) and its gather reads
entries (i, j) and (j, i) at the same table offset; every other matrix
takes the SVD.

All factorizations share one pivot-guarded LU: a singular system raises
SingularSystemError, a singular K- FormulationSingularError.  A matrix
that is factored, or whose condition number is taken, is scanned for
finiteness once, here rather than again inside LAPACK, and a non-finite
one raises AssemblyError.

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
from .errors import AssemblyError, FormulationSingularError, SingularSystemError
from .geometry import PointSets
from .potentials import (
    DensityVector,
    LayerKind,
    apply_layer_matrix,
    assemble_layer_matrix,
    contract_layer_matrix,
)

#: Relative pivot threshold below which an LU factor counts as singular.
_PIVOT_RTOL = 1e-14


class SystemForm(Enum):
    DIRECT = "direct"
    SCHUR = "schur"


@dataclass(frozen=True)
class Formulation:
    """Which kernel feeds the layer matrices, and which unknown is solved."""

    kernel: LayerKind
    form: SystemForm

    @property
    def tag(self) -> str:
        return f"{self.kernel.value}-{self.form.value}"


def formulation_from_tag(tag: str) -> Formulation:
    try:
        kernel_name, form_name = tag.split("-", 1)
        return Formulation(kernel=LayerKind(kernel_name), form=SystemForm(form_name))
    except ValueError:
        raise AssemblyError(f"unknown formulation tag {tag!r}") from None


@dataclass
class SolveResult:
    """A solved density on gamma- with the layer potential's ``trace`` on
    gamma, both in canonical order; ``trace_minus`` is the trace's gamma-
    part.  ``system_cond`` is the system's condition number when
    :func:`solve_system` was asked for it."""

    density: DensityVector
    trace: np.ndarray
    trace_minus: np.ndarray
    system_cond: Optional[float] = None


@dataclass
class System:
    """One closure's square |gamma-| system in one formulation, with the
    LU factor of K-^T that Schur recovery reads (None for the direct
    form).

    :func:`dense_solve` consumes ``matrix``; :func:`solve_system` sets it
    to None once the system is factored."""

    formulation: Formulation
    matrix: Optional[np.ndarray]
    kernel_lu: Optional[tuple]


def _direct_matrix(cm: ClosureMatrices, ps: PointSets, kernel: LayerKind) -> np.ndarray:
    """C+ K+ + C- K- in one contraction of [C+ | C-] over gamma~+ and
    gamma- together, so no kernel block is held."""
    return contract_layer_matrix(
        sparse.hstack([cm.c_plus, cm.c_minus]),
        np.concatenate([cm.gamma_tilde_plus, cm.gamma_minus]),
        cm.gamma_minus, kernel, ps,
    )


def _k_minus(cm: ClosureMatrices, ps: PointSets, kernel: LayerKind) -> np.ndarray:
    return assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps).entries


def _guarded_lu(matrix: np.ndarray, singular_error: type, message: str):
    """LU factors, or ``singular_error(message)`` if a pivot is below
    threshold.  Consumes ``matrix``, which must be finite: a
    Fortran-ordered float array is factored in place."""
    scale = max(matrix.max(), -matrix.min())
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


def _kernel_factor(kernel: LayerKind, k_minus: np.ndarray) -> tuple:
    """The guarded LU factor of K-^T, over K-'s own entries."""
    name = "D-" if kernel is LayerKind.DOUBLE else "S-"
    return _guarded_lu(_finite(k_minus.T, name), FormulationSingularError,
                       f"{name} is numerically singular; its Schur form is unavailable")


def _right_divide(matrix: np.ndarray, kernel_lu: tuple) -> np.ndarray:
    """``matrix`` K-^{-1}, in place: |gamma-| right-hand sides solved
    against the factor of K-^T."""
    return linalg.lu_solve(kernel_lu, matrix.T, overwrite_b=True, check_finite=False).T


def assemble_system(formulation: Formulation, cm: ClosureMatrices, ps: PointSets) -> System:
    """The square |gamma-| system of ``cm`` in one formulation, with what
    :func:`recover` reads; its right-hand side is ``cm.rhs``.  The direct
    matrix M is one contraction, and the Schur matrix is M K-^{-1}, formed
    in place in M's array.  The matrix is checked for finiteness where it
    is read: by :func:`dense_solve` and :func:`condition_number`."""
    matrix = _direct_matrix(cm, ps, formulation.kernel)
    kernel_lu = None
    if formulation.form is SystemForm.SCHUR:
        kernel_lu = _kernel_factor(formulation.kernel, _k_minus(cm, ps, formulation.kernel))
        matrix = _right_divide(matrix, kernel_lu)
    return System(formulation, matrix, kernel_lu)


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
    lu = _guarded_lu(_finite(matrix.T, "system matrix"), SingularSystemError,
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


def recover(solution: np.ndarray, system: System, ps: PointSets) -> SolveResult:
    """Density and its trace on gamma from the solved primary unknown;
    the trace is streamed through the kernel gather on ``ps``."""
    kernel = system.formulation.kernel
    gamma = ps.gamma_indices
    on_minus = ps.gamma_minus[gamma[:, 0], gamma[:, 1]]
    if system.formulation.form is SystemForm.DIRECT:
        density = DensityVector(ps.gamma_minus_indices, solution)
        trace = apply_layer_matrix(gamma, density, kernel, ps)
    else:
        density = DensityVector(ps.gamma_minus_indices,
                                linalg.lu_solve(system.kernel_lu, solution, trans=1,
                                                check_finite=False))
        trace = np.empty(len(gamma))
        trace[on_minus] = solution
        trace[~on_minus] = apply_layer_matrix(ps.gamma_plus_indices, density, kernel, ps)
    return SolveResult(density=density, trace=trace, trace_minus=trace[on_minus])


def solve_system(formulation: Formulation, cm: ClosureMatrices, ps: PointSets,
                 compute_cond: bool = False) -> SolveResult:
    """Gather, assemble, solve, and recover in one sweep.  The condition
    number, when asked for, is taken before the system is factored in
    place."""
    system = assemble_system(formulation, cm, ps)
    cond = condition_number(system.matrix) if compute_cond else None
    solution = dense_solve(system.matrix, cm.rhs)
    system.matrix = None  # its entries are the factor now
    result = recover(solution, system, ps)
    result.system_cond = cond
    return result


def condition_numbers(kernel: LayerKind, cm: ClosureMatrices, ps: PointSets) -> tuple:
    """cond(K-), then the condition numbers of the Schur and the direct
    system of ``cm``, from one gather of K- and one contraction of the
    direct matrix M, each number taken before its array is overwritten:
    K- by its factor, M by the Schur matrix M K-^{-1}."""
    k_minus = _k_minus(cm, ps, kernel)
    cond_minus = condition_number(k_minus)
    matrix = _direct_matrix(cm, ps, kernel)
    cond_direct = condition_number(matrix)
    cond_schur = condition_number(_right_divide(matrix, _kernel_factor(kernel, k_minus)))
    return cond_minus, cond_schur, cond_direct
