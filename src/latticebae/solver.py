"""Dense assembly and solution of the boundary algebraic systems.

Combining a closure with layer matrices gives a square system of size
|gamma-| in one of two algebraically equivalent forms per kernel.  With
the eta rows eliminated, the boundary rows weight gamma~+ by the sparse
C+ = Phi+ - Phi'- R+ and gamma- by C- = Phi- - Phi'- R-.  The direct
form keeps the density as the unknown,

    (C+ K+ + C- K-) q = g,

and needs no inversion.  The Schur form substitutes the gamma- trace
v = K- q as the unknown, turning the system into

    ((C+ K+) K-^{-1} + C-) v = g,

whose conditioning mirrors the preconditioned operator the trace map
induces.  (C+ K+) K-^{-1} is realized by factoring K-^T in place, over
K-'s own entries (K- is C-ordered, so K-^T is Fortran-ordered and LAPACK
needs no copy), and solving |gamma-| right-hand sides against it; no
inverse is ever formed, and recovery reuses that factor for the density
q = K-^{-1} v.  For Dirichlet closures eta is empty, so C+ = Phi+ and
C- = Phi-.

K+ (|gamma~+| x |gamma-|) enters only through C+ K+ and through its
gamma+ rows, which give the gamma+ trace; both are taken from the
kernel gather block by block, so K+ itself is never held.  Either form
is then assembled in place in the one |gamma-|^2 array of C+ K+.

These kernel blocks never leave the module: :func:`assemble_system`
gathers them from the closure it is given and returns a :class:`System`,
which :func:`recover` reads, and :func:`solve_system` runs the whole
line in one call.  :func:`condition_numbers` serves the conditioning
study: from one gather it returns cond(K-), then builds the Schur form
on copies of C+ K+ and K- and the direct form in place, and takes each
system's condition number before the next is built.

All factorizations share one pivot-guarded LU: a singular system raises
SingularSystemError, a singular K- FormulationSingularError.

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
from scipy import linalg
from scipy.linalg import LinAlgWarning

from .closure import ClosureMatrices
from .errors import AssemblyError, FormulationSingularError, SingularSystemError
from .geometry import PointSets
from .potentials import (
    _ROW_BLOCK,
    DensityVector,
    LayerKind,
    LayerMatrix,
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
    """A solved density with the layer potential's traces: ``trace_minus``
    on gamma- (the density's support), ``trace_plus`` on the nodes
    ``trace_plus_nodes``, which are the gamma+ nodes of the closure's
    gamma~+ in their gamma~+ order (all of gamma~+ for Dirichlet, where
    the two sets coincide)."""

    density: DensityVector
    trace_minus: np.ndarray
    trace_plus: np.ndarray
    trace_plus_nodes: np.ndarray
    system_cond: Optional[float]
    residual_norm: float


@dataclass
class System:
    """One closure's square |gamma-| system in one formulation, with what
    recovery reads: the gamma+ rows of K+, and K- for the direct form or
    the LU factor of K-^T, which overwrote K-, for the Schur form (the
    other one None)."""

    formulation: Formulation
    matrix: np.ndarray
    k_plus_gamma: LayerMatrix
    k_minus: Optional[np.ndarray]
    kernel_lu: Optional[tuple]


def _layer_blocks(cm: ClosureMatrices, ps: PointSets, kernel: LayerKind):
    """C+ K+, the gamma+ rows of K+, and K-, on the closure's orderings;
    the |gamma~+| x |gamma-| block K+ itself is never held."""
    tp = cm.gamma_tilde_plus
    c_plus_k_plus, k_plus_gamma = contract_layer_matrix(
        cm.c_plus, tp, ps.gamma_plus[tp[:, 0], tp[:, 1]], cm.gamma_minus, kernel, ps
    )
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    return c_plus_k_plus, k_plus_gamma, k_minus.entries


def _guarded_lu(matrix: np.ndarray, singular_error: type, message: str,
                overwrite: bool = False):
    """LU factors, or ``singular_error(message)`` if a pivot is below
    threshold.  With ``overwrite`` a Fortran-ordered ``matrix`` is
    factored in place."""
    scale = max(matrix.max(), -matrix.min())
    # The pivot check below is the singularity diagnosis; scipy's own
    # warning about exact zeros would just duplicate it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = linalg.lu_factor(matrix, overwrite_a=overwrite)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < _PIVOT_RTOL * scale:
        raise singular_error(message)
    return lu, piv


def _build_system(formulation: Formulation, cm: ClosureMatrices, c_plus_k_plus: np.ndarray,
                  k_plus_gamma: LayerMatrix, km: np.ndarray) -> System:
    """The system of one formulation, built in place in ``c_plus_k_plus``;
    the Schur form also overwrites K- (``km``) with its factor."""
    kernel_lu = None
    if formulation.form is SystemForm.DIRECT:
        matrix = c_plus_k_plus
        for start in range(0, len(matrix), _ROW_BLOCK):
            stop = start + _ROW_BLOCK
            matrix[start:stop] += cm.c_minus[start:stop] @ km
    else:
        name = "D-" if formulation.kernel is LayerKind.DOUBLE else "S-"
        kernel_lu = _guarded_lu(
            km.T, FormulationSingularError,
            f"{name} is numerically singular; its Schur form is unavailable",
            overwrite=True,
        )
        km = None  # its entries now hold the factor
        # (C+ K+) K-^{-1}: |gamma-| right-hand sides, solved in place.
        matrix = linalg.lu_solve(kernel_lu, c_plus_k_plus.T, overwrite_b=True).T
        c_minus = cm.c_minus.tocoo()
        np.add.at(matrix, (c_minus.row, c_minus.col), c_minus.data)
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("assembled system contains non-finite entries")
    return System(formulation, matrix, k_plus_gamma, km, kernel_lu)


def assemble_system(formulation: Formulation, cm: ClosureMatrices, ps: PointSets) -> System:
    """The square |gamma-| system of ``cm`` in one formulation, with the
    blocks :func:`recover` reads; its right-hand side is ``cm.rhs``."""
    return _build_system(formulation, cm, *_layer_blocks(cm, ps, formulation.kernel))


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with a pivot-based singularity guard."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise AssemblyError(f"system matrix has shape {matrix.shape}")
    lu = _guarded_lu(matrix, SingularSystemError, "system matrix is numerically singular")
    return linalg.lu_solve(lu, rhs)


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number; +inf when the smallest singular value is 0."""
    sv = linalg.svdvals(np.asarray(matrix, dtype=float))
    if sv[-1] == 0.0:
        return np.inf
    return float(sv[0] / sv[-1])


def recover(solution: np.ndarray, system: System, system_cond: Optional[float] = None,
            residual_norm: float = 0.0) -> SolveResult:
    """Density and both traces from the solved primary unknown."""
    if system.formulation.form is SystemForm.DIRECT:
        density = solution
        trace_minus = system.k_minus @ density
    else:
        trace_minus = solution
        density = linalg.lu_solve(system.kernel_lu, trace_minus, trans=1)
    return SolveResult(
        density=DensityVector(support=system.k_plus_gamma.cols, values=density),
        trace_minus=np.asarray(trace_minus, dtype=float),
        trace_plus=system.k_plus_gamma.entries @ density,
        trace_plus_nodes=system.k_plus_gamma.rows,
        system_cond=system_cond,
        residual_norm=residual_norm,
    )


def solve_system(formulation: Formulation, cm: ClosureMatrices, ps: PointSets,
                 compute_cond: bool = False) -> SolveResult:
    """Gather, assemble, solve, and recover in one sweep."""
    system = assemble_system(formulation, cm, ps)
    solution = dense_solve(system.matrix, cm.rhs)
    residual = float(np.abs(system.matrix @ solution - cm.rhs).max())
    cond = condition_number(system.matrix) if compute_cond else None
    return recover(solution, system, system_cond=cond, residual_norm=residual)


def condition_numbers(kernel: LayerKind, cm: ClosureMatrices, ps: PointSets) -> tuple:
    """cond(K-), then the condition numbers of the Schur and the direct
    system of ``cm``, all from one gather of the kernel blocks."""
    c_plus_k_plus, k_plus_gamma, k_minus = _layer_blocks(cm, ps, kernel)
    cond_minus = condition_number(k_minus)
    # The Schur form is built on copies and dropped before the direct form
    # is built in place.
    schur = _build_system(Formulation(kernel, SystemForm.SCHUR), cm,
                          np.array(c_plus_k_plus), k_plus_gamma, np.array(k_minus))
    cond_schur = condition_number(schur.matrix)
    del schur
    direct = _build_system(Formulation(kernel, SystemForm.DIRECT), cm,
                           c_plus_k_plus, k_plus_gamma, k_minus)
    return cond_minus, cond_schur, condition_number(direct.matrix)
