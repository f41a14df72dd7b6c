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
induces.  (C+ K+) K-^{-1} is realized by factoring K-^T and solving
|gamma-| right-hand sides against it; no inverse is ever formed, and
recovery reuses that factor for the density q = K-^{-1} v.  For
Dirichlet closures eta is empty, so C+ = Phi+ and C- = Phi-.

K+ (|gamma~+| x |gamma-|) enters only through C+ K+ and through its
gamma+ rows, which give the gamma+ trace; both are taken from the
kernel gather block by block, so K+ itself is never held.  Either form
is then assembled in place in the one |gamma-|^2 array of C+ K+.

All factorizations share one pivot-guarded LU: a singular system raises
SingularSystemError, a singular K- FormulationSingularError.

Everything here is dense: at desk scales |gamma-| stays in the low
thousands, and the conditioning study wants the explicit matrices
anyway.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np
from scipy import linalg, sparse
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
class LayerBlocks:
    """What a closure needs of one kernel: K+ only through C+ K+ and its
    gamma+ rows, and K- whole.

    ``c_plus_k_plus`` (|gamma-| x |gamma-|) is K+ on the targets
    ``gamma_tilde_plus`` contracted with the weights ``c_plus`` as it was
    gathered; :func:`assemble_system` builds the system in that array, so
    it can be taken once (:meth:`copy` first to assemble twice).
    ``k_plus_gamma`` holds K+ on the targets marked ``on_gamma_plus``,
    which trace recovery reads.  The targets and weights are kept so that
    the blocks can be checked against the closure they are used with.
    """

    c_plus: sparse.csr_array
    gamma_tilde_plus: np.ndarray
    on_gamma_plus: np.ndarray
    c_plus_k_plus: Optional[np.ndarray]
    k_plus_gamma: LayerMatrix
    k_minus: LayerMatrix

    def take_contracted(self) -> np.ndarray:
        """C+ K+, handed out once: the system is assembled in its array."""
        if self.c_plus_k_plus is None:
            raise AssemblyError("C+ K+ was already assembled into a system")
        out, self.c_plus_k_plus = self.c_plus_k_plus, None
        return out

    def copy(self) -> "LayerBlocks":
        return replace(self, c_plus_k_plus=np.array(self.c_plus_k_plus))


def build_layer_matrices(cm: ClosureMatrices, ps: PointSets, kernel: LayerKind) -> LayerBlocks:
    """K- and the contracted K+ a closure needs, on its own orderings; the
    |gamma~+| x |gamma-| block K+ itself is never held."""
    tp = cm.gamma_tilde_plus
    on_gamma_plus = ps.gamma_plus[tp[:, 0], tp[:, 1]]
    c_plus_k_plus, k_plus_gamma = contract_layer_matrix(
        cm.c_plus, tp, on_gamma_plus, cm.gamma_minus, kernel, ps
    )
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    return LayerBlocks(cm.c_plus, tp, on_gamma_plus, c_plus_k_plus, k_plus_gamma, k_minus)


def _same_sparse(a, b) -> bool:
    return a is b or (a.shape == b.shape and (a != b).nnz == 0)


def _check_alignment(cm: ClosureMatrices, layers: LayerBlocks):
    """Raise AssemblyError unless ``layers`` were built for ``cm``'s
    orderings and C+ weights."""
    n = len(cm.gamma_minus)
    k_minus = layers.k_minus
    if not np.array_equal(k_minus.rows, cm.gamma_minus) or not np.array_equal(
        k_minus.cols, cm.gamma_minus
    ):
        raise AssemblyError("K- rows/columns do not match the closure gamma- ordering")
    if not np.array_equal(layers.gamma_tilde_plus, cm.gamma_tilde_plus) or not _same_sparse(
        layers.c_plus, cm.c_plus
    ):
        raise AssemblyError("C+ K+ was contracted over another closure's gamma~+ or C+")
    if not np.array_equal(
        layers.k_plus_gamma.rows, layers.gamma_tilde_plus[layers.on_gamma_plus]
    ) or not np.array_equal(layers.k_plus_gamma.cols, cm.gamma_minus) or (
        layers.c_plus_k_plus is not None and layers.c_plus_k_plus.shape != (n, n)
    ):
        raise AssemblyError("K+ blocks do not match the closure orderings")


def _guarded_lu(matrix: np.ndarray, singular_error: type, message: str):
    """LU factors, or ``singular_error(message)`` if a pivot is below threshold."""
    # The pivot check below is the singularity diagnosis; scipy's own
    # warning about exact zeros would just duplicate it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = linalg.lu_factor(matrix)
    pivots = np.abs(np.diag(lu))
    scale = max(matrix.max(), -matrix.min())
    if scale == 0.0 or pivots.min() < _PIVOT_RTOL * scale:
        raise singular_error(message)
    return lu, piv


def assemble_system(formulation: Formulation, cm: ClosureMatrices, layers: LayerBlocks):
    """The square |gamma-| system matrix, its right-hand side, and the Schur
    form's LU factor of K-^T, which :func:`recover` reuses (None if direct).

    The matrix is built in place in the array of ``layers.c_plus_k_plus``,
    which this takes.
    """
    _check_alignment(cm, layers)
    km = layers.k_minus.entries
    kernel_lu = None
    if formulation.form is SystemForm.DIRECT:
        matrix = layers.take_contracted()
        for start in range(0, len(matrix), _ROW_BLOCK):
            stop = start + _ROW_BLOCK
            matrix[start:stop] += cm.c_minus[start:stop] @ km
    else:
        name = "D-" if formulation.kernel is LayerKind.DOUBLE else "S-"
        kernel_lu = _guarded_lu(
            km.T, FormulationSingularError,
            f"{name} is numerically singular; its Schur form is unavailable",
        )
        # (C+ K+) K-^{-1}: |gamma-| right-hand sides, solved in place.
        matrix = linalg.lu_solve(kernel_lu, layers.take_contracted().T, overwrite_b=True).T
        c_minus = cm.c_minus.tocoo()
        np.add.at(matrix, (c_minus.row, c_minus.col), c_minus.data)
    if not np.all(np.isfinite(matrix)):
        raise AssemblyError("assembled system contains non-finite entries")
    return matrix, cm.rhs.copy(), kernel_lu


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


def recover(solution: np.ndarray, formulation: Formulation, cm: ClosureMatrices,
            layers: LayerBlocks, kernel_lu: Optional[tuple] = None,
            system_cond: Optional[float] = None, residual_norm: float = 0.0) -> SolveResult:
    """Density and both traces from the solved primary unknown; the Schur
    form needs the ``kernel_lu`` that :func:`assemble_system` returned."""
    _check_alignment(cm, layers)
    if formulation.form is SystemForm.DIRECT:
        density = solution
        trace_minus = layers.k_minus.entries @ density
    else:
        trace_minus = solution
        density = linalg.lu_solve(kernel_lu, trace_minus, trans=1)
    return SolveResult(
        density=DensityVector(support=cm.gamma_minus, values=density),
        trace_minus=np.asarray(trace_minus, dtype=float),
        trace_plus=layers.k_plus_gamma.entries @ density,
        trace_plus_nodes=layers.k_plus_gamma.rows,
        system_cond=system_cond,
        residual_norm=residual_norm,
    )


def solve_system(formulation: Formulation, cm: ClosureMatrices, layers: LayerBlocks,
                 compute_cond: bool = False) -> SolveResult:
    """Assemble, solve, and recover in one sweep; ``layers`` gives up its
    contracted block to the system matrix."""
    matrix, rhs, kernel_lu = assemble_system(formulation, cm, layers)
    solution = dense_solve(matrix, rhs)
    residual = float(np.abs(matrix @ solution - rhs).max())
    cond = condition_number(matrix) if compute_cond else None
    return recover(
        solution, formulation, cm, layers,
        kernel_lu=kernel_lu, system_cond=cond, residual_norm=residual,
    )
