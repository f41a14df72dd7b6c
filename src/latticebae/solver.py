"""Dense assembly and solution of the boundary algebraic systems.

Combining a closure with layer matrices gives a square system of size
|gamma-| in one of two algebraically equivalent forms per kernel.  The
direct form keeps the density as the unknown,

    (Phi+ K+ + Phi- K- - Phi'-(R+ K+ + R- K-)) q = g,

and needs no inversion.  The Schur form substitutes the gamma- trace
v = K- q as the unknown, turning the system into

    (Phi+ W + Phi- - Phi'-(R+ W + R-)) v = g,    W = K+ K-^{-1},

whose conditioning mirrors the preconditioned operator the trace map
induces.  W is realized by factoring K- (transposed) and multi-solving;
no inverse is ever formed, and recovery reuses that factor for the
density q = K-^{-1} v.  For Dirichlet closures the Phi'-/R blocks have
zero extent and both formulas collapse to their classical shapes.

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
from .potentials import DensityVector, LayerKind, LayerMatrix, assemble_layer_matrix

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
    """A solved density with the layer potential's traces on the closure's
    own orderings: ``trace_plus`` on gamma~+ (the columns of Phi+, which
    equals gamma+ for Dirichlet), ``trace_minus`` on gamma-."""

    density: DensityVector
    trace_minus: np.ndarray
    trace_plus: np.ndarray
    system_cond: Optional[float]
    residual_norm: float


def build_layer_matrices(cm: ClosureMatrices, ps: PointSets, kernel: LayerKind):
    """The (K+, K-) pair a closure needs, on its own orderings."""
    k_plus = assemble_layer_matrix(cm.gamma_tilde_plus, cm.gamma_minus, kernel, ps)
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    return k_plus, k_minus


def _check_alignment(cm: ClosureMatrices, k_plus: LayerMatrix, k_minus: LayerMatrix):
    if not np.array_equal(k_minus.rows, cm.gamma_minus) or not np.array_equal(
        k_minus.cols, cm.gamma_minus
    ):
        raise AssemblyError("K- rows/columns do not match the closure gamma- ordering")
    if not np.array_equal(k_plus.rows, cm.gamma_tilde_plus) or not np.array_equal(
        k_plus.cols, cm.gamma_minus
    ):
        raise AssemblyError("K+ rows/columns do not match the closure orderings")


def _guarded_lu(matrix: np.ndarray, singular_error: type, message: str):
    """LU factors, or ``singular_error(message)`` if a pivot is below threshold."""
    # The pivot check below is the singularity diagnosis; scipy's own
    # warning about exact zeros would just duplicate it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = linalg.lu_factor(matrix)
    pivots = np.abs(np.diag(lu))
    scale = np.abs(matrix).max()
    if scale == 0.0 or pivots.min() < _PIVOT_RTOL * scale:
        raise singular_error(message)
    return lu, piv


def assemble_system(formulation: Formulation, cm: ClosureMatrices,
                    k_plus: LayerMatrix, k_minus: LayerMatrix):
    """The square |gamma-| system matrix, its right-hand side, and the Schur
    form's LU factor of K-^T, which :func:`recover` reuses (None if direct)."""
    _check_alignment(cm, k_plus, k_minus)
    kp = k_plus.entries
    km = k_minus.entries
    kernel_lu = None
    if formulation.form is SystemForm.DIRECT:
        matrix = (
            cm.phi_plus @ kp
            + cm.phi_minus @ km
            - cm.phi_prime_minus @ (cm.r_plus @ kp + cm.r_minus @ km)
        )
    else:
        name = "D-" if formulation.kernel is LayerKind.DOUBLE else "S-"
        kernel_lu = _guarded_lu(
            km.T, FormulationSingularError,
            f"{name} is numerically singular; its Schur form is unavailable",
        )
        w = linalg.lu_solve(kernel_lu, kp.T).T
        matrix = (
            cm.phi_plus @ w
            + cm.phi_minus.toarray()
            - cm.phi_prime_minus @ (cm.r_plus @ w + cm.r_minus.toarray())
        )
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
            k_plus: LayerMatrix, k_minus: LayerMatrix,
            kernel_lu: Optional[tuple] = None, system_cond: Optional[float] = None,
            residual_norm: float = 0.0) -> SolveResult:
    """Density and both traces from the solved primary unknown; the Schur
    form needs the ``kernel_lu`` that :func:`assemble_system` returned."""
    if formulation.form is SystemForm.DIRECT:
        density = solution
        trace_minus = k_minus.entries @ density
    else:
        trace_minus = solution
        density = linalg.lu_solve(kernel_lu, trace_minus, trans=1)
    return SolveResult(
        density=DensityVector(support=cm.gamma_minus, values=density),
        trace_minus=np.asarray(trace_minus, dtype=float),
        trace_plus=k_plus.entries @ density,
        system_cond=system_cond,
        residual_norm=residual_norm,
    )


def solve_system(formulation: Formulation, cm: ClosureMatrices,
                 k_plus: LayerMatrix, k_minus: LayerMatrix,
                 compute_cond: bool = False) -> SolveResult:
    """Assemble, solve, and recover in one sweep."""
    matrix, rhs, kernel_lu = assemble_system(formulation, cm, k_plus, k_minus)
    solution = dense_solve(matrix, rhs)
    residual = float(np.abs(matrix @ solution - rhs).max())
    cond = condition_number(matrix) if compute_cond else None
    return recover(
        solution, formulation, cm, k_plus, k_minus,
        kernel_lu=kernel_lu, system_cond=cond, residual_norm=residual,
    )
