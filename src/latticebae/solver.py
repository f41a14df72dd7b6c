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
its conditioning is the point, for a solve's condition number and the
conditioning study.  There the right division factors K-^T in place,
over K-'s own entries (K- is C-ordered, so K-^T is Fortran-ordered and
LAPACK needs no copy), and solves |gamma-| right-hand sides against it,
in place in the direct matrix; no inverse is ever formed.  For Dirichlet closures eta is
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
|gamma-|^2 array.  :func:`solve_system` runs that line in one call and
returns the pair (q, cond): the density, a plain array, and the
condition number, None unless asked for.  For the condition number of a
Schur form it contracts [M; K-] and right-divides a copy of M before M
is factored, so only then does a solve gather and factor K-.  :func:`condition_numbers`
serves the conditioning study from the same contraction of [M; K-]: it
takes cond(K-), then cond(M), which it then right-divides in place into
the Schur matrix for the third; no array is copied.

:func:`condition_number` takes the singular values of an exactly
symmetric matrix as the moduli of its eigenvalues, from the symmetric
eigensolver at about a quarter of the cost of an SVD.  S- is the one
such matrix, since G(d) = G(-d) and its gather reads entries (i, j) and
(j, i) at the same table offset.  Every other matrix A takes only its
extreme singular values, from one blocked tridiagonalization of its
Gram matrix A^T A, formed in one array without copying A: the largest
from the tridiagonal's top eigenvalue, and the smallest as the Rayleigh
value on A of the Ritz vector of the Gram matrix's bottom two
eigenvectors, which keeps the SVD's own eps cond relative accuracy at
about a quarter of its cost.  The tridiagonal, scaled exactly by a
power of two, gives only those three eigenvalues, by bisection, and the
two vectors, by inverse iteration; one blocked LAPACK dormqr carries
the vectors back through the tridiagonalization's reflectors.

Once the density q is known, and the solve's matrix is freed,
:func:`recover` gives its layer potential K q as a plain array on the
box window, for bounded and unbounded domains alike: K q on the window
edge, streamed through the kernel gather in one product that never
holds a block, and one box solve of q's lattice sources with those edge
values (:func:`latticebae.diffpot.box_solve`).

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

numpy and scipy each load their own OpenBLAS, and a pool's worker
thread keeps spinning on a core for about 0.1 s after each call that
woke it, while the other pool's LAPACK wants that core.  So every dense
product here whose operands reach numpy's threading size goes through
scipy's BLAS, as the factorizations do: numpy's gemv stays on one
thread at 64 x 4000 and 500 x 500 and takes two at 64 x 8000 and
700 x 700.  The Gram path's products A z reach that size on the
n = 512 rung (|gamma-| near 1000), and run as scipy's dgemv on the
Fortran-ordered view A^T that dsyrk reads, so A is not copied.  The
products left to numpy stay below it at every n <= 2048: the 2 x 2
(A z)(A z)^T, and the 64-row gathers of
:func:`latticebae.potentials.apply_layer_matrix`.
"""

from __future__ import annotations

import warnings
from enum import Enum
import numpy as np
from scipy import linalg, sparse
from scipy.linalg import LinAlgWarning

from .closure import ClosureMatrices
from .diffpot import box_solve, edge_nodes
from .errors import AssemblyError, FormulationSingularError, SingularSystemError
from .geometry import PointSets
from .potentials import LayerKind, apply_layer_matrix, contract_layer_matrix, layer_sources

#: Relative pivot threshold below which an LU factor counts as singular.
_PIVOT_RTOL = 1e-14

#: Largest entry moduli whose squares, summed over a row of up to 2^20
#: entries, stay normal and finite in a Gram matrix.  They bound G
#: alone: its tridiagonal is scaled to O(1) before it is bisected.
_GRAM_SCALES = (2.0 ** -500, 2.0 ** 500)


class SystemForm(Enum):
    DIRECT = "direct"
    SCHUR = "schur"


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
    """2-norm condition number of a square matrix; +inf when the smallest
    singular value is 0, and AssemblyError for a non-finite or non-square
    matrix, or one whose Gram matrix would overflow or underflow.

    An exactly symmetric matrix takes its singular values as the moduli
    of its eigenvalues, from the symmetric eigensolver (as backward
    stable as the SVD, at about a quarter of its cost).  Any other matrix
    A takes its extreme ones from one tridiagonalization of its Gram
    matrix A^T A (:func:`_gram_extremes`): sigma_max is the square root
    of the Gram matrix's top eigenvalue, and sigma_min the Rayleigh value
    ||A z|| / ||z|| of a vector z from its bottom eigenvectors, which is
    accurate to eps cond relative, as the SVD's own, where the square
    root of its bottom eigenvalue would be accurate only to eps cond^2.
    Since cond is at least 1, a ratio that rounds below 1 reads 1.
    """
    matrix = _finite(np.asarray(matrix, dtype=float), "matrix")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise AssemblyError(f"condition number of a matrix of shape {matrix.shape}")
    if linalg.issymmetric(matrix):
        sv = np.abs(linalg.eigvalsh(matrix, check_finite=False))
        largest, smallest = sv.max(), sv.min()
    else:
        largest, smallest = _gram_extremes(matrix)
    if smallest == 0.0:
        return np.inf
    return max(float(largest / smallest), 1.0)


def _gram_extremes(matrix: np.ndarray) -> tuple:
    """(sigma_max, sigma_min) of a square, non-symmetric ``matrix`` A
    from one blocked tridiagonalization Q^T G Q = T of G = A^T A, held in
    one array: G is formed from A's transpose, a Fortran-ordered view of
    a C-ordered A, so A is not copied, and is tridiagonalized in place.

    T is scaled exactly, by a power of two, to entries of modulus below
    1, and only its extreme eigenvalues are computed, by bisection.
    sigma_max is sqrt(lambda_max(T)).  sigma_min is a Rayleigh value,
    never below the true one and off by the square of its vector's angle
    error: T's two bottom eigenvectors, from inverse iteration, are
    carried back to G's in one blocked dormqr over the reflectors where
    LAPACK left them, and the Ritz vector of A on their span is taken.
    Two, not one, because a pair of nearly equal smallest singular
    values (the symmetric shapes give them) mixes G's bottom two
    eigenvectors by far more than eps, which one vector would pass on
    into sigma_min."""
    scale = max(matrix.max(), -matrix.min())
    if not _GRAM_SCALES[0] < scale < _GRAM_SCALES[1]:
        raise AssemblyError(f"matrix entries of modulus up to {scale:g} are out of "
                            "range for its Gram matrix")
    n = len(matrix)
    gram = linalg.blas.dsyrk(1.0, matrix.T, trans=0, lower=1)
    # An explicit lwork runs the blocked code; the default runs the unblocked.
    lwork, _ = linalg.lapack.dsytrd_lwork(n, lower=1)
    reflectors, diag, off, tau, _ = linalg.lapack.dsytrd(gram, lower=1, lwork=int(lwork),
                                                         overwrite_a=1)
    # T scaled by a power of two, exactly, to max(|d|, |e|) in [0.5, 1):
    # unscaled, bisection fails and inverse iteration returns NaN vectors
    # once G's entries pass about 1e154.
    exponent = np.frexp(max(np.abs(diag).max(), np.abs(off).max()))[1]
    diag, off = np.ldexp(diag, -exponent), np.ldexp(off, -exponent)
    # Only T's extreme eigenvalues, by bisection: the bottom two, and the
    # top one as the bottom one of -T (bisected as the n-th, it fails on
    # the clustered spectra of orthogonal matrices).  Then the bottom two
    # eigenvectors, by inverse iteration on T as one block; all O(n) memory.
    stebz = linalg.lapack.dstebz
    _, values, _, _, info = stebz(diag, off, 2, 0.0, 0.0, 1, min(2, n), 0.0, b"E")
    _, top, _, _, top_info = stebz(-diag, -off, 2, 0.0, 0.0, 1, 1, 0.0, b"E")
    bottom, stein_info = linalg.lapack.dstein(diag, off, values[:2], np.ones(n, np.int32),
                                             np.full(n, n, np.int32))
    if info or top_info or stein_info:
        raise AssemblyError("the tridiagonal eigensolver did not converge")
    # bottom <- Q bottom with Q = H_0 ... H_{n-2} = diag(1, Q'), in one
    # blocked dormqr.  H_i = I - tau_i v v^T, where v is reflectors[i + 1:, i]
    # led by an implicit 1 (H_{n-2} = I), so Q' is the Q of a QR factor
    # whose column i starts at row i of the (n, n - 1) view one element
    # into reflectors: Fortran-ordered with leading dimension n, so f2py
    # does not copy it, where reflectors[1:, :n - 1] would be copied.
    if n > 2:
        shifted = reflectors.ravel(order="F")[1:1 + n * (n - 1)].reshape((n, n - 1), order="F")
        bottom[1:], _, _ = linalg.lapack.dormqr(b"L", b"N", shifted, tau[:n - 1], bottom[1:],
                                                lwork=2 * 64 + 4160)
    z = bottom.T  # the two vectors as C-ordered rows
    # A z through scipy's BLAS on the view dsyrk read (module docstring).
    az = np.array([linalg.blas.dgemv(1.0, matrix.T, row, trans=1) for row in z])
    _, c = linalg.eigh(az @ az.T, z @ z.T, subset_by_index=[0, 0])
    c = c[:, 0]
    return np.sqrt(np.ldexp(-top[0], exponent)), np.linalg.norm(c @ az) / np.linalg.norm(c @ z)


def recover(density: np.ndarray, kernel: LayerKind, ps: PointSets) -> np.ndarray:
    """The layer potential of ``density`` as a window array of
    :attr:`PointSets.box_window`: one box solve of its lattice sources,
    with its own values on the window edge, streamed through the kernel
    gather in one product."""
    edge = apply_layer_matrix(edge_nodes(ps), ps.gamma_minus_indices, density, kernel, ps)
    return box_solve(*layer_sources(density, kernel, ps), edge, ps)


def solve_system(kernel: LayerKind, cm: ClosureMatrices, ps: PointSets,
                 cond_of: SystemForm | None = None) -> tuple:
    """Gather, assemble and solve in one sweep; returns ``(density, cond)``,
    the density on gamma- in canonical order and the condition number of
    the ``cond_of`` form's matrix, None when ``cond_of`` is None.  Either
    form solves the direct system, so the form decides only which matrix
    that number is of.  It is taken before the direct matrix is factored
    in place; for the Schur form it is of M K-^{-1}, right-divided in a
    copy of M's half of the one contraction of [M; K-]."""
    schur = cond_of is SystemForm.SCHUR
    matrix = assemble_system(kernel, cm, ps, with_k_minus=schur)
    cond = None
    if schur:
        matrix, k_minus = np.split(matrix, 2)
        cond = condition_number(_right_divide(matrix.copy(), k_minus, kernel))
    elif cond_of is SystemForm.DIRECT:
        cond = condition_number(matrix)
    return dense_solve(matrix, cm.rhs), cond


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
