"""Lattice Green's function of the 5-point difference Laplacian on Z^2.

The difference Laplacian acts on grid functions as

    [A u](m) = 4 u(m) - u(m+e1) - u(m-e1) - u(m+e2) - u(m-e2),

and its normalized fundamental solution G solves [A G](m) = delta(m) with
the convention G(0,0) = 0.  G is finite for every index (no log
singularity at the source, unlike the continuum kernel) and behaves like
-(log|m|)/(2*pi) at large distance.

Two evaluation regimes are used:

* near field (|m| < R_SWITCH): the one-dimensional integral

      G(m) = 1/(2*pi) * int_0^pi (exp(-a*s) cos(b*y) - 1) / sinh(s) dy,

  with cosh(s) = 2 - cos(y) and (a, b) = (max|m_i|, min|m_i|).  Putting
  the larger index in the decaying exponential is legitimate by the
  symmetry G(m1, m2) = G(m2, m1) and speeds up quadrature convergence.
  The integrand has a removable singularity at y = 0 with limit -a; it
  is evaluated in a cancellation-free form built on expm1/log1p.

* far field (|m| >= R_SWITCH): an asymptotic expansion in powers of
  1/|m|^2 with angular cosine factors.  At |m| = 30 its remainder is
  already far below 1e-12, which the regime-agreement tests confirm.

A recursion scheme seeded from the exactly known values G(0,0) = 0,
G(1,0) = -1/4 and G(1,1) = -1/pi provides an independent cross-check of
both regimes; it loses roughly one digit per ring of indices and is never
used for production values.

All functions accept any pair-like index (tuple or ``LatticeIndex``).
They are pure; the module-level memo table of :func:`lgf`
(:func:`default_table`) and the one kernel table of :func:`kernel_table`
(half of a window of G, which every kernel gather reads) are the only
shared state, and both follow a single-writer contract: evaluate and ask
for tables from one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

EULER_GAMMA = np.euler_gamma

#: Euclidean index radius at which evaluation switches from quadrature to
#: the asymptotic expansion.
R_SWITCH = 30.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_PANELS = 4096


class LatticeIndex(NamedTuple):
    """Integer index on the infinite lattice."""

    m1: int
    m2: int

    def __add__(self, other):
        return LatticeIndex(self.m1 + other[0], self.m2 + other[1])

    def __sub__(self, other):
        return LatticeIndex(self.m1 - other[0], self.m2 - other[1])

    def __neg__(self):
        return LatticeIndex(-self.m1, -self.m2)


def canonical_index(m) -> LatticeIndex:
    """Map an index to its symmetry representative with m1 >= m2 >= 0.

    G is invariant under sign flips of either component and under the
    swap (m1, m2) -> (m2, m1), so every index has a representative in
    the first octant.
    """
    a = abs(int(m[0]))
    b = abs(int(m[1]))
    if a < b:
        a, b = b, a
    return LatticeIndex(a, b)


def _integrand(y, a, b):
    """Integrand of the 1-D LGF integral, stable down to y = 0.

    With u = sin(y/2): cosh(s) - 1 = 2 u^2 and sinh(s) = 2 u sqrt(1+u^2),
    so s = log1p(2u(u + sqrt(1+u^2))) without cancellation.  The
    numerator exp(-a s) cos(b y) - 1 is rearranged as
    expm1(-a s) cos(b y) - 2 sin^2(b y / 2), exact at y = 0.
    """
    y = np.asarray(y, dtype=float)
    u = np.sin(0.5 * y)
    root = np.sqrt(1.0 + u * u)
    sinh_s = 2.0 * u * root
    s = np.log1p(2.0 * u * (u + root))
    num = np.expm1(-a * s) * np.cos(b * y) - 2.0 * np.sin(0.5 * b * y) ** 2
    # y == 0 never occurs at Gauss nodes, but guard the limit -a anyway.
    return np.divide(num, sinh_s, out=np.full_like(y, -float(a)), where=sinh_s != 0)


def _composite_gauss(a, b, n_panels):
    edges = np.linspace(0.0, np.pi, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    ys = mids[:, None] + halfs[:, None] * _GL_NODES[None, :]
    vals = _integrand(ys.ravel(), a, b).reshape(ys.shape)
    return float(np.sum(halfs * (vals @ _GL_WEIGHTS)))


def lgf_quadrature(m, tol: float = 1e-14) -> float:
    """Evaluate G(m) by adaptive composite Gauss-Legendre quadrature.

    Parameters
    ----------
    m : pair of int
        Lattice index.
    tol : float
        Absolute tolerance, in (0, 1e-6].  Panels are doubled until two
        successive composite values agree within ``tol``.

    Raises
    ------
    QuadratureError
        If the doubling cap is hit first; carries the achieved estimate.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    a, b = canonical_index(m)
    if a == 0:
        return 0.0
    n_panels = 8
    prev = _composite_gauss(a, b, n_panels)
    while n_panels < _MAX_PANELS:
        n_panels *= 2
        cur = _composite_gauss(a, b, n_panels)
        delta = abs(cur - prev)
        if delta <= tol:
            return cur / (2.0 * math.pi)
        prev = cur
    raise QuadratureError(
        f"quadrature for G{tuple(m)} did not reach tol={tol:g} "
        f"within {_MAX_PANELS} panels (achieved {delta:.3e})",
        achieved=delta,
    )


def lgf_asymptotic(m) -> float:
    """Far-field expansion of G(m); remainder O(1/|m|^8).

    Uses the polar form with theta = atan2(m2, m1): a logarithmic leading
    term plus cos(4k*theta) corrections through 1/|m|^6.  Only valid away
    from the origin; callers should restrict it to |m| >= R_SWITCH where
    the remainder is negligible.
    """
    a, b = canonical_index(m)
    if a == 0:
        raise ValueError("asymptotic expansion is undefined at m = (0, 0)")
    return float(_asymptotic_array(np.array([m[0]]), np.array([m[1]]))[0])


def _asymptotic_array(m1, m2):
    """Vectorized far-field expansion over integer index arrays."""
    x = np.asarray(m1, dtype=float)
    y = np.asarray(m2, dtype=float)
    r2 = x * x + y * y
    theta = np.arctan2(y, x)
    g = -(0.5 * np.log(r2) + EULER_GAMMA + 0.5 * np.log(8.0)) / (2.0 * np.pi)
    cos4, cos8 = np.cos(4.0 * theta), np.cos(8.0 * theta)
    g = g + cos4 / (24.0 * np.pi * r2)
    g = g + (25.0 * cos8 + 18.0 * cos4) / (480.0 * np.pi * r2**2)
    g = g + (490.0 * np.cos(12.0 * theta) + 459.0 * cos8) / (2016.0 * np.pi * r2**3)
    return g


@dataclass
class LgfTable:
    """Memo table over the canonical octant 0 <= m2 <= m1."""

    values: dict = field(default_factory=dict)


_DEFAULT_TABLE = LgfTable()


def default_table() -> LgfTable:
    """The process-wide memo table used by :func:`lgf`."""
    return _DEFAULT_TABLE


def lgf(m) -> float:
    """Evaluate G(m), dispatching on |m| and memoizing.

    Quadrature below ``R_SWITCH``, asymptotic expansion at or beyond.
    Results go through the canonical-octant memo table, so repeated
    kernel assembly touches each distinct index once.
    """
    key = canonical_index(m)
    cached = _DEFAULT_TABLE.values.get(key)
    if cached is not None:
        return cached
    if math.hypot(key.m1, key.m2) < R_SWITCH:
        value = lgf_quadrature(key, 1e-14)
    else:
        value = lgf_asymptotic(key)
    _DEFAULT_TABLE.values[key] = value
    return value


def lgf_recursion_table(jmax: int) -> LgfTable:
    """Fill the octant 0 <= k <= j <= jmax by recursion, for cross-checks.

    Seeds G(0,0) = 0, G(1,0) = -1/4, G(1,1) = -1/pi, then marches ring by
    ring with the stencil identity and its diagonal specializations:

        G(j+1,j+1) = (4j G(j,j) - (2j-1) G(j-1,j-1)) / (2j+1)
        G(j+1,j)   = 2 G(j,j) - G(j,j-1)
        G(j+1,0)   = 4 G(j,0) - G(j-1,0) - 2 G(j,1)
        G(j+1,k)   = 4 G(j,k) - G(j-1,k) - G(j,k+1) - G(j,k-1)

    The recursion amplifies rounding error by roughly a digit per ring,
    hence the jmax cap; treat the output as a consistency oracle only.
    """
    if not 1 <= jmax <= 30:
        raise ValueError(f"jmax must be in [1, 30], got {jmax}")
    g = {}
    g[(0, 0)] = 0.0
    g[(1, 0)] = -0.25
    g[(1, 1)] = -1.0 / math.pi
    for j in range(1, jmax):
        g[(j + 1, j + 1)] = (4.0 * j * g[(j, j)] - (2.0 * j - 1.0) * g[(j - 1, j - 1)]) / (
            2.0 * j + 1.0
        )
        g[(j + 1, j)] = 2.0 * g[(j, j)] - g[(j, j - 1)]
        g[(j + 1, 0)] = 4.0 * g[(j, 0)] - g[(j - 1, 0)] - 2.0 * g[(j, 1)]
        for k in range(1, j):
            g[(j + 1, k)] = 4.0 * g[(j, k)] - g[(j - 1, k)] - g[(j, k + 1)] - g[(j, k - 1)]
    table = LgfTable()
    for key, value in g.items():
        table.values[LatticeIndex(*key)] = value
    return table


#: Octant rows per block of :func:`_half_table`'s build, so its index and
#: value temporaries stay a block's size.
_ROW_BLOCK = 64

#: The one table that :func:`kernel_table` returns; None until it is first asked for.
_KERNEL_TABLE: np.ndarray | None = None


def _half_table(rx: int, ry: int) -> np.ndarray:
    """G over j in [0, rx], k in [-ry, ry], with entry ``[j, k + ry]``
    holding G(j, k).

    Only the octant b <= a of the quadrant [0, max(rx, ry)] x
    [0, min(rx, ry)] is evaluated, in place and one block of octant rows
    at a time: the near field through the memo table (quadrature), the
    far field by the vectorized expansion.  The quadrant is completed by
    symmetry row by row and mirrored in k, so every entry is bitwise the
    matching entry of any larger table.
    """
    big, small = max(rx, ry), min(rx, ry)
    half = np.zeros((rx + 1, 2 * ry + 1))
    quad = half[:, ry:]
    # The octant b <= a, zero above its diagonal, as a view of the quadrant.
    octant = quad if rx >= ry else quad.T
    for lo in range(0, big + 1, _ROW_BLOCK):
        a_idx, b_idx = np.tril_indices(min(_ROW_BLOCK, big + 1 - lo), lo, small + 1)
        a_idx += lo
        far = np.hypot(a_idx, b_idx) >= R_SWITCH
        octant[a_idx[far], b_idx[far]] = _asymptotic_array(a_idx[far], b_idx[far])
        for a, b in zip(a_idx[~far].tolist(), b_idx[~far].tolist()):
            octant[a, b] = lgf((a, b))
    for a in range(small):
        octant[a, a + 1 : small + 1] = octant[a + 1 : small + 1, a]
    for lo in range(0, rx + 1, _ROW_BLOCK):
        half[lo : lo + _ROW_BLOCK, :ry] = quad[lo : lo + _ROW_BLOCK, ry:0:-1]
    half.flags.writeable = False
    return half


def kernel_table(rx: int, ry: int) -> np.ndarray:
    """The process's table of G, covering the offsets [-rx, rx] x [-ry, ry].

    Since G(-m) = G(m), half of that window holds every value: entry
    ``[j, k + Ry]`` holds G(j, k) for j in [0, Rx] and k in [-Ry, Ry],
    where (Rx, Ry) are the table's own half-widths, at least (rx, ry).
    Raveled from entry ``[0, Ry]`` on, with W = 2 Ry + 1 its row length,
    it holds G(j, k) at flat offset |j W + k| for |j| <= Rx, |k| <= Ry.
    Kernel gathers ask for the reach of their point sets
    (:attr:`latticebae.geometry.PointSets.kernel_reach`), the largest
    offsets they read, and no more.

    A process holds one table, read-only, and returns it for every
    window it covers.  A window that exceeds it on either axis replaces
    it with one covering both; the old table is dropped first.
    """
    global _KERNEL_TABLE
    if min(rx, ry) < 0:
        raise ValueError("half-widths must be nonnegative")
    table = _KERNEL_TABLE
    if table is not None:
        if rx < table.shape[0] and 2 * ry < table.shape[1]:
            return table
        rx, ry = max(rx, table.shape[0] - 1), max(ry, table.shape[1] // 2)
        _KERNEL_TABLE = table = None  # released before its replacement is built
    _KERNEL_TABLE = _half_table(rx, ry)
    return _KERNEL_TABLE
