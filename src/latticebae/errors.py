"""Exception types shared across the package.

Every failure mode that a caller might reasonably want to catch gets its
own class here.  The CLI maps these onto process exit codes: configuration
problems exit with 2, failures that are expected consequences of a known
formulation limitation (for example the singular double-layer operator on
unbounded domains) exit with 3, and genuine numerical breakdowns exit
with 4.
"""


class LatticeBaeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LatticeBaeError):
    """An experiment or CLI configuration is invalid."""


class QuadratureError(LatticeBaeError):
    """Adaptive quadrature could not reach the requested tolerance.

    Carries the best error estimate achieved so the caller can decide
    whether the value is still usable.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GeometryError(LatticeBaeError):
    """Base class for level-set / point-set construction failures."""


class GeometryTooTightError(GeometryError):
    """The zero level set runs too close to the box edge, or a lattice
    segment crosses it more than once (under-resolved boundary)."""


class DegenerateDomainError(GeometryError):
    """The level set produces an empty interior or an empty boundary
    layer on the given grid."""


class InconsistentClassificationError(GeometryError):
    """Derived point sets violate a structural invariant (for example a
    boundary-layer node without the neighbour that defines it)."""


class UnderResolvedBoundaryError(GeometryError):
    """No valid interpolation support could be placed at a boundary
    intersection point."""


class ExtrapolationStencilError(GeometryError):
    """No one-sided extrapolation stencil with enough usable nodes exists
    for an exterior support-cell node."""


class DoubleLayerInapplicableError(LatticeBaeError):
    """The double-layer kernel is undefined for some source node because
    that node has no exterior non-boundary neighbours."""


class AssemblyError(LatticeBaeError):
    """Matrix blocks disagree about orderings or dimensions."""


class FormulationSingularError(LatticeBaeError):
    """A formulation requires inverting an operator that is singular (or
    numerically singular) for the given problem, such as the double-layer
    boundary operator on an unbounded domain."""


class SingularSystemError(LatticeBaeError):
    """Dense LU elimination met an effectively zero pivot."""


class BoxTooSmallError(AssemblyError):
    """The box-solve window cannot accommodate the requested operation (a
    gamma or closure node lies within one node of its edge)."""
