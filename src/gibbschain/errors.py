"""Exception types raised across the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming mistakes.
"""


class GibbsChainError(Exception):
    """Base class for all library errors."""


class InvalidSpec(GibbsChainError):
    """Chain specification is invalid (fewer than two sites, unknown generator)."""


class NonConvergentTail(GibbsChainError):
    """Tail sum of the decay profile diverges for the requested moment."""


class BadPartition(GibbsChainError):
    """Block partition geometry is invalid (non-even block count, bad widths)."""


class GeometryError(GibbsChainError):
    """Requested decomposition does not fit on the chain."""


class Overlap(GibbsChainError):
    """Regions required to be disjoint overlap."""


class OverlappingSupports(Overlap):
    """Operator supports required to be disjoint overlap."""


class SupportMismatch(GibbsChainError):
    """Operator support is incompatible with the target space."""


class NotHermitian(GibbsChainError):
    """Operator expected to be Hermitian is not."""


class NotPSD(GibbsChainError):
    """Operator expected to be positive semidefinite is not."""


class NotCommuting(GibbsChainError):
    """Operators expected to commute do not."""


class NotUnitNorm(GibbsChainError):
    """Operator expected to have unit spectral norm does not."""


class DimensionCap(GibbsChainError):
    """Dense computation would exceed the fixed dimension cap, opalg.DIM_CAP."""


class CapExceeded(GibbsChainError):
    """Combinatorial budget (2^m branches, node budget) exceeded."""


class MissingParam(GibbsChainError):
    """Envelope parameter required by the requested mode is absent."""


class SubsetViolation(GibbsChainError):
    """Subset relation L >= L0 required by the bound does not hold."""


class ToleranceUnreachable(GibbsChainError):
    """Quadrature node budget exhausted before reaching the tolerance."""


class NonConvergence(GibbsChainError):
    """Iterative refinement stopped above the configured residual gate."""


class PreconditionViolated(GibbsChainError):
    """Stated precondition of a certified inequality does not hold."""


class FitDegenerate(GibbsChainError):
    """Too few usable rows survive the underflow filter to fit a decay."""


class ConfigError(GibbsChainError):
    """Experiment configuration is invalid."""
