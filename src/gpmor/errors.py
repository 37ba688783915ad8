"""Exception hierarchy shared by all gpmor modules."""


class GpmError(Exception):
    """Base class for all errors raised by gpmor."""


class ParameterError(GpmError):
    """An argument is outside its documented domain (bad shape, bad range, duplicate nodes...)."""


class DataError(GpmError):
    """Input data is unusable (non-finite entries, unparsable files)."""


class DegenerateRankError(DataError):
    """The snapshot matrix has rank below the requested number of modes."""


class LogMapDomainError(GpmError):
    """The target subspace lies outside the domain of the logarithm map (C1 failure).

    The overlap matrix between base and target frames is singular at tolerance.
    """


class TangentDomainError(GpmError):
    """A claimed tangent vector is not horizontal at its base point."""


class CutTimeUndefinedError(GpmError):
    """Cut time requested for the zero velocity vector (constant geodesic)."""


class DivisionDomainError(GpmError):
    """A relative error norm hit a (near-)zero reference denominator."""
