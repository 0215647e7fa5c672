"""Exception hierarchy shared by all vtres modules."""

from __future__ import annotations


class VtresError(Exception):
    """Base class for all errors raised by this package."""


class BadArguments(VtresError):
    pass


class SizeCapExceeded(VtresError):
    pass


class InfiniteFactorPresent(VtresError):
    pass


class DisconnectedGeneratingSet(VtresError):
    pass


class RadiusTooSmall(VtresError):
    pass


class EmptySet(VtresError):
    pass


class FullSet(VtresError):
    pass


class DimensionMismatch(VtresError):
    pass


class DisconnectedTerminals(VtresError):
    pass


class NonConvergence(VtresError):
    """A solve that stopped short of its tolerance.

    ``stages`` lists, for a general-p Newton solve, one (stage, Newton
    steps, rejected trial steps) triple per eps stage run; it is empty for
    other solves.
    """

    def __init__(self, iterations: int, residual: float, message: str = "",
                 stages: tuple[tuple[str, int, int], ...] = ()):
        self.iterations = iterations
        self.residual = residual
        self.stages = stages
        super().__init__(
            message or f"solver did not converge after {iterations} iterations "
                       f"(residual {residual:.3e})"
        )


class InvalidCutsets(VtresError):
    pass


class OutOfProfileRange(VtresError):
    pass


class EmptyBoundary(VtresError):
    pass


class ProfileUnavailable(VtresError):
    pass


class MissingParam(VtresError):
    pass


class DomainError(VtresError):
    pass


class IoError(VtresError):
    pass
