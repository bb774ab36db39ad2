"""Exception types shared across the package."""


class ZetaThetaError(Exception):
    """Base class for all package errors."""


class PoleError(ZetaThetaError):
    """Evaluation requested exactly at a pole."""


class DomainError(ZetaThetaError):
    """Argument outside the mathematical domain of the operation."""


class SectorError(DomainError):
    """Argument outside the angular sector where the integral representation converges."""


class ConvergenceError(ZetaThetaError):
    """A quadrature or series failed its convergence certificate."""


class ValidationError(ZetaThetaError):
    """Structurally invalid input data."""


class ParseError(ValidationError):
    """Malformed input file.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CoefficientTableExhausted(ZetaThetaError):
    """A coefficient table is too short for the requested tolerance."""


class RoundingDriftError(ZetaThetaError):
    """A value that must be an integer drifted too far from one."""


class SignCheckError(ZetaThetaError):
    """A quantity with a known sign came out with the wrong sign."""


class ZeroNotSimpleError(ZetaThetaError):
    """The Taylor data of zeta_F at a listed zero shows a multiple zero (zeta_F'(rho) negligible)."""


class RealityViolationError(ZetaThetaError):
    """A provably real quantity came back with a non-negligible imaginary part."""
