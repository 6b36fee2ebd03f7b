"""Exception types shared across the package.

The command-line layer maps these onto process exit codes, so library code
should raise the most specific type available rather than bare ValueError:

  ConfigurationError -> invalid input/configuration (exit code 2)
  SolverError        -> an eigensolver or root-finder failed to converge (exit 3)
  RangeOverflowError -> a requested value is representable only through its
                        exponent (e.g. exp(G) for large r^2 V); the exponent
                        is preserved on the exception.

`is_integer` is the one integer test of the library's argument checks.
"""

import numbers


class PhasegasError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(PhasegasError):
    """Inconsistent or out-of-range inputs (lattice mismatch, bad truncation, ...)."""


class RangeOverflowError(PhasegasError):
    """A result overflows double precision; the exact exponent survives.

    Attributes
    ----------
    exponent : complex
        The exponent g such that the requested value equals exp(g).
    """

    def __init__(self, message, exponent):
        super().__init__(message)
        self.exponent = exponent


class SolverError(PhasegasError):
    """An iterative solver or eigensolver did not reach the requested residual."""


class TruncationWarning(UserWarning):
    """The requested basis truncation is too small to resolve a requested term."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, as the config schema has it."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
