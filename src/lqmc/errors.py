"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters: configuration/validation problems must be distinguishable from
runtime failures and from numeric divergence.
"""


class LqmcError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(LqmcError, ValueError):
    """Invalid generator/chain configuration (bad polynomial, offset, seed...)."""


class DomainError(LqmcError, ValueError):
    """Argument outside an operation's mathematical domain."""


class SizeError(LqmcError, ValueError):
    """Input size outside the supported range of an exact algorithm."""


class DataError(LqmcError, ValueError):
    """Malformed or inconsistent data (labels, CSV files, ...)."""


class SpecError(LqmcError, ValueError):
    """Invalid experiment specification file."""


class DivergenceError(LqmcError, RuntimeError):
    """A chain left the admissible region; carries the failing iteration."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"chain diverged at iteration {iteration}")

    def __reduce__(self):  # pickled by a forked half of a cell (``bench.run_cell``)
        return type(self), (self.iteration, str(self))
