"""Exception types shared across the package.

The command line front end maps these onto process exit codes:
domain errors exit 2, cache errors (a cache or output file could not
be read or written) exit 3, resource-guard errors exit 4.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class WordSyntaxError(DomainError):
    """A word expression failed to parse; the message carries a position."""


class ResourceGuardError(RuntimeError):
    """An exhaustive computation was refused because it would exceed a budget."""


class CacheError(RuntimeError):
    """Reading or writing an on-disk value cache failed."""


class CacheIntegrityError(CacheError):
    """A cache file was readable but its contents failed validation."""


class StabilityError(ArithmeticError):
    """A log-space recursion produced a value that exact arithmetic forbids."""
