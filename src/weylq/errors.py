"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes, so library code must raise the
most specific class that applies.
"""

from __future__ import annotations


class WeylqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WeylqError):
    """Malformed or out-of-range input: bad rank, unknown root, bad subset."""


class ResourceCapError(WeylqError):
    """A predicted work or memory bound would be passed; raised before the
    work starts."""


class InconsistencyError(WeylqError):
    """An internal cross-check failed; results cannot be trusted."""
