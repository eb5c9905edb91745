"""Exception hierarchy shared by all razor modules.

The CLI maps these onto its exit-code contract: ConfigError -> 1,
DataError (and subclasses) -> 2, BackendError -> 3.
"""


class RazorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RazorError):
    """Invalid configuration value (odd encoding width, bad rates, ...)."""


class DataError(RazorError):
    """Malformed or inconsistent input data."""


class NoContrastError(DataError):
    """No opposite-label documents exist; scoring is undefined."""


class ObjectiveUndefinedError(RazorError):
    """A class has no non-zero embeddings; the alignment objective is undefined."""


class BackendError(RazorError):
    """Generation backend unreachable or persistently failing."""
