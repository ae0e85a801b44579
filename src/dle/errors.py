"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, ModelError -> 3, and
every other DleError, InvariantViolation included, -> 4.
"""


class DleError(Exception):
    """Base class for all package errors."""


class ConfigError(DleError):
    """Invalid configuration, rule string, file format, or argument."""


class ModelError(DleError):
    """A probability source failed to produce a distribution."""


class MissingTransition(ModelError):
    """Table model has no entry for a context and no default distribution."""


class EmptyCorpus(ConfigError):
    """n-gram training corpus is empty after tokenization."""


class RemoteError(ModelError):
    """Remote log-probability endpoint failed after retries."""

    def __init__(self, message: str, attempts: int = 0, last_status: int | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_status = last_status


class ExpandingExpandedNode(DleError):
    """expand_node was called on a node that is not unexpanded."""


class EmptyFrontier(DleError):
    """Branch selection requested on an empty frontier."""


class DuplicateSequences(DleError):
    """Coverage input contained duplicate sequences."""


class InvariantViolation(DleError):
    """An internal consistency check failed."""
