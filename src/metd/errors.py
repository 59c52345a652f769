"""Exception types shared across the package.

Every precondition failure raises an exception from this module rather
than a bare ValueError, so callers can tell a broken contract apart from
an ordinary value problem raised by a third-party library.  A synthetic
geometry that cannot be built is a ``ContractViolation`` too, raised when
its ``SynthConfig`` is made.
"""


class ContractViolation(ValueError):
    """An argument or intermediate state failed a documented precondition."""


class ZeroNormError(ContractViolation):
    """A vector that must have nonzero length was identically zero.

    Cosine similarity is undefined for zero vectors; callers that reach
    this state have a modelling problem upstream, so the failure is loud
    instead of silently substituting a similarity of zero.
    """


class ParseError(ValueError):
    """A dataset, vocabulary, or checkpoint file failed to parse.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """A run-config file contained an unknown key, bad value, or conflict.

    ``key`` names the offending config key when one is identifiable.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        if key is not None:
            message = f"{key}: {message}"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.key = key
        self.line = line
