"""Exception types shared across the package."""


class DarkspecError(Exception):
    """Base class for all package errors."""


class DomainError(DarkspecError, ValueError):
    """An argument lies outside the operation's domain (bad window, empty list, ...)."""


class ParameterError(DarkspecError, ValueError):
    """A distribution or model parameter violates its constraints."""


class VarianceUndefinedError(ParameterError):
    """A variance was requested for a distribution whose second moment diverges."""


class MitigationInvalidError(DarkspecError, ValueError):
    """A proposed mitigation does not strictly reduce the expected loss."""


class NarrativeSyntaxError(DarkspecError, ValueError):
    """Narrative document failed to parse.

    ``code`` is a stable machine-readable label: ``syntax``, ``duplicate-id``,
    ``dangling-reference`` or ``empty-document``.
    """

    def __init__(self, message: str, line: int, column: int, code: str = "syntax"):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.code = code


class NarrativeInvalidError(DarkspecError, ValueError):
    """An operation that requires a validated narrative received an invalid one."""

    def __init__(self, violations):
        labels = ", ".join(v.code for v in violations)
        super().__init__(f"narrative failed validation: {labels}")
        self.violations = tuple(violations)


class RoundAbortedError(DarkspecError, RuntimeError):
    """An underwriting callback failed; the round was abandoned and the ledger
    left untouched."""


class ConfigError(DarkspecError, ValueError):
    """An experiment configuration file is missing, malformed, or inconsistent."""
