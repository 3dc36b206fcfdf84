"""Exception types shared across the package, and :func:`require`, the one
range check every model, reader and command applies to its numbers."""


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


def require(name: str, value, interval: str = "(-inf, inf)", error=ParameterError):
    """``value`` if it lies in ``interval``, else ``error`` naming ``name``.

    ``interval`` is written as the message prints it, such as ``"[0, inf)"``
    or ``"(0, 1]"``. An infinite end is always written open, so the same two
    comparisons refuse nan, inf and -inf.
    """
    low, high = map(float, interval[1:-1].split(","))
    if (low <= value if interval[0] == "[" else low < value) and (
        value <= high if interval[-1] == "]" else value < high
    ):
        return value
    raise error(f"{name} must lie in {interval}, got {value!r}")
