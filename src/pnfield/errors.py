"""Exception types and the default resource budget shared across the package."""

# Default element-count budget; the CLI overrides it with --budget or the
# PNFIELD_BUDGET environment variable.
DEFAULT_BUDGET = 2**24


class FieldSpecError(ValueError):
    """Malformed field/element/polynomial text.

    Carries the offending text and a 0-based position so CLI usage errors
    can point at the problem.
    """

    def __init__(self, message, text="", position=None):
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class ResourceLimitError(RuntimeError):
    """An operation would exceed the configured enumeration or size budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that must hold by construction failed."""
