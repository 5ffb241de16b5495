"""The two kinds of pqdkit error.

An invalid input raises ``SchemaError`` at the JSON pointer of the field it
came from (an input file's field or a CLI flag); the CLI exits 1.  A
numerical condition that fails on a valid input (no log-concavity
certificate, no convergence, a weight above its bound, a precision that is
not positive definite) raises ``ConditionFailure``; the CLI exits 2.
"""


class PqdkitError(Exception):
    """Base class for all pqdkit errors."""


class SchemaError(PqdkitError, ValueError):
    """An input field (of an input file, a flag or a run setting) is invalid;
    carries the field's JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer, self.message = pointer, message
        super().__init__(f"{pointer}: {message}")


class ConditionFailure(PqdkitError):
    """A numerical condition the estimate relies on failed."""
