"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, I/O and
file-format problems exit 3, numerically degenerate inputs exit 4.  A
parser reports a bad field with ValidationError (``corpus.require`` is the
one JSON field gate); a file reader turns that into a SchemaError naming
the line.  Any other exception is a bug or a resource running out, which
the CLI reports as ``internal`` with exit 1.
"""

from contextlib import contextmanager


class PrefRankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PrefRankError):
    """Invalid argument, configuration, or in-memory data."""


class SchemaError(PrefRankError):
    """A file on disk does not match its documented format.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DumpParseError(SchemaError):
    """Malformed XML in a posts dump."""


class DegenerateInputError(PrefRankError):
    """Input is structurally valid but numerically unusable.

    Example: a zero reward weight, which would put log(0) into a loss.
    Callers are expected to filter such records out rather than mask the
    problem here.
    """


@contextmanager
def naming_record(record_id: str):
    """Prefix a DegenerateInputError raised in the block with the record's id."""
    try:
        yield
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"record {record_id!r}: {exc}") from exc
