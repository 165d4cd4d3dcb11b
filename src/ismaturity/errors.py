"""Exception types shared across the package.

The split mirrors how callers have to react: ValidationError means a single
input is malformed or out of range and should be fixed at the source file;
ConsistencyError means each input parses fine but they disagree with each
other (missing measurement, mismatched catalogs, conflicting applicability).
The CLI maps the two onto distinct exit codes.

Every JSON document reader runs inside `reading`, the one place where a
missing key or a value of the wrong shape becomes a ValidationError naming
the input, and reads each value through `field` at its exact JSON type.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping


class MaturityError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(MaturityError):
    """Malformed or out-of-range input data.

    When the error originates from a file, `source` names it and `row` gives
    the 1-based line (counting the header) so the offending record can be
    located directly.
    """

    def __init__(self, message: str, *, source: str | None = None, row: int | None = None):
        self.source = source
        self.row = row
        prefix = ""
        if source is not None and row is not None:
            prefix = f"{source}, row {row}: "
        elif source is not None:
            prefix = f"{source}: "
        super().__init__(prefix + message)


class ConsistencyError(MaturityError):
    """Inputs are individually well-formed but mutually inconsistent."""


_JSON_TYPES = {
    bool: "a boolean",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
    type(None): "null",
}


def field(record: Mapping, key: str, *kinds: type):
    """`record[key]`, which must be exactly one of the JSON types `kinds`.

    No coercion: "false" is not a boolean and true is not an integer. A
    missing key raises KeyError and a non-object `record` TypeError, which
    `reading` reports as a malformed document.
    """
    value = record[key]
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        raise ValidationError(f"{key!r} must be {expected}, found {value!r}")
    return value


@contextmanager
def reading(source: str, what: str) -> Iterator[None]:
    """Error boundary of one document reader.

    A KeyError or TypeError inside (a missing key, a list or scalar where an
    object was expected) becomes "malformed <what>", and a ValidationError
    that does not yet name its input (control ids, stage labels and field
    types do not know the file) gets `source`.
    """
    try:
        yield
    except (KeyError, TypeError):
        raise ValidationError(f"malformed {what}", source=source) from None
    except ValidationError as exc:
        if exc.source is not None:
            raise
        raise ValidationError(str(exc), source=source) from None
