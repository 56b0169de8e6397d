"""Exception types shared across the package and what raises them: the
checks on outside input (config fields, input text files) and `numerical`."""

import contextlib
import math
import numbers
from pathlib import Path

import numpy as np


class InputError(ValueError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericalAbort(RuntimeError):
    """A computation produced a non-finite value (CLI exit code 3)."""


@contextlib.contextmanager
def numerical(where):
    """Run the block with numpy's overflow, invalid and divide errors raising,
    as NumericalAbort(f"{error} {where}"); a callable `where` is read at
    raise time. An np.errstate inside the block still wins there."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalAbort(f"{exc} {where() if callable(where) else where}") from None


def read_input_text(path):
    """The text of a UTF-8 input file, newlines translated as in text mode;
    a missing, directory or non-UTF-8 path raises InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"missing file: {path}") from None
    except IsADirectoryError:
        raise InputError(f"{path}: is a directory, not a file") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


def data_lines(lines, start=1):
    """(line number, stripped line) for each line that is neither blank
    nor a `#` comment; the first line is numbered `start`."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def check_field_types(obj, ints=(), reals=()):
    """Raise InputError unless each field named in `ints` is an integer and
    each one in `reals` a finite real number (a bool is neither)."""
    for name in ints:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not _finite(value):
            raise InputError(f"{name} must be a finite number, got {value!r}")


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False
