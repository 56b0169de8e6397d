"""Exception types shared across the package, and the checks on outside
input (config field types, input text files) that raise them."""

import io
import math
import numbers
from pathlib import Path


class InputError(ValueError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericalAbort(RuntimeError):
    """A non-finite value was produced during training (CLI exit code 3)."""


def read_input_bytes(path):
    """The bytes of an input file; a missing or directory path raises
    InputError."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise InputError(f"missing file: {path}") from None
    except IsADirectoryError:
        raise InputError(f"{path}: is a directory, not a file") from None


def read_input_text(path):
    """The text of a UTF-8 input file, newlines translated as in text mode;
    a missing, directory or non-UTF-8 path raises InputError."""
    data = read_input_bytes(path)
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


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
