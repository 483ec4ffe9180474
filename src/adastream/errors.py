"""Exception types shared across the package, the array boundary and the
file boundary.

Each class is one exit code of the CLI. Library code raises
:class:`ArgumentError` (exit 2) for a bad argument, whatever the reason it
is bad, and :class:`SchemaError` (exit 3) for an input file or config that
breaks its documented schema. The numeric entry points of the refusal
contract convert their array arguments with :func:`numeric_array`, and
check their integer arguments with :func:`check_integer`. Every
file the package reads or writes goes through the four helpers at the
end: they read and write UTF-8, write ``\n`` line ends on every OS, and
refuse a file that does not parse with a :class:`SchemaError` naming the
file.
"""

import csv
import itertools
import json

import numpy as np


class AdastreamError(Exception):
    """Base class for all package errors."""


class ArgumentError(AdastreamError, ValueError):
    """A caller passed an invalid argument: a bad value, shape or ordering,
    a call before its time, or a model or training run that is not finite.
    The CLI exits 2."""


class SchemaError(AdastreamError, ValueError):
    """An input file or config does not conform to its documented schema.
    The CLI exits 3."""


def numeric_array(values, name: str, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (None: numpy's choice), copied
    only if it is not one. Text, ragged rows or an integer beyond the
    dtype's range raise an :class:`ArgumentError` naming the argument."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArgumentError(f"{name} must be numbers: {exc}") from None


def check_integer(value, name: str, minimum: int) -> None:
    """The one rule for an integer argument: an ``int`` or numpy integer,
    not a bool, at least ``minimum``; else an :class:`ArgumentError`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


def json_numbers(value) -> bool:
    """Whether a parsed JSON value is a number or nested lists of numbers,
    with no string or boolean, which ``float`` and ``np.array`` also take."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            return False
    return True


def read_json(path, what: str, **json_kwargs):
    """The JSON value in ``path``. Text that is not UTF-8 or not valid JSON,
    that nests deeper than the parser recurses, or that a ``json_kwargs``
    hook refuses, raises :class:`SchemaError` naming the file and ``what``
    it should hold."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, **json_kwargs)
        # ValueError also covers bad UTF-8 and over-long integers
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid {what}: {exc}") from None


def csv_lines(path):
    """``(number, line, row)`` for each record of a CSV file read as UTF-8,
    numbered from 1. A plain line (no quote, carriage return or NUL, and no
    longer than the parser's field limit) comes as its text without the line
    end, and row None. From the first line that is not plain on, each record
    comes as line None and the CSV parser's row, as an empty line does with
    ``[]``. A byte that is not UTF-8, or a record the parser refuses, raises
    :class:`SchemaError` naming the file, and the line for a refused record."""
    limit = csv.field_size_limit()
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if '"' in line or "\r" in line or "\0" in line or len(line) > limit:
                    reader = csv.reader(itertools.chain([line], fh))  # and the rest
                    for record, row in enumerate(reader, number):
                        yield record, None, row
                    return
                line = line.rstrip("\n")
                yield (number, line, None) if line else (number, None, [])
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}:{number - 1 + reader.line_num}: {exc}") from None


def csv_rows(path):
    """``(number, row)`` for each record of :func:`csv_lines`."""
    for number, line, row in csv_lines(path):
        yield number, row if line is None else line.split(",")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends untranslated."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
