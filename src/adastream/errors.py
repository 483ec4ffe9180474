"""Exception types shared across the package, and the file boundary.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies. Every file the package reads or
writes goes through the three helpers at the end: they read and write
UTF-8, write ``\n`` line ends on every OS, and refuse a file that does not
parse with the reader's error class, naming the file.
"""

import csv
import json


class AdastreamError(Exception):
    """Base class for all package errors."""


class ArgumentError(AdastreamError, ValueError):
    """A caller passed an invalid argument (bad range, shape, or ordering)."""


class SchemaError(AdastreamError, ValueError):
    """An input file does not conform to its documented schema."""


class ConfigError(AdastreamError, ValueError):
    """A configuration file or override is inconsistent."""


class ContractError(AdastreamError, RuntimeError):
    """An operation was invoked outside its stated preconditions."""


class DivergenceError(AdastreamError, RuntimeError):
    """Training produced a non-finite loss."""


class ModelCorruptError(AdastreamError, RuntimeError):
    """A model holds non-finite weights and cannot be evaluated."""


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


def read_json(path, error, what: str, **json_kwargs):
    """The JSON value in ``path``. Text that is not UTF-8 or not valid JSON,
    or that a ``json_kwargs`` hook refuses, raises ``error`` naming the
    file and ``what`` it should hold."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, **json_kwargs)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise error(f"{path}: not valid {what}: {exc}") from None


def csv_rows(path):
    """``(number, row)`` for each record of a CSV file read as UTF-8,
    numbered from 1. A byte that is not UTF-8, or a record the CSV parser
    refuses (a field over its size limit), raises :class:`SchemaError`
    naming the file, and the line for a refused record."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from enumerate(reader, 1)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends untranslated."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
