"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


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


def utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8. A byte that is not UTF-8
    raises :class:`SchemaError` naming the file, not ``UnicodeDecodeError``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


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
