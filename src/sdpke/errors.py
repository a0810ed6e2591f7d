"""Exception types shared across the library, and the checks every record reader shares."""

import json

import numpy as np


class ParameterError(ValueError):
    """Invalid, degenerate, or mutually inconsistent parameters."""


class SingularMatrixError(ArithmeticError):
    """The matrix has no inverse over its coefficient ring."""


class NotApplicableError(RuntimeError):
    """The requested procedure does not apply to the given platform."""


class SizeCapError(RuntimeError):
    """The problem instance exceeds the configured enumeration cap."""


def _is_integer(x) -> bool:
    """True for an int or numpy integer, false for a bool, float or text read from outside."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)  # bool subclasses int


def _refuse_json_constant(token: str):
    raise ParameterError(f"JSON token {token} is not a value any record takes (tropical +inf is the text \"inf\")")


_RECORD_DECODER = json.JSONDecoder(parse_constant=_refuse_json_constant)


def read_json(text: str):
    """``json.loads`` for records read from outside, refusing the non-standard tokens Infinity,
    -Infinity and NaN: Python's reader takes them as floats, and no record holds a float.
    One decoder serves every call, as ``json.loads`` keeps one for its defaults."""
    return _RECORD_DECODER.decode(text)


def refuse_unknown_keys(record: dict, known, what: str) -> None:
    """Refuse a record read from outside that holds a key its reader does not read, so a
    misspelt optional key (a transcript's ``key`` as ``Key``) is not dropped without a word."""
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise ParameterError(f"unknown {what} keys {unknown}; accepted: {sorted(known)}")
