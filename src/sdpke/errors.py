"""Exception types shared across the library, and the checks every record reader shares."""

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


def refuse_unknown_keys(record: dict, known, what: str) -> None:
    """Refuse a record read from outside that holds a key its reader does not read, so a
    misspelt optional key (a transcript's ``key`` as ``Key``) is not dropped without a word."""
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise ParameterError(f"unknown {what} keys {unknown}; accepted: {sorted(known)}")
