"""The rules of every value taken in: numbers, counts, config fields and JSON objects.

Each raises a ValueError that names the value and says what it must be,
so configs, checkpoints, documents and command-line arguments fail alike.
"""
from __future__ import annotations

import numbers
import sys

import numpy as np

INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest count numpy can index or allocate
SAMPLES_MAX = INDEX_MAX // 8  # the most float64 values numpy can size: the bound of every sample count

__all__ = ["INDEX_MAX", "SAMPLES_MAX", "check_number", "check_integer", "check_fields", "check_object"]


def check_number(name: str, value, interval: tuple = (-np.inf, np.inf, "()")) -> None:
    """The rule of every real taken in: a ValueError naming it and its value unless it is a real number, not a bool,
    finite as a float, and in interval (low, high, ends), ends one of "()", "[)", "(]", "[]"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    low, high, ends = interval
    if not (abs(value) <= sys.float_info.max and (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, not {value!r}")


def check_object(what: str, value, keys=None) -> dict:
    """The rule of every JSON object taken in: a ValueError naming it unless it is a dict whose keys, given the
    allowed `keys`, are among them; a shallow copy of it."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    if keys is not None and (unknown := sorted(set(value) - set(keys))):
        raise ValueError(f"unknown {what} keys: {unknown}")
    return dict(value)


def check_integer(name: str, value, minimum: int | None = None, maximum: int = INDEX_MAX) -> None:
    """The rule of every count: a ValueError naming it unless it is an integer, not a bool, at least minimum
    and at most maximum, by default numpy's index range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, not {value!r}")
    if value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, not {value!r}")


def check_fields(config, integers=(), reals=(), choices=()) -> None:
    """The rule of every config's fields: (name, minimum[, maximum]) rows pass check_integer, (name, interval) rows
    check_number, and a (name, options) row's value must be one of options; a field defaulting to None may be None."""
    for check, rows in ((check_integer, integers), (check_number, reals)):
        for name, *bounds in rows:
            value = getattr(config, name)
            if value is not None or config.__dataclass_fields__[name].default is not None:
                check(name, value, *bounds)
    for name, options in choices:
        if (value := getattr(config, name)) not in options:
            raise ValueError(f"{name} must be one of {', '.join(options)}, not {value!r}")
