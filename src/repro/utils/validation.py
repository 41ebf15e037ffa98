"""Argument-validation helpers.

All public entry points of the library validate their inputs eagerly and
raise :class:`ValueError` (or :class:`TypeError`) with a message that names
the offending parameter.  Failing fast keeps errors close to their cause,
which matters in a library whose results feed long optimization loops.
"""

from __future__ import annotations

import math
from typing import Any


def _name(label: str) -> str:
    return label if label else "value"


def check_finite(value: float, label: str = "") -> float:
    """Return ``value`` if it is a finite real number, else raise.

    Accepts ints and floats (and numpy scalars via ``float()``).
    """
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{_name(label)} must be a real number, got {value!r}") from exc
    if not math.isfinite(as_float):
        raise ValueError(f"{_name(label)} must be finite, got {as_float!r}")
    return as_float


def check_positive(value: float, label: str = "") -> float:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    # the common case, a positive finite float, in one comparison (NaN
    # fails it); every other value takes the full conversion below
    if type(value) is float and 0.0 < value < math.inf:
        return value
    as_float = check_finite(value, label)
    if as_float <= 0:
        raise ValueError(f"{_name(label)} must be > 0, got {as_float!r}")
    return as_float


def check_non_negative(value: float, label: str = "") -> float:
    """Return ``value`` if it is a finite number greater than or equal to zero."""
    as_float = check_finite(value, label)
    if as_float < 0:
        raise ValueError(f"{_name(label)} must be >= 0, got {as_float!r}")
    return as_float


def check_probability(value: float, label: str = "") -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    as_float = check_finite(value, label)
    if not 0.0 <= as_float <= 1.0:
        raise ValueError(f"{_name(label)} must be in [0, 1], got {as_float!r}")
    return as_float


def check_in_range(
    value: float,
    low: float,
    high: float,
    label: str = "",
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> float:
    """Return ``value`` if it lies in the interval [low, high] (open as requested)."""
    as_float = check_finite(value, label)
    low_ok = as_float > low if low_open else as_float >= low
    high_ok = as_float < high if high_open else as_float <= high
    if not (low_ok and high_ok):
        lo_br = "(" if low_open else "["
        hi_br = ")" if high_open else "]"
        raise ValueError(
            f"{_name(label)} must be in {lo_br}{low}, {high}{hi_br}, got {as_float!r}"
        )
    return as_float


def check_int(value: Any, label: str = "", *, minimum: int | None = None) -> int:
    """Return ``value`` as an int, raising if it is not integral.

    Floats are accepted only when they are exactly integral (e.g. 3.0).
    """
    if isinstance(value, bool):
        raise TypeError(f"{_name(label)} must be an integer, got bool {value!r}")
    if isinstance(value, int):
        as_int = value
    elif isinstance(value, float) and value.is_integer():
        as_int = int(value)
    else:
        try:
            # numpy integer scalars land here
            if float(value).is_integer():
                as_int = int(value)
            else:
                raise ValueError
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"{_name(label)} must be an integer, got {value!r}"
            ) from exc
    if minimum is not None and as_int < minimum:
        raise ValueError(f"{_name(label)} must be >= {minimum}, got {as_int}")
    return as_int
