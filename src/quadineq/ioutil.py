"""Canonical JSON: one `json.dumps` call with sorted keys and compact
separators, and a finite-number reader for outside input.

Reports and certificates must be byte-identical across runs and must
round-trip float64 values exactly.  The standard library writes every float
as its shortest `repr`, the shortest decimal string that reads back as the
same double (correctly rounded in both directions, so the same text on every
platform); sorted keys fix the order of every object.  Control and non-ASCII
characters in strings are escaped, and a NaN or infinite float raises
ValueError rather than writing a token that is not JSON.
"""

from __future__ import annotations

import json
import math
import numbers


def finite_number(value) -> float:
    """A number read from outside input as a finite float: TypeError unless it
    is a real number and not a bool (float() also reads strings and booleans),
    ValueError if it is infinite, NaN or too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError("number too large for a float") from None
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {value!r}")
    return out


def dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators, shortest
    round-trip floats; ValueError on a NaN or infinite float."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
