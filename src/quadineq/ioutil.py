"""Deterministic JSON serialization with full-precision decimal floats.

Reports and certificates must be byte-identical across runs and must
round-trip float64 values exactly, so floats are always emitted with 17
significant decimal digits instead of Python's shortest-roundtrip repr.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np


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


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in JSON payload: {x!r}")
    return format(x, ".16e")


def _string_text(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


@functools.lru_cache(maxsize=256)
def _key_text(key: str) -> str:
    # documents repeat a few keys many times (one per certificate leaf)
    return _string_text(key) + ":"


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append("," + _key_text(key) if i else _key_text(key))
            value = obj[key]
            if type(value) is float:  # the common leaf, without a recursive call
                out.append(_float_text(value))
            else:
                _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        # a list of plain floats or of plain ints is written in one pass
        kinds = set(map(type, obj))
        if kinds == {float}:
            out.append("[" + ",".join(map(_float_text, obj)) + "]")
        elif kinds == {int}:
            out.append("[" + ",".join(map(str, obj)) + "]")
        else:
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(",")
                _emit(item, out)
            out.append("]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_string_text(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    else:
        raise TypeError(f"unsupported JSON type: {type(obj)!r}")


def dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, 17-digit decimal floats."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
