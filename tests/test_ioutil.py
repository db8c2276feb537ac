"""Canonical JSON: the one-pass list and dict paths write exactly what the
plain recursive emitter writes."""

import math

import numpy as np
import pytest

from quadineq.ioutil import dumps, finite_number


def _reference(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite float in JSON payload: {x!r}")
        return format(x, ".16e")
    if isinstance(obj, dict):
        return "{" + ",".join(_reference(k) + ":" + _reference(obj[k]) for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference(x) for x in obj) + "]"
    raise TypeError(f"unsupported JSON type: {type(obj)!r}")


def _document(rng, depth=0):
    kind = rng.integers(0, 9 if depth < 3 else 6)
    if kind == 0:
        return [None, True, False][rng.integers(0, 3)]
    if kind == 1:
        return int(rng.integers(-10**12, 10**12))
    if kind == 2:
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 3:
        return np.float64(rng.normal())
    if kind == 4:
        return 'a"b\\c' if rng.random() < 0.2 else "x" * int(rng.integers(0, 4))
    if kind == 5:
        return [float(v) for v in rng.normal(size=rng.integers(0, 6))]
    if kind == 6:
        return {f"k{i}": _document(rng, depth + 1) for i in range(rng.integers(0, 5))}
    if kind == 7:
        return [int(v) for v in rng.integers(-5, 5, size=rng.integers(0, 6))]
    items = [_document(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    return tuple(items) if rng.random() < 0.3 else items


def test_dumps_matches_the_recursive_emitter():
    rng = np.random.default_rng(0)
    for _ in range(300):
        doc = {"doc": _document(rng), "leaves": [{"lower_bound": float(v)}
                                                for v in rng.normal(size=5)]}
        assert dumps(doc) == _reference(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1.0, x], lambda x: {"a": x},
                                  lambda x: [{"a": [0.5, x]}], lambda x: np.float64(x)])
def test_dumps_rejects_non_finite_floats_everywhere(bad, wrap):
    with pytest.raises(ValueError, match="non-finite float"):
        dumps(wrap(bad))


def test_dumps_rejects_non_string_keys_and_unknown_types():
    with pytest.raises(TypeError):
        dumps({1: 2.0})
    with pytest.raises(TypeError):
        dumps([object()])


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float64(0.125), 10 ** 300])
def test_finite_number_reads_a_finite_number(value):
    out = finite_number(value)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [
    "0.5", True, False, None, [0.5], math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400,
], ids=["string", "true", "false", "null", "list", "inf", "-inf", "nan", "too-large",
        "too-negative"])
def test_finite_number_rejects_anything_else(value):
    with pytest.raises((TypeError, ValueError)):
        finite_number(value)
