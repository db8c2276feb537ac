"""Canonical JSON and the finite-number reader: sorted keys, compact
separators, floats that round-trip exactly, strings that stay valid JSON,
and no NaN or infinity on the page."""

import json
import math

import numpy as np
import pytest

from quadineq.ioutil import dumps, finite_number


def _document(rng, depth=0):
    kind = rng.integers(0, 8 if depth < 3 else 5)
    if kind == 0:
        return [None, True, False][rng.integers(0, 3)]
    if kind == 1:
        return int(rng.integers(-10**12, 10**12))
    if kind == 2:
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
    if kind == 3:
        return 'a"b\\c\n\t\r\x00é' if rng.random() < 0.2 else "x" * int(rng.integers(0, 4))
    if kind == 4:
        return [float(v) for v in rng.normal(size=rng.integers(0, 6))]
    if kind == 5:
        return {f"k{i}": _document(rng, depth + 1) for i in range(rng.integers(0, 5))}
    if kind == 6:
        return [int(v) for v in rng.integers(-5, 5, size=rng.integers(0, 6))]
    return [_document(rng, depth + 1) for _ in range(rng.integers(0, 5))]


def test_dumps_round_trips_every_value_exactly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        doc = {"doc": _document(rng), "leaves": [{"lower_bound": float(v)}
                                                for v in rng.normal(size=5)]}
        text = dumps(doc)
        assert json.loads(text) == doc
        assert dumps(json.loads(text)) == text


def test_dumps_sorts_keys_and_writes_shortest_floats():
    assert dumps({"b": 1, "a": [0.1, 1e-300]}) == '{"a":[0.1,1e-300],"b":1}'


def test_dumps_escapes_control_characters_in_strings():
    text = dumps({"points": 'line\nnext\ttab "quoted"'})
    assert "\n" not in text and "\t" not in text
    assert json.loads(text) == {"points": 'line\nnext\ttab "quoted"'}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1.0, x], lambda x: {"a": x},
                                  lambda x: [{"a": [0.5, x]}], lambda x: np.float64(x)])
def test_dumps_rejects_non_finite_floats_everywhere(bad, wrap):
    with pytest.raises(ValueError, match="Out of range float values"):
        dumps(wrap(bad))


def test_dumps_rejects_unknown_types():
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
