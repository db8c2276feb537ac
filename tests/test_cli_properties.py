"""Property tests of the command line: whatever whitespace separates the
tokens of a valid `--points` document, and whatever JSON value either flag
is given, `eval` ends with an exit status and any report it writes is
JSON; whatever one field of a certificate is changed to, `check-cert`'s
verifier answers or calls the document malformed, and accepts only a claim
that `certify` could make."""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from quadineq.certifier import (MalformedCertificate, _clipped,  # noqa: E402
                                 _decode, _frame_box, _per_gauge, certify,
                                 verify_certificate)
from quadineq.cli import main  # noqa: E402
from quadineq.geometry import DiagonalFrame, quad_from_frame  # noqa: E402
from quadineq.interval import residual_enclosure  # noqa: E402

_LENGTH = st.floats(min_value=0.01, max_value=1.0)
_ANGLE = st.floats(min_value=0.01, max_value=math.pi - 0.01)
_GAPS = st.lists(st.text(alphabet=" \n\t\r", max_size=3), min_size=26, max_size=26)
# any JSON value, with object keys that the configuration documents use
_KEYS = st.sampled_from(["points", "frame", "p", "w"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16)


def _eval(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", *argv])
    assert code in (0, 1, 2)
    if out.getvalue():
        json.loads(out.getvalue())


def _tokens(quad):
    out = ["["]
    for i, (x, y) in enumerate(quad.vertices):
        out += ([","] if i else []) + ["[", repr(x), ",", repr(y), "]"]
    return out + ["]"]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(p=st.tuples(_LENGTH, _LENGTH, _LENGTH, _LENGTH), w=_ANGLE, gaps=_GAPS)
def test_eval_of_points_with_any_whitespace_writes_json(p, w, gaps):
    tokens = _tokens(quad_from_frame(DiagonalFrame(*p, w)))
    text = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
    _eval(["--points", text])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(option=st.sampled_from(["--points", "--frame"]), value=_JSON)
def test_eval_of_any_json_value_ends_with_an_exit_status(option, value):
    _eval([option, json.dumps(value)])


_CERT = certify(margin=0.2).to_json_dict()
_TREES = st.text(alphabet="01234L.x", max_size=80)
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


def _least_both_bound(doc):
    """The least "both" bound over the leaves of a certificate: the highest
    c_star its tree can carry."""
    boxes = _clipped(_decode(doc["tree"], doc["margin"])[0], doc["margin"])[0]
    enc = residual_enclosure(_frame_box(boxes, doc["margin"]), "both")
    return float(np.min(_per_gauge(enc.lo, boxes)))


_LEAST = _least_both_bound(_CERT)


@st.composite
def _edits(draw):
    """A field of the certificate document and a value to put there: the
    tree with one code replaced or any tree codes for the tree, finite
    floats for the numbers (the claimed c_star among them), any JSON value."""
    key = draw(st.sampled_from(sorted(_CERT)))
    special = st.nothing()
    if key == "tree":
        tree = _CERT["tree"]
        recode = st.tuples(st.integers(0, len(tree) - 1), st.sampled_from("01234L.x"))
        special = recode.map(lambda at: tree[:at[0]] + at[1] + tree[at[0] + 1:]) | _TREES
    elif key in ("margin", "target", "c_star", "box_count"):
        special = _NUMBERS
    return key, draw(special | _JSON)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edit=_edits())
@example(edit=("target", -5.0))
@example(edit=("c_star", _LEAST))
@example(edit=("c_star", float(np.nextafter(_LEAST, np.inf))))
def test_check_cert_of_a_tampered_certificate_accepts_only_what_certify_claims(edit):
    key, value = edit
    doc = {**json.loads(json.dumps(_CERT)), key: value}
    try:
        verified = verify_certificate(doc)
    except MalformedCertificate:
        return
    assert isinstance(verified, bool)
    if verified:
        assert 0.0 < doc["margin"] <= 0.2 and doc["target"] >= 0.0
        assert not doc["complete"] or doc["c_star"] >= doc["target"]
        if key != "tree":  # the claim holds on every leaf of the tree
            assert doc["c_star"] <= _least_both_bound(doc)
