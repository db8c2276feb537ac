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

from quadineq.certifier import (MalformedCertificate, certify,  # noqa: E402
                                 verify_certificate)
from quadineq.cli import main  # noqa: E402
from quadineq.geometry import DiagonalFrame, quad_from_frame  # noqa: E402

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


@st.composite
def _edits(draw):
    """A path into the certificate document and a value to put there: tree
    codes for the tree, finite floats for the numbers, any JSON value."""
    path = draw(st.sampled_from([(key,) for key in sorted(_CERT)] + [("leaves", 0)])
                | st.integers(0, len(_CERT["leaves"]) - 1).map(
                    lambda leaf: ("leaves", leaf, "lower_bound")))
    numeric = path[-1] in ("margin", "target", "c_star", "box_count", "lower_bound")
    special = _TREES if path == ("tree",) else _NUMBERS if numeric else st.nothing()
    return path, draw(special | _JSON)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edit=_edits())
@example(edit=(("target",), -5.0))
def test_check_cert_of_a_tampered_certificate_accepts_only_what_certify_claims(edit):
    (*parents, last), value = edit
    doc = json.loads(json.dumps(_CERT))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    try:
        verified = verify_certificate(doc)
    except MalformedCertificate:
        return
    assert isinstance(verified, bool)
    if verified:
        assert 0.0 < doc["margin"] <= 0.2 and doc["target"] >= 0.0
        assert not doc["complete"] or doc["c_star"] >= doc["target"]
