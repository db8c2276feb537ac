"""Branch-and-bound certification and certificate replay."""

import json

import numpy as np
import pytest

from quadineq import certifier
from quadineq.certifier import (
    Certificate,
    MalformedCertificate,
    _split,
    certify,
    verify_certificate,
)
from quadineq.geometry import metrics_from_frames
from quadineq.ioutil import dumps
from quadineq.kernel import residual

MARGIN = 0.16  # coarse domain keeps unit-test runs fast


@pytest.fixture(scope="module")
def cert():
    return certify(margin=MARGIN, target=0.0, max_boxes=300_000)


def test_certify_completes_with_positive_bound(cert):
    assert cert.complete
    assert cert.c_star > 0.0
    assert cert.box_count <= 300_000
    assert all(leaf.lower_bound >= 0.0 for leaf in cert.leaves)
    assert min(leaf.lower_bound for leaf in cert.leaves) == cert.c_star


def test_certify_is_deterministic(cert):
    again = certify(margin=MARGIN, target=0.0, max_boxes=300_000)
    assert dumps(again.to_json_dict()) == dumps(cert.to_json_dict())


def test_verify_accepts_fresh_certificate(cert):
    assert verify_certificate(cert)


def test_verify_accepts_json_round_trip(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    assert verify_certificate(doc)


def test_verify_rejects_inflated_bound(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["leaves"][7]["lower_bound"] = 10.0 * doc["leaves"][7]["lower_bound"] + 1.0
    assert not verify_certificate(doc)


def test_verify_rejects_missing_leaf(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    del doc["leaves"][3]
    assert not verify_certificate(doc)


def test_verify_rejects_tampered_c_star(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["c_star"] = doc["c_star"] / 2.0
    assert not verify_certificate(doc)


def test_verify_rejects_duplicate_leaf(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["leaves"].append(doc["leaves"][0])
    assert not verify_certificate(doc)


def test_verify_rejects_out_of_domain_leaf(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["leaves"][0]["box"]["w"][0] = 0.0
    assert not verify_certificate(doc)


def test_malformed_document_raises(cert):
    with pytest.raises(MalformedCertificate):
        verify_certificate({"not": "a certificate"})
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["leaves"][0]["box"]["p1"] = [0.3, 0.3]  # zero-width tile
    with pytest.raises(MalformedCertificate):
        verify_certificate(doc)


def test_non_finite_number_is_malformed(cert):
    for field in ("margin", "target", "c_star", "lower_bound"):
        for value in (float("nan"), float("inf"), float("-inf")):
            doc = json.loads(dumps(cert.to_json_dict()))
            owner = doc["leaves"][0] if field == "lower_bound" else doc
            owner[field] = value
            with pytest.raises(MalformedCertificate):
                Certificate.from_json_dict(doc)


def test_unknown_split_rule_is_malformed(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["split_rule"] = "bisect-longest:w,p4,p3,p2,p1"
    with pytest.raises(MalformedCertificate):
        Certificate.from_json_dict(doc)


def test_verify_rejects_nan_recomputed_bounds(cert, monkeypatch):
    monkeypatch.setattr(certifier, "_evaluate",
                        lambda boxes, margin: np.full(len(boxes), np.nan))
    assert not verify_certificate(cert)


def test_margin_015_tree_is_pinned():
    # the box count, leaf count and c* of a mid-size run: any change to
    # the enclosures or the split rule that moves the tree shows here
    pinned = certify(margin=0.15)
    assert pinned.complete
    assert pinned.box_count == 23_581
    assert len(pinned.leaves) == 11_683
    assert pinned.c_star == pytest.approx(2.6668503652384494e-08, rel=1e-9)


def test_absurd_target_returns_partial_certificate():
    part = certify(margin=0.15, target=1e9, max_boxes=300)
    assert not part.complete
    assert part.c_star < 1e9
    assert part.box_count <= 300


def test_max_boxes_one_semantics():
    part = certify(margin=0.15, target=0.0, max_boxes=1)
    assert part.box_count == 1
    assert len(part.leaves) == 1
    # the whole-domain enclosure cannot clear the target in one box
    assert not part.complete


def test_single_box_run_completes_iff_root_clears_target():
    # the single recorded tile is the whole domain and its bound decides
    # completeness; for every valid margin the root enclosure straddles
    # zero, so a one-box run can never certify a nonnegative target
    part = certify(margin=0.2, target=0.0, max_boxes=1)
    assert part.complete == (part.leaves[0].lower_bound >= part.target)
    assert not part.complete


def test_monotonicity_in_margin():
    wide = certify(margin=0.14, target=0.0, max_boxes=600_000)
    narrow = certify(margin=0.18, target=0.0, max_boxes=600_000)
    assert wide.complete and narrow.complete
    assert wide.c_star <= narrow.c_star


def test_soundness_spot_check(cert):
    rng = np.random.default_rng(313)
    leaves = [cert.leaves[i] for i in rng.integers(0, len(cert.leaves), 300)]
    for leaf in leaves:
        (l1, h1), (l2, h2), (l3, h3), (l4, h4), (lw, hw) = leaf.box
        # a gauge point inside the tile, if one exists
        for _ in range(20):
            p123 = rng.uniform((l1, l2, l3), (h1, h2, h3))
            p4 = 1.0 - p123.sum()
            if l4 <= p4 <= h4:
                w = rng.uniform(lw, hw)
                p = np.array([[p123[0], p123[1], p123[2], p4]])
                value = float(residual(metrics_from_frames(p, np.array([w])), "edge")[0])
                assert value >= leaf.lower_bound
                break


def test_split_bisects_widest_dimension():
    box = ((0.1, 0.2), (0.1, 0.5), (0.1, 0.2), (0.1, 0.2), (1.0, 1.1))
    lower, upper = _split(box)
    assert lower[1] == (0.1, 0.3) and upper[1] == (0.3, 0.5)
    # ties break toward the earliest dimension
    box = ((0.1, 0.3), (0.1, 0.3), (0.1, 0.2), (0.1, 0.2), (1.0, 1.1))
    lower, upper = _split(box)
    assert lower[0] == (0.1, 0.2) and upper[0] == (0.2, 0.3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        certify(margin=0.0)
    with pytest.raises(ValueError):
        certify(margin=0.25)
    with pytest.raises(ValueError):
        certify(margin=0.1, target=-1.0)
    with pytest.raises(ValueError):
        certify(margin=0.1, max_boxes=0)


def test_certificate_schema_fields(cert):
    doc = cert.to_json_dict()
    assert doc["gauge"] == "psum1"
    assert set(doc) >= {"version", "margin", "gauge", "target", "complete",
                        "c_star", "leaves"}
    leaf = doc["leaves"][0]
    assert set(leaf) == {"box", "lower_bound"}
    assert set(leaf["box"]) == {"p1", "p2", "p3", "p4", "w"}
    rebuilt = Certificate.from_json_dict(json.loads(dumps(doc)))
    assert rebuilt.c_star == cert.c_star
    assert len(rebuilt.leaves) == len(cert.leaves)
