"""Branch-and-bound certification and certificate replay."""

import dataclasses
import json

import numpy as np
import pytest

from dihedral import in_cut, into_cut
from quadineq import __version__, certifier, cli, interval
from quadineq.certifier import (
    Certificate,
    MalformedCertificate,
    _bisect,
    _decode,
    _gauge_clip,
    _split_dims,
    certify,
    verify_certificate,
)
from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.interval import FrameBox, Interval, _down, residual_enclosure
from quadineq.ioutil import dumps
from quadineq.kernel import residual

MARGIN = 0.16  # coarse domain keeps unit-test runs fast


def _fresh(cert):
    return json.loads(dumps(cert.to_json_dict()))


def _rejected(doc):
    """A certificate is rejected when it fails to parse or to verify."""
    try:
        return not verify_certificate(doc)
    except MalformedCertificate:
        return True


def _leaf_index(tree, pos):
    """Index into the leaf bounds of the node at `pos`, had it been a leaf."""
    return tree.count("L", 0, pos)


@pytest.fixture(scope="module")
def cert():
    return certify(margin=MARGIN, target=0.0, max_boxes=300_000)


@pytest.fixture(scope="module")
def dotted():
    """A small tree with '.' nodes: the margin-0.135 tree has two, both
    outside the cut (the trees from margin 0.2 down to 0.14 have none).
    Every test of '.' nodes reads this tree, so it must hold one."""
    tree = certify(margin=0.135)
    assert "." in tree.tree
    return tree


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


def test_verify_rejects_changed_target_or_margin(cert):
    doc = _fresh(cert)
    doc["target"] = 2.0 * doc["c_star"]  # a complete claim the leaves miss
    assert verify_certificate(doc) is False
    doc = _fresh(cert)
    doc["margin"] = MARGIN - 0.01  # the same tree over a wider domain
    assert verify_certificate(doc) is False


def test_verify_rejects_duplicate_leaf(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["leaves"].append(doc["leaves"][0])
    assert not verify_certificate(doc)


def test_verify_rejects_out_of_domain_leaf(dotted):
    # an infeasible node recoded as a leaf, with a bound of its own, so only
    # the leaf's position outside the domain is wrong
    doc = _fresh(dotted)
    pos = doc["tree"].index(".")
    doc["leaves"].insert(_leaf_index(doc["tree"], pos), {"lower_bound": 1.0})
    doc["tree"] = doc["tree"][:pos] + "L" + doc["tree"][pos + 1:]
    doc["box_count"] += 1
    assert verify_certificate(doc) is False


def test_verify_rejects_feasible_node_coded_infeasible(cert):
    doc = _fresh(cert)
    pos = doc["tree"].index("L")
    del doc["leaves"][_leaf_index(doc["tree"], pos)]
    doc["tree"] = doc["tree"][:pos] + "." + doc["tree"][pos + 1:]
    doc["c_star"] = min(leaf["lower_bound"] for leaf in doc["leaves"])
    doc["box_count"] -= 1
    assert verify_certificate(doc) is False


def _first_split(tree):
    return min(tree.find(code) for code in "01234" if code in tree)


def _last_split(tree):
    return max(tree.rfind(code) for code in "01234")


# "S" in an id stands for a split code, '0'-'4'
@pytest.mark.parametrize("tamper", [
    lambda t: t.replace("L", "0", 1),
    lambda t: t[::-1].replace("L", "4", 1)[::-1],
    lambda t: t[:_first_split(t)] + "L" + t[_first_split(t) + 1:],
    lambda t: t[:_last_split(t)] + "L" + t[_last_split(t) + 1:],
    lambda t: t.replace(".", "L", 1),
], ids=["L-to-S-first", "L-to-S-last", "S-to-L-first", "S-to-L-last", "empty-to-L"])
def test_verify_rejects_flipped_node_code(dotted, tamper):
    doc = _fresh(dotted)
    doc["tree"] = tamper(doc["tree"])
    assert doc["tree"] != dotted.tree
    assert _rejected(doc)


@pytest.mark.parametrize("tamper", [
    lambda t: t[:-1], lambda t: t + "L", lambda t: t.replace("L", "X", 1),
    lambda t: "S" + t[1:], lambda t: "5" + t[1:],
], ids=["truncated", "appended", "unknown-code", "old-split-code", "split-code-5"])
def test_tree_that_does_not_parse_is_malformed(cert, tamper):
    doc = _fresh(cert)
    doc["tree"] = tamper(doc["tree"])
    with pytest.raises(MalformedCertificate):
        Certificate.from_json_dict(doc)


def test_malformed_document_raises(cert):
    with pytest.raises(MalformedCertificate):
        verify_certificate({"not": "a certificate"})
    doc = _fresh(cert)
    doc["tree"] = doc["tree"][:1]  # a root split with no children
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


def test_a_number_that_is_not_a_json_number_is_malformed(cert, tmp_path, capsys):
    # float() reads "0.16" and False, so strings and booleans once verified
    doc = _fresh(cert)
    for key in ("margin", "c_star"):
        doc[key] = str(doc[key])
    for leaf in doc["leaves"]:
        leaf["lower_bound"] = str(leaf["lower_bound"])
    doc["target"] = False
    with pytest.raises(MalformedCertificate, match="not a number"):
        verify_certificate(doc)
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-cert", str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err
    for field in ("margin", "target", "c_star", "lower_bound"):
        # float() of a 401-digit integer raises OverflowError, not ValueError
        for value in ("0.5", True, False, None, [0.5], 10 ** 400):
            doc = _fresh(cert)
            owner = doc["leaves"][0] if field == "lower_bound" else doc
            owner[field] = value
            with pytest.raises(MalformedCertificate):
                Certificate.from_json_dict(doc)


def test_a_leaf_field_besides_the_bound_is_malformed(cert, tmp_path, capsys):
    # e.g. the box that format 0.1.0 wrote beside each bound: the top level
    # refuses unknown fields, and so does every leaf entry
    doc = _fresh(cert)
    doc["leaves"][-1]["box"] = {"p1": [0.2, 0.4]}
    with pytest.raises(MalformedCertificate, match="lower_bound alone"):
        Certificate.from_json_dict(doc)
    path = tmp_path / "leaf_box.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-cert", str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def test_unknown_split_rule_is_malformed(cert):
    # the codes name each split, so a document that names a split rule is
    # not of this format
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["split_rule"] = "bisect-longest:w,p4,p3,p2,p1"
    with pytest.raises(MalformedCertificate, match="'split_rule' is not one of"):
        Certificate.from_json_dict(doc)


def test_non_boolean_complete_is_malformed(cert):
    for value in ("false", 0, None):
        doc = _fresh(cert)
        doc["complete"] = value
        with pytest.raises(MalformedCertificate):
            Certificate.from_json_dict(doc)


def test_wrong_box_count_is_rejected(cert):
    for value in (-5, cert.box_count + 1, cert.box_count - 1):
        doc = _fresh(cert)
        doc["box_count"] = value
        assert verify_certificate(doc) is False
    for value in (float(cert.box_count), str(cert.box_count), True):
        doc = _fresh(cert)
        doc["box_count"] = value
        with pytest.raises(MalformedCertificate):
            Certificate.from_json_dict(doc)


def test_other_version_is_malformed(cert):
    # 0.2.0 certificates tile the whole domain, with no cut; 0.3.0 trees
    # split the unclipped box by a fixed rule; 0.4.0 trees were built with
    # exact sums kept exact, so their clips place other boxes; 0.5.0 trees
    # centred the mean-value form at the box midpoint, so split other boxes
    for version in ("0.1.0", "0.2.0", "0.3.0", "0.4.0", "0.5.0"):
        doc = _fresh(cert)
        doc["version"] = version
        with pytest.raises(MalformedCertificate, match=f"'{version}'.*'{__version__}'"):
            Certificate.from_json_dict(doc)


@pytest.mark.parametrize("symmetry", [
    "dihedral-8:cut p1>=p2,p1>=p3,p1>=p4", "none", None, 8,
], ids=["other-cut", "none", "null", "number"])
def test_unknown_symmetry_is_malformed(cert, symmetry):
    # the version names the cut; a document that names a symmetry of its
    # own is not of this format
    doc = _fresh(cert)
    doc["symmetry"] = symmetry
    with pytest.raises(MalformedCertificate, match="symmetry"):
        Certificate.from_json_dict(doc)


@pytest.mark.parametrize("key", ["version", "gauge"])
def test_missing_or_other_header_value_is_malformed(cert, key):
    doc = _fresh(cert)
    del doc[key]
    with pytest.raises(MalformedCertificate, match=f"no {key}"):
        Certificate.from_json_dict(doc)
    doc[key] = "other"
    with pytest.raises(MalformedCertificate, match=f"{key} 'other' is not"):
        Certificate.from_json_dict(doc)


def test_depth_limit_is_shared(monkeypatch):
    monkeypatch.setattr(certifier, "_MAX_DEPTH", 3)
    shallow = certify(margin=0.15)
    assert not shallow.complete
    assert verify_certificate(_fresh(shallow))
    monkeypatch.setattr(certifier, "_MAX_DEPTH", 4)
    deeper = certify(margin=0.15)
    monkeypatch.setattr(certifier, "_MAX_DEPTH", 3)
    with pytest.raises(MalformedCertificate, match="deeper"):
        verify_certificate(deeper)


def test_incomplete_certificate_round_trips_and_verifies():
    part = certify(margin=0.15, max_boxes=2_000)
    assert not part.complete and part.box_count <= 2_000
    doc = _fresh(part)
    assert doc["complete"] is False
    assert verify_certificate(doc) is True


def test_canonical_json_round_trip_is_byte_identical(cert):
    text = dumps(cert.to_json_dict())
    rebuilt = Certificate.from_json_dict(json.loads(text))
    assert dumps(rebuilt.to_json_dict()) == text
    assert rebuilt.leaves == cert.leaves


def test_certificate_holds_bounds_and_derives_leaf_boxes(cert):
    rebuilt = Certificate.from_json_dict(_fresh(cert))
    assert rebuilt.bounds == cert.bounds
    boxes = _decode(cert.tree, cert.margin)[0]
    leaves = rebuilt.leaves
    assert len(leaves) == len(boxes) == len(cert.bounds)
    assert [leaf.lower_bound for leaf in leaves] == cert.bounds
    assert all(np.array_equal(leaf.box, box) for leaf, box in zip(leaves, boxes))


def test_verify_rejects_nan_recomputed_bounds(cert, monkeypatch):
    monkeypatch.setattr(certifier, "_evaluate", lambda boxes, margin, recorded=None:
                        np.full(len(boxes), np.nan))
    assert not verify_certificate(cert)


@pytest.mark.parametrize("endpoint", [np.inf, -np.inf, np.nan])
def test_verify_rejects_non_finite_enclosure(cert, monkeypatch, endpoint):
    def non_finite(box, path):
        lo = np.full(np.shape(box.p1.lo), endpoint)
        return Interval(lo, lo)

    monkeypatch.setattr(certifier, "residual_enclosure", non_finite)
    with np.errstate(invalid="ignore"):
        assert verify_certificate(cert) is False


def test_verify_rejects_a_leaf_without_an_enclosure():
    # the root leaf of a margin-0.2 run replayed at margin 1e-8, where the
    # box's lengths touch zero and no enclosure forms
    doc = _fresh(certify(margin=0.2, max_boxes=1))
    doc["margin"] = 1e-8
    assert verify_certificate(doc) is False


def _enclosure_lo(boxes, margin, path):
    """The lower end of one enclosure path over feasible boxes."""
    (p1, p2, p3, p4), w, _ = _gauge_clip(boxes, margin)
    enc = residual_enclosure(FrameBox(p1, p2, p3, p4, w, margin), path)
    return np.asarray(enc.lo, dtype=float)


def _replay_bounds(cert):
    """Each leaf's lemma bound and its "both" bound, not nudged."""
    boxes = _decode(cert.tree, cert.margin)[0]
    return (_enclosure_lo(boxes, cert.margin, "lemma"),
            _enclosure_lo(boxes, cert.margin, "both"))


@pytest.fixture(scope="module")
def both_cert(cert):
    """The fixture tree with each leaf bound raised to its nudged "both"
    bound: what a certifier that bounds every box with "both" records, in the
    same format."""
    both = _down(_replay_bounds(cert)[1], 2).tolist()
    return dataclasses.replace(cert, bounds=both, c_star=min(both))


@pytest.mark.parametrize("margin", [0.2, MARGIN])
def test_replay_tolerates_the_two_ulp_nudge(margin):
    # each bound is recorded two ulps below the certifier's enclosure, and
    # the replay compares its own enclosure against it: one ulp of libm
    # wobble still verifies, a claim above the enclosure does not
    doc = _fresh(certify(margin=margin))
    bounds = np.array([leaf["lower_bound"] for leaf in doc["leaves"]])
    for ulps, verdict in ((1, True), (3, False)):
        raised = bounds
        for _ in range(ulps):
            raised = np.nextafter(raised, np.inf)
        doc["leaves"] = [{"lower_bound": float(b)} for b in raised]
        doc["c_star"] = float(raised.min())
        assert verify_certificate(doc) is verdict, ulps


def test_trig_first_replay_is_exact_at_the_full_bound(both_cert):
    lemma, both = _replay_bounds(both_cert)
    cleared = int(np.flatnonzero(lemma == both)[0])  # the lemma form decides
    needs_mean_value = int(np.flatnonzero(lemma < both)[0])
    for leaf in (cleared, needs_mean_value):
        for bound, verdict in ((both[leaf], True),
                               (np.nextafter(both[leaf], np.inf), False)):
            bounds = list(both_cert.bounds)
            bounds[leaf] = float(bound)
            raised = dataclasses.replace(both_cert, bounds=bounds, c_star=min(bounds))
            assert verify_certificate(raised) is verdict, (leaf, verdict)


def _counted_enclosures(monkeypatch):
    """Count the rows the certifier bounds with the lemma form and the rows
    it tightens to "both" with the edge mean-value form."""
    rows = {"lemma": 0, "both": 0}
    lemma, mean_value = certifier.residual_enclosure, certifier.edge_mean_value_enclosure

    def counted_lemma(box, path):
        rows[path] += np.size(box.p1.lo)
        return lemma(box, path)

    def counted_mean_value(box):
        rows["both"] += np.size(box.p1.lo)
        return mean_value(box)

    monkeypatch.setattr(certifier, "residual_enclosure", counted_lemma)
    monkeypatch.setattr(certifier, "edge_mean_value_enclosure", counted_mean_value)
    return rows


def test_replay_evaluates_both_only_where_lemma_misses(both_cert, monkeypatch):
    lemma = _replay_bounds(both_cert)[0]
    rows = _counted_enclosures(monkeypatch)
    assert verify_certificate(both_cert)
    misses = int(np.count_nonzero(lemma < np.array(both_cert.bounds)))
    assert rows == {"lemma": len(both_cert.bounds), "both": misses}
    assert 0 < misses < len(both_cert.bounds)


@pytest.fixture(scope="module")
def raised_cert():
    return certify(margin=MARGIN, target=1e-5, max_boxes=300_000)


@pytest.fixture(params=["cert", "raised_cert"])
def policy_cert(request):
    return request.getfixturevalue(request.param)


def _evaluated_boxes(cert):
    """The box of every split or leaf node, in level order."""
    level = certifier._root_level(cert.margin)
    boxes = []
    for node in certifier._levels(cert.tree):
        boxes.append(level[node != certifier._EMPTY])
        split = certifier._is_split(node)
        level = _bisect(certifier._clipped(level[split], cert.margin)[0],
                        node[split] - certifier._SPLIT_P1)
    return np.concatenate(boxes)


def test_leaf_bound_is_lemma_where_it_clears_else_both(policy_cert):
    lemma, both = _replay_bounds(policy_cert)
    clears = lemma >= policy_cert.target
    assert np.array_equal(np.array(policy_cert.bounds),
                          _down(np.where(clears, lemma, both), 2))


def test_certify_evaluates_both_only_near_the_target(policy_cert, monkeypatch):
    # one level per `_evaluate` call: no box beyond the tree is bounded
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
    target = policy_cert.target
    boxes = _evaluated_boxes(policy_cert)
    lemma = _enclosure_lo(boxes, policy_cert.margin, "lemma")
    near = int(np.count_nonzero((lemma < target)
                                & (lemma >= target - certifier._REACH)))
    rows = _counted_enclosures(monkeypatch)
    again = certify(margin=MARGIN, target=target, max_boxes=300_000)
    assert again.tree == policy_cert.tree
    assert rows == {"lemma": policy_cert.box_count, "both": near}
    # the reach retries some misses and leaves others to splitting
    assert 0 < near < np.count_nonzero(lemma < target)


def _kept_batches(monkeypatch):
    """Keep every batch of clipped boxes that `_evaluate` bounds."""
    batches = []
    evaluate = certifier._evaluate

    def kept(boxes, *args):
        batches.append(boxes)
        return evaluate(boxes, *args)

    monkeypatch.setattr(certifier, "_evaluate", kept)
    return batches


def test_each_evaluated_box_pays_the_lemma_form_once(both_cert, monkeypatch):
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)  # one level per call
    rows = [0]
    lemma = interval._lemma_residual

    def counted(box, *args):
        rows[0] += np.size(box.p1.lo)
        return lemma(box, *args)

    monkeypatch.setattr(interval, "_lemma_residual", counted)
    again = certify(margin=MARGIN, target=0.0, max_boxes=300_000)
    assert verify_certificate(both_cert)
    # both runs tighten some rows to "both", built from the lemma enclosure
    # each row already has
    assert rows[0] == again.box_count + len(both_cert.bounds)


def test_each_bounded_row_pays_the_lemma_form_once(both_cert, monkeypatch):
    # the default schedule bounds more rows than the tree has boxes, each
    # with the lemma form once
    rows = [0]
    lemma = interval._lemma_residual

    def counted(box, *args):
        rows[0] += np.size(box.p1.lo)
        return lemma(box, *args)

    monkeypatch.setattr(interval, "_lemma_residual", counted)
    batches = _kept_batches(monkeypatch)
    again = certify(margin=MARGIN, target=0.0, max_boxes=300_000)
    bounded = sum(map(len, batches))
    assert bounded > again.box_count
    assert verify_certificate(both_cert)
    assert rows[0] == bounded + len(both_cert.bounds)


def _row_keys(boxes):
    return [row.tobytes() for row in np.ascontiguousarray(boxes).reshape(len(boxes), -1)]


def test_lookahead_bounds_each_node_once_and_both_only_near_the_target(
        policy_cert, monkeypatch):
    # the default schedule also bounds the children of boxes that clear, in
    # fewer and larger batches; each node of the tree is bounded once among
    # them, and "both" is tightened on exactly the rows near the target
    target = policy_cert.target
    batches = _kept_batches(monkeypatch)
    rows = _counted_enclosures(monkeypatch)
    again = certify(margin=MARGIN, target=target, max_boxes=300_000)
    assert again.tree == policy_cert.tree
    bounded = np.concatenate(batches)
    keys = _row_keys(bounded)
    assert len(set(keys)) == len(keys)  # no row twice
    nodes = _row_keys(certifier._clipped(_evaluated_boxes(policy_cert), MARGIN)[0])
    assert len(set(nodes)) == policy_cert.box_count and set(nodes) <= set(keys)
    assert len(batches) < len(certifier._levels(policy_cert.tree))
    assert len(keys) > policy_cert.box_count
    lemma = residual_enclosure(certifier._frame_box(bounded, MARGIN), "lemma").lo
    near = int(np.count_nonzero((lemma < target) & (lemma >= target - certifier._REACH)))
    assert rows == {"lemma": len(keys), "both": near}


def test_positive_target_run_completes_and_verifies(raised_cert):
    assert raised_cert.complete
    assert raised_cert.c_star >= raised_cert.target > 0.0
    assert verify_certificate(_fresh(raised_cert))


def test_parse_checks_the_tree_without_decoding_boxes(cert, monkeypatch):
    def no_decode(tree, margin):
        raise AssertionError("from_json_dict decoded the tree")

    monkeypatch.setattr(certifier, "_decode", no_decode)
    assert Certificate.from_json_dict(_fresh(cert)).tree == cert.tree


@pytest.fixture(scope="module")
def pinned():
    return certify(margin=0.15)


def test_margin_015_tree_is_pinned(pinned):
    # the box count, leaf count and c* of a mid-size run: any change to
    # the enclosures, the split rule or the cut that moves the tree shows here
    assert pinned.complete
    assert pinned.box_count == 2_441
    assert len(pinned.leaves) == 1_221
    assert pinned.c_star == pytest.approx(3.57205992393298e-08, rel=1e-9)


@pytest.fixture(scope="module")
def bench():
    """The tree the benchmark's certify and replay workloads run."""
    return certify(margin=0.12)


def test_benchmark_margin_012_tree_is_pinned(bench):
    assert bench.complete
    assert bench.box_count == 17_545
    assert len(bench.bounds) == 8_773
    assert bench.c_star == pytest.approx(1.4382907040007736e-09, rel=1e-9)


def test_leaves_clipped_once_are_the_boxes_the_replay_bounds(bench, monkeypatch):
    # the benchmark's per-layer replay clips `Certificate.leaves` itself, and
    # a second clip moves some margin-0.12 leaves, so `.leaves` must give the
    # boxes as the tree places them, unclipped
    bounded = []
    evaluate = certifier._evaluate

    def kept(boxes, *args):
        bounded.append(boxes)
        return evaluate(boxes, *args)

    monkeypatch.setattr(certifier, "_evaluate", kept)
    assert verify_certificate(bench)
    boxes = np.array([leaf.box for leaf in bench.leaves], dtype=float)
    (p1, p2, p3, p4), w, feasible = _gauge_clip(boxes, bench.margin)
    assert np.all(feasible)
    for i, coord in enumerate((p1, p2, p3, p4, w)):
        assert np.array_equal(coord.lo, bounded[0][:, i, 0])
        assert np.array_equal(coord.hi, bounded[0][:, i, 1])


@pytest.mark.parametrize("tree", ["pinned", "dotted"])
def test_certify_and_replay_clip_each_node_once(request, monkeypatch, tree):
    # each node's box is clipped once and that clip is bounded, split and
    # checked against its code; the margin-0.135 tree has '.' nodes.  With
    # one level per `_evaluate` call certify clips the tree's boxes alone
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
    done = request.getfixturevalue(tree)
    rows = [0]
    clip = certifier._gauge_clip

    def counted(arr, margin):
        rows[0] += len(arr)
        return clip(arr, margin)

    monkeypatch.setattr(certifier, "_gauge_clip", counted)
    again = certify(margin=done.margin)
    assert again.tree == done.tree and rows[0] == len(done.tree)
    rows[0] = 0
    assert verify_certificate(again)
    assert rows[0] == len(done.tree)


@pytest.mark.parametrize("tree", ["pinned", "dotted"])
def test_lookahead_clips_each_node_once_and_the_replay_too(request, monkeypatch, tree):
    # the default schedule clips the children of boxes that clear as well,
    # each once; the replay clips exactly the tree's nodes
    done = request.getfixturevalue(tree)
    clipped = []
    clip = certifier._gauge_clip

    def kept(arr, margin):
        clipped.append(arr)
        return clip(arr, margin)

    monkeypatch.setattr(certifier, "_gauge_clip", kept)
    again = certify(margin=done.margin)
    assert again.tree == done.tree
    keys = _row_keys(np.concatenate(clipped))
    assert len(set(keys)) == len(keys) > len(done.tree)
    clipped.clear()
    assert verify_certificate(again)
    assert sum(map(len, clipped)) == len(done.tree)


@pytest.mark.parametrize("margin", [0.2, 0.16, 0.135])
@pytest.mark.parametrize("target", [0.0, 1e-5])
def test_lookahead_changes_no_certificate_byte(monkeypatch, margin, target):
    # each bound depends on its own box alone, so bounding the children of
    # boxes that end up leaves, and cutting a round at the box budget or
    # the depth limit, leaves every tree and bound where one level per
    # `_evaluate` call puts it
    for max_boxes in (1, 7, 100, 1000, 1_000_000):
        monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
        alone = dumps(certify(margin, target, max_boxes).to_json_dict())
        monkeypatch.undo()
        assert dumps(certify(margin, target, max_boxes).to_json_dict()) == alone, max_boxes


def test_lookahead_stops_at_the_depth_limit(monkeypatch):
    # the deepest level a run may bound is `_MAX_DEPTH`: levels 0 to 3 hold
    # at most 1 + 2 + 4 + 8 boxes
    lookahead = certifier._LOOKAHEAD
    monkeypatch.setattr(certifier, "_MAX_DEPTH", 3)
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
    alone = certify(0.15)
    monkeypatch.setattr(certifier, "_LOOKAHEAD", lookahead)
    batches = _kept_batches(monkeypatch)
    assert certify(0.15) == alone
    assert len(batches) == 1 and len(batches[0]) <= 15


def test_a_budget_of_one_box_bounds_one_row(monkeypatch):
    batches = _kept_batches(monkeypatch)
    one = certify(0.2, max_boxes=1)
    assert [len(batch) for batch in batches] == [1]
    assert one.tree == "L" and not one.complete


def test_leaves_cover_every_sampled_frame_carried_into_the_cut(pinned):
    p, w = into_cut(*sample_frames(5, 2000, pinned.margin))
    values = residual(metrics_from_frames(p, w), "edge")
    boxes = _decode(pinned.tree, pinned.margin)[0]
    bounds = np.array(pinned.bounds)
    for point, value in zip(np.column_stack([p, w]), values):
        inside = np.all((boxes[:, :, 0] <= point) & (point <= boxes[:, :, 1]), axis=1)
        assert inside.any(), point
        assert value >= bounds[inside].max(), point


def test_verify_rejects_an_infeasible_code_on_a_box_that_meets_the_cut(pinned):
    # a leaf box that straddles the cut's face p2 = p4, recoded '.': the
    # verifier must find the part of the box inside the cut
    rng = np.random.default_rng(17)
    doc = _fresh(pinned)
    boxes = _decode(pinned.tree, pinned.margin)[0]
    straddles = np.flatnonzero((boxes[:, 1, 0] < boxes[:, 3, 1])
                               & (boxes[:, 3, 0] < boxes[:, 1, 1]))
    for leaf in straddles:
        (l1, h1), (l2, h2), (l3, h3), (l4, h4), _ = boxes[leaf]
        p = rng.uniform((l1, l2, l3), (h1, h2, h3), size=(200, 3))
        p = np.column_stack([p, 1.0 - p.sum(axis=1)])
        if np.any((l4 <= p[:, 3]) & (p[:, 3] <= h4) & in_cut(p)):
            break
    else:
        pytest.fail("no straddling leaf with a witness point in the cut")
    pos = [i for i, code in enumerate(doc["tree"]) if code == "L"][leaf]
    del doc["leaves"][leaf]
    doc["tree"] = doc["tree"][:pos] + "." + doc["tree"][pos + 1:]
    doc["c_star"] = min(entry["lower_bound"] for entry in doc["leaves"])
    doc["box_count"] -= 1
    assert verify_certificate(doc) is False


def test_verify_rejects_a_split_code_on_an_infeasible_box(dotted):
    # the first '.' node recoded '0' with two '.' children: the children of
    # an infeasible box are infeasible too, so only the split code is false
    doc = _fresh(dotted)
    tree = doc["tree"]
    pos = tree.index(".")
    end = 0
    for level in certifier._levels(tree):
        start, end = end, end + len(level)
        if pos < end:
            break
    # the node's children follow those of the split nodes before it
    child = end + 2 * int(np.count_nonzero(certifier._is_split(level[:pos - start])))
    doc["tree"] = tree[:pos] + "0" + tree[pos + 1:child] + ".." + tree[child:]
    doc["box_count"] += 1
    assert verify_certificate(doc) is False


def test_clip_keeps_every_point_of_a_box_on_the_plane_and_in_the_cut(pinned):
    # every leaf and '.' box of the tree, with 20 random points each
    boxes = np.repeat(np.concatenate(_decode(pinned.tree, pinned.margin)[:2]), 20,
                      axis=0)
    rng = np.random.default_rng(23)
    point = rng.uniform(boxes[:, :, 0], boxes[:, :, 1])
    point[:, 3] = 1.0 - point[:, :3].sum(axis=1)
    keep = (boxes[:, 3, 0] <= point[:, 3]) & (point[:, 3] <= boxes[:, 3, 1]) \
        & in_cut(point[:, :4])
    assert np.count_nonzero(keep) > 1000
    (p1, p2, p3, p4), w, feasible = _gauge_clip(boxes[keep], pinned.margin)
    assert np.all(feasible)
    for coord, values in zip((p1, p2, p3, p4, w), point[keep].T):
        assert np.all((coord.lo <= values) & (values <= coord.hi))


def test_cut_codes_boxes_that_meet_the_gauge_plane_infeasible(dotted):
    # most '.' nodes now lie outside the cut, not off the gauge plane
    empties = _decode(dotted.tree, dotted.margin)[1]
    p = [Interval(empties[:, i, 0], empties[:, i, 1]) for i in range(4)]
    total = p[0] + p[1] + p[2] + p[3]
    meets_plane = (total.lo <= 1.0) & (1.0 <= total.hi)
    assert not np.any(_gauge_clip(empties, dotted.margin)[2])
    assert np.count_nonzero(meets_plane) > len(empties) // 2


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
    leaves = cert.leaves  # decoded on each access: bind once
    checked = 0
    for leaf in [leaves[i] for i in rng.integers(0, len(leaves), 300)]:
        (l1, h1), (l2, h2), (l3, h3), (l4, h4), (lw, hw) = leaf.box
        # a point of the tile on the gauge plane and in the cut, where the
        # leaf's bound holds, if one exists
        for _ in range(50):
            p123 = rng.uniform((l1, l2, l3), (h1, h2, h3))
            p = np.array([[*p123, 1.0 - p123.sum()]])
            if l4 <= p[0, 3] <= h4 and in_cut(p)[0]:
                w = rng.uniform(lw, hw)
                value = float(residual(metrics_from_frames(p, np.array([w])), "edge")[0])
                assert value >= leaf.lower_bound
                checked += 1
                break
    assert checked >= 200


def _split(box):
    boxes = np.array([box])
    dims = _split_dims(boxes)
    return dims[0], _bisect(boxes, dims)


def test_split_bisects_widest_dimension():
    box = ((0.1, 0.2), (0.1, 0.5), (0.1, 0.2), (0.1, 0.2), (1.0, 1.1))
    dim, (lower, upper) = _split(box)
    assert dim == 1
    assert tuple(lower[1]) == (0.1, 0.3) and tuple(upper[1]) == (0.3, 0.5)
    assert np.array_equal(np.delete(lower, 1, 0), np.delete(upper, 1, 0))
    # ties break toward the earliest dimension
    box = ((0.1, 0.3), (0.1, 0.3), (0.1, 0.2), (0.1, 0.2), (1.0, 1.1))
    dim, (lower, upper) = _split(box)
    assert dim == 0
    assert tuple(lower[0]) == (0.1, 0.2) and tuple(upper[0]) == (0.2, 0.3)
    # w's width counts at half scale: 0.375 rad loses to a p width of 0.25,
    # 0.625 rad wins, and the exact tie at 0.5 goes to the p
    for w_width, expected in ((0.375, 1), (0.5, 1), (0.625, 4)):
        box = ((0.125, 0.25), (0.125, 0.375), (0.125, 0.25), (0.125, 0.25),
               (1.0, 1.0 + w_width))
        assert _split(box)[0] == expected, w_width


def _assert_halves(parent, low, high, dim):
    """`low` and `high` are the halves of the box `parent` along `dim`."""
    mid = 0.5 * (parent[dim, 0] + parent[dim, 1])
    assert tuple(low[dim]) == (parent[dim, 0], mid)
    assert tuple(high[dim]) == (mid, parent[dim, 1])
    for child in (low, high):
        assert np.array_equal(np.delete(child, dim, 0), np.delete(parent, dim, 0))


@pytest.mark.parametrize("code", list("01234"))
def test_each_split_code_bisects_the_clipped_box_along_its_dimension(code):
    # the root split along p1, its upper half a leaf and its lower half
    # split along `code` into two leaves
    leaf, low, high = _decode("0" + code + "LLL", 0.2)[0]
    root = certifier._clipped(certifier._root_level(0.2), 0.2)[0][0]
    lower = root.copy()
    lower[0, 1] = 0.5 * (root[0, 0] + root[0, 1])
    _assert_halves(root, lower, leaf, 0)
    parent = certifier._clipped(lower[None], 0.2)[0][0]
    assert not np.array_equal(parent, lower)  # p1 <= 0.3 moves the other p
    _assert_halves(parent, low, high, int(code))


def test_verify_rejects_each_split_recoded_to_another_dimension():
    # a recoded tree still covers the domain, so it is rejected because some
    # leaf's recomputed bound or some code no longer matches; on this tree
    # each of the 124 recodings moves one
    small = certify(margin=0.2)
    doc = _fresh(small)
    splits = [pos for pos, code in enumerate(small.tree) if code in "01234"]
    assert len(splits) == 31
    for pos in splits:
        for code in "01234".replace(small.tree[pos], ""):
            doc["tree"] = small.tree[:pos] + code + small.tree[pos + 1:]
            assert _rejected(doc), (pos, code)


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
    assert [field.name for field in dataclasses.fields(Certificate)] == [
        "margin", "target", "complete", "c_star", "box_count", "tree", "bounds"]
    assert set(doc) >= {"version", "margin", "gauge", "target", "complete",
                        "c_star", "box_count", "tree", "leaves"}
    assert set(doc["tree"]) <= set("01234L.")
    assert doc["box_count"] == len(doc["tree"]) - doc["tree"].count(".")
    assert doc["tree"].count("L") == len(doc["leaves"])
    assert all(set(leaf) == {"lower_bound"} for leaf in doc["leaves"])
    rebuilt = Certificate.from_json_dict(json.loads(dumps(doc)))
    assert rebuilt.c_star == cert.c_star
    assert len(rebuilt.leaves) == len(cert.leaves)
