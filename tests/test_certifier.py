"""Branch-and-bound certification and certificate replay."""

import base64
import dataclasses
import json
import math
import tracemalloc
import zlib

import numpy as np
import pytest

from dihedral import in_cut, into_cut
from packings import BAD_PACKINGS
from quadineq import __version__, certifier, cli, interval
from quadineq.certifier import (
    Certificate,
    MalformedCertificate,
    _bisect,
    _decode,
    _gauge_clip,
    _pack,
    _split_dims,
    _unpack,
    certify,
    verify_certificate,
)
from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.interval import Interval, _down, residual_enclosure
from quadineq.ioutil import dumps
from quadineq.kernel import residual

MARGIN = 0.16  # coarse domain keeps unit-test runs fast


def _fresh(cert):
    return json.loads(dumps(cert.to_json_dict()))


def _retree(doc, edit):
    """Unpack `doc`'s tree, change its codes by `edit` (str -> str) and pack
    them again, as `certify` packs a tree."""
    doc["tree"] = _pack(edit(_unpack(doc["tree"])))


def _rejected(doc):
    """A certificate is rejected when it fails to parse or to verify."""
    try:
        return not verify_certificate(doc)
    except MalformedCertificate:
        return True


def _in_domain(p, margin):
    """Mask of chart points (shape (n, 4), p1 = 1) in the cut and the margin."""
    return in_cut(p) & np.all(p[:, 1:] >= margin * p.sum(axis=1, keepdims=True), axis=1)


def _gauge_residual(p, w):
    """The residual at the gauge p1+p2+p3+p4 = 1 of frames (shape (n, 4))."""
    return residual(metrics_from_frames(p / p.sum(axis=1, keepdims=True), w), "edge")


def _rank(box, dim):
    """The split code that names dimension `dim` on the clipped box `box`:
    its width rank among p2, p3, p4 and w."""
    return 1 + list(certifier._split_order(box[None])[0]).index(dim)


def _grown(margin, rule, depth=30):
    """The level-order tree that splits each feasible box along `rule(box,
    depth)`, or leaves it where the rule gives None; infeasible boxes are '.'.
    Each split is coded by the width rank of its dimension."""
    level, codes = certifier._root_level(margin), []
    for d in range(depth):
        boxes, feasible = certifier._clipped(level, margin)
        dims = [rule(box, d) if ok else None for box, ok in zip(boxes, feasible)]
        code = ["." if not ok else "L" if dim is None else str(_rank(box, dim))
                for box, ok, dim in zip(boxes, feasible, dims)]
        codes += code
        split = [i for i, c in enumerate(code) if c in "01234"]
        if not split:
            return "".join(codes)
        level = _bisect(boxes[split], np.array([dims[i] for i in split]))
    raise AssertionError("the rule grows past the depth")


@pytest.fixture(scope="module")
def cert():
    return certify(margin=MARGIN, target=0.0, max_boxes=300_000)


@pytest.fixture(scope="module")
def dotted():
    """A small incomplete certificate with a '.' node.  Widest-first trees
    never bisect a box into an empty half (no tree from margin 0.2 down to
    0.04 has a '.'), so this one is grown by hand: p2's lowest box is halved
    four times, down to the margin, and then split along p3, whose upper half
    lifts the margin's floor on p2 above that box.  Every test of '.' nodes
    reads this tree, so it must hold one."""
    margin = 0.2
    low = certifier._clipped(certifier._root_level(margin), margin)[0][0, 1, 0]

    def rule(box, depth):
        if box[1, 0] != low or depth > 4:
            return None
        return 1 if depth < 4 else 2

    tree = _grown(margin, rule)
    assert "." in tree
    claim = Certificate(margin, 0.0, -math.inf, tree)
    c_star = min(leaf.lower_bound for leaf in claim.leaves)
    return dataclasses.replace(claim, c_star=c_star)


def test_certify_completes_with_positive_bound(cert):
    assert cert.complete
    assert cert.c_star > 0.0
    assert cert.box_count <= 300_000
    bounds = [leaf.lower_bound for leaf in cert.leaves]
    assert min(bounds) >= 0.0
    # the claim is the least leaf bound, nudged two ulps down
    assert _down(min(bounds), 2) == cert.c_star


def test_certify_is_deterministic(cert):
    again = certify(margin=MARGIN, target=0.0, max_boxes=300_000)
    assert dumps(again.to_json_dict()) == dumps(cert.to_json_dict())


def test_verify_accepts_fresh_certificate(cert):
    assert verify_certificate(cert)


def test_verify_accepts_json_round_trip(cert):
    doc = json.loads(dumps(cert.to_json_dict()))
    assert verify_certificate(doc)


def test_verify_rejects_inflated_bound(cert):
    # c_star is the one bound a document claims
    doc = _fresh(cert)
    doc["c_star"] = 10.0 * doc["c_star"] + 1.0
    assert not verify_certificate(doc)


def test_verify_rejects_missing_leaf(cert):
    # without its last code the tree ends inside a level
    doc = _fresh(cert)
    pos = cert.tree.rindex("L")
    _retree(doc, lambda tree: tree[:pos] + tree[pos + 1:])
    assert _rejected(doc)


def test_verify_rejects_tampered_c_star(cert):
    doc = _fresh(cert)
    doc["c_star"] = 2.0 * cert.c_star
    assert not verify_certificate(doc)
    # a lower claim is weaker and still true
    doc["c_star"] = cert.c_star / 2.0
    assert verify_certificate(doc)


def test_verify_rejects_a_changed_margin_and_a_raised_target_reads_incomplete(cert):
    doc = _fresh(cert)
    doc["margin"] = MARGIN - 0.01  # the same tree over a wider domain
    assert verify_certificate(doc) is False
    # completeness is derived: a target above the claim makes a true claim
    # of an incomplete run, never a false one of a complete run
    doc = _fresh(cert)
    doc["target"] = 2.0 * doc["c_star"]
    assert verify_certificate(doc) is True
    assert not Certificate.from_json_dict(doc).complete


def test_verify_rejects_duplicate_leaf(cert):
    # one leaf too many: the tree continues past its last level
    doc = _fresh(cert)
    _retree(doc, lambda tree: tree + "L")
    assert _rejected(doc)


def test_verify_rejects_out_of_domain_leaf(dotted):
    # an infeasible node recoded as a leaf, so only the leaf's position
    # outside the domain is wrong
    assert verify_certificate(_fresh(dotted))
    doc = _fresh(dotted)
    pos = dotted.tree.index(".")
    _retree(doc, lambda tree: tree[:pos] + "L" + tree[pos + 1:])
    assert verify_certificate(doc) is False


def test_verify_rejects_feasible_node_coded_infeasible(cert):
    doc = _fresh(cert)
    pos = cert.tree.index("L")
    _retree(doc, lambda tree: tree[:pos] + "." + tree[pos + 1:])
    assert verify_certificate(doc) is False


def _first_split(tree):
    return min(tree.find(code) for code in "1234" if code in tree)


def _last_split(tree):
    return max(tree.rfind(code) for code in "1234")


# "S" in an id stands for a split code, '1'-'4'
@pytest.mark.parametrize("tamper", [
    lambda t: t.replace("L", "1", 1),
    lambda t: t[::-1].replace("L", "4", 1)[::-1],
    lambda t: t[:_first_split(t)] + "L" + t[_first_split(t) + 1:],
    lambda t: t[:_last_split(t)] + "L" + t[_last_split(t) + 1:],
    lambda t: t.replace(".", "L", 1),
], ids=["L-to-S-first", "L-to-S-last", "S-to-L-first", "S-to-L-last", "empty-to-L"])
def test_verify_rejects_flipped_node_code(dotted, tamper):
    doc = _fresh(dotted)
    _retree(doc, tamper)
    assert _unpack(doc["tree"]) != dotted.tree
    assert _rejected(doc)


@pytest.mark.parametrize("tamper", [
    lambda t: t[:-1], lambda t: t + "L", lambda t: t.replace("L", "X", 1),
    lambda t: "S" + t[1:], lambda t: "5" + t[1:], lambda t: "0" + t[1:],
], ids=["truncated", "appended", "unknown-code", "old-split-code", "split-code-5",
        "split-code-0"])
def test_tree_that_does_not_parse_is_malformed(cert, tamper, tmp_path, capsys):
    # '0' would split p1 = [1, 1] into two copies of its box, which certify
    # never asks for
    tree = tamper(cert.tree)
    with pytest.raises(MalformedCertificate):
        verify_certificate(dataclasses.replace(cert, tree=tree))
    if not set(tree) <= set("1234L."):
        # the planes have no bits for another code, so no document holds one
        with pytest.raises(ValueError, match="tree holds a code other than"):
            _pack(tree)
        return
    doc = _fresh(cert)
    doc["tree"] = _pack(tree)
    with pytest.raises(MalformedCertificate):
        Certificate.from_json_dict(doc)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-cert", str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize("case", BAD_PACKINGS)
def test_a_tree_that_is_not_one_packed_stream_is_malformed(cert, case):
    packed, reason = BAD_PACKINGS[case]
    doc = _fresh(cert)
    doc["tree"] = packed
    with pytest.raises(MalformedCertificate, match=reason):
        Certificate.from_json_dict(doc)


def test_a_huge_node_count_is_refused_before_its_planes_are_read(cert):
    # a node count that the planes cannot hold is refused from the count and
    # the stream's length, before plane A or the codes are allocated
    packed, reason = BAD_PACKINGS["huge-count"]
    doc = _fresh(cert)
    doc["tree"] = packed
    tracemalloc.start()
    try:
        with pytest.raises(MalformedCertificate, match=reason):
            Certificate.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _random_tree(nodes, seed):
    """A level-order code string of at least `nodes` nodes whose levels
    parse, using every code: each node of a level splits (ranks 1-4) with
    chance 0.6 and is 'L' or '.' otherwise, the first of each level splits,
    and the last level holds leaves only.  Deflate shrinks its planes less
    than 2 times, so it stays far inside the cap."""
    rng = np.random.default_rng(seed)
    alphabet = np.frombuffer(b"1234L.", dtype=np.uint8)
    levels, size, total = [], 1, 0
    while total < nodes:
        level = rng.choice(alphabet, size, p=[0.45, 0.05, 0.05, 0.05, 0.3, 0.1])
        level[0] = alphabet[0]
        levels.append(level)
        total += size
        size = 2 * np.count_nonzero(certifier._is_split(level))
    levels.append(np.full(size, alphabet[4]))
    return np.concatenate(levels).tobytes().decode("ascii")


def test_reading_a_document_holds_at_most_four_bytes_per_node():
    # `_levels` holds the code string, its bytes and two masks, 4 B per
    # node; the plane reader stays below that, where format 0.10.0's
    # inflater held its codes twice and then copied them (4.7 B per node)
    tree = _random_tree(400_000, seed=5)
    doc = Certificate(0.1, 0.0, 0.0, tree).to_json_dict()
    peaks = []
    for read in (lambda: _unpack(doc["tree"]), lambda: Certificate.from_json_dict(doc).tree):
        tracemalloc.start()
        try:
            assert read() == tree
            peaks.append(tracemalloc.get_traced_memory()[1] / len(tree))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3.6 and peaks[1] <= 4.1, peaks


def test_a_tree_packs_to_its_count_and_three_planes():
    # 3 nodes; plane A 100, plane B 01 (a leaf, then '.'), plane C 01
    # (rank 2); then a zero pad bit
    stream = zlib.decompress(base64.b64decode(_pack("2L.")))
    assert stream == bytes([0, 0, 0, 3, 0b1000_1010])
    assert _unpack(_pack("2L.")) == "2L."


def test_a_deflate_bomb_is_refused_at_the_cap_before_it_inflates(cert):
    # the stream is inflated to at most `_INFLATE_CAP` bytes per packed byte,
    # which zlib's output buffer may hold twice over while it joins its
    # blocks; the 10 MB of codes the stream claims are never allocated
    packed, reason = BAD_PACKINGS["deflate-bomb"]
    cap = certifier._INFLATE_CAP * len(base64.b64decode(packed))
    assert cap < 10**7 // 3
    doc = _fresh(cert)
    doc["tree"] = packed
    tracemalloc.start()
    try:
        with pytest.raises(MalformedCertificate, match=reason):
            Certificate.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * cap


@pytest.mark.parametrize("margin", [0.2, 0.15, 0.12])
def test_the_document_round_trips_the_tree(margin):
    done = certify(margin)
    rebuilt = Certificate.from_json_dict(json.loads(dumps(done.to_json_dict())))
    assert rebuilt.tree == done.tree and rebuilt == done


def test_benchmark_margin_012_document_stays_small(bench):
    # the tree's bit planes keep the benchmark's document at 1,201 B, so a
    # change that bloats the document fails here
    assert len((dumps(bench.to_json_dict()) + "\n").encode()) <= 1_250


def test_malformed_document_raises(cert):
    with pytest.raises(MalformedCertificate):
        verify_certificate({"not": "a certificate"})
    doc = _fresh(cert)
    _retree(doc, lambda tree: tree[:1])  # a root split with no children
    with pytest.raises(MalformedCertificate):
        verify_certificate(doc)


def test_non_finite_number_is_malformed(cert):
    for field in ("margin", "target", "c_star"):
        for value in (float("nan"), float("inf"), float("-inf")):
            doc = json.loads(dumps(cert.to_json_dict()))
            doc[field] = value
            with pytest.raises(MalformedCertificate):
                Certificate.from_json_dict(doc)


def test_a_number_that_is_not_a_json_number_is_malformed(cert, tmp_path, capsys):
    # float() reads "0.16" and False, so strings and booleans once verified
    doc = _fresh(cert)
    for key in ("margin", "c_star"):
        doc[key] = str(doc[key])
    doc["target"] = False
    with pytest.raises(MalformedCertificate, match="not a number"):
        verify_certificate(doc)
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-cert", str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err
    for field in ("margin", "target", "c_star"):
        # float() of a 401-digit integer raises OverflowError, not ValueError
        for value in ("0.5", True, False, None, [0.5], 10 ** 400):
            doc = _fresh(cert)
            doc[field] = value
            with pytest.raises(MalformedCertificate):
                Certificate.from_json_dict(doc)


def _assert_field_is_malformed(doc, field, tmp_path, capsys):
    """`doc` is malformed for carrying `field`, and check-cert exits 2 naming it."""
    with pytest.raises(MalformedCertificate, match=f"'{field}' is not one of format"):
        Certificate.from_json_dict(doc)
    path = tmp_path / f"{field}.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-cert", str(path)]) == 2
    assert f"malformed certificate: certificate field '{field}'" in capsys.readouterr().err


def test_a_leaves_field_is_malformed(cert, tmp_path, capsys):
    # the per-leaf bounds that formats before 0.7.0 recorded: the replay
    # recomputes every leaf bound, so a document holds only the claimed c_star
    doc = _fresh(cert)
    doc["leaves"] = [{"lower_bound": cert.c_star}] * cert.tree.count("L")
    _assert_field_is_malformed(doc, "leaves", tmp_path, capsys)


def test_unknown_split_rule_is_malformed(cert):
    # the codes name each split, so a document that names a split rule is
    # not of this format
    doc = json.loads(dumps(cert.to_json_dict()))
    doc["split_rule"] = "bisect-longest:w,p4,p3,p2,p1"
    with pytest.raises(MalformedCertificate, match="'split_rule' is not one of"):
        Certificate.from_json_dict(doc)


def test_non_boolean_complete_is_malformed(cert, tmp_path, capsys):
    # completeness is derived from c_star and the target, so a document
    # that states it, as format 0.7.0 did, is malformed whatever the value
    for value in ("false", 0, None, True, False):
        doc = _fresh(cert)
        doc["complete"] = value
        with pytest.raises(MalformedCertificate, match="'complete' is not one of"):
            Certificate.from_json_dict(doc)
    _assert_field_is_malformed({**_fresh(cert), "complete": cert.complete}, "complete",
                               tmp_path, capsys)


def test_wrong_box_count_is_rejected(cert, tmp_path, capsys):
    # the box count is derived from the tree, so a document that states it,
    # as format 0.7.0 did, is malformed, right or wrong
    for value in (-5, cert.box_count + 1, cert.box_count - 1,
                  float(cert.box_count), str(cert.box_count), True):
        doc = _fresh(cert)
        doc["box_count"] = value
        with pytest.raises(MalformedCertificate, match="'box_count' is not one of"):
            Certificate.from_json_dict(doc)
    _assert_field_is_malformed({**_fresh(cert), "box_count": cert.box_count}, "box_count",
                               tmp_path, capsys)


def test_other_version_is_malformed(cert):
    # 0.2.0 certificates tile the whole domain, with no cut; 0.3.0 trees
    # split the unclipped box by a fixed rule; 0.4.0 trees were built with
    # exact sums kept exact, so their clips place other boxes; 0.5.0 trees
    # centred the mean-value form at the box midpoint, so split other boxes;
    # 0.6.0 trees tile the gauge plane in five coordinates; 0.7.0 documents
    # store a box count, a completeness flag and a gauge
    for version in ("0.1.0", "0.2.0", "0.3.0", "0.4.0", "0.5.0", "0.6.0", "0.7.0"):
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
def test_missing_or_other_header_value_is_malformed(cert, key, tmp_path, capsys):
    doc = _fresh(cert)
    if key not in certifier.HEADER:
        # the version alone names the chart p1 = 1, so a gauge in the
        # header, as format 0.7.0 wrote it, is a field this format lacks
        assert key not in doc
        for value in ("p1=1", "other"):
            _assert_field_is_malformed({**doc, key: value}, key, tmp_path, capsys)
        return
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
    part = certify(margin=0.15, max_boxes=1_000)
    assert not part.complete and part.box_count <= 1_000
    doc = _fresh(part)
    assert "complete" not in doc and not Certificate.from_json_dict(doc).complete
    assert verify_certificate(doc) is True


@pytest.mark.parametrize("margin", [0.2, 0.15])
@pytest.mark.parametrize("target", [0.0, 1e-5])
def test_complete_holds_exactly_when_no_budget_or_depth_cut_the_run(monkeypatch, margin,
                                                                     target):
    # `complete` is derived, c_star >= target: a full run reads complete, and
    # a run cut by the box budget or the depth limit leaves a box whose bound
    # misses the target as a leaf, so its claim falls below the target
    full = certify(margin, target)
    assert full.complete and verify_certificate(_fresh(full))
    for max_boxes in (1, 7, full.box_count - 1, full.box_count):
        part = certify(margin, target, max_boxes)
        assert part.complete is (max_boxes >= full.box_count), max_boxes
        assert part.complete or not part.c_star >= target
        assert verify_certificate(_fresh(part))
    depth = len(certifier._levels(full.tree)) - 1  # the deepest level's index
    for limit in (depth - 1, depth):
        monkeypatch.setattr(certifier, "_MAX_DEPTH", limit)
        cut = certify(margin, target)
        assert cut.complete is (limit == depth), limit
        assert verify_certificate(_fresh(cut))


def test_canonical_json_round_trip_is_byte_identical(cert):
    text = dumps(cert.to_json_dict())
    rebuilt = Certificate.from_json_dict(json.loads(text))
    assert dumps(rebuilt.to_json_dict()) == text
    assert rebuilt.leaves == cert.leaves


def test_certificate_derives_leaf_boxes_and_bounds(cert):
    rebuilt = Certificate.from_json_dict(_fresh(cert))
    boxes = _decode(cert.tree, cert.margin)[0]
    leaves = rebuilt.leaves
    assert len(leaves) == len(boxes) == cert.tree.count("L")
    assert all(np.array_equal(leaf.box, box) for leaf, box in zip(leaves, boxes))
    # each bound is the one the replay compares with c_star
    recomputed = certifier._evaluate(boxes, cert.margin, cert.c_star)
    assert [leaf.lower_bound for leaf in leaves] == recomputed.tolist()


def test_verify_rejects_nan_recomputed_bounds(cert, monkeypatch):
    monkeypatch.setattr(certifier, "_evaluate", lambda boxes, margin, need:
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
    """The gauge-normalized lower end of one enclosure path over clipped
    boxes, as `_evaluate` divides it."""
    enc = residual_enclosure(certifier._frame_box(boxes, margin), path)
    return certifier._per_gauge(np.asarray(enc.lo, dtype=float), boxes)


def _replay_bounds(cert):
    """Each leaf's lemma bound and its "both" bound, not nudged."""
    boxes = _decode(cert.tree, cert.margin)[0]
    return (_enclosure_lo(boxes, cert.margin, "lemma"),
            _enclosure_lo(boxes, cert.margin, "both"))


def test_per_gauge_divides_by_the_far_end_of_s6():
    # S = 1 + p2 + p3 + p4 lies in [2, 3]: a nonnegative chart bound is
    # divided by 3^6, a negative one by 2^6, each rounded down
    box = np.array([[1.0, 1.0]] + [[1.0 / 3.0, 2.0 / 3.0]] * 3 + [[1.0, 2.0]])
    out = certifier._per_gauge(np.array([729.0, 0.0, -64.0]), np.stack([box] * 3))
    assert out[0] < 1.0 and out[0] == pytest.approx(1.0, rel=1e-14)
    assert out[1] <= 0.0 and out[1] > -1e-300
    assert out[2] < -1.0 and out[2] == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("margin", [0.2, MARGIN])
def test_replay_tolerates_the_two_ulp_nudge(margin):
    # c_star is claimed two ulps below the least leaf enclosure certify
    # found, and the replay compares each leaf's own enclosure against it:
    # a replay whose libm calls land an ulp lower still verifies
    done = certify(margin=margin)
    least = min(leaf.lower_bound for leaf in done.leaves)
    assert done.c_star == _down(least, 2) < float(np.nextafter(done.c_star, np.inf)) < least
    doc = _fresh(done)
    doc["c_star"] = float(np.nextafter(done.c_star, np.inf))
    assert verify_certificate(doc)


def test_trig_first_replay_is_exact_at_the_full_bound(cert):
    # the replay tightens each leaf the lemma form leaves below c_star, so it
    # accepts a claim up to the least "both" bound and not an ulp above,
    # whatever bound certify took on each leaf
    lemma, both = _replay_bounds(cert)
    assert np.any(lemma == both) and np.any(lemma < both)  # each form decides some
    least = np.min(both)
    for c_star, verdict in ((least, True), (np.nextafter(least, np.inf), False)):
        assert verify_certificate(dataclasses.replace(cert, c_star=float(c_star))) is verdict


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


def test_replay_evaluates_both_only_where_lemma_misses(cert, monkeypatch):
    lemma = _replay_bounds(cert)[0]
    rows = _counted_enclosures(monkeypatch)
    assert verify_certificate(cert)
    misses = int(np.count_nonzero(lemma < cert.c_star))
    leaves = cert.tree.count("L")
    assert rows == {"lemma": leaves, "both": misses}
    assert 0 < misses < leaves


@pytest.fixture(scope="module")
def raised_cert():
    return certify(margin=MARGIN, target=1e-5, max_boxes=300_000)


@pytest.fixture(params=["cert", "raised_cert"])
def policy_cert(request):
    return request.getfixturevalue(request.param)


def _node_boxes(tree, margin):
    """The box of every node as the tree places it, before its own clip, in
    level order."""
    level = certifier._root_level(margin)
    boxes = []
    for node in certifier._levels(tree):
        boxes.append(level)
        split = certifier._is_split(node)
        clipped = certifier._clipped(level[split], margin)[0]
        level = _bisect(clipped, certifier._coded_dims(clipped, node[split]))
    return np.concatenate(boxes)


def _coded(tree, code):
    """Mask of the nodes of a tree that carry `code`, in level order."""
    return np.array(list(tree)) == code


def _evaluated_boxes(cert):
    """The box of every split or leaf node, in level order."""
    return _node_boxes(cert.tree, cert.margin)[~_coded(cert.tree, ".")]


def test_leaf_bound_is_lemma_where_it_clears_else_both(policy_cert):
    # c_star is the least leaf bound certify took, nudged: the lemma bound
    # where it clears the target, else the "both" bound
    lemma, both = _replay_bounds(policy_cert)
    clears = lemma >= policy_cert.target
    assert 0 < np.count_nonzero(clears) < len(clears)
    assert policy_cert.c_star == _down(np.min(np.where(clears, lemma, both)), 2)


def test_certify_evaluates_both_only_near_the_target(policy_cert, monkeypatch):
    # one level per `_evaluate` call: no box beyond the tree is bounded
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
    target = policy_cert.target
    boxes = certifier._clipped(_evaluated_boxes(policy_cert), policy_cert.margin)[0]
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


def test_each_evaluated_box_pays_the_lemma_form_once(cert, monkeypatch):
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)  # one level per call
    rows = [0]
    lemma = interval._lemma_residual

    def counted(box, *args):
        rows[0] += np.size(box.p1.lo)
        return lemma(box, *args)

    monkeypatch.setattr(interval, "_lemma_residual", counted)
    again = certify(margin=MARGIN, target=0.0, max_boxes=300_000)
    assert verify_certificate(cert)
    # both runs tighten some rows to "both", built from the lemma enclosure
    # each row already has
    assert rows[0] == again.box_count + cert.tree.count("L")


def test_each_bounded_row_pays_the_lemma_form_once(cert, monkeypatch):
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
    assert verify_certificate(cert)
    assert rows[0] == bounded + cert.tree.count("L")


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
    lemma = _enclosure_lo(bounded, MARGIN, "lemma")
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
    assert pinned.box_count == 1_705
    assert pinned.tree.count("L") == 853
    assert pinned.c_star == pytest.approx(3.3703922020725163e-07, rel=1e-9)


@pytest.fixture(scope="module")
def bench():
    """The tree the benchmark's certify and replay workloads run."""
    return certify(margin=0.12)


def test_benchmark_margin_012_tree_is_pinned(bench):
    assert bench.complete
    assert bench.box_count == 8_839
    assert bench.tree.count("L") == 4_420
    assert bench.c_star == pytest.approx(1.910353964620456e-08, rel=1e-9)


def _chart_boxes(seed=0, margins=64, rows=16_384):
    """Seeded random boxes of the chart p1 = 1, as (boxes, margin) pairs:
    margins log-uniform in [1e-6, 0.2] and 0.2 itself, lower ends of p2, p3
    and p4 log-uniform in [margin, 1], widths log-uniform in [1e-8, 1];
    about a tenth of the ends each are tied with another lower end, at the
    margin, a little above it, at 1, or of width 0.  Unsorted lower ends
    put p4 above p2 in about half the rows."""
    rng = np.random.default_rng(seed)

    def some():
        return rng.random((rows, 3)) < 0.1

    for margin in np.append(10.0 ** rng.uniform(-6.0, math.log10(0.2), margins - 1), 0.2):
        lo = margin ** rng.random((rows, 3))
        lo = np.where(some(), lo[np.arange(rows), rng.integers(0, 3, rows)][:, None], lo)
        lo[some()] = margin
        near = some()
        lo[near] = np.minimum(margin * rng.uniform(1.0, 4.0, np.count_nonzero(near)), 1.0)
        lo[some()] = 1.0
        hi = np.minimum(lo + 10.0 ** rng.uniform(-8.0, 0.0, (rows, 3)), 1.0)
        hi[some()] = 1.0
        zero = some()
        hi[zero] = lo[zero]
        boxes = np.empty((rows, 5, 2))
        boxes[:, 0] = 1.0
        boxes[:, 1:4, 0], boxes[:, 1:4, 1] = lo, hi
        boxes[:, 4] = margin * math.pi, (1.0 - margin) * math.pi
        yield boxes, margin


@pytest.mark.parametrize("tree", ["pinned", "bench", "chart"])
def test_a_second_clip_moves_no_endpoint(request, tree):
    # one pass of the clip is its fixed point in exact arithmetic, so each
    # node's clipped box, the one bounded, split and checked against its
    # code, clips to itself; this checks that the rounded floor keeps it, on
    # the nodes of two trees and on about 1M random boxes of the chart
    if tree == "chart":
        groups = list(_chart_boxes())
    else:
        done = request.getfixturevalue(tree)
        groups = [(_evaluated_boxes(done), done.margin)]
    reached = np.zeros(3, dtype=int)
    for boxes, margin in groups:
        once, feasible = certifier._clipped(boxes, margin)
        assert np.all(feasible) or tree == "chart"
        twice, again = certifier._clipped(once, margin)
        assert np.array_equal(once, twice) and np.array_equal(feasible, again)
        reached += [np.count_nonzero(once[:, 3, 1] < boxes[:, 3, 1]),
                    np.count_nonzero(once[:, 2, 0] > boxes[:, 2, 0]),
                    np.count_nonzero(~feasible)]
    # the random boxes reach the cut, the margin's floor and an empty clip
    # in a tenth of the rows or more each
    assert tree != "chart" or np.all(reached * 10 > len(groups) * len(groups[0][0]))


@pytest.mark.parametrize("coord", [1, 2, 3], ids=["p2", "p3", "p4"])
def test_a_nan_end_comes_back_infeasible_from_one_clip(coord):
    # a NaN lower end, which bisection from the finite root never makes,
    # must not keep the clip from returning, and leaves the box empty
    root = certifier._root_level(0.1)
    root[0, coord, 0] = math.nan
    assert not certifier._clipped(root, 0.1)[1][0]


def test_leaves_clipped_once_are_the_boxes_the_replay_bounds(bench, monkeypatch):
    # `Certificate.leaves` gives the clipped boxes the replay bounds, and the
    # benchmark's per-layer replay, which clips them again, gets the same
    # boxes, since a clipped box clips to itself
    bounded = []
    evaluate = certifier._evaluate

    def kept(boxes, *args):
        bounded.append(boxes)
        return evaluate(boxes, *args)

    monkeypatch.setattr(certifier, "_evaluate", kept)
    assert verify_certificate(bench)
    boxes = np.array([leaf.box for leaf in bench.leaves], dtype=float)
    assert np.array_equal(boxes, bounded[0])
    (p1, p2, p3, p4), w, feasible = _gauge_clip(boxes, bench.margin)
    assert np.all(feasible)
    for i, coord in enumerate((p1, p2, p3, p4, w)):
        assert np.array_equal(coord.lo, bounded[0][:, i, 0])
        assert np.array_equal(coord.hi, bounded[0][:, i, 1])


@pytest.mark.parametrize("tree", ["pinned", "dotted"])
def test_certify_and_replay_clip_each_node_once(request, monkeypatch, tree):
    # each node's box is clipped once and that clip is bounded, split and
    # checked against its code; the hand-grown tree has a '.' node.  With
    # one level per `_evaluate` call certify clips the tree's boxes alone
    monkeypatch.setattr(certifier, "_LOOKAHEAD", 1)
    done = request.getfixturevalue(tree)
    rows = [0]
    clip = certifier._clipped

    def counted(arr, margin):
        rows[0] += len(arr)
        return clip(arr, margin)

    monkeypatch.setattr(certifier, "_clipped", counted)
    again = certify(margin=done.margin)
    assert rows[0] == len(again.tree)
    assert again.tree == done.tree or tree == "dotted"
    rows[0] = 0
    assert verify_certificate(done)
    assert rows[0] == len(done.tree)


@pytest.mark.parametrize("tree", ["pinned", "dotted"])
def test_lookahead_clips_each_node_once_and_the_replay_too(request, monkeypatch, tree):
    # the default schedule clips the children of boxes that clear as well,
    # each once; the replay clips exactly the tree's nodes
    done = request.getfixturevalue(tree)
    clipped = []
    clip = certifier._clipped

    def kept(arr, margin):
        clipped.append(arr)
        return clip(arr, margin)

    monkeypatch.setattr(certifier, "_clipped", kept)
    again = certify(margin=done.margin)
    assert again.tree == done.tree or tree == "dotted"
    keys = _row_keys(np.concatenate(clipped))
    assert len(set(keys)) == len(keys) > len(again.tree)
    clipped.clear()
    assert verify_certificate(done)
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
    # seeded gauge points of the cut, divided by p1, each lie inside a
    # decoded leaf, and the residual there clears that leaf's bound
    p, w = into_cut(*sample_frames(5, 2000, pinned.margin))
    values = residual(metrics_from_frames(p, w), "edge")
    leaves = pinned.leaves
    boxes = np.array([leaf.box for leaf in leaves])
    bounds = np.array([leaf.lower_bound for leaf in leaves])
    assert np.all(p[:, 0] == p.max(axis=1))
    for point, value in zip(np.column_stack([p / p[:, :1], w]), values):
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
        p = rng.uniform(boxes[leaf, :4, 0], boxes[leaf, :4, 1], size=(200, 4))
        if np.any(_in_domain(p, pinned.margin)):
            break
    else:
        pytest.fail("no straddling leaf with a witness point in the cut")
    pos = [i for i, code in enumerate(pinned.tree) if code == "L"][leaf]
    _retree(doc, lambda tree: tree[:pos] + "." + tree[pos + 1:])
    assert verify_certificate(doc) is False


def test_verify_rejects_a_split_code_on_an_infeasible_box(dotted):
    # the first '.' node recoded '1' with two '.' children: the children of
    # an infeasible box are infeasible too, so only the split code is false
    doc = _fresh(dotted)
    tree = _unpack(doc["tree"])
    pos = tree.index(".")
    end = 0
    for level in certifier._levels(tree):
        start, end = end, end + len(level)
        if pos < end:
            break
    # the node's children follow those of the split nodes before it
    child = end + 2 * int(np.count_nonzero(certifier._is_split(level[:pos - start])))
    doc["tree"] = _pack(tree[:pos] + "1" + tree[pos + 1:child] + ".." + tree[child:])
    assert verify_certificate(doc) is False


def test_clip_keeps_every_point_of_a_box_on_the_plane_and_in_the_cut(pinned):
    # every leaf box of the tree and every box of its root's first two
    # levels split along p2 and p4 (which straddle the cut's face), with 20
    # random chart points each; the clip keeps each point of the cut and the
    # margin
    root = certifier._root_level(pinned.margin)
    quarters = _bisect(_bisect(root, np.array([1])), np.array([3, 3]))
    leaves = _node_boxes(pinned.tree, pinned.margin)[_coded(pinned.tree, "L")]
    boxes = np.repeat(np.concatenate([leaves, quarters]), 20, axis=0)
    rng = np.random.default_rng(23)
    point = rng.uniform(boxes[:, :, 0], boxes[:, :, 1])
    keep = _in_domain(point[:, :4], pinned.margin)
    assert np.count_nonzero(keep) > 1000 and not np.all(keep)
    (p1, p2, p3, p4), w, feasible = _gauge_clip(boxes[keep], pinned.margin)
    assert np.all(feasible)
    assert np.all(p1.lo == 1.0) and np.all(p1.hi == 1.0)
    for coord, values in zip((p1, p2, p3, p4, w), point[keep].T):
        assert np.all((coord.lo <= values) & (values <= coord.hi))


def test_margin_codes_a_box_inside_the_root_infeasible(dotted):
    # the '.' box lies inside the root box and meets the cut's half p2 >= p4,
    # but every point of it has some p_i below margin * (1 + p2 + p3 + p4)
    (empty,) = _node_boxes(dotted.tree, dotted.margin)[_coded(dotted.tree, ".")]
    root = certifier._root_level(dotted.margin)[0]
    assert np.all((root[:, 0] <= empty[:, 0]) & (empty[:, 1] <= root[:, 1]))
    assert empty[1, 1] >= empty[3, 0]
    assert not certifier._clipped(empty[None], dotted.margin)[1][0]
    rng = np.random.default_rng(29)
    point = rng.uniform(empty[:4, 0], empty[:4, 1], size=(10_000, 4))
    assert not np.any(_in_domain(point, dotted.margin))


def test_sum_floor_is_the_least_sum_the_margin_allows():
    # bisection on T = 1 + sum max(lo_i, margin * T), whose right side
    # grows more slowly than T, finds the least sum; the closed form stays
    # at or below it and within a few ulps
    rng = np.random.default_rng(41)
    for margin in (0.2, 0.12, 0.01):
        lo = rng.uniform(margin, 1.0, size=(500, 3)) * rng.integers(0, 2, size=(500, 3))
        floor = certifier._sum_floor(lo, margin)
        a, b = np.ones(len(lo)), np.full(len(lo), 8.0)
        for _ in range(80):
            mid = 0.5 * (a + b)
            above = 1.0 + np.maximum(lo, margin * mid[:, None]).sum(axis=1) <= mid
            a, b = np.where(above, a, mid), np.where(above, mid, b)
        assert np.all(floor <= b) and np.all(floor >= a * (1.0 - 1e-14))


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
    leaves = cert.leaves  # decoded and bounded on each access: bind once
    checked = 0
    for leaf in [leaves[i] for i in rng.integers(0, len(leaves), 300)]:
        box = np.array(leaf.box)
        # a point of the tile in the cut and the margin, where the leaf's
        # bound holds for the residual at the gauge, if one exists
        p = rng.uniform(box[:4, 0], box[:4, 1], size=(50, 4))
        inside = np.flatnonzero(_in_domain(p, cert.margin))
        if len(inside):
            w = rng.uniform(box[4, 0], box[4, 1], size=1)
            assert _gauge_residual(p[inside[:1]], w)[0] >= leaf.lower_bound
            checked += 1
    assert checked >= 200


def _split(box):
    boxes = np.array([box])
    dims = _split_dims(boxes)
    return dims[0], _bisect(boxes, dims)


def test_split_bisects_widest_dimension():
    box = ((1.0, 1.0), (0.1, 0.5), (0.1, 0.2), (0.1, 0.2), (1.0, 1.1))
    dim, (lower, upper) = _split(box)
    assert dim == 1
    assert tuple(lower[1]) == (0.1, 0.3) and tuple(upper[1]) == (0.3, 0.5)
    assert np.array_equal(np.delete(lower, 1, 0), np.delete(upper, 1, 0))
    # ties break toward the earliest dimension
    box = ((1.0, 1.0), (0.1, 0.2), (0.1, 0.3), (0.1, 0.3), (1.0, 1.1))
    dim, (lower, upper) = _split(box)
    assert dim == 2
    assert tuple(lower[2]) == (0.1, 0.2) and tuple(upper[2]) == (0.2, 0.3)
    # w's width counts in full against the p widths: 0.125 rad loses to a p
    # width of 0.25, the exact tie goes to the p
    for w_width, expected in ((0.125, 1), (0.25, 1), (0.375, 4)):
        box = ((1.0, 1.0), (0.125, 0.375), (0.125, 0.25), (0.125, 0.25),
               (1.0, 1.0 + w_width))
        assert _split(box)[0] == expected, w_width


def _halves(parent, dim):
    """The lower and upper halves of the box `parent` along `dim`."""
    low, high = parent.copy(), parent.copy()
    low[dim, 1] = high[dim, 0] = 0.5 * (parent[dim, 0] + parent[dim, 1])
    return low, high


def test_split_order_ranks_p2_p3_p4_and_w_by_width_ties_to_the_lower():
    # on clipped random chart boxes, w narrowed to a random width or to p3's
    # exactly: each row ranks a permutation of p2, p3, p4 and w, its widths
    # never grow along the ranks, tied widths keep the lower dimension first,
    # and rank 1 is the widest, the dimension `certify` bisects
    rng = np.random.default_rng(43)
    tied = rows = 0
    for boxes, margin in _chart_boxes(seed=1, margins=8):
        boxes = certifier._clipped(boxes, margin)[0]
        widths = boxes[:, 1:, 1] - boxes[:, 1:, 0]
        widths[:, 3] = np.where(rng.random(len(boxes)) < 0.1, widths[:, 1],
                                10.0 ** rng.uniform(-8.0, 0.5, len(boxes)))
        boxes[:, 4, 0], boxes[:, 4, 1] = 0.0, widths[:, 3]
        order = certifier._split_order(boxes)
        assert np.array_equal(np.sort(order, axis=1), np.tile([1, 2, 3, 4], (len(order), 1)))
        ranked = np.take_along_axis(widths, order - 1, axis=1)
        assert np.all(ranked[:, :-1] >= ranked[:, 1:])
        same = ranked[:, :-1] == ranked[:, 1:]
        assert np.all(order[:, :-1][same] < order[:, 1:][same])
        assert np.array_equal(order[:, 0], _split_dims(boxes))
        assert np.array_equal(order[:, 0], 1 + np.argmax(widths, axis=1))
        tied += np.count_nonzero(same.any(axis=1))
        rows += len(boxes)
    assert tied * 10 > rows


@pytest.mark.parametrize("code", list("1234"))
def test_each_split_code_bisects_the_clipped_box_along_its_dimension(code):
    # code k bisects the k-th widest of p2, p3, p4 and w in the clipped box,
    # tied widths toward the lower dimension.  At margin 0.2 the clipped
    # root is one interval, about [0.5, 1], in each of p2, p3 and p4 and 0.6
    # pi wide in w, so it ranks w, p2, p3, p4; the leaves come back clipped
    k = int(code)
    root = certifier._clipped(certifier._root_level(0.2), 0.2)[0][0]
    assert np.array_equal(root[1:4], root[[1, 1, 1]]) and root[4, 1] - root[4, 0] > 1.0
    halves = np.stack(_halves(root, (4, 1, 2, 3)[k - 1]))
    assert np.array_equal(_decode(code + "LL", 0.2)[0], certifier._clipped(halves, 0.2)[0])
    # the root split along p2 (code 2), its upper half a leaf and its lower
    # half split along `code` into two leaves
    leaves = _decode("2" + code + "LLL", 0.2)[0]
    lower, upper = _halves(root, 1)
    parent = certifier._clipped(lower[None], 0.2)[0][0]
    assert not np.array_equal(parent, lower)  # p2 <= 0.75 moves p4 by the cut
    # p2 and p4 tie at 0.25, below p3's 0.5: the ranks are w, p3, p2, p4
    widths = parent[:, 1] - parent[:, 0]
    assert widths[1] == widths[3] < widths[2] < widths[4]
    placed = np.stack([upper, *_halves(parent, (4, 2, 1, 3)[k - 1])])
    assert np.array_equal(leaves, certifier._clipped(placed, 0.2)[0])


def test_a_split_recoded_to_another_dimension_verifies_iff_its_leaves_clear_c_star():
    # a recoded tree still covers the domain, so it is a true claim exactly
    # when each of its leaves meets the cut and the margin and clears c_star;
    # the trig-first replay must agree with "both" on every leaf
    small = certify(margin=0.2)
    doc = _fresh(small)
    splits = [pos for pos, code in enumerate(small.tree) if code in "1234"]
    assert len(splits) == 37
    verdicts = []
    for pos in splits:
        for code in "1234".replace(small.tree[pos], ""):
            tree = small.tree[:pos] + code + small.tree[pos + 1:]
            doc["tree"] = _pack(tree)
            leaves, consistent = _decode(tree, small.margin)
            true = consistent and bool(
                np.all(_enclosure_lo(leaves, small.margin, "both") >= small.c_star))
            assert _rejected(doc) is not true, (pos, code)
            verdicts.append(true)
    assert 0 < sum(verdicts) < len(verdicts)


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
    assert [field.name for field in dataclasses.fields(Certificate)] == [
        "margin", "target", "c_star", "tree"]
    assert list(doc) == ["version", "margin", "target", "c_star", "tree"]
    assert doc["version"] == __version__ == "0.11.0"
    # the document's tree is base64 of one zlib stream of the node count and
    # three bit planes, read here with the standard library alone
    stream = zlib.decompress(base64.b64decode(doc["tree"], validate=True))
    nodes = int.from_bytes(stream[:4], "big")
    bits = "".join(f"{byte:08b}" for byte in stream[4:])
    split = bits[:nodes]
    empty = iter(bits[nodes:2 * nodes - split.count("1")])
    rank = iter(bits[2 * nodes - split.count("1"):2 * nodes + split.count("1")])
    codes = [str(1 + int(next(rank) + next(rank), 2)) if flag == "1"
             else "." if next(empty) == "1" else "L" for flag in split]
    assert "".join(codes) == cert.tree and len(bits) - 2 * nodes - split.count("1") < 8
    # certify splits each box along its widest dimension, rank 1
    assert set(cert.tree) <= set("1L")
    # the box count and completeness are derived from the tree and the claim
    assert cert.box_count == len(cert.tree) - cert.tree.count(".")
    assert cert.complete is (doc["c_star"] >= doc["target"])
    rebuilt = Certificate.from_json_dict(json.loads(dumps(doc)))
    assert rebuilt.c_star == cert.c_star and rebuilt.tree == cert.tree
    assert len(rebuilt.leaves) == len(cert.leaves)
