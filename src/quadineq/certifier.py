"""Branch-and-bound certification of a positive residual lower bound.

The domain is the margin-truncated normalized frame space

    { p_i >= margin, p1+p2+p3+p4 = 1 } x { w in [margin*pi, (1-margin)*pi] }

The residual is invariant under the dihedral group of the quadrilateral,
which acts on frames through the rotation (p1,p2,p3,p4,w) ->
(p2,p3,p4,p1,pi-w) and the reflection (p1,p2,p3,p4,w) -> (p1,p4,p3,p2,pi-w);
both maps keep the margin domain.  Rotating the largest p_i to p1 and then
reflecting if p2 < p4 carries every frame into the cut

    { p1 >= p2, p1 >= p3, p1 >= p4, p2 >= p4 }

with the same residual, so a bound over domain ∩ cut bounds the whole
domain.  `tests/test_symmetry.py` proves the invariance exactly.

The residual R is homogeneous of degree six, R(lam p, w) = lam^6 R(p, w),
and in the cut p1 is the largest coordinate, so the certifier works in the
chart p1 = 1: the gauge point q maps to p = q / q1, and R(q, w) = R(p, w) /
S^6 with S = 1 + p2 + p3 + p4.  The margin is a ratio, q_i >= margin reads
p_i >= margin * S, and the cut reads p2, p3, p4 <= 1 and p2 >= p4.  Boxes
live in (p1, p2, p3, p4, w) with p1 = [1, 1]; the root is [1, 1] x
[margin, 1]^3 x [margin*pi, (1-margin)*pi], and only p2, p3, p4 and w are
ever split.  Each node's box is clipped once (`_clipped`): p4.hi is lowered
to p2.hi and p2.lo raised to p4.lo, and each of p2, p3, p4 is raised to
margin times a rounded-down lower bound on S over the box (`_sum_floor`),
until no endpoint moves.  Every point of the box in the cut and the margin
survives the clip, so a leaf's bound, which encloses the residual over the
clipped box, covers box ∩ domain ∩ cut, and a clipped box clips to itself.
A box whose clipped interval is empty holds no such point and is coded
'.'.  The one clipped box is bounded, split and checked against its code,
so a split node's halves cover every point of its box in the domain.

The search runs level by level from the whole domain: each box whose
certified residual lower bound misses the target is bisected along the
widest dimension of its clipped box among p2, p3, p4 and w, ties broken
toward p2 (`_split_dims`), and the halves form the next level.  As a box is
split exactly when its bound misses the target, a completed run builds the
same tree in any visiting order.  When the box budget or `_MAX_DEPTH` stops
a run, unsplit boxes stay leaves and the certificate is flagged incomplete.

Whether a box splits depends on its bound, but the halves it would get do
not, so the levels near the root, which are small, are bounded ahead:
`_speculate` appends the clipped children of every feasible box of the last
level while the batch holds fewer than `_LOOKAHEAD` rows times the split
share of the level before (a quarter at the root; never past the rows the
budget has left or past `_MAX_DEPTH`), one `_evaluate` call bounds the
batch, and the levels are then committed one by one as if each had been
bounded alone.  A committed level's split boxes take their children from the
level below by rank, and the children of boxes that did not split are
dropped.  Each bound depends on its own box alone, so the tree and every
bound are the ones a call per level gives; the extra rows buy fewer calls,
each of which has a fixed cost of a few milliseconds.

The certificate is the tree, one code per node in level order ('0'-'4'
split along p1, p2, p3, p4 or w, 'L' leaf, '.' misses the cut or the
margin), plus one claimed bound, `c_star`; the in-memory `Certificate`
holds that document less its header.  The header, the format's identity
(version and gauge), lives once in `HEADER`; the version alone names the
chart, the domain, the cut and the codes.  `to_json_dict` writes the
header into every document and `from_json_dict` rejects a document that
omits or changes any of it, or that carries a field the format lacks.
Boxes and leaf bounds are derived: `verify_certificate` regenerates every
box from the root, clipping each split node's box and bisecting it along
its coded dimension, so a decoded tree covers the domain by construction
whatever dimensions its codes name, and the verifier holds no split rule.
It recomputes each leaf's own bound and accepts iff every one is finite
and at least `c_star`, the document's one claim.  `certify` claims the
least leaf bound it found nudged two ulps down, so a replay whose libm
calls land an ulp or two lower still verifies.  `Certificate.leaves` pairs
the decoded leaf boxes with the bounds the replay computes.

Certify and replay share one cheap-first evaluation of clipped boxes,
`_evaluate`, which bounds each box once with the trig ("lemma") form and,
only where that bound misses what is needed, tightens it to "both": the
edge mean-value form, most of the per-box cost, intersected with the lemma
enclosure in hand.  The mean-value form is centred where its lower bound
is largest (`interval.edge_mean_value_enclosure`).  Both forms enclose the
chart residual R(1, p2, p3, p4, w); `_evaluate` divides a nonnegative lower
end by S.hi^6 and a negative one by S.lo^6, rounded down, so `c_star` and
the target bound the residual at the gauge p1+p2+p3+p4 = 1.
`certify` needs the target: a box whose lemma bound clears it keeps that
bound, one that misses by at most `_REACH` is tightened, and one further
below is split on its lemma bound (about half the boxes are split nodes,
which "both" rarely saves).  Both forms enclose the residual and
splitting is always sound, so the policy only trades boxes for time.  The
replay needs `c_star` and tightens every leaf whose lemma bound misses it,
so its verdict is the one a full "both" replay gives and does not depend
on how the certifier chose its enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .interval import (ONE, FrameBox, Interval, IntervalError, _down, _up,
                       edge_mean_value_enclosure, isqr, residual_enclosure)
from .ioutil import finite_number

# what a document must carry verbatim to be read as this format
HEADER = {"version": __version__, "gauge": "p1=1"}
_EVAL_CHUNK = 8192
# `certify` bounds the children a level's boxes would have together with the
# level while the batch holds fewer rows than this times the split share of
# the level before (`_speculate`)
_LOOKAHEAD = 2048
# the rows a call of the edge mean-value form takes at most: its stacked
# gradient costs more per row in larger calls, and each call has a fixed cost
_RETRY_BLOCK = 2048
# certify recomputes "both" on boxes whose lemma bound misses the target by
# at most this much; boxes further below are split on their lemma bound
_REACH = 2e-4
_MAX_DEPTH = 200
# node codes: '0'-'4' split along p1, p2, p3, p4 or w; 'L' leaf; '.' empty
_SPLIT_P1, _LEAF, _EMPTY = b"0L."
# `_split_dims` compares the widths of p2, p3, p4 and w; p1 is fixed at 1
_WIDTH_SCALE = np.array([0.0, 1.0, 1.0, 1.0, 1.0])


class MalformedCertificate(ValueError):
    """Certificate document is structurally invalid."""


@dataclass(frozen=True)
class Leaf:
    """One tile ((p1lo, p1hi), ..., (wlo, whi)) of the chart, as the tree
    places it, with the residual lower bound the replay computes on it."""

    box: tuple
    lower_bound: float


@dataclass
class Certificate:
    """Machine-checkable record of one branch-and-bound run; its document
    adds `HEADER`.  `c_star` is the one claim: every leaf's bound reaches it."""

    margin: float
    target: float
    complete: bool
    c_star: float
    box_count: int
    tree: str

    @property
    def leaves(self) -> list:
        """Each leaf box the tree places, paired with the bound the replay
        recomputes on its clipped box.  Decoded and bounded anew on every
        access; the verifier reads `tree` and `c_star`."""
        boxes = _decode(self.tree, self.margin)[0]
        bounds = _evaluate(_clipped(boxes, self.margin)[0], self.margin, self.c_star)
        return [Leaf(tuple(map(tuple, box)), lb)
                for box, lb in zip(boxes.tolist(), bounds.tolist())]

    def to_json_dict(self) -> dict:
        doc = dict(HEADER)
        doc.update((field.name, getattr(self, field.name)) for field in fields(self))
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise MalformedCertificate("certificate must be a JSON object")
        for key, expected in HEADER.items():  # version first
            if key not in doc:
                raise MalformedCertificate(f"certificate has no {key}")
            if doc[key] != expected:
                raise MalformedCertificate(
                    f"certificate {key} {doc[key]!r} is not {expected!r}, "
                    f"the {key} this verifier reads")
        # e.g. the split rule or symmetry that format 0.3.0 named, or the
        # per-leaf bounds that formats before 0.7.0 recorded
        unknown = sorted(set(doc) - _DOC_FIELDS)
        if unknown:
            raise MalformedCertificate(
                f"certificate field {unknown[0]!r} is not one of format {__version__}")
        try:
            tree = _typed(doc, "tree", str)
            _levels(tree)  # an unparsable tree is malformed, not false
            return Certificate(
                margin=finite_number(doc["margin"]),
                target=finite_number(doc["target"]),
                complete=_typed(doc, "complete", bool),
                c_star=finite_number(doc["c_star"]),
                box_count=_typed(doc, "box_count", int),
                tree=tree,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCertificate(f"bad certificate structure: {exc}") from exc


# the fields of a document: the header and the Certificate's own
_DOC_FIELDS = set(HEADER) | {field.name for field in fields(Certificate)}


def _typed(doc: dict, key: str, kind: type):
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be of type {kind.__name__}, not {value!r}")
    return value


def _root_level(margin: float) -> np.ndarray:
    return np.array([[(1.0, 1.0)] + [(margin, 1.0)] * 3
                     + [(margin * math.pi, (1.0 - margin) * math.pi)]])


def _sum_floor(lo: np.ndarray, margin: float) -> np.ndarray:
    """A lower bound, rounded down, on T = 1 + p2 + p3 + p4 over the points
    of boxes whose p2, p3, p4 lower ends are `lo` (shape (n, 3)) and which
    satisfy p_i >= margin * T.

    With n_b of the three held at margin * T and the others at least their
    lower ends, T >= 1 + (their sum) + n_b * margin * T; each choice of n_b,
    with the 3 - n_b largest lower ends, bounds T from below, and the right
    choice reaches the least such T.
    """
    # 1 plus the 0, 1, 2 or 3 largest lower ends, each sum rounded down as
    # an interval sum is: to nearest, then one step
    sums = [np.ones(len(lo))]
    for column in np.sort(lo, axis=1)[:, ::-1].T:
        sums.append(_down(sums[-1] + column))
    # 1 - n_b * margin for n_b = 3, 2, 1, 0, rounded up
    slack = _up(1.0 - _down(np.arange(3.0, -1.0, -1.0) * margin))
    return _down(np.stack(sums, axis=1) / slack).max(axis=1)


def _gauge_clip(arr: np.ndarray, margin: float):
    """Clip boxes (shape (n, 5, 2)) of the chart p1 = 1 to the cut p2 >= p4
    and the margin p_i >= margin * (1 + p2 + p3 + p4) for i = 2, 3, 4.

    Returns (p1..p4 Intervals, w Interval, feasibility mask).  Each pass
    lowers p4.hi to p2.hi and raises p2.lo to p4.lo, an exact float
    comparison, then raises the lower ends of p2, p3 and p4 to margin times
    `_sum_floor`, rounded down; passes repeat until no endpoint moves, so a
    clipped box clips to itself.  Any point of the box in the cut and the
    margin survives every pass, so an empty result proves the box misses
    one.  The cut's p_i <= p1 is the root box's p_i <= 1, and p1's own
    margin holds everywhere, since margin * T <= 0.2 * 4 < 1.  It keeps its
    name because `perfbench/layers.py` imports it.
    """
    lo, hi = arr[:, :, 0].copy(), arr[:, :, 1].copy()
    while True:
        before = lo[:, 1:4].copy()
        hi[:, 3] = np.minimum(hi[:, 3], hi[:, 1])
        lo[:, 1] = np.maximum(lo[:, 1], lo[:, 3])
        floor = _down(margin * _sum_floor(lo[:, 1:4], margin))
        lo[:, 1:4] = np.maximum(lo[:, 1:4], floor[:, None])
        if np.array_equal(lo[:, 1:4], before):
            break
    coords = [Interval(lo[:, i], hi[:, i]) for i in range(5)]
    return coords[:4], coords[4], np.all(lo <= hi, axis=1)


def _clipped(arr: np.ndarray, margin: float) -> tuple:
    """`_gauge_clip` of boxes (shape (n, 5, 2)) as boxes of the same shape and
    the feasibility mask; an infeasible box comes back with lo > hi in some p."""
    p, w, feasible = _gauge_clip(arr, margin)
    return np.stack([np.stack([c.lo, c.hi], axis=1) for c in (*p, w)], axis=1), feasible


def _frame_box(boxes: np.ndarray, margin: float) -> FrameBox:
    return FrameBox(*(Interval(boxes[:, i, 0], boxes[:, i, 1]) for i in range(5)), margin)


def _evaluate(boxes: np.ndarray, margin: float, need,
              reach: float = math.inf) -> np.ndarray:
    """Lower bounds, rounded down, of the gauge-normalized residual over
    clipped boxes (shape (n, 5, 2)) of the chart, each meeting the cut and
    the margin.

    An enclosure of the chart residual R(1, p2, p3, p4, w) is S^6 times the
    residual at the gauge p1+p2+p3+p4 = 1, S = 1 + p2 + p3 + p4, so its
    lower end is divided by an outward-rounded enclosure of S^6 (`_per_gauge`).
    Each box is bounded once with the lemma form, in chunks of
    `_EVAL_CHUNK`; one whose bound misses `need` by at most `reach` is
    tightened to "both", the edge mean-value form intersected with that
    lemma enclosure, in blocks of `_RETRY_BLOCK`.
    Every box is bounded on its own, so the blocking moves no bound.  "both"
    is never looser than "lemma", so with the default infinite reach (the
    replay's) a box clears `need` exactly when its "both" bound would.  A NaN
    lemma bound is not retried: the intersection takes numpy's
    NaN-propagating maximum.
    """
    lemma_lo, lemma_hi = np.empty(len(boxes)), np.empty(len(boxes))
    for start in range(0, len(boxes), _EVAL_CHUNK):
        rows = slice(start, start + _EVAL_CHUNK)
        lemma = residual_enclosure(_frame_box(boxes[rows], margin), "lemma")
        lemma_lo[rows], lemma_hi[rows] = lemma.lo, lemma.hi
    out = _per_gauge(lemma_lo, boxes)
    retry = np.flatnonzero((out < need) & (out >= need - reach))
    for start in range(0, len(retry), _RETRY_BLOCK):
        rows = retry[start:start + _RETRY_BLOCK]
        both = edge_mean_value_enclosure(_frame_box(boxes[rows], margin))
        lo = both.intersect(Interval(lemma_lo[rows], lemma_hi[rows])).lo
        out[rows] = _per_gauge(lo, boxes[rows])
    return out


def _per_gauge(lo: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Lower ends `lo` of chart enclosures over `boxes` divided by S^6, with
    S = 1 + p2 + p3 + p4: a nonnegative end by S.hi^6 and a negative one by
    S.lo^6, rounded down, so each bounds the residual at the gauge from below."""
    s = ONE + Interval(boxes[:, 1, 0], boxes[:, 1, 1]) \
        + Interval(boxes[:, 2, 0], boxes[:, 2, 1]) + Interval(boxes[:, 3, 0], boxes[:, 3, 1])
    s6 = isqr(isqr(s) * s)
    return _down(lo / np.where(lo >= 0.0, s6.hi, s6.lo))


def _check_limits(margin: float, target: float, error: type) -> None:
    # the runs `certify` makes are the only ones `verify_certificate` accepts
    if not (0.0 < margin <= 0.2):
        raise error("margin must lie in (0, 0.2]")
    if not (0.0 <= target < math.inf):
        raise error("target must be finite and nonnegative")


def _split_dims(boxes: np.ndarray) -> np.ndarray:
    """The dimension `certify` bisects each box (shape (n, 5, 2)) along: the
    widest of p2, p3, p4 and w, ties broken toward p2."""
    return np.argmax((boxes[:, :, 1] - boxes[:, :, 0]) * _WIDTH_SCALE, axis=1)


def _bisect(boxes: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Bisect boxes (shape (n, 5, 2)) along the given dimensions.  Returns the
    (2n, 5, 2) children, each lower child right before its upper sibling."""
    rows = np.arange(len(boxes))
    mid = 0.5 * (boxes[rows, dims, 0] + boxes[rows, dims, 1])
    children = np.repeat(boxes, 2, axis=0)
    children[2 * rows, dims, 1] = mid
    children[2 * rows + 1, dims, 0] = mid
    return children


def _is_split(codes: np.ndarray) -> np.ndarray:
    return (codes >= _SPLIT_P1) & (codes < _SPLIT_P1 + 5)


def _levels(tree: str) -> list:
    """Split a level-order tree code into its levels, from code counts alone:
    the root level holds one node and each level holds two nodes per split
    code of the level before.

    Returns one uint8 code array per level.  Raises MalformedCertificate on
    an unknown code, a level deeper than `_MAX_DEPTH`, or a code string that
    ends before or after the tree.
    """
    codes = np.frombuffer(tree.encode(), dtype=np.uint8)
    if not np.all(_is_split(codes) | (codes == _LEAF) | (codes == _EMPTY)):
        raise MalformedCertificate("tree holds a code other than '0'-'4', 'L' and '.'")
    levels = []
    pos, size = 0, 1
    while size:
        if len(levels) > _MAX_DEPTH:
            raise MalformedCertificate(f"tree is deeper than {_MAX_DEPTH} levels")
        if pos + size > len(codes):
            raise MalformedCertificate("tree code ends inside a level")
        levels.append(codes[pos:pos + size])
        pos += size
        size = 2 * int(np.count_nonzero(_is_split(levels[-1])))
    if pos != len(codes):
        raise MalformedCertificate("tree code continues past its last level")
    return levels


def _decode(tree: str, margin: float) -> tuple:
    """Regenerate the boxes of a level-order tree code from the root: each
    split node's box is clipped and bisected along its coded dimension.

    Returns (leaf boxes, infeasible-node boxes, whether every split node's
    clipped box is feasible); the boxes are (n, 5, 2) arrays in level order,
    as the tree places them, before their own clip.  Raises
    MalformedCertificate where `_levels` does.
    """
    level = _root_level(margin)
    leaves, empties = [], []
    splits_feasible = True
    for node in _levels(tree):
        leaves.append(level[node == _LEAF])
        empties.append(level[node == _EMPTY])
        split = _is_split(node)
        boxes, feasible = _clipped(level[split], margin)
        splits_feasible = splits_feasible and bool(np.all(feasible))
        level = _bisect(boxes, node[split] - _SPLIT_P1)
    return np.concatenate(leaves), np.concatenate(empties), splits_feasible


def _speculate(level: np.ndarray, margin: float, depth: int, budget: int,
               share: float) -> list:
    """The levels one `_evaluate` call of `certify` bounds: the clipped level
    (at `depth`) and, while the batch holds fewer than `share * _LOOKAHEAD`
    rows, the clipped children of every feasible box of the last level, as
    if each were split.  `share` is the split share of the level before, so
    a tree that thins out bounds fewer rows ahead.  A level is added only if
    the batch then stays within `budget` rows and its depth within
    `_MAX_DEPTH`.

    Returns one (clipped boxes, feasibility mask) pair per level; a level's
    children follow its feasible boxes in order, two each.
    """
    spec = [_clipped(level, margin)]
    rows = int(np.count_nonzero(spec[0][1]))
    while rows < share * _LOOKAHEAD and depth + len(spec) <= _MAX_DEPTH and spec[-1][1].any():
        boxes, feasible = spec[-1]
        parents = boxes[feasible]
        children = _clipped(_bisect(parents, _split_dims(parents)), margin)
        rows += int(np.count_nonzero(children[1]))
        if rows > budget:
            break
        spec.append(children)
    return spec


def certify(margin: float, target: float = 0.0,
            max_boxes: int = 1_000_000) -> Certificate:
    """Certify residual >= target over the margin-truncated domain, the
    residual taken at the gauge p1+p2+p3+p4 = 1.

    Returns a complete certificate when every leaf bound clears the target
    within the box budget and the depth limit, otherwise a partial
    certificate flagged incomplete.  Either way c_star is the least leaf
    bound, nudged two ulps down.
    """
    _check_limits(margin, target, ValueError)
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")

    level = _root_level(margin)
    codes, leaf_bounds = [], []
    evaluated = depth = 0
    complete = True
    # the root has no level before it; a quarter stops its batch at 512
    # rows, which hold the nine levels of the margin-0.2 tree
    share = 0.25
    while len(level):
        # one batch bounds the level and the levels below it that fit, as
        # if every box split; the levels are then committed one by one
        spec = _speculate(level, margin, depth, max_boxes - evaluated, share)
        found = _evaluate(np.concatenate([boxes[feasible] for boxes, feasible in spec]),
                          margin, target, _REACH)
        # nudged two ulps below the enclosure, so that a replay whose libm
        # calls wobble in the last ulp still reaches c_star
        found = np.split(_down(found, 2), np.cumsum([np.count_nonzero(f) for _, f in spec]))
        rows = np.arange(len(level))  # the committed level's rows in `spec[k]`
        for k, (all_boxes, all_feasible) in enumerate(spec):
            all_bounds = np.full(len(all_boxes), np.nan)
            all_bounds[all_feasible] = found[k]
            boxes, feasible, bounds = all_boxes[rows], all_feasible[rows], all_bounds[rows]
            evaluated += int(np.count_nonzero(feasible))
            split = feasible & ~(bounds >= target)
            pending = np.flatnonzero(split)
            room = (max_boxes - evaluated) // 2 if depth < _MAX_DEPTH else 0
            if len(pending) > room:
                # out of boxes or depth: the rest stay leaves of a partial result
                split[pending[room:]] = False
                complete = False
            dims = _split_dims(boxes[split])
            code = np.full(len(rows), _EMPTY, dtype=np.uint8)
            code[feasible] = _LEAF
            code[split] = _SPLIT_P1 + dims
            codes.append(code.tobytes())
            leaf_bounds.append(bounds[feasible & ~split])
            depth += 1
            share = np.count_nonzero(split) / max(1, np.count_nonzero(feasible))
            if k + 1 == len(spec) or not split.any():
                break
            # the split boxes' children, two per feasible box before them
            parents = (np.cumsum(all_feasible) - 1)[rows[split]]
            rows = np.stack([2 * parents, 2 * parents + 1], axis=1).ravel()
        level = _bisect(boxes[split], dims)

    return Certificate(
        margin=margin, target=target, complete=complete,
        c_star=float(np.min(np.concatenate(leaf_bounds))), box_count=evaluated,
        tree=b"".join(codes).decode("ascii"),
    )


def verify_certificate(cert) -> bool:
    """Replay a certificate: regenerate every box from its tree, clip each
    once and check its code, split codes included, against its feasibility,
    recompute the box count and each leaf's own residual lower bound
    (trig-first, by `_evaluate`), which must be finite and at least the
    claimed c_star (a leaf whose enclosure cannot be formed rejects), and
    check that a document flagged complete claims a c_star that reaches its
    target (an incomplete flag claims nothing more).  Accepts a Certificate
    or its JSON dict; returns True iff all claims hold.  It raises
    MalformedCertificate on a tree without leaves or a margin or target
    that `certify` refuses.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_dict(cert)
    if not isinstance(cert, Certificate):
        raise MalformedCertificate(f"cannot verify {type(cert)!r}")
    _check_limits(cert.margin, cert.target, MalformedCertificate)
    if "L" not in cert.tree:
        raise MalformedCertificate("empty leaf set")

    leaves, empties, splits_feasible = _decode(cert.tree, cert.margin)
    if cert.box_count != len(cert.tree) - cert.tree.count("."):
        return False
    # each code must match its box: a split code and 'L' meet the cut and
    # the margin, '.' misses one
    boxes, feasible = _clipped(leaves, cert.margin)
    if not (splits_feasible and np.all(feasible)) \
            or np.any(_gauge_clip(empties, cert.margin)[2]):
        return False
    try:
        bounds = _evaluate(boxes, cert.margin, cert.c_star)
    except IntervalError:  # an enclosure that cannot be formed proves nothing
        return False
    # a leaf holds iff its own bound is finite and reaches c_star; the
    # comparisons are written so that a NaN rejects
    if np.any(~(np.isfinite(bounds) & (bounds >= cert.c_star))):
        return False
    if cert.complete and not cert.c_star >= cert.target:
        return False
    return True
