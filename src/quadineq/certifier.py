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

Boxes live in all five coordinates (p1, p2, p3, p4, w); the gauge plane and
the cut are constraints, not eliminated coordinates, so every p interval
shrinks independently under splitting.  Each node's box is clipped once
(`_clipped`), first to the gauge (p_i intersected with 1 minus the sum of
the others), then to the cut (for example p1.lo raised to the largest lo of
the other p_i, and p4.hi lowered to p2.hi).  Every point of the box on the
gauge plane and in the cut survives both clips, so a leaf's bound, which
encloses the residual over the clipped box, covers box ∩ gauge ∩ cut.  A
box whose clipped interval is empty holds no such point and is coded '.'.
The one clipped box is bounded, split and checked against its code, so a
split node's halves cover every point of its box on the plane and in the cut.

The search runs level by level from the whole domain: each box whose
certified residual lower bound misses the target is bisected along the
widest dimension of its clipped box, with w's width counted at half scale
(`_split_dims`; ties broken toward p1), and the halves form the next level.
w spans about 2.5 rad against at most 1 - 4*margin for a p.  As a box is
split exactly when its bound misses the target, a completed run builds the
same tree in any visiting order.  When the box budget or `_MAX_DEPTH` stops
a run, unsplit boxes stay leaves and the certificate is flagged incomplete.

Whether a box splits depends on its bound, but the halves it would get do
not, so the levels near the root, which are small, are bounded ahead:
`_speculate` appends the clipped children of every feasible box of the last
level while the batch holds fewer than `_LOOKAHEAD` rows (never past the
rows the budget has left or past `_MAX_DEPTH`), one `_evaluate` call bounds
the batch, and the levels are then committed one by one as if each had been
bounded alone.  A committed level's split boxes take their children from the
level below by rank, and the children of boxes that did not split are
dropped.  Each bound depends on its own box alone, so the tree and every
bound are the ones a call per level gives; the extra rows buy fewer calls,
each of which has a fixed cost of a few milliseconds.

The certificate is the tree, one code per node in level order ('0'-'4'
split along p1, p2, p3, p4 or w, 'L' leaf, '.' misses the gauge plane or
the cut), plus each leaf's bound in the same order; the in-memory
`Certificate` holds that document less its header.  The header, the
format's identity (version and gauge), lives once in `HEADER`; the version
alone names the domain, the cut and the codes.  `to_json_dict` writes the
header into every document and `from_json_dict` rejects a document that
omits or changes any of it, or that carries a field the format lacks.
Boxes are derived: `verify_certificate` regenerates every box from the
root, clipping each split node's box and bisecting it along its coded
dimension, so a decoded tree covers the domain by construction whatever
dimensions its codes name, and the verifier holds no split rule.
`Certificate.leaves` pairs the decoded leaf boxes with their bounds for
callers that want both.
Each recorded bound is the certifier's enclosure lower end nudged at least
two ulps down.  The replay recomputes each leaf's own enclosure and accepts
the leaf iff that bound is finite and at least the recorded one, so a
replay whose libm calls land an ulp or two lower still verifies, and the
recorded bound, below a sound lower end, is sound itself.

Certify and replay share one cheap-first evaluation of clipped boxes,
`_evaluate`, which bounds each box once with the trig ("lemma") form and,
only where that bound misses what is needed, tightens it to "both": the
edge mean-value form, most of the per-box cost, intersected with the lemma
enclosure in hand.  The mean-value form is centred where its lower bound
is largest (`interval.edge_mean_value_enclosure`).
`certify` needs the target: a box whose lemma bound clears it records that
bound, one that misses by at most `_REACH` is tightened, and one further
below is split on its lemma bound (about half the boxes are split nodes,
which "both" rarely saves).  Both forms enclose the residual and
splitting is always sound, so the policy only trades boxes for time.  The
replay needs each leaf's recorded bound and tightens every miss, so its
verdict is the one a full "both" replay gives and does not depend on how
the certifier chose its enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .interval import (FrameBox, Interval, IntervalError, _down,
                       edge_mean_value_enclosure, residual_enclosure)
from .ioutil import finite_number

# what a document must carry verbatim to be read as this format
HEADER = {"version": __version__, "gauge": "psum1"}
_EVAL_CHUNK = 8192
# `certify` bounds the children a level's boxes would have together with the
# level while the batch holds fewer rows than this (`_speculate`)
_LOOKAHEAD = 1024
# the rows a call of the edge mean-value form takes at most: its stacked
# gradient costs more per row in larger calls, and each call has a fixed cost
_RETRY_BLOCK = 2048
# certify recomputes "both" on boxes whose lemma bound misses the target by
# at most this much; boxes further below are split on their lemma bound
_REACH = 2e-4
_MAX_DEPTH = 200
# node codes: '0'-'4' split along p1, p2, p3, p4 or w; 'L' leaf; '.' empty
_SPLIT_P1, _LEAF, _EMPTY = b"0L."
# `_split_dims` compares w's width at half scale against the p widths
_WIDTH_SCALE = np.array([1.0, 1.0, 1.0, 1.0, 0.5])


class MalformedCertificate(ValueError):
    """Certificate document is structurally invalid."""


@dataclass(frozen=True)
class Leaf:
    """One tile ((p1lo, p1hi), ..., (wlo, whi)) of the certified domain, as
    the tree places it, with its residual lower bound."""

    box: tuple
    lower_bound: float


@dataclass
class Certificate:
    """Machine-checkable record of one branch-and-bound run; its document
    adds `HEADER`."""

    margin: float
    target: float
    complete: bool
    c_star: float
    box_count: int
    tree: str
    bounds: list  # leaf lower bounds in level order

    @property
    def leaves(self) -> list:
        """Each leaf box the tree places, paired with its bound.  Decoded
        anew on every access; the verifier reads `tree` and `bounds`."""
        boxes = _decode(self.tree, self.margin)[0].tolist()
        return [Leaf(tuple(map(tuple, box)), lb)
                for box, lb in zip(boxes, self.bounds)]

    def to_json_dict(self) -> dict:
        doc = dict(HEADER)
        doc.update((field.name, getattr(self, field.name)) for field in fields(self))
        doc["leaves"] = [{"lower_bound": lb} for lb in doc.pop("bounds")]
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
        # e.g. the split rule or symmetry that format 0.3.0 named
        unknown = sorted(set(doc) - _DOC_FIELDS)
        if unknown:
            raise MalformedCertificate(
                f"certificate field {unknown[0]!r} is not one of format {__version__}")
        try:
            margin = finite_number(doc["margin"])
            tree = _typed(doc, "tree", str)
            _levels(tree)  # an unparsable tree is malformed, not false
            if any(len(entry) != 1 for entry in doc["leaves"]):  # e.g. format 0.1.0's box
                raise ValueError(f"a leaf of format {__version__} holds its lower_bound alone")
            return Certificate(
                margin=margin,
                target=finite_number(doc["target"]),
                complete=_typed(doc, "complete", bool),
                c_star=finite_number(doc["c_star"]),
                box_count=_typed(doc, "box_count", int),
                tree=tree,
                bounds=[finite_number(entry["lower_bound"]) for entry in doc["leaves"]],
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedCertificate(f"bad certificate structure: {exc}") from exc


# the fields of a document: the header, and the Certificate's own with its
# bounds written as leaves
_DOC_FIELDS = (set(HEADER) | {field.name for field in fields(Certificate)}
               | {"leaves"}) - {"bounds"}


def _typed(doc: dict, key: str, kind: type):
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be of type {kind.__name__}, not {value!r}")
    return value


def _root_level(margin: float) -> np.ndarray:
    p_range = (margin, 1.0 - 3.0 * margin)
    return np.array([[p_range] * 4 + [(margin * math.pi, (1.0 - margin) * math.pi)]])


def _gauge_clip(arr: np.ndarray, margin: float):
    """Clip boxes (shape (n, 5, 2)) to the gauge plane p1+p2+p3+p4 = 1 and
    then to the cut {p1 >= p2, p1 >= p3, p1 >= p4, p2 >= p4}.

    Returns (clipped p Intervals + w Interval, feasibility mask).  The gauge
    clip intersects each p_i with 1 minus the outward-rounded sum of the
    others; the cut clip raises and lowers endpoints to other endpoints, an
    exact float comparison.  Any point of the box on the gauge plane and in
    the cut survives both, so an empty result proves the box misses one.
    It keeps its gauge-only name because `perfbench/layers.py` imports it.
    """
    p = [Interval(arr[:, i, 0], arr[:, i, 1]) for i in range(4)]
    w = Interval(arr[:, 4, 0], arr[:, 4, 1])
    one = Interval.point(1.0)
    lo, hi = [], []
    for i in range(4):
        a, b, c = (p[j] for j in range(4) if j != i)
        allowed = one - (a + b + c)
        lo.append(np.maximum(p[i].lo, allowed.lo))
        hi.append(np.minimum(p[i].hi, allowed.hi))
    lo[1] = np.maximum(lo[1], lo[3])
    lo[0] = np.maximum(np.maximum(lo[0], lo[1]), np.maximum(lo[2], lo[3]))
    hi[1] = np.minimum(hi[1], hi[0])
    hi[2] = np.minimum(hi[2], hi[0])
    hi[3] = np.minimum(hi[3], hi[1])
    feasible = np.logical_and.reduce([l <= h for l, h in zip(lo, hi)])
    return [Interval(l, h) for l, h in zip(lo, hi)], w, feasible


def _clipped(arr: np.ndarray, margin: float) -> tuple:
    """`_gauge_clip` of boxes (shape (n, 5, 2)) as boxes of the same shape and
    the feasibility mask; an infeasible box comes back with lo > hi in some p."""
    p, w, feasible = _gauge_clip(arr, margin)
    return np.stack([np.stack([c.lo, c.hi], axis=1) for c in (*p, w)], axis=1), feasible


def _frame_box(boxes: np.ndarray, margin: float) -> FrameBox:
    return FrameBox(*(Interval(boxes[:, i, 0], boxes[:, i, 1]) for i in range(5)), margin)


def _evaluate(boxes: np.ndarray, margin: float, need,
              reach: float = math.inf) -> np.ndarray:
    """The lower ends of certified residual enclosures of clipped boxes
    (shape (n, 5, 2)), each meeting the gauge plane and the cut.

    Each box is bounded once with the lemma form, in chunks of `_EVAL_CHUNK`;
    one whose lemma bound misses `need` (a scalar or one bound per box) by at
    most `reach` is tightened to "both", the edge mean-value form intersected
    with that lemma enclosure, in blocks of `_RETRY_BLOCK`.  Every box is
    bounded on its own, so the blocking moves no bound.  "both" is never
    looser than "lemma", so with the default infinite reach (the replay's) a
    box clears `need` exactly when its "both" bound would.  A NaN lemma bound
    is not retried: the intersection takes numpy's NaN-propagating maximum.
    """
    out, lemma_hi = np.empty(len(boxes)), np.empty(len(boxes))
    for start in range(0, len(boxes), _EVAL_CHUNK):
        rows = slice(start, start + _EVAL_CHUNK)
        lemma = residual_enclosure(_frame_box(boxes[rows], margin), "lemma")
        out[rows], lemma_hi[rows] = lemma.lo, lemma.hi
    retry = np.flatnonzero((out < need) & (out >= need - reach))
    for start in range(0, len(retry), _RETRY_BLOCK):
        rows = retry[start:start + _RETRY_BLOCK]
        both = edge_mean_value_enclosure(_frame_box(boxes[rows], margin))
        out[rows] = both.intersect(Interval(out[rows], lemma_hi[rows])).lo
    return out


def _check_limits(margin: float, target: float, error: type) -> None:
    # the runs `certify` makes are the only ones `verify_certificate` accepts
    if not (0.0 < margin <= 0.2):
        raise error("margin must lie in (0, 0.2]")
    if not (0.0 <= target < math.inf):
        raise error("target must be finite and nonnegative")


def _split_dims(boxes: np.ndarray) -> np.ndarray:
    """The dimension `certify` bisects each box (shape (n, 5, 2)) along: the
    widest, with w's width halved, ties broken toward p1."""
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


def _speculate(level: np.ndarray, margin: float, depth: int, budget: int) -> list:
    """The levels one `_evaluate` call of `certify` bounds: the clipped level
    (at `depth`) and, while the batch holds fewer than `_LOOKAHEAD` rows, the
    clipped children of every feasible box of the last level, as if each
    were split.  A level is added only if the batch then stays within
    `budget` rows and its depth within `_MAX_DEPTH`.

    Returns one (clipped boxes, feasibility mask) pair per level; a level's
    children follow its feasible boxes in order, two each.
    """
    spec = [_clipped(level, margin)]
    rows = int(np.count_nonzero(spec[0][1]))
    while rows < _LOOKAHEAD and depth + len(spec) <= _MAX_DEPTH and spec[-1][1].any():
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
    """Certify residual >= target over the margin-truncated domain.

    Returns a complete certificate when every leaf bound clears the target
    within the box budget and the depth limit, otherwise a partial
    certificate flagged incomplete whose c_star is the best bound
    established so far.
    """
    _check_limits(margin, target, ValueError)
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")

    level = _root_level(margin)
    codes, leaf_bounds = [], []
    evaluated = depth = 0
    complete = True
    while len(level):
        # one batch bounds the level and the levels below it that fit, as
        # if every box split; the levels are then committed one by one
        spec = _speculate(level, margin, depth, max_boxes - evaluated)
        found = _evaluate(np.concatenate([boxes[feasible] for boxes, feasible in spec]),
                          margin, target, _REACH)
        # recorded two ulps below the enclosure, so that a replay whose
        # libm calls wobble in the last ulp still reaches the recorded bound
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
            if k + 1 == len(spec) or not split.any():
                break
            # the split boxes' children, two per feasible box before them
            parents = (np.cumsum(all_feasible) - 1)[rows[split]]
            rows = np.stack([2 * parents, 2 * parents + 1], axis=1).ravel()
        level = _bisect(boxes[split], dims)

    bounds = np.concatenate(leaf_bounds).tolist()
    return Certificate(
        margin=margin, target=target, complete=complete, c_star=min(bounds),
        box_count=evaluated, tree=b"".join(codes).decode("ascii"), bounds=bounds,
    )


def verify_certificate(cert) -> bool:
    """Replay a certificate: regenerate every box from its tree, clip each
    once and check its code, split codes included, against its feasibility,
    recompute the box count and each leaf's own residual lower bound
    (trig-first, by `_evaluate`), which must be finite and at least the
    recorded, nudged bound (a leaf whose enclosure cannot be formed
    rejects), check the global bound, and check that a document flagged
    complete has every leaf clear its target (an incomplete flag claims
    nothing).  Accepts a Certificate or its JSON dict; returns True iff all
    claims hold.  It raises MalformedCertificate on an empty leaf set or a
    margin or target that `certify` refuses.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_dict(cert)
    if not isinstance(cert, Certificate):
        raise MalformedCertificate(f"cannot verify {type(cert)!r}")
    _check_limits(cert.margin, cert.target, MalformedCertificate)
    if not cert.bounds:
        raise MalformedCertificate("empty leaf set")

    leaves, empties, splits_feasible = _decode(cert.tree, cert.margin)
    recorded = np.array(cert.bounds, dtype=float)
    if len(leaves) != len(recorded) \
            or cert.box_count != len(cert.tree) - cert.tree.count("."):
        return False
    # each code must match its box: a split code and 'L' meet the gauge
    # plane and the cut, '.' misses one
    boxes, feasible = _clipped(leaves, cert.margin)
    if not (splits_feasible and np.all(feasible)) \
            or np.any(_gauge_clip(empties, cert.margin)[2]):
        return False
    try:
        recomputed = _evaluate(boxes, cert.margin, recorded)
    except IntervalError:  # an enclosure that cannot be formed proves nothing
        return False
    # a leaf holds iff its own bound is finite and reaches the recorded one;
    # the comparisons are written so that a NaN on either side rejects
    if np.any(~(np.isfinite(recomputed) & (recomputed >= recorded))):
        return False
    if float(np.min(recorded)) != cert.c_star:
        return False
    if cert.complete and np.any(~(recorded >= cert.target)):
        return False
    return True
