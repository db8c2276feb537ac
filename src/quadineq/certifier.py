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
shrinks independently under splitting.  Before evaluation each box is
clipped, first to the gauge (p_i intersected with 1 minus the sum of the
others), then to the cut (for example p1.lo raised to the largest lo of the
other p_i, and p4.hi lowered to p2.hi).  Every point of the box on the gauge
plane and in the cut survives both clips, so a leaf's bound, which encloses
the residual over the clipped box, covers box ∩ gauge ∩ cut.  A box whose
clipped interval is empty holds no such point and is coded '.'.  Splitting
uses the unclipped box.

The search runs level by level from the whole domain: each box whose
certified residual lower bound misses the target is bisected along its
widest dimension (ties broken in the order p1, p2, p3, p4, w), and the
halves form the next level.  As a box is split exactly when its bound misses
the target, a completed run builds the same tree in any visiting order.
When the box budget or `_MAX_DEPTH` stops a run, unsplit boxes stay leaves
and the certificate is flagged incomplete.

The certificate is the tree, one code per node in level order ('S' split,
'L' leaf, '.' misses the gauge plane or the cut), plus each leaf's bound in
the same order; the in-memory `Certificate` holds exactly that document.
Boxes are derived: `verify_certificate` regenerates every box from the root,
so a decoded tree tiles the domain by construction, and `Certificate.leaves`
pairs the decoded leaf boxes with their bounds for callers that want both.
Recorded bounds are nudged at least two ulps down so replays tolerate
last-ulp libm wobble without weakening the bound.

Certify and replay share one cheap-first evaluation, `_evaluate`, which
clips each box once and bounds it once with the trig ("lemma") form.  Only
where that bound misses what is needed is it tightened to "both": the edge
mean-value form, most of the per-box cost, intersected with the lemma
enclosure in hand.  `certify` needs the target: a box whose lemma bound
clears it records that bound, one that misses by at most `_REACH` is
tightened, and one further below is split on its lemma bound (about half
the boxes are split nodes, which "both" rarely saves).  Both forms enclose
the residual and splitting is always sound, so the policy only trades boxes
for time.  The replay needs each leaf's recorded bound and tightens every
miss, so its verdict is the one a full "both" replay gives and does not
depend on how the certifier chose its enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .interval import (FrameBox, Interval, IntervalError, _down,
                       edge_mean_value_enclosure, residual_enclosure)

GAUGE = "psum1"
SPLIT_RULE = "bisect-widest:p1,p2,p3,p4,w"
SYMMETRY = "dihedral-8:cut p1>=p2,p1>=p3,p1>=p4,p2>=p4"
_EVAL_CHUNK = 8192
# certify recomputes "both" on boxes whose lemma bound misses the target by
# at most this much; boxes further below are split on their lemma bound
_REACH = 2e-4
_MAX_DEPTH = 200
_SPLIT, _LEAF, _EMPTY = b"SL."


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
    """Machine-checkable record of one branch-and-bound run."""

    version: str
    margin: float
    gauge: str
    target: float
    complete: bool
    c_star: float
    box_count: int
    split_rule: str
    symmetry: str
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
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        doc["leaves"] = [{"lower_bound": lb} for lb in doc.pop("bounds")]
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise MalformedCertificate("certificate must be a JSON object")
        if doc.get("version") != __version__:
            raise MalformedCertificate(
                f"certificate version {doc.get('version')!r} is not {__version__!r}, "
                "the version this verifier reads")
        try:
            split_rule = doc.get("split_rule", SPLIT_RULE)
            if split_rule != SPLIT_RULE:
                raise ValueError(f"unknown split rule {split_rule!r}")
            symmetry = doc.get("symmetry", SYMMETRY)
            if symmetry != SYMMETRY:
                raise ValueError(f"unknown symmetry {symmetry!r}")
            margin = _finite(doc["margin"])
            tree = _typed(doc, "tree", str)
            _levels(tree)  # an unparsable tree is malformed, not false
            return Certificate(
                version=__version__,
                margin=margin,
                gauge=str(doc["gauge"]),
                target=_finite(doc["target"]),
                complete=_typed(doc, "complete", bool),
                c_star=_finite(doc["c_star"]),
                box_count=_typed(doc, "box_count", int),
                split_rule=SPLIT_RULE,
                symmetry=SYMMETRY,
                tree=tree,
                bounds=[_finite(entry["lower_bound"]) for entry in doc["leaves"]],
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedCertificate(f"bad certificate structure: {exc}") from exc


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {value!r}")
    return out


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


def _evaluate(arr: np.ndarray, margin: float, need,
              reach: float = math.inf) -> tuple:
    """Clip and bound boxes (shape (n, 5, 2)) in chunks of `_EVAL_CHUNK`.

    Returns (feasible, bounds): which boxes meet the gauge plane and the cut,
    and their certified residual lower bounds, NaN where a box misses one.
    Each chunk is clipped once by `_gauge_clip` and its feasible rows are
    bounded once with the lemma form; rows whose lemma bound misses `need`
    (a scalar or one bound per row) by at most `reach` are tightened to
    "both", the edge mean-value form intersected with that lemma enclosure.
    "both" is never looser than "lemma", so with the default infinite reach
    (the replay's) a row clears `need` exactly when its "both" bound would.
    A NaN lemma bound is not retried: the intersection takes numpy's
    NaN-propagating maximum.
    """
    need = np.broadcast_to(need, len(arr))
    feasible = np.zeros(len(arr), dtype=bool)
    out = np.full(len(arr), np.nan)
    for start in range(0, len(arr), _EVAL_CHUNK):
        (p1, p2, p3, p4), w, ok = _gauge_clip(arr[start:start + _EVAL_CHUNK], margin)
        rows = np.flatnonzero(ok)
        coords = [Interval(c.lo[rows], c.hi[rows]) for c in (p1, p2, p3, p4, w)]
        lemma = residual_enclosure(FrameBox(*coords, margin), "lemma")
        # at least two extra downward ulps: replays recompute the same
        # enclosure but may wobble in the last ulp of the libm calls
        bound = _down(np.asarray(lemma.lo, dtype=float), 2)
        goal = need[start + rows]
        retry = np.flatnonzero((bound < goal) & (bound >= goal - reach))
        if len(retry):
            near = FrameBox(*(Interval(c.lo[retry], c.hi[retry]) for c in coords),
                            margin)
            both = edge_mean_value_enclosure(near).intersect(
                Interval(lemma.lo[retry], lemma.hi[retry]))
            bound[retry] = _down(np.asarray(both.lo, dtype=float), 2)
        feasible[start + rows] = True
        out[start + rows] = bound
    return feasible, out


def _split(arr: np.ndarray) -> np.ndarray:
    """Bisect boxes (shape (n, 5, 2)) along their widest dimension, ties
    broken toward p1.  Returns the (2n, 5, 2) children, each lower child
    right before its upper sibling."""
    rows = np.arange(len(arr))
    dim = np.argmax(arr[:, :, 1] - arr[:, :, 0], axis=1)
    mid = 0.5 * (arr[rows, dim, 0] + arr[rows, dim, 1])
    children = np.repeat(arr, 2, axis=0)
    children[2 * rows, dim, 1] = mid
    children[2 * rows + 1, dim, 0] = mid
    return children


def _levels(tree: str) -> list:
    """Split a level-order tree code into its levels, from code counts alone:
    the root level holds one node and each level holds two nodes per 'S' of
    the level before.

    Returns one uint8 code array per level.  Raises MalformedCertificate on
    an unknown code, a level deeper than `_MAX_DEPTH`, or a code string that
    ends before or after the tree.
    """
    codes = np.frombuffer(tree.encode(), dtype=np.uint8)
    if not np.all((codes == _SPLIT) | (codes == _LEAF) | (codes == _EMPTY)):
        raise MalformedCertificate("tree holds a code other than 'S', 'L' and '.'")
    levels = []
    pos, size = 0, 1
    while size:
        if len(levels) > _MAX_DEPTH:
            raise MalformedCertificate(f"tree is deeper than {_MAX_DEPTH} levels")
        if pos + size > len(codes):
            raise MalformedCertificate("tree code ends inside a level")
        levels.append(codes[pos:pos + size])
        pos += size
        size = 2 * int(np.count_nonzero(levels[-1] == _SPLIT))
    if pos != len(codes):
        raise MalformedCertificate("tree code continues past its last level")
    return levels


def _decode(tree: str, margin: float) -> tuple:
    """Regenerate the boxes of a level-order tree code from the root.

    Returns (leaf boxes, infeasible-node boxes), both (n, 5, 2) in level
    order.  Raises MalformedCertificate where `_levels` does.
    """
    level = _root_level(margin)
    leaves, empties = [], []
    for node in _levels(tree):
        leaves.append(level[node == _LEAF])
        empties.append(level[node == _EMPTY])
        level = _split(level[node == _SPLIT])
    return np.concatenate(leaves), np.concatenate(empties)


def certify(margin: float, target: float = 0.0,
            max_boxes: int = 1_000_000) -> Certificate:
    """Certify residual >= target over the margin-truncated domain.

    Returns a complete certificate when every leaf bound clears the target
    within the box budget and the depth limit, otherwise a partial
    certificate flagged incomplete whose c_star is the best bound
    established so far.
    """
    if not (0.0 < margin <= 0.2):
        raise ValueError("margin must lie in (0, 0.2]")
    if not (0.0 <= target < math.inf):
        raise ValueError("target must be finite and nonnegative")
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")

    level = _root_level(margin)
    codes, leaf_bounds = [], []
    evaluated = depth = 0
    complete = True
    while len(level):
        feasible, bounds = _evaluate(level, margin, target, _REACH)
        evaluated += int(np.count_nonzero(feasible))
        split = feasible & ~(bounds >= target)
        pending = np.flatnonzero(split)
        room = (max_boxes - evaluated) // 2 if depth < _MAX_DEPTH else 0
        if len(pending) > room:
            # out of boxes or depth: the rest stay leaves of a partial result
            split[pending[room:]] = False
            complete = False
        code = np.full(len(level), _EMPTY, dtype=np.uint8)
        code[feasible] = _LEAF
        code[split] = _SPLIT
        codes.append(code.tobytes())
        leaf_bounds.append(bounds[feasible & ~split])
        level = _split(level[split])
        depth += 1

    bounds = np.concatenate(leaf_bounds).tolist()
    return Certificate(
        version=__version__, margin=margin, gauge=GAUGE, target=target,
        complete=complete, c_star=min(bounds), box_count=evaluated,
        split_rule=SPLIT_RULE, symmetry=SYMMETRY,
        tree=b"".join(codes).decode("ascii"), bounds=bounds,
    )


def verify_certificate(cert) -> bool:
    """Replay a certificate: regenerate every box from its tree, check each
    node's code against the box's feasibility, and recompute the box count,
    each leaf's residual lower bound (trig-first, by `_evaluate`; a leaf
    whose enclosure cannot be formed rejects), the global bound and the
    completeness flag.  Accepts a Certificate or its JSON dict; returns True
    iff all claims hold.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_dict(cert)
    if not isinstance(cert, Certificate):
        raise MalformedCertificate(f"cannot verify {type(cert)!r}")
    if not (0.0 < cert.margin <= 0.2) or cert.gauge != GAUGE or not cert.bounds:
        raise MalformedCertificate("bad margin, gauge, or empty leaf set")

    leaves, empties = _decode(cert.tree, cert.margin)
    recorded = np.array(cert.bounds, dtype=float)
    if len(leaves) != len(recorded) \
            or cert.box_count != len(cert.tree) - cert.tree.count("."):
        return False
    # each code must match its box: '.' misses the gauge plane or the cut,
    # 'L' meets both
    if np.any(_gauge_clip(empties, cert.margin)[2]):
        return False
    try:
        feasible, recomputed = _evaluate(leaves, cert.margin, recorded)
    except IntervalError:  # an enclosure that cannot be formed proves nothing
        return False
    # comparisons are written so that a NaN on either side rejects
    if not np.all(feasible) or np.any(~(recomputed >= recorded)):
        return False
    if float(np.min(recorded)) != cert.c_star:
        return False
    if cert.complete and np.any(~(recorded >= cert.target)):
        return False
    return True
