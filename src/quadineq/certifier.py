"""Branch-and-bound certification of a positive residual lower bound.

The domain is the margin-truncated normalized frame space

    { p_i >= margin, p1+p2+p3+p4 = 1 } x { w in [margin*pi, (1-margin)*pi] }

Boxes live in all five coordinates (p1, p2, p3, p4, w); the gauge plane is
a constraint, not an eliminated coordinate, so every p interval shrinks
independently under splitting.  Before evaluation each box is clipped to
the gauge (p_i intersected with 1 minus the sum of the others); a box whose
interval p-sum cannot reach 1 holds no domain point and is discarded.

Boxes are bisected along their widest dimension (ties broken in the order
p1, p2, p3, p4, w), worst lower bound first, until every leaf's certified
residual enclosure clears the target.  The certificate records every leaf
with its bound and is replayed independently by `verify_certificate`.

Runs are fully deterministic: the queue is ordered by (bound, creation
index), children are numbered in processing order, and recorded bounds are
nudged two ulps down so replays tolerate last-ulp libm wobble without
weakening the bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .interval import FrameBox, Interval, _down, residual_enclosure

GAUGE = "psum1"
SPLIT_RULE = "bisect-widest:p1,p2,p3,p4,w"
_DIMS = ("p1", "p2", "p3", "p4", "w")
_EVAL_CHUNK = 4096
_MAX_DEPTH = 200


class MalformedCertificate(ValueError):
    """Certificate document is structurally invalid."""


# a box is the 5-tuple ((p1lo,p1hi), ..., (p4lo,p4hi), (wlo,whi))
Box = tuple


@dataclass(frozen=True)
class Leaf:
    """One tile of the certified domain with its residual lower bound."""

    box: Box
    lower_bound: float

    def to_json_dict(self) -> dict:
        return {
            "box": {dim: list(pair) for dim, pair in zip(_DIMS, self.box)},
            "lower_bound": self.lower_bound,
        }


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
    leaves: list

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "margin": self.margin,
            "gauge": self.gauge,
            "target": self.target,
            "complete": self.complete,
            "c_star": self.c_star,
            "box_count": self.box_count,
            "split_rule": self.split_rule,
            "leaves": [leaf.to_json_dict() for leaf in self.leaves],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise MalformedCertificate("certificate must be a JSON object")
        try:
            leaves = []
            for entry in doc["leaves"]:
                box_doc = entry["box"]
                box = tuple((float(box_doc[d][0]), float(box_doc[d][1]))
                            for d in _DIMS)
                leaves.append(Leaf(box=box,
                                   lower_bound=_finite(entry["lower_bound"])))
            split_rule = str(doc.get("split_rule", SPLIT_RULE))
            if split_rule != SPLIT_RULE:
                raise ValueError(f"unknown split rule {split_rule!r}")
            return Certificate(
                version=str(doc["version"]),
                margin=_finite(doc["margin"]),
                gauge=str(doc["gauge"]),
                target=_finite(doc["target"]),
                complete=bool(doc["complete"]),
                c_star=_finite(doc["c_star"]),
                box_count=int(doc.get("box_count", len(leaves))),
                split_rule=split_rule,
                leaves=leaves,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedCertificate(f"bad certificate structure: {exc}") from exc


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {value!r}")
    return out


def _root_box(margin: float) -> Box:
    p_range = (margin, 1.0 - 3.0 * margin)
    return (p_range, p_range, p_range, p_range,
            (margin * math.pi, (1.0 - margin) * math.pi))


def _gauge_clip(arr: np.ndarray, margin: float):
    """Clip boxes (shape (n, 5, 2)) to the gauge plane p1+p2+p3+p4 = 1.

    Returns (clipped p Intervals + w Interval, feasibility mask).  The clip
    intersects each p_i with 1 minus the outward-rounded sum of the others,
    so any point of the box on the gauge plane survives; an empty result
    proves the box misses the plane.
    """
    p = [Interval(arr[:, i, 0], arr[:, i, 1]) for i in range(4)]
    w = Interval(arr[:, 4, 0], arr[:, 4, 1])
    one = Interval.point(1.0)
    feasible = np.ones(arr.shape[0], dtype=bool)
    clipped = []
    for i in range(4):
        others = None
        for j in range(4):
            if j != i:
                others = p[j] if others is None else others + p[j]
        allowed = one - others
        lo = np.maximum(p[i].lo, allowed.lo)
        hi = np.minimum(p[i].hi, allowed.hi)
        feasible &= lo <= hi
        clipped.append((lo, hi))
    # empty coordinates only matter for infeasible rows; collapse them so the
    # Interval constructor stays happy
    ivs = [Interval(np.where(feasible, lo, 0.0), np.where(feasible, hi, 0.0))
           for lo, hi in clipped]
    return ivs, w, feasible


def _feasible_mask(boxes: list, margin: float) -> np.ndarray:
    arr = np.array(boxes, dtype=float)
    _, _, feasible = _gauge_clip(arr, margin)
    return feasible


def _feasible(box: Box, margin: float) -> bool:
    return bool(_feasible_mask([box], margin)[0])


def _evaluate(boxes: list, margin: float) -> np.ndarray:
    """Vectorized certified lower bounds for a list of feasible boxes."""
    arr = np.array(boxes, dtype=float)
    (p1, p2, p3, p4), w, feasible = _gauge_clip(arr, margin)
    if not np.all(feasible):
        raise ValueError("evaluate called with an infeasible box")
    fb = FrameBox(p1, p2, p3, p4, w, margin)
    enc = residual_enclosure(fb, "both")
    # two extra downward ulps: replays recompute the same enclosure but may
    # wobble in the last ulp of the libm calls
    return _down(np.asarray(enc.lo, dtype=float), 2)


def _split_dim(box: Box) -> tuple:
    widths = tuple(hi - lo for lo, hi in box)
    dim = max(range(5), key=lambda i: (widths[i], -i))
    lo, hi = box[dim]
    return dim, 0.5 * (lo + hi)


def _split(box: Box) -> tuple:
    dim, mid = _split_dim(box)
    lo, hi = box[dim]
    lower = tuple((lo, mid) if i == dim else box[i] for i in range(5))
    upper = tuple((mid, hi) if i == dim else box[i] for i in range(5))
    return lower, upper


def certify(margin: float, target: float = 0.0,
            max_boxes: int = 1_000_000) -> Certificate:
    """Certify residual >= target over the margin-truncated domain.

    Returns a complete certificate when every leaf bound clears the target
    within the box budget, otherwise a partial certificate flagged
    incomplete whose c_star is the best bound established so far.
    """
    if not (0.0 < margin <= 0.2):
        raise ValueError("margin must lie in (0, 0.2]")
    if not (target >= 0.0):
        raise ValueError("target must be nonnegative")
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")

    root = _root_box(margin)
    lb0 = float(_evaluate([root], margin)[0])
    evaluated = 1
    next_id = 1

    leaves: list[Leaf] = []
    heap: list = []
    if lb0 >= target:
        leaves.append(Leaf(root, lb0))
    else:
        heapq.heappush(heap, (lb0, 0, root))

    complete = True
    while heap:
        room = (max_boxes - evaluated) // 2
        n_pop = min(_EVAL_CHUNK, len(heap), room)
        if n_pop == 0:
            complete = False
            break
        popped = [heapq.heappop(heap) for _ in range(n_pop)]
        candidates = []
        for _, _, box in popped:
            candidates.extend(_split(box))
        mask = _feasible_mask(candidates, margin)
        children = [child for child, ok in zip(candidates, mask) if ok]
        if children:
            lbs = _evaluate(children, margin)
            evaluated += len(children)
            for i, child in enumerate(children):
                lb = float(lbs[i])
                if lb >= target:
                    leaves.append(Leaf(child, lb))
                else:
                    heapq.heappush(heap, (lb, next_id, child))
                next_id += 1

    # budget exhausted: unfinished boxes become leaves of the partial result
    for lb, _, box in heap:
        leaves.append(Leaf(box, float(lb)))

    leaves.sort(key=lambda leaf: leaf.box)
    c_star = min(leaf.lower_bound for leaf in leaves)
    return Certificate(
        version=__version__, margin=margin, gauge=GAUGE, target=target,
        complete=complete, c_star=c_star, box_count=evaluated,
        split_rule=SPLIT_RULE, leaves=leaves,
    )


def _check_coverage(cert: Certificate) -> bool:
    """Leaves must tile the feasible part of the root box: recursive descent
    along the deterministic split rule, allowing uncovered regions only when
    they provably miss the gauge simplex."""
    margin = cert.margin
    root = _root_box(margin)
    seen = set()
    for leaf in cert.leaves:
        if leaf.box in seen:
            return False  # duplicate tile
        seen.add(leaf.box)
        for (lo, hi), (rlo, rhi) in zip(leaf.box, root):
            if lo < rlo or hi > rhi:
                return False  # tile leaks outside the domain

    stack = [(root, list(range(len(cert.leaves))), 0)]
    while stack:
        region, idxs, depth = stack.pop()
        if depth > _MAX_DEPTH:
            return False
        if not idxs:
            if _feasible(region, margin):
                return False  # feasible gap
            continue
        if len(idxs) == 1 and cert.leaves[idxs[0]].box == region:
            continue
        dim, mid = _split_dim(region)
        lo, hi = region[dim]
        if not (lo < mid < hi):
            return False  # width underflow: cannot be a bisection tree
        lower, upper = _split(region)
        low_side, high_side = [], []
        for i in idxs:
            leaf_lo, leaf_hi = cert.leaves[i].box[dim]
            if leaf_hi <= mid:
                low_side.append(i)
            elif leaf_lo >= mid:
                high_side.append(i)
            else:
                return False  # tile straddles the cut
        stack.append((lower, low_side, depth + 1))
        stack.append((upper, high_side, depth + 1))
    return True


def verify_certificate(cert) -> bool:
    """Recompute every claim of a certificate: tiling of the domain, each
    leaf's residual lower bound, the global bound, and the completeness flag.
    Accepts a Certificate or its JSON dict; returns True iff all claims hold.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_dict(cert)
    if not isinstance(cert, Certificate):
        raise MalformedCertificate(f"cannot verify {type(cert)!r}")
    if not (0.0 < cert.margin <= 0.2) or cert.gauge != GAUGE or not cert.leaves:
        raise MalformedCertificate("bad margin, gauge, or empty leaf set")
    for leaf in cert.leaves:
        if len(leaf.box) != 5 or any(not (lo < hi) for lo, hi in leaf.box) \
                or any(not math.isfinite(v) for pair in leaf.box for v in pair):
            raise MalformedCertificate("degenerate or non-finite leaf box")

    feasible = _feasible_mask([leaf.box for leaf in cert.leaves], cert.margin)
    if not np.all(feasible):
        return False  # a recorded tile misses the domain entirely

    if not _check_coverage(cert):
        return False

    recomputed = _evaluate([leaf.box for leaf in cert.leaves], cert.margin)
    recorded = np.array([leaf.lower_bound for leaf in cert.leaves])
    # comparisons are written so that a NaN on either side rejects
    if np.any(~(recomputed >= recorded)):
        return False
    if float(np.min(recorded)) != cert.c_star:
        return False
    if cert.complete and np.any(~(recorded >= cert.target)):
        return False
    return True
