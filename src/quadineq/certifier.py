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
ever split.  Each node's box is clipped once, in one pass (`_clipped`):
p4.hi is lowered to p2.hi and p2.lo raised to p4.lo, and each of p2, p3, p4
is raised to margin times `_sum_floor`, the least S over the box's points
in the margin (rounded down).  The raise keeps those points, so in exact
arithmetic S, and the clip, cannot move again; a test checks the rounding.
Every point of the box in the cut and the margin survives the clip, so a
leaf's bound, which encloses the residual over the clipped box, covers box
∩ domain ∩ cut, and a clipped box clips to itself.  A box whose clipped
interval is empty holds no such point and is coded '.'.  The one clipped
box is bounded, split and checked against its code, so a split node's
halves cover every point of its box in the domain.

The search runs level by level from the whole domain: each box whose
certified residual lower bound misses the target is bisected along the
widest dimension of its clipped box, ties broken toward p2 (`_split_dims`),
and the halves form the next level.  As a box is split exactly when its
bound misses the target, a completed run builds the same tree in any
visiting order.  When the box budget or `_MAX_DEPTH` stops a run, unsplit
boxes whose bounds miss the target stay leaves, so the claimed bound falls
below the target.

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

The certificate is the tree, one code per node in level order ('1'-'4'
split along the widest, second, third or fourth widest of p2, p3, p4 and w
in the node's clipped box, ties ranked toward p2 (`_split_order`); 'L'
leaf; '.' misses the cut or the margin), one claimed bound, `c_star`, the
margin and the target.  A code names a rank, not a dimension, since the
verifier rebuilds the box that ranks them: every split `certify` makes is
a '1', packed as two zero bits that deflate to almost nothing.
In memory the tree is that code string; the document stores it packed
(`_pack`), as base64 of one zlib stream of the node count and three bit
planes: whether each node splits, whether each node that does not is '.',
and each split's rank less one in 2 bits.  All the entropy of a tree
`certify` writes sits in the first plane, one bit per node, and the
document is 7-14 times smaller than one byte per node from margin 0.12
down.  `from_json_dict` inflates it (`_unpack`) under a cap and refuses
anything but one complete stream whose planes hold exactly the bits its
node count needs, padded with zero bits.  The verifier does not trust the
unpacking: whatever tree it returns is replayed as any other tree would
be, so a faulty reader can make a document fail, never a false one pass.
`HEADER`, the version, names the chart, the domain, the cut, the codes and
the packing; `from_json_dict` rejects a document that omits or changes it
or that carries another field.  The box count (the nodes not coded '.')
and completeness (`c_star` reaches the target, exact for every run
`certify` makes) are derived.  `verify_certificate` regenerates every box
from the root in one pass (`_decode`): each level is clipped once, each
code checked against its clipped box, each level's split boxes ranked by
width and each split node's box bisected along the dimension its code
ranks, so a decoded tree covers the domain whatever ranks its codes name,
and the verifier holds no split rule.  It recomputes each leaf's own bound
and accepts iff every one is finite and at least `c_star`, the one claim,
which `certify` makes two ulps below the least leaf bound it found, so a
replay whose libm calls land lower still verifies.

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

import base64
import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .interval import (ONE, FrameBox, Interval, IntervalError, _down, _up,
                       edge_mean_value_enclosure, isqr, residual_enclosure)
from .ioutil import finite_number

# what a document must carry verbatim to be read as this format
HEADER = {"version": __version__}
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
# node codes: '1'-'4' split along the dimension of that width rank in the
# node's clipped box (`_split_order`); 'L' leaf; '.' empty
_DIGIT0, _LEAF, _EMPTY = b"0L."
# zlib's default level, fixed so that the document does not follow the
# library's default
_DEFLATE_LEVEL = 6
# the most bytes a packed tree may inflate to, per packed byte: the trees
# `certify` writes inflate 1.2-6 times, and deflate reaches about 1000, so
# the cap stops a bomb before it allocates the planes it claims
_INFLATE_CAP = 256
# the inflated stream opens with the node count, big-endian
_COUNT_BYTES = 4
# each byte of a plane as the codes its bits name, one row per byte value:
# plane B's 8 flags ('.' or 'L') and plane C's 4 ranks ('1'-'4')
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_EMPTY_CODES = np.where(_BYTE_BITS == 1, _EMPTY, _LEAF).astype(np.uint8)
_RANK_CODES = (_DIGIT0 + 1 + 2 * _BYTE_BITS[:, 0::2] + _BYTE_BITS[:, 1::2]).astype(np.uint8)


class MalformedCertificate(ValueError):
    """Certificate document is structurally invalid."""


@dataclass(frozen=True)
class Leaf:
    """One tile ((p1lo, p1hi), ..., (wlo, whi)) of the chart, the clipped
    box of a leaf of the tree, with the residual lower bound the replay
    computes on it."""

    box: tuple
    lower_bound: float


@dataclass
class Certificate:
    """Machine-checkable record of one branch-and-bound run; its document
    adds `HEADER` and stores `tree`, the level-order code string, packed.
    `c_star` is the one claim: every leaf's bound reaches it.  The box
    count and completeness are derived from the tree and the claim."""

    margin: float
    target: float
    c_star: float
    tree: str

    @property
    def box_count(self) -> int:
        """The nodes `certify` bounded: every node not coded '.'."""
        return len(self.tree) - self.tree.count(".")

    @property
    def complete(self) -> bool:
        """Whether the claim reaches the target: False exactly when the box
        budget or the depth limit left a box that misses it a leaf."""
        return self.c_star >= self.target

    @property
    def leaves(self) -> list:
        """Each leaf's clipped box, paired with the bound the replay
        recomputes on it.  Decoded and bounded anew on every access; the
        verifier reads `tree` and `c_star`."""
        boxes = _decode(self.tree, self.margin)[0]
        bounds = _evaluate(boxes, self.margin, self.c_star)
        return [Leaf(tuple(map(tuple, box)), lb)
                for box, lb in zip(boxes.tolist(), bounds.tolist())]

    def to_json_dict(self) -> dict:
        doc = dict(HEADER)
        doc.update((field.name, getattr(self, field.name)) for field in fields(self))
        doc["tree"] = _pack(self.tree)
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise MalformedCertificate("certificate must be a JSON object")
        for key, expected in HEADER.items():
            if key not in doc:
                raise MalformedCertificate(f"certificate has no {key}")
            if doc[key] != expected:
                raise MalformedCertificate(
                    f"certificate {key} {doc[key]!r} is not {expected!r}, "
                    f"the {key} this verifier reads")
        # e.g. the split rule or symmetry that format 0.3.0 named, the
        # per-leaf bounds that formats before 0.7.0 recorded, or the gauge,
        # box count and completeness flag that format 0.7.0 stored
        unknown = sorted(set(doc) - _DOC_FIELDS)
        if unknown:
            raise MalformedCertificate(
                f"certificate field {unknown[0]!r} is not one of format {__version__}")
        try:
            tree = doc["tree"]
            if type(tree) is not str:
                raise TypeError(f"tree must be of type str, not {tree!r}")
            tree = _unpack(tree)
            _levels(tree)  # an unparsable tree is malformed, not false
            return Certificate(
                margin=finite_number(doc["margin"]),
                target=finite_number(doc["target"]),
                c_star=finite_number(doc["c_star"]),
                tree=tree,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCertificate(f"bad certificate structure: {exc}") from exc


# the fields of a document: the header and the Certificate's own
_DOC_FIELDS = set(HEADER) | {field.name for field in fields(Certificate)}


def _pack(tree: str) -> str:
    """A level-order tree code as the document stores it: base64 of one
    zlib stream of the node count N (`_COUNT_BYTES`, big-endian) and three
    bit planes, most significant bit first and zero-padded to a whole byte:
    A, whether each node splits; B, whether each node that does not split
    is '.'; C, the rank of each split less one, in 2 bits.  Raises
    ValueError on a code other than '1'-'4', 'L' and '.'."""
    codes = np.frombuffer(tree.encode("ascii"), dtype=np.uint8)
    split = _is_split(codes)
    rest = codes[~split]
    if not np.all((rest == _LEAF) | (rest == _EMPTY)):
        raise ValueError("tree holds a code other than '1'-'4', 'L' and '.'")
    ranks = codes[split] - (_DIGIT0 + 1)
    bits = np.concatenate([split, rest == _EMPTY,
                           np.stack([ranks >= 2, ranks % 2 == 1], axis=1).ravel()])
    stream = len(codes).to_bytes(_COUNT_BYTES, "big") + np.packbits(bits).tobytes()
    return base64.b64encode(zlib.compress(stream, _DEFLATE_LEVEL)).decode("ascii")


def _unpack(text: str) -> str:
    """The tree code that `_pack` wrote as `text`, for `_levels` to check.

    Raises MalformedCertificate unless `text` is base64 of one complete zlib
    stream, with nothing after its end, that inflates to at most
    `_INFLATE_CAP` bytes per packed byte, and whose planes hold exactly the
    bits its node count N needs, N + (N - splits) + 2 * splits, followed by
    zero bits up to the byte.  The stream is never inflated past the cap,
    and N is checked against the planes before the codes are allocated.
    """
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise MalformedCertificate(f"tree is not base64: {exc}") from None
    inflater = zlib.decompressobj()
    try:
        stream = inflater.decompress(data, _INFLATE_CAP * len(data))
    except zlib.error as exc:
        raise MalformedCertificate(f"tree is not a zlib stream: {exc}") from None
    if inflater.unconsumed_tail:
        raise MalformedCertificate(
            f"tree inflates past {_INFLATE_CAP} bytes per packed byte")
    if not inflater.eof:
        raise MalformedCertificate("tree ends inside its zlib stream")
    if inflater.unused_data:
        raise MalformedCertificate("tree continues past the end of its zlib stream")
    if len(stream) < _COUNT_BYTES:
        raise MalformedCertificate("tree ends inside its node count")
    nodes = int.from_bytes(stream[:_COUNT_BYTES], "big")
    planes = np.frombuffer(stream, dtype=np.uint8, offset=_COUNT_BYTES)
    # every node takes 2 or 3 bits: one in A, and one in B or two in C
    if 2 * nodes > 8 * len(planes):
        raise MalformedCertificate(f"tree's {nodes} nodes need more bits than its planes hold")
    split = np.unpackbits(planes, count=nodes).view(bool)
    splits = int(np.count_nonzero(split))
    end = 2 * nodes + splits
    if (end + 7) // 8 > len(planes):
        raise MalformedCertificate(f"tree's {nodes} nodes need more bits than its planes hold")
    if (end + 7) // 8 < len(planes):
        raise MalformedCertificate("tree continues past its planes")
    if end % 8 and planes[-1] & (0xFF >> end % 8):
        raise MalformedCertificate("tree's pad bits are not zero")
    codes = bytearray(nodes)
    view = np.frombuffer(codes, dtype=np.uint8)
    view[split] = _plane(planes, 2 * nodes - splits, splits, _RANK_CODES)
    view[np.logical_not(split, out=split)] = _plane(planes, nodes, nodes - splits, _EMPTY_CODES)
    del split  # the mask goes before the string copies the codes
    return codes.decode("ascii")


def _plane(planes: np.ndarray, start: int, count: int, table: np.ndarray) -> np.ndarray:
    """The codes of `count` fields read from bit `start` of `planes`, each
    byte of fields mapped through `table`, one row per byte value.  The
    bytes are realigned by shifts, never unpacked to one byte per bit."""
    first, shift = divmod(start, 8)
    chunk = planes[first:first + (shift + count * 8 // table.shape[1] + 7) // 8]
    if shift:
        chunk = chunk << shift | np.append(chunk[1:], np.uint8(0)) >> (8 - shift)
    return table[chunk].ravel()[:count]


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


def _clipped(arr: np.ndarray, margin: float) -> tuple:
    """Clip boxes (shape (n, 5, 2)) of the chart p1 = 1 to the cut p2 >= p4
    and the margin p_i >= margin * (1 + p2 + p3 + p4) for i = 2, 3, 4.

    Returns (clipped boxes of the same shape, feasibility mask); an
    infeasible box comes back with lo > hi, or a NaN end, in some p.  One
    pass lowers p4.hi to p2.hi and raises p2.lo to p4.lo (exact), then
    raises p2, p3 and p4 to margin times `_sum_floor`, rounded down.  In
    exact arithmetic this is the fixed point: `_sum_floor` is the least T
    over the box's points in the margin, the raise keeps them all, so T
    stays and so does p2.lo >= p4.lo; a test checks the rounded floor, so a
    clipped box clips to itself.  An empty result proves the box misses the
    cut or the margin.  The cut's p_i <= p1 is the root box's p_i <= 1, and
    p1's own margin holds everywhere, since margin * T <= 0.2 * 4 < 1.
    """
    lo, hi = arr[:, :, 0].copy(), arr[:, :, 1].copy()
    hi[:, 3] = np.minimum(hi[:, 3], hi[:, 1])
    lo[:, 1] = np.maximum(lo[:, 1], lo[:, 3])
    floor = _down(margin * _sum_floor(lo[:, 1:4], margin))
    lo[:, 1:4] = np.maximum(lo[:, 1:4], floor[:, None])
    return np.stack([lo, hi], axis=2), np.all(lo <= hi, axis=1)


def _gauge_clip(arr: np.ndarray, margin: float):
    """`_clipped` as (p1..p4 Intervals, w Interval, feasibility mask); kept
    for `perfbench/layers.py`, which imports it."""
    boxes, feasible = _clipped(arr, margin)
    coords = [Interval(boxes[:, i, 0], boxes[:, i, 1]) for i in range(5)]
    return coords[:4], coords[4], feasible


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


def _split_order(boxes: np.ndarray) -> np.ndarray:
    """The dimensions p2, p3, p4 and w (1-4) of each box (shape (n, 5, 2))
    from the widest to the narrowest, tied widths toward the lower
    dimension: shape (n, 4), column k - 1 the dimension split code k names.
    p1 = [1, 1] is never split, so it has no rank."""
    widths = boxes[:, 1:, 1] - boxes[:, 1:, 0]
    return 1 + np.argsort(-widths, axis=1, kind="stable")


def _split_dims(boxes: np.ndarray) -> np.ndarray:
    """The dimension `certify` bisects each box (shape (n, 5, 2)) along: the
    widest, rank 1 of `_split_order`."""
    return _split_order(boxes)[:, 0]


def _coded_dims(boxes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The dimension each split code (uint8, '1'-'4') names on its clipped
    box (shape (n, 5, 2)): the one of that width rank in `_split_order`."""
    return _split_order(boxes)[np.arange(len(boxes)), codes - _DIGIT0 - 1]


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
    return (codes > _DIGIT0) & (codes <= _DIGIT0 + 4)


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
        raise MalformedCertificate("tree holds a code other than '1'-'4', 'L' and '.'")
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
    """Regenerate the boxes of a level-order tree code from the root in one
    pass: each level is clipped once, and each split node's clipped box is
    bisected along the dimension of its code's width rank.

    Returns the clipped leaf boxes, an (n, 5, 2) array in level order, and
    whether every node's code matches its clipped box: a split code or 'L'
    on a box that meets the cut and the margin, '.' on one that misses.
    Raises MalformedCertificate where `_levels` does.
    """
    level = _root_level(margin)
    leaves = []
    consistent = True
    for node in _levels(tree):
        boxes, feasible = _clipped(level, margin)
        consistent = consistent and np.array_equal(feasible, node != _EMPTY)
        leaves.append(boxes[node == _LEAF])
        split = _is_split(node)
        level = _bisect(boxes[split], _coded_dims(boxes[split], node[split]))
    return np.concatenate(leaves), consistent


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
    within the box budget and the depth limit, otherwise a partial one,
    whose unsplit leaves miss the target.  Either way c_star is the least
    leaf bound, nudged two ulps down.
    """
    _check_limits(margin, target, ValueError)
    if max_boxes < 1:
        raise ValueError("max_boxes must be at least 1")

    level = _root_level(margin)
    codes, leaf_bounds = [], []
    evaluated = depth = 0
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
                # out of boxes or depth: the rest stay leaves of a partial
                # result, and their bounds, below the target, bound c_star
                split[pending[room:]] = False
            dims = _split_dims(boxes[split])
            code = np.full(len(rows), _EMPTY, dtype=np.uint8)
            code[feasible] = _LEAF
            code[split] = _DIGIT0 + 1  # the rank of the widest, `dims`
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

    return Certificate(margin=margin, target=target,
                       c_star=float(np.min(np.concatenate(leaf_bounds))),
                       tree=b"".join(codes).decode("ascii"))


def verify_certificate(cert) -> bool:
    """Replay a certificate: regenerate every box from its tree, clip each
    once and check its code, split codes included, against its feasibility,
    and recompute each leaf's own residual lower bound (trig-first, by
    `_evaluate`), which must be finite and at least the claimed c_star (a
    leaf whose enclosure cannot be formed rejects).  Accepts a Certificate
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

    leaves, consistent = _decode(cert.tree, cert.margin)
    if not consistent:
        return False
    try:
        bounds = _evaluate(leaves, cert.margin, cert.c_star)
    except IntervalError:  # an enclosure that cannot be formed proves nothing
        return False
    # a leaf holds iff its own bound is finite and reaches c_star; the
    # comparisons are written so that a NaN rejects
    return bool(np.all(np.isfinite(bounds) & (bounds >= cert.c_star)))
