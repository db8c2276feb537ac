"""Convex quadrilateral construction, diagonal-frame parameterization, and
scalar metrics (lengths, triangle areas, diagonal-split angles).

Conventions for a counterclockwise convex quadrilateral z1 z2 z3 z4:

    sides     c = |z1 z2|,  a = |z2 z3|,  f = |z3 z4|,  d = |z4 z1|
    diagonals b = |z1 z3|,  e = |z2 z4|

Each interior angle is split in two by the diagonal through its vertex:

    at z1: alpha1 between c and b,   beta1 between b and d
    at z2: alpha2 between a and e,   beta2 between e and c
    at z3: alpha3 between b and f,   beta3 between a and b
    at z4: alpha4 between d and e,   beta4 between e and f

so that the triangle areas satisfy A123 = b c sin(alpha1) / 2,
A124 = c e sin(beta2) / 2, A134 = b f sin(alpha3) / 2 and
A234 = e f sin(beta4) / 2.  gamma_i = alpha_i + beta_i is the full interior
angle.  W and W' are the supplementary angles at the diagonal crossing and
X, Y the signed half-differences of the split-angle sums:

    W  = ((alpha2 + beta1) + (alpha4 + beta3)) / 2
    W' = ((alpha1 + beta4) + (alpha3 + beta2)) / 2
    X  = ((alpha2 + beta1) - (alpha4 + beta3)) / 2
    Y  = ((alpha1 + beta4) - (alpha3 + beta2)) / 2

X and Y are defined through these linear combinations (not through the
meeting point of extended opposite sides) so that configurations with
parallel opposite sides are represented by X = 0 or Y = 0; on generic
samples they agree with the extended-side construction, which the test
suite checks via 2 (A134 - A124) = a d sin X and 2 (A123 - A124) = c f sin Y.

All metric functions accept either scalar floats or numpy arrays and are
pure; batch evaluation over n configurations passes arrays through the same
code path.  Lengths and areas are computed when a QuadMetrics is built; the
sixteen ANGLE_FIELDS (split angles, gamma_i, X, Y, W, W') are computed
together, from the stored vertex coordinates, the first time one of them is
read, so a caller that reads only lengths and areas never pays for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ioutil import finite_number

# A vertex triple counts as collinear when its signed area is at most this
# fraction of the squared configuration diameter (scale-free rejection).
COLLINEARITY_TOL = 1e-12

# the sampling strategies of `sample` and of the audit
STRATEGIES = ("frame-uniform", "point-rejection")


class GeometryError(ValueError):
    """Invalid quadrilateral input."""


class DuplicatePoints(GeometryError):
    """Two of the four input points coincide."""


class NonConvex(GeometryError):
    """The four points do not form a strictly convex quadrilateral."""


class InvalidFrame(GeometryError):
    """Diagonal-frame parameters outside their domain."""


class RejectionBudgetExceeded(GeometryError):
    """Rejection sampling did not produce a convex quadrilateral in time."""


Point = tuple[float, float]


@dataclass(frozen=True)
class Quadrilateral:
    """Four planar vertices in counterclockwise strictly convex order."""

    z1: Point
    z2: Point
    z3: Point
    z4: Point

    @property
    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return (self.z1, self.z2, self.z3, self.z4)

    def scaled(self, s: float) -> "Quadrilateral":
        """Similarity image with all coordinates multiplied by s > 0."""
        if not (s > 0):
            raise GeometryError("scale factor must be positive")
        pts = tuple((s * x, s * y) for x, y in self.vertices)
        return Quadrilateral(*pts)

    def relabeled(self) -> "Quadrilateral":
        """Cyclic relabeling z1 z2 z3 z4 -> z2 z3 z4 z1."""
        return Quadrilateral(self.z2, self.z3, self.z4, self.z1)

    def to_json_dict(self) -> dict:
        return {"points": [[x, y] for x, y in self.vertices]}


@dataclass(frozen=True)
class DiagonalFrame:
    """Scale-normalized parameterization of a convex quadrilateral.

    p1..p4 are the distances from the diagonal intersection point to
    z1..z4; w is the angle from the ray toward z1 to the ray toward z2,
    in (0, pi).  With the gauge p1+p2+p3+p4 = 1 this is a 4-DOF chart of
    the configuration space up to similarity.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    w: float
    normalized: bool = False

    def __post_init__(self):
        vals = (self.p1, self.p2, self.p3, self.p4, self.w)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidFrame("frame parameters must be finite")
        if not all(p > 0.0 for p in vals[:4]):
            raise InvalidFrame("diagonal segment lengths must be positive")
        if not (0.0 < self.w < math.pi):
            raise InvalidFrame("diagonal angle must lie in (0, pi)")
        if self.normalized and abs(sum(vals[:4]) - 1.0) > 1e-12:
            raise InvalidFrame("normalized frame must have p1+p2+p3+p4 = 1")

    @property
    def p(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)

    def normalize(self) -> "DiagonalFrame":
        """Rescale to the gauge p1+p2+p3+p4 = 1."""
        s = self.p1 + self.p2 + self.p3 + self.p4
        return DiagonalFrame(self.p1 / s, self.p2 / s, self.p3 / s, self.p4 / s,
                             self.w, normalized=True)

    def to_json_dict(self) -> dict:
        return {"frame": {"p": list(self.p), "w": self.w}}


# The sixteen angle fields of QuadMetrics, in report order.
ANGLE_FIELDS = ("alpha1", "alpha2", "alpha3", "alpha4",
                "beta1", "beta2", "beta3", "beta4",
                "gamma1", "gamma2", "gamma3", "gamma4", "X", "Y", "W", "Wp")


@dataclass(frozen=True)
class QuadMetrics:
    """Every scalar quantity of one configuration used by the inequality.

    Fields are floats for a single quadrilateral or same-shape numpy arrays
    for a batch.  The sixteen ANGLE_FIELDS are not constructor fields: they
    are computed together, the first time one of them is read, from the
    vertex coordinates (x1, y1, ..., x4, y4) in _coords, and stored on the
    instance, where later reads find them directly.
    """

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    A123: object
    A124: object
    A134: object
    A234: object
    _coords: tuple

    def __getattr__(self, name):
        # reached only for a name the instance does not hold yet
        if name not in ANGLE_FIELDS:
            raise AttributeError(f"QuadMetrics has no attribute {name!r}")
        # The coordinates are released once the angles exist: held through
        # the rest of an audit block, a batch's coordinate arrays made its
        # temporaries land on fresh pages, and a 1M-sample audit took six
        # times the page faults.
        self.__dict__.update(zip(ANGLE_FIELDS, _angles_from_coords(*self._coords)),
                             _coords=None)
        return self.__dict__[name]


def _angle(px, py, ax, ay, bx, by):
    # angle at (px,py) from ray toward (ax,ay) to ray toward (bx,by);
    # positive (cross > 0) whenever the second ray is counterclockwise of
    # the first, which holds for every pair used below on ccw input.
    ux = ax - px
    uy = ay - py
    vx = bx - px
    vy = by - py
    return np.arctan2(ux * vy - uy * vx, ux * vx + uy * vy)


def _angles_from_coords(x1, y1, x2, y2, x3, y3, x4, y4) -> tuple:
    """The sixteen angle fields of QuadMetrics, in ANGLE_FIELDS order."""
    alpha1 = _angle(x1, y1, x2, y2, x3, y3)
    beta1 = _angle(x1, y1, x3, y3, x4, y4)
    alpha2 = _angle(x2, y2, x3, y3, x4, y4)
    beta2 = _angle(x2, y2, x4, y4, x1, y1)
    alpha3 = _angle(x3, y3, x4, y4, x1, y1)
    beta3 = _angle(x3, y3, x1, y1, x2, y2)
    alpha4 = _angle(x4, y4, x1, y1, x2, y2)
    beta4 = _angle(x4, y4, x2, y2, x3, y3)
    return (alpha1, alpha2, alpha3, alpha4, beta1, beta2, beta3, beta4,
            alpha1 + beta1, alpha2 + beta2, alpha3 + beta3, alpha4 + beta4,
            0.5 * ((alpha2 + beta1) - (alpha4 + beta3)),
            0.5 * ((alpha1 + beta4) - (alpha3 + beta2)),
            0.5 * ((alpha2 + beta1) + (alpha4 + beta3)),
            0.5 * ((alpha1 + beta4) + (alpha3 + beta2)))


def _metrics_from_coords(x1, y1, x2, y2, x3, y3, x4, y4) -> QuadMetrics:
    ax, ay = x3 - x2, y3 - y2
    bx, by = x3 - x1, y3 - y1
    cx, cy = x2 - x1, y2 - y1
    dx, dy = x1 - x4, y1 - y4
    ex, ey = x4 - x2, y4 - y2
    fx, fy = x4 - x3, y4 - y3
    # each area is half the cross product of two edges out of its first
    # vertex; x4 - x1 is -dx, and (-u) - (-v) rounds exactly as v - u
    return QuadMetrics(
        a=np.hypot(ax, ay), b=np.hypot(bx, by), c=np.hypot(cx, cy),
        d=np.hypot(dx, dy), e=np.hypot(ex, ey), f=np.hypot(fx, fy),
        A123=0.5 * (cx * by - cy * bx),
        A124=0.5 * (cy * dx - cx * dy),
        A134=0.5 * (by * dx - bx * dy),
        A234=0.5 * (ax * ey - ay * ex),
        _coords=(x1, y1, x2, y2, x3, y3, x4, y4),
    )


def quad_from_points(z1, z2, z3, z4) -> Quadrilateral:
    """Validate four points as a strictly convex quadrilateral.

    Clockwise input is silently re-oriented (z2 and z4 swapped); the
    inequality is reflection invariant so user intent is unambiguous.
    Raises GeometryError unless each point is two finite numbers and the
    squared diameter is finite, and DuplicatePoints or NonConvex otherwise.
    """
    pts = []
    for z in (z1, z2, z3, z4):
        try:
            x, y = z
            pts.append((finite_number(x), finite_number(y)))
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"vertex {z!r} is not a pair of numbers: {exc}") from exc

    dist2 = [(px - qx) * (px - qx) + (py - qy) * (py - qy)
             for i, (px, py) in enumerate(pts) for qx, qy in pts[i + 1:]]
    diam2, min2 = max(dist2), min(dist2)
    if not math.isfinite(diam2):
        raise GeometryError("vertices too far apart: the squared diameter overflows")
    if min2 <= COLLINEARITY_TOL * diam2:
        raise DuplicatePoints("two vertices coincide")

    signed_area = 0.0
    for i in range(4):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % 4]
        signed_area += px * qy - qx * py
    if signed_area < 0.0:
        pts = [pts[0], pts[3], pts[2], pts[1]]

    for i in range(4):
        ox, oy = pts[i]
        px, py = pts[(i + 1) % 4]
        qx, qy = pts[(i + 2) % 4]
        cross = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
        if cross <= COLLINEARITY_TOL * diam2:
            raise NonConvex("vertices do not make a strictly convex ccw cycle")

    return Quadrilateral(*pts)


def quad_from_frame(frame: DiagonalFrame) -> Quadrilateral:
    """Place the frame's quadrilateral with diagonal crossing at the origin:

        z1 = (p1, 0)            z2 = p2 (cos w, sin w)
        z3 = (-p3, 0)           z4 = -p4 (cos w, sin w)
    """
    cw = math.cos(frame.w)
    sw = math.sin(frame.w)
    pts = ((frame.p1, 0.0), (frame.p2 * cw, frame.p2 * sw),
           (-frame.p3, 0.0), (-frame.p4 * cw, -frame.p4 * sw))
    try:
        return quad_from_points(*pts)
    except GeometryError as exc:
        # valid parameters always give a convex quadrilateral; only extreme
        # aspect ratios that collapse below the collinearity tolerance land here
        raise InvalidFrame(f"frame is numerically degenerate: {exc}") from exc


def metrics(q: Quadrilateral) -> QuadMetrics:
    """All lengths, triangle areas and split angles of one quadrilateral."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = q.vertices
    return _metrics_from_coords(x1, y1, x2, y2, x3, y3, x4, y4)


def frame_of(q: Quadrilateral) -> DiagonalFrame:
    """Diagonal-frame coordinates of a quadrilateral (pre-normalization).

    quad_from_frame(frame_of(q)) reproduces q up to a rigid motion.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = q.vertices
    d1x, d1y = x3 - x1, y3 - y1
    d2x, d2y = x4 - x2, y4 - y2
    denom = d1x * d2y - d1y * d2x
    if denom == 0.0:
        raise NonConvex("diagonals are parallel")
    t = ((x2 - x1) * d2y - (y2 - y1) * d2x) / denom
    px, py = x1 + t * d1x, y1 + t * d1y
    p1 = math.hypot(x1 - px, y1 - py)
    p2 = math.hypot(x2 - px, y2 - py)
    p3 = math.hypot(x3 - px, y3 - py)
    p4 = math.hypot(x4 - px, y4 - py)
    w = float(_angle(px, py, x1, y1, x2, y2))
    return DiagonalFrame(p1, p2, p3, p4, w)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def check_margin(margin: float) -> float:
    margin = float(margin)
    if not (0.0 <= margin <= 0.2):
        raise GeometryError("margin must lie in [0, 0.2]")
    return margin


def sample_frames(seed, n: int, margin: float = 0.05):
    """Draw n normalized diagonal frames, uniform on the margin-truncated
    simplex times the truncated angle range.  Returns (p, w) arrays of
    shape (n, 4) and (n,).  Deterministic per (seed, n, margin); seed is
    anything numpy's default_rng accepts.  p is scaled and shifted in place,
    which rounds as margin + (1 - 4 margin) * simplex does but allocates no
    second (n, 4) array.
    """
    margin = check_margin(margin)
    rng = np.random.default_rng(seed)
    p = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=n)
    p *= 1.0 - 4.0 * margin
    p += margin
    w = rng.uniform(margin * math.pi, (1.0 - margin) * math.pi, size=n)
    return p, w


def frame_vertices(p, w):
    """Vertex coordinates (x1, y1, ..., x4, y4) for frame arrays."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    cw = np.cos(w)
    sw = np.sin(w)
    zero = np.zeros_like(w)
    return (p[..., 0], zero, p[..., 1] * cw, p[..., 1] * sw,
            -p[..., 2], zero, -p[..., 3] * cw, -p[..., 3] * sw)


def metrics_from_frames(p, w) -> QuadMetrics:
    """Batch QuadMetrics straight from frame arrays (shape (n, 4) and (n,))."""
    return _metrics_from_coords(*frame_vertices(p, w))


def _sample_point_rejection(rng: np.random.Generator, max_tries: int) -> Quadrilateral:
    for _ in range(max_tries):
        pts = rng.uniform(0.0, 1.0, size=(4, 2))
        cx, cy = pts[:, 0].mean(), pts[:, 1].mean()
        order = np.argsort(np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx), kind="stable")
        ordered = pts[order]
        start = int(np.lexsort((ordered[:, 0], ordered[:, 1]))[0])
        ordered = np.roll(ordered, -start, axis=0)
        try:
            return quad_from_points(*map(tuple, ordered))
        except GeometryError:
            continue
    raise RejectionBudgetExceeded(f"no convex sample in {max_tries} draws")


def sample(seed, strategy: str = "frame-uniform", margin: float = 0.05,
           max_tries: int = 10_000) -> Quadrilateral:
    """One seeded random convex quadrilateral.

    frame-uniform draws a normalized diagonal frame with every p_i >= margin
    and w in [margin*pi, (1-margin)*pi]; point-rejection draws four uniform
    points in the unit square, relabels them counterclockwise and retries
    until convex (margin is not used there).
    """
    margin = check_margin(margin)
    if strategy not in STRATEGIES:
        raise GeometryError(f"unknown strategy {strategy!r}")
    if strategy == "point-rejection":
        return _sample_point_rejection(np.random.default_rng(seed), max_tries)
    p, w = sample_frames(seed, 1, margin)
    return quad_from_frame(DiagonalFrame(*p[0], float(w[0]), normalized=True))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def quad_from_json(key: str, value) -> Quadrilateral:
    """The quadrilateral of a JSON configuration: for key "points", a list of
    four [x, y] pairs; for key "frame", an object {"p": [four lengths],
    "w": w}.  Raises GeometryError on anything else."""
    if key == "points":
        if not (isinstance(value, list) and len(value) == 4):
            raise GeometryError('"points" must list exactly four [x, y] pairs')
        return quad_from_points(*value)
    try:
        p = [finite_number(v) for v in value["p"]]
        w = finite_number(value["w"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError('"frame" must carry four finite "p" and a finite "w"') from exc
    if len(p) != 4:
        raise GeometryError('"frame.p" must list exactly four lengths')
    return quad_from_frame(DiagonalFrame(p[0], p[1], p[2], p[3], w))
