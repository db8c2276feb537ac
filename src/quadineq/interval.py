"""Outward-rounded interval arithmetic and certified residual enclosures.

Every operation returns an interval guaranteed to contain the true image of
its operand intervals.  Outward rounding is realized by nudging endpoints
instead of switching the FPU rounding mode, so evaluation is pure,
thread-safe and bit-deterministic:

  * sums, differences, products, quotients and sqrt are rounded to
    nearest, so within half an ulp of the exact result, and each is
    widened by one step, exact results included;
  * sin, cos and atan2 are widened by four ulps to cover libm error.

The nudge is the branch-free successor bound of Rump, Zimmermann, Boldo and
Melquiond, "Computing predecessor and successor in rounding to nearest"
(BIT 2009): x + (|x| phi + eta) with phi = 2**-53 (1 + 2**-52) and
eta = 2**-1074 is at least the successor of a finite x, and x - (...) at
most its predecessor.  One step therefore moves at least one ulp outward,
so k steps move at least k ulps; for |x| > 2**-1020 a step is exactly one
ulp (nextafter), and inside [2**-1022, 2**-1020] it may be two.  An
infinite endpoint stepped toward the finite range becomes NaN, which every
bound check rejects.

The rounding-primitive tests, the containment fuzz and the mpmath oracle
tests are the contract for these widths, not the mechanism itself.

Endpoints may be scalars or same-shape numpy arrays; a batch of boxes is
just an Interval with array endpoints.  The branch-and-bound certifier
calls two enclosures of the residual: `residual_enclosure(box, "lemma")`,
kernel.lemma_form over intervals, on every box, and
`edge_mean_value_enclosure(box)`, the mean-value form of kernel.edge_form,
on the boxes whose lemma bound falls short, intersected with their lemma
enclosure (path "both").  Both texts are the kernel's own, which the audit
also runs on floats and the sympy tests on symbols.  The mean-value form is
centred, per coordinate, at the point of the box that maximizes its lower
bound (Baumann's lower-optimal centre); any point of the box is a sound
centre, because the segment from it to any other point stays in the box.

The partials come from forward mode (`DiffInterval`) that stores only the
partials a quantity can have: a side length depends on two or three of the
five coordinates and an area on four, so most of the gradient's work
before the edge terms runs on two to four rows, not five.  A partial that
only one operand of a sum has is still rounded once, so every partial is
bit for bit what a dense five-row gradient gives.  A coordinate that is one
point in every row of a batch, as the certifier's p1 = 1 is, is a constant
with no partial: its mean-value term would multiply x - c = 0.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .kernel import abcdef, edge_form, lemma_form

_TRANS_ULPS = 4  # outward ulps after sin/cos/atan2

# Tiny negative lower bounds from roundoff are clamped to zero before sqrt;
# anything below this is a genuine domain error.
_SQRT_CLAMP = -1e-14

# Conservative slop (in periods) when testing whether a box reaches a
# sin/cos extremum; including an extremum needlessly only widens the result.
_EXTREMUM_SLOP = 1e-9


class IntervalError(ArithmeticError):
    """Invalid interval operation."""


class DivisionByZeroInterval(IntervalError):
    """Divisor interval contains zero."""


class NegativeSqrtDomain(IntervalError):
    """sqrt of an interval extending below the roundoff clamp."""


class IndeterminateRegion(IntervalError):
    """Box produced a degenerate geometric quantity (length touching 0)."""


_PHI = 2.0**-53 * (1.0 + 2.0**-52)  # the successor bound's relative step
_ETA = 2.0**-1074  # smallest subnormal: the step at and near zero


def _step(x):
    # |x| phi + eta, formed in one array; x itself is never written
    step = np.abs(x)
    step *= _PHI
    step += _ETA
    return step


def _down(x, ulps: int = 1):
    for _ in range(ulps):
        step = _step(x)
        x = np.subtract(x, step, out=step) if isinstance(step, np.ndarray) else x - step
    return x


def _up(x, ulps: int = 1):
    for _ in range(ulps):
        step = _step(x)
        x = np.add(x, step, out=step) if isinstance(step, np.ndarray) else x + step
    return x


@dataclass(frozen=True, eq=False)
class Interval:
    """Closed interval [lo, hi]; endpoints are floats or numpy arrays."""

    lo: object
    hi: object

    # -- constructors -----------------------------------------------------

    @staticmethod
    def point(x) -> "Interval":
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        return Interval(x, x)

    # -- queries ----------------------------------------------------------

    @property
    def width(self):
        return self.hi - self.lo

    def subset_of(self, other: "Interval"):
        return (other.lo <= self.lo) & (self.hi <= other.hi)

    def intersect(self, other: "Interval") -> "Interval":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            raise IntervalError("empty intersection")
        return Interval(lo, hi)

    def clamp(self, lo: float, hi: float) -> "Interval":
        """Intersect with a mathematically proven range [lo, hi]."""
        return Interval(np.clip(self.lo, lo, hi), np.clip(self.hi, lo, hi))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def _corner_hull(self, op, other: "Interval") -> "Interval":
        # outward-rounded hull of op over the four corners of self x other
        a, b = op(self.lo, other.lo), op(self.lo, other.hi)
        c, d = op(self.hi, other.lo), op(self.hi, other.hi)
        return Interval(_down(np.minimum(np.minimum(a, b), np.minimum(c, d))),
                        _up(np.maximum(np.maximum(a, b), np.maximum(c, d))))

    def __mul__(self, other: "Interval") -> "Interval":
        return self._corner_hull(operator.mul, other)

    def __truediv__(self, other: "Interval") -> "Interval":
        if np.any((other.lo <= 0.0) & (other.hi >= 0.0)):
            raise DivisionByZeroInterval("divisor interval contains zero")
        return self._corner_hull(operator.truediv, other)

    def half(self) -> "Interval":
        # multiplication by 0.5 is exact for every magnitude used here
        return Interval(0.5 * self.lo, 0.5 * self.hi)

    def double(self) -> "Interval":
        return Interval(2.0 * self.lo, 2.0 * self.hi)


PI = Interval(_down(math.pi), _up(math.pi))
ONE = Interval.point(1.0)


def isqr(x: Interval) -> Interval:
    """Tight enclosure of x**2 (exploits the sign structure)."""
    a = x.lo * x.lo
    b = x.hi * x.hi
    hi = _up(np.maximum(a, b))
    crosses = (x.lo <= 0.0) & (x.hi >= 0.0)
    lo = np.where(crosses, 0.0, _down(np.minimum(a, b)))
    return Interval(lo, hi)


def isqrt(x: Interval) -> Interval:
    if np.any(x.lo < _SQRT_CLAMP) or np.any(x.hi < 0.0):
        raise NegativeSqrtDomain("sqrt of an interval below the roundoff clamp")
    lo = np.maximum(x.lo, 0.0)
    return Interval(np.maximum(_down(np.sqrt(lo)), 0.0), _up(np.sqrt(x.hi)))


def _has_extremum(lo, hi, offset):
    # does [lo, hi] contain offset + 2*pi*k for some integer k?
    two_pi = 2.0 * math.pi
    k_lo = np.ceil((lo - offset) / two_pi - _EXTREMUM_SLOP)
    k_hi = np.floor((hi - offset) / two_pi + _EXTREMUM_SLOP)
    return k_hi >= k_lo


def _periodic(fn, x: Interval, min_at: float, max_at: float) -> Interval:
    # fn has period 2*pi, its minimum -1 at min_at and its maximum 1 at max_at
    a, b = fn(x.lo), fn(x.hi)
    lo = _down(np.minimum(a, b), _TRANS_ULPS)
    hi = _up(np.maximum(a, b), _TRANS_ULPS)
    lo = np.where(_has_extremum(x.lo, x.hi, min_at), -1.0, lo)
    hi = np.where(_has_extremum(x.lo, x.hi, max_at), 1.0, hi)
    return Interval(np.clip(lo, -1.0, 1.0), np.clip(hi, -1.0, 1.0))


def isin(x: Interval) -> Interval:
    return _periodic(np.sin, x, -0.5 * math.pi, 0.5 * math.pi)


def icos(x: Interval) -> Interval:
    return _periodic(np.cos, x, math.pi, 0.0)


def iatan2(s: Interval, c: Interval) -> Interval:
    """Enclosure of atan2 over a box with s >= 0 (upper half plane).

    On that branch atan2 decreases in c, increases in s for c > 0 and
    decreases in s for c < 0, so the extreme corners are explicit and no
    branch cut is crossed.
    """
    if np.any(s.lo < 0.0):
        raise IntervalError("iatan2 requires a nonnegative sine part")
    lo_s = np.where(c.hi >= 0.0, s.lo, s.hi)
    hi_s = np.where(c.lo >= 0.0, s.hi, s.lo)
    lo = _down(np.arctan2(lo_s, c.hi), _TRANS_ULPS)
    hi = _up(np.arctan2(hi_s, c.lo), _TRANS_ULPS)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Forward-mode derivative enclosures (for mean-value forms)
# ---------------------------------------------------------------------------

_ALL = (0, 1, 2, 3, 4)  # the coordinates p1, p2, p3, p4, w by index


def _runs(sub: tuple, deps: tuple) -> tuple:
    # where the coordinates `sub` sit among `deps`, as (rows of deps, rows of
    # sub) slice pairs, one per run of consecutive rows: slices index numpy
    # rows faster than index arrays do
    runs = []
    for k, i in enumerate(sub):
        at = deps.index(i)
        if runs and runs[-1][0].stop == at:
            runs[-1] = (slice(runs[-1][0].start, at + 1), slice(runs[-1][1].start, k + 1))
        else:
            runs.append((slice(at, at + 1), slice(k, k + 1)))
    return tuple(runs)


@functools.cache  # at most 32 x 32 pairs of coordinate tuples
def _union(a: tuple, b: tuple) -> tuple:
    # the sorted union of two coordinate tuples and the runs of each in it
    deps = tuple(sorted(set(a) | set(b)))
    return deps, _runs(a, deps), _runs(b, deps)


def _grad_sum(g: Interval, g_deps: tuple, h: Interval, h_deps: tuple,
              shape: tuple) -> tuple:
    """(g + h, its coordinates) for partials along `g_deps` and `h_deps`
    whose rows have the given shape.

    A row only one operand has is still rounded once, as its sum with an
    exact zero: what a dense gradient of five rows computes there, up to
    the other operand's structurally zero row (a few subnormals at most)."""
    if g_deps == h_deps:
        return g + h, g_deps
    deps, g_runs, h_runs = _union(g_deps, h_deps)
    lo, hi = np.zeros((len(deps),) + shape), np.zeros((len(deps),) + shape)
    for into, rows in g_runs:
        lo[into], hi[into] = g.lo[rows], g.hi[rows]
    for into, rows in h_runs:
        lo[into] += h.lo[rows]
        hi[into] += h.hi[rows]
    return Interval(_down(lo), _up(hi)), deps


@dataclass(frozen=True, eq=False)
class DiffInterval:
    """Interval value together with interval enclosures of its partial
    derivatives with respect to the five frame coordinates.

    `deps` is the sorted tuple of coordinates (0-4 for p1..p4, w) along
    which a partial may be nonzero; every other partial is exactly zero and
    is not stored.  `grad` is one Interval whose endpoints carry a leading
    axis of length len(deps), one row per coordinate of `deps` in order,
    ahead of the value's shape, so each operator is a single broadcast
    expression.  A seed depends on one coordinate and a constant on none;
    a sum or product depends on the union of its operands' coordinates.
    """

    val: Interval
    grad: Interval
    deps: tuple

    def __add__(self, other: "DiffInterval") -> "DiffInterval":
        val = self.val + other.val
        return DiffInterval(val, *_grad_sum(self.grad, self.deps, other.grad,
                                            other.deps, np.shape(val.lo)))

    def __neg__(self) -> "DiffInterval":
        return DiffInterval(-self.val, -self.grad, self.deps)

    def __sub__(self, other: "DiffInterval") -> "DiffInterval":
        return self + (-other)

    def __mul__(self, other: "DiffInterval") -> "DiffInterval":
        val = self.val * other.val
        return DiffInterval(val, *_grad_sum(self.val * other.grad, other.deps,
                                            other.val * self.grad, self.deps,
                                            np.shape(val.lo)))

    def half(self) -> "DiffInterval":
        return DiffInterval(self.val.half(), self.grad.half(), self.deps)

    def double(self) -> "DiffInterval":
        return DiffInterval(self.val.double(), self.grad.double(), self.deps)

    def clamp(self, lo: float, hi: float) -> "DiffInterval":
        # tightening the value range by a proven bound leaves partials alone
        return DiffInterval(self.val.clamp(lo, hi), self.grad, self.deps)


def _seed(value: Interval, index: int, partial: Interval) -> DiffInterval:
    # value whose only nonzero partial is `partial`, along coordinate `index`
    lo, hi = np.empty((1,) + np.shape(value.lo)), np.empty((1,) + np.shape(value.lo))
    lo[0], hi[0] = partial.lo, partial.hi
    return DiffInterval(value, Interval(lo, hi), (index,))


def d_sqr(x: DiffInterval) -> DiffInterval:
    return DiffInterval(isqr(x.val), (x.val * x.grad).double(), x.deps)


def d_sqrt(x: DiffInterval) -> DiffInterval:
    root = isqrt(x.val)
    return DiffInterval(root, (ONE / root.double()) * x.grad, x.deps)


# ---------------------------------------------------------------------------
# Frame boxes and residual enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FrameBox:
    """Intervals for the five diagonal-frame coordinates.

    Enclosure claims apply to every point of the box, whatever the sum of
    p1..p4: the residual is homogeneous of degree six in them.  The
    certifier's boxes are charted at p1 = [1, 1], with p2, p3 and p4 clipped
    to the cut and the margin before a box is built; `margin` records that
    domain for callers that rebuild boxes, and no enclosure reads it.
    """

    p1: Interval
    p2: Interval
    p3: Interval
    p4: Interval
    w: Interval
    margin: float


def _lengths_core(p1, p2, p3, p4, cos_w, one, sqr, sqrt) -> dict:
    # squared lengths written as sums of nonnegative parts, e.g.
    # c^2 = (p1 - p2)^2 + 2 p1 p2 (1 - cos w), so margin boxes can never
    # produce an interval touching zero through cancellation.  Generic over
    # Interval and DiffInterval operands.
    one_minus = (one - cos_w).clamp(0.0, 2.0)
    one_plus = (one + cos_w).clamp(0.0, 2.0)

    def law(u, v, spread):
        return sqrt(sqr(u - v) + (u * v * spread).double())

    lengths = {
        "a": law(p2, p3, one_plus),
        "b": p1 + p3,
        "c": law(p1, p2, one_minus),
        "d": law(p4, p1, one_plus),
        "e": p2 + p4,
        "f": law(p3, p4, one_minus),
    }
    for name, item in lengths.items():
        value = item.val if isinstance(item, DiffInterval) else item
        if np.any(value.lo <= 0.0):
            raise IndeterminateRegion(f"length {name} touches zero on this box")
    return lengths


def _areas_core(p1, p2, p3, p4, sin_w) -> dict:
    b = p1 + p3
    e = p2 + p4
    return {
        "A123": (p2 * b * sin_w).half(),
        "A124": (p1 * e * sin_w).half(),
        "A134": (p4 * b * sin_w).half(),
        "A234": (p3 * e * sin_w).half(),
    }


def _frame_angles(box: FrameBox, sin_w: Interval, cos_w: Interval) -> dict:
    # split angles via atan2 of (opposite segment * sin w, adjacent
    # projection); the common positive factor 1/length cancels inside atan2,
    # and every split angle provably lies in (0, pi)
    p1, p2, p3, p4 = box.p1, box.p2, box.p3, box.p4
    ang = {
        "alpha1": iatan2(p2 * sin_w, p1 - p2 * cos_w),
        "beta1": iatan2(p4 * sin_w, p1 + p4 * cos_w),
        "alpha2": iatan2(p3 * sin_w, p2 + p3 * cos_w),
        "beta2": iatan2(p1 * sin_w, p2 - p1 * cos_w),
        "alpha3": iatan2(p4 * sin_w, p3 - p4 * cos_w),
        "beta3": iatan2(p2 * sin_w, p3 + p2 * cos_w),
        "alpha4": iatan2(p1 * sin_w, p4 + p1 * cos_w),
        "beta4": iatan2(p3 * sin_w, p4 - p3 * cos_w),
    }
    return {name: iv.clamp(0.0, PI.hi) for name, iv in ang.items()}


def _lemma_angles(box: FrameBox, angles: dict) -> dict:
    """Enclosures of the angles that the factored trig form reads: X, Y, W,
    W', gamma13 = gamma1 + gamma3, diff14 = alpha1 - beta4 and
    diff12 = beta1 - alpha2."""
    alpha1, alpha2, alpha3, alpha4 = (angles[f"alpha{i}"] for i in range(1, 5))
    beta1, beta2, beta3, beta4 = (angles[f"beta{i}"] for i in range(1, 5))

    # In frame coordinates the diagonal crossing angle is the parameter w
    # itself, so W needs no angle chain at all.
    W = box.w
    Wp = PI - W

    # By the triangle relations alpha2 + beta3 = W = alpha4 + beta1 and
    # alpha1 + beta2 = W' = alpha3 + beta4, X and Y are each equal to two
    # two-angle differences, so intersecting them is sound.  |X| < W and
    # |Y| < W' because the four split-angle sums are positive.
    X = (alpha2 - alpha4).intersect(beta1 - beta3)
    Y = (beta4 - beta2).intersect(alpha1 - alpha3)
    return {
        "X": Interval(np.maximum(X.lo, -W.hi), np.minimum(X.hi, W.hi)),
        "Y": Interval(np.maximum(Y.lo, -Wp.hi), np.minimum(Y.hi, Wp.hi)),
        "W": W,
        "Wp": Wp,
        "gamma13": ((alpha1 + beta1) + (alpha3 + beta3)).clamp(0.0, 2.0 * math.pi),
        "diff14": (alpha1 - beta4).intersect(alpha3 - beta2),
        "diff12": (beta1 - alpha2).intersect(beta3 - alpha4),
    }


def frame_quantities(box: FrameBox) -> dict:
    """Named enclosures of every intermediate geometric quantity that the
    residual enclosures use; used by the containment-fuzz tests."""
    sin_w = isin(box.w).clamp(0.0, 1.0)
    cos_w = icos(box.w)
    p = (box.p1, box.p2, box.p3, box.p4)
    ang = _frame_angles(box, sin_w, cos_w)
    return {**_lengths_core(*p, cos_w, ONE, isqr, isqrt), **_areas_core(*p, sin_w),
            **ang, **_lemma_angles(box, ang)}


_double = operator.methodcaller("double")
_nonneg = operator.methodcaller("clamp", 0.0, np.inf)


def _coords(box: FrameBox) -> tuple:
    return box.p1, box.p2, box.p3, box.p4, box.w


def edge_residual_with_gradient(box: FrameBox) -> DiffInterval:
    """Edge-path residual with partial-derivative enclosures with respect to
    each of (p1, p2, p3, p4, w) that varies over the box."""
    coords = _coords(box)
    # a coordinate fixed at one point in every row, such as the chart's p1,
    # is a constant: its partial would only multiply x - c = 0
    varies = [not np.array_equal(c.lo, c.hi) for c in coords]
    none = np.zeros((0,) + np.shape(box.w.lo))  # the partials of a constant

    def seed(value, index, partial):
        if varies[index]:
            return _seed(value, index, partial)
        return DiffInterval(value, Interval(none, none), ())

    p = [seed(coords[i], i, ONE) for i in range(4)]
    sin, cos = isin(box.w), icos(box.w)
    sin_w = seed(sin, 4, cos).clamp(0.0, 1.0)
    cos_w = seed(cos, 4, -sin).clamp(-1.0, 1.0)
    one = DiffInterval(ONE, Interval(none, none), ())
    residual = edge_form({**_lengths_core(*p, cos_w, one, d_sqr, d_sqrt),
                          **_areas_core(*p, sin_w)}, _double, _nonneg)[1]
    # every partial of a coordinate that varies, in the order of _ALL
    assert residual.deps == tuple(i for i in _ALL if varies[i])
    return residual


def _lower_optimal_centre(coord: Interval, partial: Interval):
    # Baumann, "Optimal centered forms" (BIT 1988): the low end where the
    # partial is nonnegative, the high end where it is nonpositive, else the
    # point where both ends of partial * (coord - c) reach the same low value
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        inner = (partial.hi * coord.lo - partial.lo * coord.hi) / (partial.hi - partial.lo)
    centre = np.where(partial.hi <= 0.0, coord.hi, np.clip(inner, coord.lo, coord.hi))
    return np.where(partial.lo >= 0.0, coord.lo, centre)


def edge_mean_value_enclosure(box: FrameBox) -> Interval:
    """Mean-value form of the edge-path residual: the value at the
    lower-optimal centre c of the box (module docstring) plus gradient
    enclosures times the coordinate deviations x - c.  Much tighter than the
    natural evaluation on small boxes, where the natural form loses a
    constant factor to operand dependency.  A NaN partial gives a NaN bound,
    which no check accepts."""
    di = edge_residual_with_gradient(box)
    coords = _coords(box)
    partials = {i: Interval(di.grad.lo[j], di.grad.hi[j]) for j, i in enumerate(di.deps)}
    # a coordinate without a partial is one point, its own centre
    centres = [Interval.point(_lower_optimal_centre(c, partials[i])) if i in partials else c
               for i, c in enumerate(coords)]
    total = residual_enclosure(FrameBox(*centres, box.margin), "edge")
    for i, partial in partials.items():
        total = total + partial * (coords[i] - centres[i])
    return total


def _lemma_residual(box: FrameBox, lengths: dict, sin_w: Interval,
                    cos_w: Interval) -> Interval:
    """The factored trig form, kernel.lemma_form, over intervals.

    sin X and sin Y are intersected with their exact area-quotient forms
    sin X = s (p3 p4 - p1 p2) / (a d) and sin Y = s (p2 p3 - p1 p4) / (c f),
    which are free of angle-chain dependency; sin W is `sin_w` itself."""
    q = _lemma_angles(box, _frame_angles(box, sin_w, cos_w))
    X, Y, W, Wp = q["X"], q["Y"], q["W"], q["Wp"]
    gamma13, diff14, diff12 = q["gamma13"], q["diff14"], q["diff12"]

    p1, p2, p3, p4 = box.p1, box.p2, box.p3, box.p4
    quot_x = ((p3 * p4 - p1 * p2) * sin_w) / (lengths["a"] * lengths["d"])
    quot_y = ((p2 * p3 - p1 * p4) * sin_w) / (lengths["c"] * lengths["f"])
    sin_X = isin(X).intersect(quot_x.clamp(-1.0, 1.0))
    sin_Y = isin(Y).intersect(quot_y.clamp(-1.0, 1.0))
    # W/2 and W'/2 lie in [0, pi/2], X/2 and Y/2 in [-pi/2, pi/2], and
    # gamma13/2 in [0, pi]
    sin_X2, sin_Y2 = isin(X.half()), isin(Y.half())
    cos_X2, cos_Y2, cos_W2, cos_Wp2 = (icos(v.half()).clamp(0.0, 1.0) for v in (X, Y, W, Wp))
    sin_W2, sin_Wp2, sin_g13 = (isin(v.half()).clamp(0.0, 1.0) for v in (W, Wp, gamma13))
    sin_a1b4, sin_b1a2 = isin(diff14.half()), isin(diff12.half())

    return lemma_form(abcdef(lengths), sin_X, sin_Y, sin_w, sin_X2, cos_X2, sin_Y2, cos_Y2,
                      sin_W2, cos_W2, sin_Wp2, cos_Wp2, sin_g13, sin_a1b4, sin_b1a2, isqr,
                      _double)[-1]


def residual_enclosure(box: FrameBox, path: str = "edge") -> Interval:
    """Certified enclosure of the inequality residual over a frame box.

    The value enclosed is the raw length^6 residual at every point of the
    box; the certifier's boxes have p1 = [1, 1], and it divides by
    (1 + p2 + p3 + p4)^6 to bound the residual at the gauge p1+p2+p3+p4 = 1.
    Paths: "edge" is the natural evaluation of
    kernel.edge_form; "lemma" is that of kernel.lemma_form; "both"
    intersects the edge mean-value form with the lemma form.  Every path
    encloses the same function, so the intersection is also a valid,
    tighter enclosure.
    """
    sin_w = isin(box.w).clamp(0.0, 1.0)
    cos_w = icos(box.w)
    p = (box.p1, box.p2, box.p3, box.p4)
    lengths = _lengths_core(*p, cos_w, ONE, isqr, isqrt)
    if path == "edge":
        return edge_form({**lengths, **_areas_core(*p, sin_w)}, _double, _nonneg)[1]
    if path == "lemma":
        return _lemma_residual(box, lengths, sin_w, cos_w)
    if path == "both":
        lemma = _lemma_residual(box, lengths, sin_w, cos_w)
        return edge_mean_value_enclosure(box).intersect(lemma)
    raise IntervalError(f"unknown enclosure path {path!r}")
