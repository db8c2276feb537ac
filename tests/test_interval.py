"""Outward-rounded interval arithmetic and residual enclosures."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quadineq import interval, kernel
from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.interval import (
    PI,
    _TRANS_ULPS,
    _down,
    _up,
    DivisionByZeroInterval,
    FrameBox,
    Interval,
    IntervalError,
    NegativeSqrtDomain,
    edge_mean_value_enclosure,
    edge_residual_with_gradient,
    frame_quantities,
    iatan2,
    icos,
    isin,
    isqr,
    isqrt,
    residual_enclosure,
)
from quadineq.kernel import residual


def contains(iv, x, slop=0.0):
    return np.all((iv.lo - slop <= x) & (x <= iv.hi + slop))


def rand_interval(rng, lo=-5.0, hi=5.0):
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return Interval(float(a), float(b))


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------

def _sum_operands(rng, n):
    """Float pairs for the sum rule: magnitudes from 1e-300 to 1e300 with
    mixed signs, cancelling pairs, subnormals, and sums exact in binary64."""
    def signs(size):
        return rng.choice([-1.0, 1.0], size)

    def wide(size):
        return signs(size) * 10.0 ** rng.uniform(-300, 300, size)

    def subnormal(size):
        return signs(size) * 2.0**-1074 * rng.integers(1, 2**52, size).astype(float)

    x = wide(n)
    cancel = -x * rng.uniform(0.5, 2.0, n)  # Sterbenz: x + cancel is exact
    tiny = subnormal(n)
    normal_min = signs(n) * 2.0**-1022 * rng.uniform(1.0, 4.0, n)
    exact = [(1.0, 3.0), (0.5, 0.25), (-2.0, 2.0), (1e300, 1e300), (0.0, 0.0),
             (2.0**-1074, 2.0**-1074), (-1e-300, 1e-300), (1.0, -0.75)]
    a = np.concatenate([x, x, tiny, normal_min, [p for p, _ in exact]])
    b = np.concatenate([wide(n), cancel, subnormal(n), subnormal(n),
                        [q for _, q in exact]])
    return a, b


def test_every_sum_steps_outward_past_the_rounded_sum():
    # each endpoint sum is rounded to nearest, then stepped one ulp outward:
    # the result encloses the exact rational sum, and every endpoint lies
    # strictly outside the rounded sum, exact sums such as 1 + 3 included
    a, b = _sum_operands(np.random.default_rng(2112), 500)
    out = Interval(a, a) + Interval(b, b)
    rounded = a + b
    assert np.all(np.isfinite(out.lo)) and np.all(np.isfinite(out.hi))
    assert np.all(out.lo < rounded) and np.all(rounded < out.hi)
    exact_sums = 0
    for x, y, lo, hi, s in zip(a, b, out.lo, out.hi, rounded):
        exact = Fraction(x) + Fraction(y)
        assert Fraction(lo) <= exact <= Fraction(hi), (x, y)
        exact_sums += Fraction(s) == exact
    assert exact_sums > 1000  # the cancelling and subnormal pairs
    scalar = Interval(1.0, 2.0) + Interval(3.0, 4.0)
    assert (scalar.lo, scalar.hi) == (np.nextafter(4.0, 0.0), np.nextafter(6.0, 7.0))


def test_inexact_addition_widens_outward():
    out = Interval(0.1, 0.1) + Interval(0.2, 0.2)
    assert out.lo < 0.1 + 0.2 < out.hi
    assert out.hi - out.lo <= 4 * np.finfo(float).eps


def test_multiplication_covers_sign_cases():
    out = Interval(-1.0, 2.0) * Interval(3.0, 4.0)
    assert out.lo <= -4.0 <= out.hi and out.lo <= 8.0
    assert -4.0 - out.lo <= 1e-14 and out.hi - 8.0 <= 1e-14
    out = Interval(-2.0, -1.0) * Interval(-4.0, 3.0)
    assert contains(out, 8.0) and contains(out, -6.0)


def test_division_by_zero_interval_raises():
    with pytest.raises(DivisionByZeroInterval):
        Interval(1.0, 1.0) / Interval(0.0, 1.0)
    out = Interval(1.0, 2.0) / Interval(2.0, 4.0)
    assert contains(out, 0.25) and contains(out, 1.0)


def test_negation_and_subtraction():
    # both differences are exact, and each still steps one ulp outward
    out = Interval(1.0, 2.0) - Interval(0.5, 3.0)
    assert (out.lo, out.hi) == (np.nextafter(-2.0, -3.0), np.nextafter(1.5, 2.0))


def test_square_tight_around_zero():
    out = isqr(Interval(-2.0, 3.0))
    assert out.lo == 0.0 and 9.0 <= out.hi <= 9.0 * (1 + 1e-15)


def test_sqrt_monotone_and_domain():
    out = isqrt(Interval(4.0, 9.0))
    assert contains(out, 2.0) and contains(out, 3.0)
    assert out.hi - 3.0 <= 1e-14 and 2.0 - out.lo <= 1e-14
    clamped = isqrt(Interval(-1e-15, 1.0))
    assert clamped.lo == 0.0
    with pytest.raises(NegativeSqrtDomain):
        isqrt(Interval(-1.0, 1.0))


def test_sin_monotone_piece():
    out = isin(Interval(0.0, math.pi / 2))
    assert out.lo <= 0.0 and out.hi >= 1.0
    assert -out.lo <= 1e-14 and out.hi - 1.0 <= 1e-14


def test_sin_spanning_extremum():
    out = isin(Interval(1.0, 2.5))
    assert out.hi == 1.0
    assert contains(out, math.sin(1.0)) and contains(out, math.sin(2.5))


def test_cos_spanning_full_range():
    out = icos(Interval(0.0, math.pi))
    assert (out.lo, out.hi) == (-1.0, 1.0)


def test_atan2_upper_halfplane():
    out = iatan2(Interval(1.0, 1.0), Interval(-1.0, 1.0))
    assert contains(out, math.pi / 4) and contains(out, 3 * math.pi / 4)
    out = iatan2(Interval(0.5, 2.0), Interval(1.0, 1.0))
    assert contains(out, math.atan2(0.5, 1.0)) and contains(out, math.atan2(2.0, 1.0))
    with pytest.raises(IntervalError):
        iatan2(Interval(-1.0, 1.0), Interval(1.0, 1.0))


def test_libm_error_within_widening_budget():
    # the enclosures widen sin/cos/atan2 by _TRANS_ULPS and sqrt by one ulp;
    # check numpy's libm against a 113-bit oracle so a looser libm fails here
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    n = 3000
    x = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
    s = rng.uniform(0.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    r = np.exp(rng.uniform(-10.0, 3.0, n))
    cases = [(np.sin, mpmath.sin, (x,), _TRANS_ULPS / 2),
             (np.cos, mpmath.cos, (x,), _TRANS_ULPS / 2),
             (np.arctan2, mpmath.atan2, (s, c), _TRANS_ULPS / 2),
             (np.sqrt, mpmath.sqrt, (r,), 0.5)]
    with mpmath.workprec(113):
        for np_fn, mp_fn, args, budget in cases:
            worst = 0.0
            for got, point in zip(np_fn(*args).tolist(), zip(*args)):
                exact = mp_fn(*map(float, point))
                # ulp of the binade below |exact| when that is a power of
                # two, so the error is never understated
                ulp = np.spacing(np.nextafter(abs(float(exact)), 0.0))
                worst = max(worst, float(abs(mpmath.mpf(got) - exact) / ulp))
            assert worst <= budget, (np_fn.__name__, worst)


# ---------------------------------------------------------------------------
# outward rounding primitives
# ---------------------------------------------------------------------------

def _rounding_points():
    """Seeded doubles: normals over the whole exponent range, every power of
    two and its predecessor, subnormals, +-0 and +-max finite."""
    rng = np.random.default_rng(1053)
    normals = np.ldexp(rng.uniform(0.5, 1.0, 5000), rng.integers(-1021, 1025, 5000))
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = rng.integers(1, 2**52, 2000) * 2.0**-1074
    x = np.concatenate([normals, powers, np.nextafter(powers, 0.0), subnormals,
                        [0.0, np.finfo(float).max]])
    return np.concatenate([x, -x])


def _nextafter(x, toward, k):
    for _ in range(k):
        x = np.nextafter(x, toward)
    return x


@pytest.mark.parametrize("k", [1, 2, 4])
def test_rounding_steps_at_least_k_ulps(k):
    x = _rounding_points()
    with np.errstate(over="ignore"):  # +-max finite steps out to +-inf
        assert np.all(_down(x, k) <= _nextafter(x, -np.inf, k))
        assert np.all(_up(x, k) >= _nextafter(x, np.inf, k))


def test_rounding_equals_nextafter_above_the_underflow_band():
    # exactly one ulp per step for |x| > 2**-1020, which keeps every
    # enclosure and certificate bit-identical to nextafter rounding
    x = _rounding_points()
    with np.errstate(over="ignore"):
        one = np.abs(x) > 2.0**-1020
        assert np.array_equal(_down(x[one]), np.nextafter(x[one], -np.inf))
        assert np.array_equal(_up(x[one]), np.nextafter(x[one], np.inf))
        far = np.abs(x) >= 2.0**-1019  # k steps stay above the band
        for k in (_TRANS_ULPS, 2):
            assert np.array_equal(_down(x[far], k), _nextafter(x[far], -np.inf, k))
            assert np.array_equal(_up(x[far], k), _nextafter(x[far], np.inf, k))
    assert _down(0.0) == -(2.0**-1074) and _up(-0.0) == 2.0**-1074


def test_rounding_of_non_finite_endpoints():
    # an infinite endpoint stepped toward the finite range becomes NaN and
    # NaN stays NaN, so a comparison against either never accepts a bound
    special = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        down, up = _down(special), _up(special)
    assert np.isnan(down[0]) and down[1] == -np.inf and np.isnan(down[2])
    assert up[0] == np.inf and np.isnan(up[1]) and np.isnan(up[2])
    assert not np.any(down >= 0.0)


# ---------------------------------------------------------------------------
# independent oracle: exact images at 120 bits against the enclosures
# ---------------------------------------------------------------------------

_ORACLE_BITS = 120


def _oracle_intervals(rng, n, lo, hi, log_width=(-12.0, 0.5)):
    a = rng.uniform(lo, hi, n)
    width = 10.0 ** rng.uniform(*log_width, n)
    width[: n // 10] = 0.0  # point intervals
    return Interval(a, a + width)


def _encloses(mpmath, iv, i, low, high):
    return mpmath.mpf(float(iv.lo[i])) <= low and high <= mpmath.mpf(float(iv.hi[i]))


def _exact_trig_range(mpmath, fn, lo, hi, peak, trough):
    # extremes of sin/cos over [lo, hi]: the endpoint values, plus +-1 where
    # a crest peak + 2 pi k or a trough trough + 2 pi k lies inside
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    values = [fn(a), fn(b)]
    for offset, extreme in ((peak, 1), (trough, -1)):
        k = mpmath.ceil((a - offset) / (2 * mpmath.pi))
        if offset + 2 * mpmath.pi * k <= b:
            values.append(mpmath.mpf(extreme))
    return min(values), max(values)


def test_oracle_elementary_enclosures():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(90210)
    n = 1500
    x = _oracle_intervals(rng, n, -10.0, 10.0)
    s = _oracle_intervals(rng, n, 1e-3, 2.0)
    c = _oracle_intervals(rng, n, -2.0, 2.0)
    r = Interval(*np.sort(np.exp(rng.uniform(-25.0, 5.0, (2, n))), axis=0))
    u = _oracle_intervals(rng, n, -3.0, 3.0, (-12.0, 0.7))
    mag = _oracle_intervals(rng, n, 0.1, 3.0)  # divisors of either sign
    neg = rng.random(n) < 0.5
    v = Interval(np.where(neg, -mag.hi, mag.lo), np.where(neg, -mag.lo, mag.hi))
    sin_x, cos_x, atan, root = isin(x), icos(x), iatan2(s, c), isqrt(r)
    prod, quot = u * c, u / v
    half_pi = mpmath.pi / 2
    with mpmath.workprec(_ORACLE_BITS):
        for i in range(n):
            lo, hi = float(x.lo[i]), float(x.hi[i])
            assert _encloses(mpmath, sin_x, i, *_exact_trig_range(
                mpmath, mpmath.sin, lo, hi, half_pi, -half_pi)), ("sin", lo, hi)
            assert _encloses(mpmath, cos_x, i, *_exact_trig_range(
                mpmath, mpmath.cos, lo, hi, 0, mpmath.pi)), ("cos", lo, hi)
            # atan2 is monotone in each argument on s >= 0: corners decide
            corners = [mpmath.atan2(float(sv), float(cv))
                       for sv in (s.lo[i], s.hi[i]) for cv in (c.lo[i], c.hi[i])]
            assert _encloses(mpmath, atan, i, min(corners), max(corners)), "atan2"
            assert _encloses(mpmath, root, i, mpmath.sqrt(float(r.lo[i])),
                             mpmath.sqrt(float(r.hi[i]))), "sqrt"
            for op, out, other in ((mpmath.fmul, prod, c), (mpmath.fdiv, quot, v)):
                corners = [op(float(a), float(b)) for a in (u.lo[i], u.hi[i])
                           for b in (other.lo[i], other.hi[i])]
                assert _encloses(mpmath, out, i, min(corners), max(corners)), op


def _oracle_residual(mpmath, p, w):
    """The edge residual from vertex coordinates of the frame
    z1 = (p1, 0), z2 = p2 (cos w, sin w), z3 = (-p3, 0), z4 = -p4 (cos w, sin w)."""
    p1, p2, p3, p4 = p
    cw, sw = mpmath.cos(w), mpmath.sin(w)
    z = [(p1, 0), (p2 * cw, p2 * sw), (-p3, 0), (-p4 * cw, -p4 * sw)]

    def dist(i, j):
        return mpmath.sqrt((z[i][0] - z[j][0]) ** 2 + (z[i][1] - z[j][1]) ** 2)

    def area(i, j, k):
        cross = ((z[j][0] - z[i][0]) * (z[k][1] - z[i][1])
                 - (z[k][0] - z[i][0]) * (z[j][1] - z[i][1]))
        return abs(cross) / 2

    c, a, f, d, b, e = dist(0, 1), dist(1, 2), dist(2, 3), dist(3, 0), dist(0, 2), dist(1, 3)
    A123, A124, A134, A234 = area(0, 1, 2), area(0, 1, 3), area(0, 2, 3), area(1, 2, 3)
    lhs = (f * A123 * A124 * (a + b + e + d - 2 * c)
           + d * A123 * A234 * (c + b + e + f - 2 * a)
           + c * A134 * A234 * (d + b + e + a - 2 * f)
           + a * A124 * A134 * (c + e + b + f - 2 * d))
    rhs = (e * A123 * A134 * (c + a + d + f - 2 * b)
           + b * A124 * A234 * (c + d + a + f - 2 * e))
    return lhs - rhs


def test_oracle_residual_inside_enclosures():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(6174)
    n = 150
    box, _, _ = _random_boxes(rng, n, width_scale=0.02)
    enclosures = {path: residual_enclosure(box, path) for path in ("lemma", "both")}
    coords = (box.p1, box.p2, box.p3)
    checked = 0
    with mpmath.workprec(_ORACLE_BITS):
        for i in range(n):
            for _ in range(40):
                # a random frame of the box on the gauge plane: p4 is exact
                p123 = [mpmath.mpf(rng.uniform(iv.lo[i], iv.hi[i])) for iv in coords]
                p4 = 1 - sum(p123)
                if not box.p4.lo[i] <= p4 <= box.p4.hi[i]:
                    continue
                w = mpmath.mpf(rng.uniform(box.w.lo[i], box.w.hi[i]))
                value = _oracle_residual(mpmath, p123 + [p4], w)
                for path, enc in enclosures.items():
                    assert _encloses(mpmath, enc, i, value, value), (path, i)
                checked += 1
                break
    assert checked >= 0.9 * n


def test_pi_interval_contains_pi():
    assert PI.lo < math.pi < PI.hi or PI.lo <= math.pi <= PI.hi


def test_empty_intersection_raises():
    with pytest.raises(IntervalError):
        Interval(0.0, 1.0).intersect(Interval(2.0, 3.0))


# ---------------------------------------------------------------------------
# containment fuzzing
# ---------------------------------------------------------------------------

def _random_boxes(rng, n, margin=0.1, width_scale=0.2):
    """Feasible frame boxes around random gauge points, plus an interior
    point of each box lying exactly on the gauge simplex."""
    simplex = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=n)
    p_mid = margin + (1.0 - 4.0 * margin) * simplex
    w_mid = rng.uniform(margin * math.pi, (1.0 - margin) * math.pi, size=n)
    half = rng.uniform(0.0, width_scale, size=(n, 5))
    p_lo = np.maximum(p_mid - half[:, :4], margin)
    p_hi = np.minimum(p_mid + half[:, :4], 1.0 - 3.0 * margin)
    w_lo = np.maximum(w_mid - half[:, 4], margin * math.pi)
    w_hi = np.minimum(w_mid + half[:, 4], (1.0 - margin) * math.pi)
    box = FrameBox(Interval(p_lo[:, 0], p_hi[:, 0]), Interval(p_lo[:, 1], p_hi[:, 1]),
                   Interval(p_lo[:, 2], p_hi[:, 2]), Interval(p_lo[:, 3], p_hi[:, 3]),
                   Interval(w_lo, w_hi), margin)
    return box, p_mid, w_mid


def _points_of(rng, box, p_mid, w_mid, count=4):
    """Points of each box: the one `_random_boxes` gives, `count` random
    corners and `count` uniform interior points, as (p, w, ulps) with p and
    w of shape (n, 4) and (n,).  `ulps` is the float oracle's rounding a
    check allows: at a corner an enclosure can be tight, as e = p2 + p4 is,
    and the oracle's e, a distance between vertices, lands an ulp past it."""
    lo = np.stack([iv.lo for iv in (box.p1, box.p2, box.p3, box.p4, box.w)], axis=1)
    hi = np.stack([iv.hi for iv in (box.p1, box.p2, box.p3, box.p4, box.w)], axis=1)
    points = [(np.column_stack([p_mid, w_mid]), 0)]
    for _ in range(count):
        points.append((np.where(rng.integers(0, 2, size=lo.shape) == 1, hi, lo), 4))
    for _ in range(count):
        points.append((np.clip(rng.uniform(lo, hi), lo, hi), 0))
    return [(point[:, :4], point[:, 4], ulps) for point, ulps in points]


# the boxes' half-widths are drawn up to each of these scales: at 1.0 most
# boxes span much of the domain, where an enclosure is loosest and a wrong
# clamp shows
def test_point_in_box_containment_fuzz():
    for width_scale in (0.2, 0.5, 1.0):
        rng = np.random.default_rng(2024)
        box, p_mid, w_mid = _random_boxes(rng, 20_000, width_scale=width_scale)
        quantities = frame_quantities(box)
        for p, w, ulps in _points_of(rng, box, p_mid, w_mid):
            m = metrics_from_frames(p, w)
            point_values = {
                "a": m.a, "b": m.b, "c": m.c, "d": m.d, "e": m.e, "f": m.f,
                "A123": m.A123, "A124": m.A124, "A134": m.A134, "A234": m.A234,
                "alpha1": m.alpha1, "alpha2": m.alpha2, "alpha3": m.alpha3,
                "alpha4": m.alpha4, "beta1": m.beta1, "beta2": m.beta2,
                "beta3": m.beta3, "beta4": m.beta4,
                # X and Y as the certifier reads them: three forms intersected
                "X": m.X, "Y": m.Y, "W": w, "Wp": m.Wp,
                "gamma13": m.gamma1 + m.gamma3,
                "diff14": m.alpha1 - m.beta4, "diff12": m.beta1 - m.alpha2,
            }
            assert set(quantities) == set(point_values)
            for name, value in point_values.items():
                assert contains(quantities[name], value,
                                ulps * np.spacing(np.abs(value))), (name, width_scale)


def test_residual_enclosure_containment_fuzz():
    for width_scale in (0.1, 0.2, 0.5, 1.0):
        rng = np.random.default_rng(4096)
        box, p_mid, w_mid = _random_boxes(rng, 20_000, width_scale=width_scale)
        enclosures = {path: residual_enclosure(box, path)
                      for path in ("edge", "lemma", "both")}
        enclosures["mean_value"] = edge_mean_value_enclosure(box)
        for p, w, ulps in _points_of(rng, box, p_mid, w_mid):
            r = residual(metrics_from_frames(p, w), "edge")
            for path, enc in enclosures.items():
                assert contains(enc, r, ulps * np.spacing(np.abs(r))), (path, width_scale)


class _Halving(np.ndarray):
    """Float arrays with the `half()` that `_areas_core` takes of an area."""

    def half(self):
        return 0.5 * self


def test_residual_is_sin_squared_w_times_the_residual_with_unit_sin_w():
    # each area is p p' sin(w) / 2, and each edge expression multiplies two
    # of them, so R = sin^2(w) R~, where R~ is the one text of the edge form
    # fed the `_areas_core` areas with sin w = 1.  Narrow boxes keep the
    # enclosures tight enough that sin w in place of sin^2 w misses thousands
    # of points
    rng = np.random.default_rng(1729)
    box, p_mid, w_mid = _random_boxes(rng, 2_000, width_scale=0.005)
    m = metrics_from_frames(p_mid, w_mid)
    lengths = {name: getattr(m, name) for name in "abcdef"}
    areas = interval._areas_core(*p_mid.T.view(_Halving), 1.0)
    unit = np.asarray(kernel.edge_form({**lengths, **areas}, kernel._double, kernel._same)[1])
    r = residual(m, "edge")
    # on floats, relative to abcdef, the scale of every edge expression
    assert np.max(np.abs(r - np.sin(w_mid) ** 2 * unit) / kernel.abcdef(vars(m))) < 1e-12
    # on intervals: every point's residual lies in sin^2(W) times R~ over the box
    p = (box.p1, box.p2, box.p3, box.p4)
    lengths = interval._lengths_core(*p, icos(box.w), interval.ONE, isqr, isqrt)
    unit = kernel.edge_form({**lengths, **interval._areas_core(*p, interval.ONE)},
                            interval._double, interval._nonneg)[1]
    enc = isqr(isin(box.w)) * unit
    for p_point, w_point, ulps in _points_of(rng, box, p_mid, w_mid):
        r = residual(metrics_from_frames(p_point, w_point), "edge")
        assert contains(enc, r, ulps * np.spacing(np.abs(r)))


def _written_out_edge_form(q, double, nonneg):
    # the interval sums and products in the order the certificates were
    # written with
    a, b, c, d, e, f = (q[name] for name in "abcdef")
    A123, A124, A134, A234 = q["A123"], q["A124"], q["A134"], q["A234"]

    def slack(s1, s2, s3, s4, twice):
        return ((s1 + s2) + (s3 + s4) - twice.double()).clamp(0.0, np.inf)

    E12 = f * A123 * A124 * slack(a, b, e, d, c)
    E23 = d * A123 * A234 * slack(c, b, e, f, a)
    E34 = c * A134 * A234 * slack(d, b, e, a, f)
    E41 = a * A124 * A134 * slack(c, e, b, f, d)
    E13 = e * A123 * A134 * slack(c, a, d, f, b)
    E24 = b * A124 * A234 * slack(c, d, a, f, e)
    terms = {"e12": E12, "e23": E23, "e34": E34, "e41": E41, "e13": E13, "e24": E24}
    return terms, ((E12 + E23) + (E34 + E41)) - (E13 + E24)


def test_edge_table_enclosures_equal_the_written_out_core_bit_for_bit(monkeypatch):
    # the edge form is shared with the audit's floats; a regrouping of its
    # sums or products would move every certificate, and fails here first
    rng = np.random.default_rng(8192)
    box, _, _ = _random_boxes(rng, 8_192, width_scale=0.05)
    natural = residual_enclosure(box, "edge")
    derived = edge_residual_with_gradient(box)
    calls = []
    monkeypatch.setattr(interval, "edge_form",
                        lambda *args: calls.append(1) or _written_out_edge_form(*args))
    written = residual_enclosure(box, "edge")
    written_derived = edge_residual_with_gradient(box)
    assert calls == [1, 1]
    pairs = ((natural, written), (derived.val, written_derived.val),
             (derived.grad, written_derived.grad))
    for table, formula in pairs:
        assert np.array_equal(table.lo, formula.lo)
        assert np.array_equal(table.hi, formula.hi)


def _written_out_lemma_form(K, sin_X, sin_Y, sin_W, sin_X2, cos_X2, sin_Y2, cos_Y2, sin_W2,
                            cos_W2, sin_Wp2, cos_Wp2, sin_g13, sin_a1b4, sin_b1a2, sqr, double):
    # the interval products in the order the certificates were written with
    group_x = sin_X * sin_Wp2 * sin_Y2 * sin_a1b4
    group_y = sin_Y * sin_W2 * sin_X2 * sin_b1a2
    group_w = sin_W * cos_X2 * cos_Y2 * sin_g13
    even_part = (isqr(sin_X2) * isqr(cos_W2) * isqr(cos_Y2)
                 + isqr(cos_X2) * isqr(cos_Wp2) * isqr(sin_Y2)).double()
    odd_part = (sin_a1b4 * sin_b1a2 * sin_g13).double()
    residual = K * (((group_x + group_y) + group_w) - (even_part + odd_part))
    return group_x, group_y, group_w, even_part, odd_part, residual


def test_lemma_enclosures_equal_the_written_out_products_bit_for_bit(monkeypatch):
    # the trig form is shared with the audit's floats; a regrouping of its
    # products would move every certificate, and fails here first
    rng = np.random.default_rng(8192)
    box, _, _ = _random_boxes(rng, 8_192, width_scale=0.05)
    shared = residual_enclosure(box, "lemma")
    calls = []
    monkeypatch.setattr(interval, "lemma_form",
                        lambda *args: calls.append(1) or _written_out_lemma_form(*args))
    written = residual_enclosure(box, "lemma")
    assert calls == [1]
    assert np.array_equal(_bits(shared.lo), _bits(written.lo))
    assert np.array_equal(_bits(shared.hi), _bits(written.hi))


def _dense_seed(value, index, partial):
    # a seed that carries all five partials, four of them exactly zero: the
    # dense gradient, whose every sum and product runs over five rows
    lo, hi = np.zeros((5,) + np.shape(value.lo)), np.zeros((5,) + np.shape(value.lo))
    lo[index], hi[index] = partial.lo, partial.hi
    return interval.DiffInterval(value, Interval(lo, hi), (0, 1, 2, 3, 4))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_sparse_partials_match_dense_ones_bit_for_bit(monkeypatch):
    # a partial that is structurally zero is not stored; a dense row holds
    # at most a few subnormals there, which no sum with a stored row feels
    rng = np.random.default_rng(5)
    box, _, _ = _random_boxes(rng, 8_192)
    quantities = {}
    form = interval.edge_form

    def kept(q, double, nonneg):
        quantities.update(q)
        return form(q, double, nonneg)

    monkeypatch.setattr(interval, "edge_form", kept)
    sparse = edge_residual_with_gradient(box)
    monkeypatch.undo()
    sparse_mv = edge_mean_value_enclosure(box)
    p1, p2, p3, p4, w = range(5)
    expected = {"a": (p2, p3, w), "b": (p1, p3), "c": (p1, p2, w), "d": (p1, p4, w),
                "e": (p2, p4), "f": (p3, p4, w), "A123": (p1, p2, p3, w),
                "A124": (p1, p2, p4, w), "A134": (p1, p3, p4, w), "A234": (p2, p3, p4, w)}
    assert {name: q.deps for name, q in quantities.items()} == expected
    for q in quantities.values():
        assert np.shape(q.grad.lo) == (len(q.deps), 8_192)
    monkeypatch.setattr(interval, "_seed", _dense_seed)
    dense = edge_residual_with_gradient(box)
    dense_mv = edge_mean_value_enclosure(box)
    assert sparse.deps == dense.deps == (0, 1, 2, 3, 4)
    for ours, theirs in ((sparse.val, dense.val), (sparse.grad, dense.grad),
                         (sparse_mv, dense_mv)):
        assert np.array_equal(_bits(ours.lo), _bits(theirs.lo))
        assert np.array_equal(_bits(ours.hi), _bits(theirs.hi))


def test_a_point_coordinate_has_no_partial_and_the_form_still_encloses():
    # the certifier's boxes fix p1 = [1, 1]: the gradient then carries the
    # four partials that vary, and the mean-value form still encloses the
    # residual at every corner and at seeded interior points
    rng = np.random.default_rng(99)
    box, _, _ = _random_boxes(rng, 4_000, width_scale=0.05)
    one = np.ones(4_000)
    scale = 1.0 / box.p1.hi  # p1.hi maps to 1, a positive scale of each box
    charted = FrameBox(Interval(one, one), *(Interval(c.lo * scale, c.hi * scale)
                                             for c in (box.p2, box.p3, box.p4)),
                       box.w, box.margin)
    assert edge_residual_with_gradient(charted).deps == (1, 2, 3, 4)
    enc = edge_mean_value_enclosure(charted)
    arr = _box_array(charted)
    corners = [arr[:, np.arange(5), list(bits)] for bits in np.ndindex(*(2,) * 5)]
    interior = [arr[:, :, 0] + rng.uniform(size=(len(arr), 5)) * (arr[:, :, 1] - arr[:, :, 0])
                for _ in range(4)]
    for points in [*corners, *interior]:
        r = residual(metrics_from_frames(points[:, :4], points[:, 4]), "edge")
        assert np.all((enc.lo <= r) & (r <= enc.hi))


def test_both_is_mean_value_intersected_with_lemma():
    rng = np.random.default_rng(4096)
    box, _, _ = _random_boxes(rng, 20_000, width_scale=0.1)
    both = residual_enclosure(box, "both")
    expect = edge_mean_value_enclosure(box).intersect(residual_enclosure(box, "lemma"))
    assert np.array_equal(both.lo, expect.lo)
    assert np.array_equal(both.hi, expect.hi)


def test_gradient_containment_by_finite_differences():
    rng = np.random.default_rng(777)
    box, p_mid, w_mid = _random_boxes(rng, 2_000, width_scale=0.05)
    di = edge_residual_with_gradient(box)
    h = 1e-6
    coords = np.concatenate([p_mid, w_mid[:, None]], axis=1)

    def f(c):
        return residual(metrics_from_frames(c[:, :4], c[:, 4]), "edge")

    for j in range(5):
        up = coords.copy()
        dn = coords.copy()
        up[:, j] += h
        dn[:, j] -= h
        fd = (f(up) - f(dn)) / (2 * h)
        lo, hi = di.grad.lo[j], di.grad.hi[j]
        # finite differences carry O(h^2) truncation error
        assert np.all((lo - 1e-5 <= fd) & (fd <= hi + 1e-5)), j


def _mean_value_with_centre(monkeypatch, box):
    """The mean-value enclosure of `box` and the centre it chose, captured
    from its point evaluation, as an (n, 5) array."""
    seen = []
    enclose = interval.residual_enclosure

    def capture(point, path="edge"):
        seen.append(point)
        return enclose(point, path)

    monkeypatch.setattr(interval, "residual_enclosure", capture)
    enc = edge_mean_value_enclosure(box)
    monkeypatch.undo()
    (point,) = seen
    coords = (point.p1, point.p2, point.p3, point.p4, point.w)
    assert all(np.array_equal(c.lo, c.hi) for c in coords)
    return enc, np.stack([c.lo for c in coords], axis=1)


def _box_array(box):
    coords = (box.p1, box.p2, box.p3, box.p4, box.w)
    return np.stack([np.stack([c.lo, c.hi], axis=1) for c in coords], axis=1)


def test_mean_value_enclosure_contains_point_values(monkeypatch):
    # the form encloses the five-variable residual over the whole box, off
    # the gauge plane too: every corner, the chosen centre and seeded
    # interior points
    rng = np.random.default_rng(31337)
    box, p_mid, w_mid = _random_boxes(rng, 20_000, width_scale=0.05)
    enc, centre = _mean_value_with_centre(monkeypatch, box)
    arr = _box_array(box)
    corners = [arr[:, np.arange(5), list(bits)] for bits in np.ndindex(*(2,) * 5)]
    interior = [arr[:, :, 0] + rng.uniform(size=(len(arr), 5)) * (arr[:, :, 1] - arr[:, :, 0])
                for _ in range(8)]
    gauge = np.concatenate([p_mid, w_mid[:, None]], axis=1)
    for points in [gauge, centre, *corners, *interior]:
        r = residual(metrics_from_frames(points[:, :4], points[:, 4]), "edge")
        assert np.all((enc.lo <= r) & (r <= enc.hi))


def test_mean_value_centre_is_the_end_a_one_signed_partial_names(monkeypatch):
    # where a partial's enclosure excludes 0 the residual is monotone in
    # that coordinate, and the lower-optimal centre is the end where it is
    # lowest: the low end for a positive partial, the high end for a
    # negative one; elsewhere the centre stays inside the box
    rng = np.random.default_rng(2718)
    box, _, _ = _random_boxes(rng, 20_000, width_scale=0.02)
    _, centre = _mean_value_with_centre(monkeypatch, box)
    grad = edge_residual_with_gradient(box).grad
    arr = _box_array(box)
    lo, hi = arr[:, :, 0].T, arr[:, :, 1].T
    rising, falling = grad.lo > 0.0, grad.hi < 0.0
    wide = lo < hi
    assert np.count_nonzero(rising & wide) > 1_000 and np.count_nonzero(falling & wide) > 1_000
    assert np.array_equal(centre.T[rising], lo[rising])
    assert np.array_equal(centre.T[falling], hi[falling])
    assert np.all((lo <= centre.T) & (centre.T <= hi))
    # where the partial spans 0 both ends of partial * (x - c) reach the
    # same low value
    spans = wide & (grad.lo < 0.0) & (grad.hi > 0.0)
    assert np.count_nonzero(spans) > 1_000
    low_side = (grad.hi * (centre.T - lo))[spans]
    high_side = (-grad.lo * (hi - centre.T))[spans]
    assert np.allclose(low_side, high_side, rtol=1e-6, atol=0.0)


def test_inclusion_monotonicity_core_ops():
    rng = np.random.default_rng(55)
    for _ in range(2_000):
        outer = rand_interval(rng)
        t = np.sort(rng.uniform(0, 1, 2))
        inner = Interval(outer.lo + t[0] * (outer.hi - outer.lo),
                         outer.lo + t[1] * (outer.hi - outer.lo))
        other = rand_interval(rng)
        assert (inner + other).subset_of(outer + other)
        assert (inner * other).subset_of(outer * other)
        assert (inner - other).subset_of(outer - other)
        assert isqr(inner).subset_of(isqr(outer))
        assert isin(inner).subset_of(isin(outer))
        assert icos(inner).subset_of(icos(outer))


def test_inclusion_monotonicity_residual():
    rng = np.random.default_rng(808)
    outer, p_mid, w_mid = _random_boxes(rng, 5_000, width_scale=0.08)

    def shrink(iv, t0, t1):
        width = iv.hi - iv.lo
        return Interval(iv.lo + t0 * width, iv.hi - t1 * width)

    t = rng.uniform(0.0, 0.3, size=(5_000, 10))
    inner = FrameBox(shrink(outer.p1, t[:, 0], t[:, 1]),
                     shrink(outer.p2, t[:, 2], t[:, 3]),
                     shrink(outer.p3, t[:, 4], t[:, 5]),
                     shrink(outer.p4, t[:, 6], t[:, 7]),
                     shrink(outer.w, t[:, 8], t[:, 9]), outer.margin)
    for path in ("edge", "lemma"):
        enc_in = residual_enclosure(inner, path)
        enc_out = residual_enclosure(outer, path)
        assert np.all(enc_in.subset_of(enc_out)), path


def test_width_convergence_under_halving():
    rng = np.random.default_rng(99)
    for _ in range(20):
        simplex = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        p_mid = 0.1 + 0.6 * simplex
        w_mid = rng.uniform(0.2 * math.pi, 0.8 * math.pi)
        widths = []
        for half in (0.02, 0.01):
            box = FrameBox(
                Interval(p_mid[0] - half, p_mid[0] + half),
                Interval(p_mid[1] - half, p_mid[1] + half),
                Interval(p_mid[2] - half, p_mid[2] + half),
                Interval(p_mid[3] - half, p_mid[3] + half),
                Interval(w_mid - half, w_mid + half), 0.05)
            widths.append(float(residual_enclosure(box, "both").width))
        assert widths[1] <= widths[0] / 1.5


# ---------------------------------------------------------------------------
# frame boxes and enclosures
# ---------------------------------------------------------------------------

def test_degenerate_box_at_square_frame():
    quarter = Interval.point(0.25)
    box = FrameBox(quarter, quarter, quarter, quarter,
                   Interval.point(math.pi / 2), 0.1)
    enc = residual_enclosure(box, "both")
    expect = 2.0 * (math.sqrt(2.0) / 4.0) ** 6  # exactly 1/256
    assert contains(enc, expect)
    assert enc.width <= 1e-9


def test_whole_domain_enclosure_contains_samples():
    margin = 0.1
    # the p4 interval the gauge leaves for p1, p2, p3 in [margin, 0.7]
    p_range = Interval(margin, 0.7)
    box = FrameBox(p_range, p_range, p_range, p_range,
                   Interval(margin * math.pi, (1 - margin) * math.pi), margin)
    enc = residual_enclosure(box, "both")
    p, w = sample_frames(1234, 1000, margin=margin)
    r = residual(metrics_from_frames(p, w), "edge")
    assert np.isfinite(enc.lo) and np.isfinite(enc.hi)
    assert np.all((enc.lo <= r) & (r <= enc.hi))


def test_midpoint_residual_in_enclosure():
    rng = np.random.default_rng(17)
    box, p_mid, w_mid = _random_boxes(rng, 200)
    mids = _box_array(box).mean(axis=2)
    r = residual(metrics_from_frames(mids[:, :4], mids[:, 4]), "edge")
    enc = residual_enclosure(box, "both")
    assert np.all((enc.lo <= r) & (r <= enc.hi))


def test_interval_serialization_pairs():
    iv = Interval(0.1, 0.2)
    from quadineq.ioutil import dumps
    text = dumps([iv.lo, iv.hi])
    lo, hi = [float(v) for v in text.strip("[]").split(",")]
    assert lo == 0.1 and hi == 0.2
