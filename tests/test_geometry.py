"""Geometry construction, metrics, frames, and sampling."""

import math

import numpy as np
import pytest

from quadineq.geometry import (
    ANGLE_FIELDS,
    DiagonalFrame,
    DuplicatePoints,
    GeometryError,
    InvalidFrame,
    NonConvex,
    frame_of,
    frame_vertices,
    metrics,
    metrics_from_frames,
    quad_from_frame,
    quad_from_json,
    quad_from_points,
    sample,
    sample_frames,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
RECT21 = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))

ANGLE_TOL = 1e-10     # absolute, radians
LENGTH_RTOL = 1e-12   # relative, lengths and areas


def coordinate_lengths(pts):
    """Independent oracle: pairwise lengths straight from coordinates."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = pts
    hyp = math.hypot
    return {
        "a": hyp(x3 - x2, y3 - y2), "b": hyp(x3 - x1, y3 - y1),
        "c": hyp(x2 - x1, y2 - y1), "d": hyp(x1 - x4, y1 - y4),
        "e": hyp(x4 - x2, y4 - y2), "f": hyp(x4 - x3, y4 - y3),
    }


def shoelace(p, q, r):
    return 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


# ---------------------------------------------------------------------------
# quad_from_points
# ---------------------------------------------------------------------------

def test_unit_square_is_valid():
    q = quad_from_points(*SQUARE)
    assert q.vertices == SQUARE


def test_collinear_triple_rejected():
    with pytest.raises(NonConvex):
        quad_from_points((0, 0), (1, 1), (2, 2), (0, 1))


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoints):
        quad_from_points((0, 0), (1, 0), (1, 0), (0, 1))


def test_reflex_vertex_rejected():
    with pytest.raises(NonConvex):
        quad_from_points((0, 0), (2, 0), (0.4, 0.4), (0, 2))


def test_bowtie_order_rejected():
    with pytest.raises(NonConvex):
        quad_from_points((0, 0), (1, 1), (1, 0), (0, 1))


def test_clockwise_square_reoriented():
    q = quad_from_points((0, 0), (0, 1), (1, 1), (1, 0))
    m = metrics(q)
    ref = metrics(quad_from_points(*SQUARE))
    for name in ("a", "b", "c", "d", "e", "f", "A123", "A124", "A134", "A234"):
        assert getattr(m, name) == pytest.approx(getattr(ref, name), rel=LENGTH_RTOL)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_square_metrics_exact():
    m = metrics(quad_from_points(*SQUARE))
    assert m.a == m.c == m.d == m.f == 1.0
    assert m.b == pytest.approx(SQRT2, rel=1e-15)
    assert m.e == pytest.approx(SQRT2, rel=1e-15)
    for area in (m.A123, m.A124, m.A134, m.A234):
        assert area == pytest.approx(0.5, rel=1e-15)
    for ang in (m.alpha1, m.alpha2, m.alpha3, m.alpha4,
                m.beta1, m.beta2, m.beta3, m.beta4):
        assert ang == pytest.approx(math.pi / 4, abs=ANGLE_TOL)
    assert m.X == pytest.approx(0.0, abs=ANGLE_TOL)
    assert m.Y == pytest.approx(0.0, abs=ANGLE_TOL)
    assert m.W == pytest.approx(math.pi / 2, abs=ANGLE_TOL)
    assert m.Wp == pytest.approx(math.pi / 2, abs=ANGLE_TOL)


def test_rectangle_metrics_exact():
    m = metrics(quad_from_points(*RECT21))
    assert (m.a, m.d) == (1.0, 1.0)
    assert (m.c, m.f) == (2.0, 2.0)
    assert m.b == pytest.approx(SQRT5, rel=1e-15)
    assert m.e == pytest.approx(SQRT5, rel=1e-15)
    for area in (m.A123, m.A124, m.A134, m.A234):
        assert area == pytest.approx(1.0, rel=1e-15)
    assert m.X == pytest.approx(0.0, abs=ANGLE_TOL)
    assert m.Y == pytest.approx(0.0, abs=ANGLE_TOL)
    assert m.W == pytest.approx(math.acos(-0.6), abs=ANGLE_TOL)


def test_lengths_match_coordinate_oracle():
    p, w = sample_frames(101, 64, margin=0.05)
    for i in range(64):
        frame = DiagonalFrame(*p[i], w[i], normalized=True)
        q = quad_from_frame(frame)
        m = metrics(q)
        oracle = coordinate_lengths(q.vertices)
        for name, value in oracle.items():
            assert getattr(m, name) == pytest.approx(value, rel=LENGTH_RTOL)


def test_area_formulas_from_split_angles():
    # the four diagonal-split area identities pin the angle convention
    p, w = sample_frames(7, 256, margin=0.02)
    m = metrics_from_frames(p, w)
    np.testing.assert_allclose(m.A123, 0.5 * m.b * m.c * np.sin(m.alpha1), rtol=1e-12)
    np.testing.assert_allclose(m.A124, 0.5 * m.c * m.e * np.sin(m.beta2), rtol=1e-12)
    np.testing.assert_allclose(m.A134, 0.5 * m.b * m.f * np.sin(m.alpha3), rtol=1e-12)
    np.testing.assert_allclose(m.A234, 0.5 * m.e * m.f * np.sin(m.beta4), rtol=1e-12)


def test_angle_identities():
    p, w = sample_frames(13, 512, margin=0.01)
    m = metrics_from_frames(p, w)
    gamma_sum = m.gamma1 + m.gamma2 + m.gamma3 + m.gamma4
    np.testing.assert_allclose(gamma_sum, 2 * math.pi, atol=1e-12, rtol=0)
    np.testing.assert_allclose(m.W + m.Wp, math.pi, atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.gamma1 - m.gamma3, m.X + m.Y, atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.gamma2 - m.gamma4, m.X - m.Y, atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.alpha1 - m.beta4, m.alpha3 - m.beta2,
                               atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.alpha4 - m.beta3, m.alpha2 - m.beta1,
                               atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.alpha3 - m.alpha1, -m.Y, atol=ANGLE_TOL, rtol=0)
    np.testing.assert_allclose(m.beta2 - m.beta4, -m.Y, atol=ANGLE_TOL, rtol=0)


def test_signed_angle_area_relations():
    # geometric readings of X and Y as area differences
    p, w = sample_frames(17, 512, margin=0.01)
    m = metrics_from_frames(p, w)
    np.testing.assert_allclose(2 * (m.A134 - m.A124), m.a * m.d * np.sin(m.X),
                               atol=1e-12, rtol=0)
    np.testing.assert_allclose(2 * (m.A123 - m.A124), m.c * m.f * np.sin(m.Y),
                               atol=1e-12, rtol=0)


def test_scale_equivariance():
    q = sample(23, margin=0.05)
    m = metrics(q)
    for s in (0.5, 3.0):
        ms = metrics(q.scaled(s))
        for name in ("a", "b", "c", "d", "e", "f"):
            assert getattr(ms, name) == pytest.approx(s * getattr(m, name),
                                                      rel=LENGTH_RTOL)
        for name in ("A123", "A124", "A134", "A234"):
            assert getattr(ms, name) == pytest.approx(s * s * getattr(m, name),
                                                      rel=LENGTH_RTOL)
        for name in ("alpha1", "beta3", "gamma2", "X", "Y", "W", "Wp"):
            assert getattr(ms, name) == pytest.approx(getattr(m, name),
                                                      abs=ANGLE_TOL)


def test_cyclic_relabel_permutes_metrics():
    # z1 z2 z3 z4 -> z2 z3 z4 z1 sends (a,b,c,d,e,f) -> (f,e,a,c,b,d), as
    # direct recomputation on the relabeled vertices shows
    q = sample(29, margin=0.05)
    m = metrics(q)
    mr = metrics(q.relabeled())
    expect = {"a": m.f, "b": m.e, "c": m.a, "d": m.c, "e": m.b, "f": m.d,
              "A123": m.A234, "A124": m.A123, "A134": m.A124, "A234": m.A134,
              "alpha1": m.alpha2, "beta1": m.beta2, "alpha2": m.alpha3,
              "beta2": m.beta3, "alpha3": m.alpha4, "beta3": m.beta4,
              "alpha4": m.alpha1, "beta4": m.beta1}
    for name, value in expect.items():
        assert getattr(mr, name) == pytest.approx(value, rel=1e-10, abs=1e-12)
    assert mr.X == pytest.approx(-m.Y, abs=ANGLE_TOL)
    assert mr.Y == pytest.approx(m.X, abs=ANGLE_TOL)
    assert mr.W == pytest.approx(m.Wp, abs=ANGLE_TOL)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_frame_of_square():
    fr = frame_of(quad_from_points(*SQUARE))
    for p in fr.p:
        assert p == pytest.approx(SQRT2 / 2, rel=1e-12)
    assert fr.w == pytest.approx(math.pi / 2, abs=ANGLE_TOL)


def test_frame_of_rectangle():
    fr = frame_of(quad_from_points(*RECT21))
    for p in fr.p:
        assert p == pytest.approx(SQRT5 / 2, rel=1e-12)
    assert fr.w == pytest.approx(math.acos(-0.6), abs=ANGLE_TOL)


def test_square_frame_reconstructs_unit_square_metrics():
    s = SQRT2 / 2
    q = quad_from_frame(DiagonalFrame(s, s, s, s, math.pi / 2))
    m = metrics(q)
    ref = metrics(quad_from_points(*SQUARE))
    for name in ("a", "b", "c", "d", "e", "f", "A123", "A234"):
        assert getattr(m, name) == pytest.approx(getattr(ref, name), rel=1e-12)


def test_rhombus_frame_angle():
    q = quad_from_frame(DiagonalFrame(1, 1, 1, 1, math.pi / 3))
    assert metrics(q).W == pytest.approx(math.pi / 3, abs=ANGLE_TOL)


def test_invalid_frames_rejected():
    with pytest.raises(InvalidFrame):
        DiagonalFrame(0.0, 1, 1, 1, 1.0)
    with pytest.raises(InvalidFrame):
        DiagonalFrame(1, 1, 1, 1, 0.0)
    with pytest.raises(InvalidFrame):
        DiagonalFrame(1, 1, 1, 1, math.pi)
    with pytest.raises(InvalidFrame):
        DiagonalFrame(0.5, 0.5, 0.5, 0.5, 1.0, normalized=True)


def test_frame_round_trip():
    p, w = sample_frames(31, 128, margin=0.02)
    for i in range(128):
        frame = DiagonalFrame(*p[i], w[i], normalized=True)
        back = frame_of(quad_from_frame(frame))
        for got, want in zip(back.p, frame.p):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert back.w == pytest.approx(frame.w, abs=1e-10)


def test_frame_round_trip_from_points():
    q = sample(37, strategy="point-rejection")
    m = metrics(q)
    m2 = metrics(quad_from_frame(frame_of(q)))
    for name in ("a", "b", "c", "d", "e", "f", "A123", "A124", "A134", "A234"):
        assert getattr(m2, name) == pytest.approx(getattr(m, name), rel=1e-10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_deterministic():
    assert sample(5).vertices == sample(5).vertices
    assert sample(5, strategy="point-rejection").vertices \
        == sample(5, strategy="point-rejection").vertices


def test_frame_uniform_respects_margin():
    p, w = sample_frames(41, 10_000, margin=0.1)
    assert np.all(p >= 0.1 - 1e-15)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    assert np.all(w >= 0.1 * math.pi) and np.all(w <= 0.9 * math.pi)


def test_point_rejection_outputs_convex():
    for seed in range(50):
        q = sample(seed, strategy="point-rejection")
        quad_from_points(*q.vertices)  # revalidates convexity


def test_margin_validation():
    with pytest.raises(GeometryError):
        sample(0, margin=0.3)
    with pytest.raises(GeometryError):
        sample(0, strategy="mystery")


def test_rejection_budget_exceeded():
    from quadineq.geometry import RejectionBudgetExceeded
    with pytest.raises(RejectionBudgetExceeded):
        sample(0, strategy="point-rejection", max_tries=0)


def test_batch_metrics_match_scalar_path():
    p, w = sample_frames(43, 32, margin=0.05)
    batch = metrics_from_frames(p, w)
    for i in range(32):
        frame = DiagonalFrame(*p[i], w[i], normalized=True)
        m = metrics(quad_from_frame(frame))
        for name in ("a", "f", "A123", "A234", "alpha1", "beta4", "X", "W"):
            assert getattr(batch, name)[i] == pytest.approx(getattr(m, name),
                                                            rel=1e-12, abs=1e-12)


def test_angles_are_computed_together_on_first_read():
    m = metrics(quad_from_points(*RECT21))
    assert not set(ANGLE_FIELDS) & set(vars(m)) and m._coords is not None
    assert m.X == pytest.approx(0.0, abs=ANGLE_TOL)
    assert set(ANGLE_FIELDS) <= set(vars(m)) and m._coords is None


@pytest.mark.parametrize("name", ["alpha5", "gamma", "Z", "angles"])
def test_metrics_have_no_attribute_outside_their_fields(name):
    m = metrics(quad_from_points(*SQUARE))
    with pytest.raises(AttributeError, match=name):
        getattr(m, name)
    assert not hasattr(m, name)
    assert m._coords is not None  # an unknown name computes no angle


def test_frame_vertices_shapes():
    p, w = sample_frames(47, 8, margin=0.05)
    coords = frame_vertices(p, w)
    assert len(coords) == 8
    assert all(np.shape(c) == (8,) for c in coords)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_points_json_round_trip():
    q = quad_from_points(*RECT21)
    doc = q.to_json_dict()
    q2 = quad_from_json("points", doc["points"])
    assert q2.vertices == q.vertices


def test_frame_json_round_trip():
    fr = DiagonalFrame(0.3, 0.2, 0.25, 0.25, 1.0, normalized=True)
    doc = fr.to_json_dict()
    q = quad_from_json("frame", doc["frame"])
    assert q.vertices == quad_from_frame(fr).vertices


def test_malformed_configuration_rejected():
    with pytest.raises(GeometryError):
        quad_from_json("points", [[0, 0], [1, 0]])
    with pytest.raises(GeometryError):
        quad_from_json("frame", {"p": [1, 2, 3], "w": 1.0})


@pytest.mark.parametrize("scale", [1e300, 1e160])
def test_squared_diameter_overflow_rejected(scale):
    with pytest.raises(GeometryError, match="diameter"):
        quad_from_points((0, 0), (scale, 0), (scale, scale), (0, scale))
