"""Formula evaluation paths and the identity/inequality audit."""

import json
import math

import numpy as np
import pytest

from quadineq.geometry import (
    metrics,
    metrics_from_frames,
    quad_from_points,
    sample_frames,
)
from quadineq.ioutil import dumps
from quadineq.kernel import (
    _EXPANDED_TERMS,
    _MULT1_TERMS,
    angle_sum_hypotheses,
    audit,
    audit_samples,
    edge_terms,
    forms,
    normalized_residual,
    residual,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

SQUARE = quad_from_points((0, 0), (1, 0), (1, 1), (0, 1))
RECT21 = quad_from_points((0, 0), (2, 0), (2, 1), (0, 1))

IDENTITY_TOL = 1e-9   # relative to abcdef
INEQ_TOL = 1e-12


def oracle_edge_terms(pts):
    """Independent oracle: edge expressions straight from coordinates."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = pts
    hyp = math.hypot
    a, b, c = hyp(x3 - x2, y3 - y2), hyp(x3 - x1, y3 - y1), hyp(x2 - x1, y2 - y1)
    d, e, f = hyp(x1 - x4, y1 - y4), hyp(x4 - x2, y4 - y2), hyp(x4 - x3, y4 - y3)

    def area(p, q, r):
        return 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    A123 = area(pts[0], pts[1], pts[2])
    A124 = area(pts[0], pts[1], pts[3])
    A134 = area(pts[0], pts[2], pts[3])
    A234 = area(pts[1], pts[2], pts[3])
    return {
        "e12": f * A123 * A124 * (a + b + e + d - 2 * c),
        "e23": d * A123 * A234 * (c + b + e + f - 2 * a),
        "e34": c * A134 * A234 * (d + b + e + a - 2 * f),
        "e41": a * A124 * A134 * (c + e + b + f - 2 * d),
        "e13": e * A123 * A134 * (c + a + d + f - 2 * b),
        "e24": b * A124 * A234 * (c + d + a + f - 2 * e),
    }


# ---------------------------------------------------------------------------
# exact hand-derived values
# ---------------------------------------------------------------------------

def test_square_edge_terms():
    terms = edge_terms(metrics(SQUARE))
    for name in ("e12", "e23", "e34", "e41"):
        assert terms[name] == pytest.approx(SQRT2 / 2, abs=1e-14)
    for name in ("e13", "e24"):
        assert terms[name] == pytest.approx(SQRT2 - 1, abs=1e-14)
    oracle = oracle_edge_terms(SQUARE.vertices)
    assert list(terms) == list(oracle)
    for name, value in oracle.items():
        assert terms[name] == pytest.approx(value, abs=1e-15)


def test_rectangle_edge_terms():
    terms = edge_terms(metrics(RECT21))
    assert terms["e12"] == pytest.approx(4 * SQRT5 - 4, abs=1e-13)
    assert terms["e34"] == pytest.approx(4 * SQRT5 - 4, abs=1e-13)
    assert terms["e23"] == pytest.approx(2 + 2 * SQRT5, abs=1e-13)
    assert terms["e41"] == pytest.approx(2 + 2 * SQRT5, abs=1e-13)
    assert terms["e13"] == pytest.approx(6 * SQRT5 - 10, abs=1e-13)
    assert terms["e24"] == pytest.approx(6 * SQRT5 - 10, abs=1e-13)
    oracle = oracle_edge_terms(RECT21.vertices)
    for name, value in oracle.items():
        assert terms[name] == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("path", ["edge", "expanded", "lemma"])
def test_square_residual_is_two(path):
    assert residual(metrics(SQUARE), path) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("path", ["edge", "expanded", "lemma"])
def test_rectangle_residual_is_sixteen(path):
    assert residual(metrics(RECT21), path) == pytest.approx(16.0, abs=1e-12)


def test_edge_term_homogeneity():
    terms = edge_terms(metrics(SQUARE))
    scaled = edge_terms(metrics(SQUARE.scaled(2.0)))
    for name in ("e12", "e23", "e34", "e41", "e13", "e24"):
        assert scaled[name] == pytest.approx(64.0 * terms[name], rel=1e-12)


def test_rectangle_x_group_vanishes():
    f = forms(metrics(RECT21))
    assert f["mult1-x-raw"] == pytest.approx(0.0, abs=1e-12)
    assert f["mult1-x"] == pytest.approx(0.0, abs=1e-14)
    assert f["mult1-y"] == pytest.approx(0.0, abs=1e-14)


def test_square_multiplicity_two_vanishes():
    f = forms(metrics(SQUARE))
    assert f["mult2-raw"] == pytest.approx(0.0, abs=1e-14)
    assert f["mult2-closed"] == pytest.approx(0.0, abs=1e-14)


def test_rectangle_multiplicity_two_vanishes():
    f = forms(metrics(RECT21))
    # raw composition: -4 - 16 + 20
    assert f["mult2-raw"] == pytest.approx(0.0, abs=1e-12)
    assert f["mult2-closed"] == pytest.approx(0.0, abs=1e-12)


def test_square_angular_parts():
    f = forms(metrics(SQUARE))
    assert f["p1-closed"] == pytest.approx(0.5, abs=1e-14)
    assert f["p2-closed"] == pytest.approx(-0.5, abs=1e-14)


def test_equilateral_cosine_identity():
    # the rhombus with 30-degree angles at z1 and z3 has the triple
    # u = beta4 - alpha1 = 75 - 15, v = alpha2 - beta1 = 75 - 15 and
    # t = gamma1 + gamma3 = 30 + 30 degrees: pi/3 each
    half = 2.0 - math.sqrt(3.0)  # tan(15 degrees)
    m = metrics(quad_from_points((1, 0), (0, half), (-1, 0), (0, -half)))
    for angle in (m.beta4 - m.alpha1, m.alpha2 - m.beta1, m.gamma1 + m.gamma3):
        assert angle == pytest.approx(math.pi / 3, abs=1e-14)
    f = forms(m)
    assert f["cosine-triple-cos"] == pytest.approx(1.5, abs=1e-15)
    assert f["cosine-triple-sin"] - f["cosine-triple-cos"] == pytest.approx(0.0, abs=1e-15)


def test_square_sine_bound_slacks():
    f = forms(metrics(SQUARE))
    assert f["sine-bound-1"] == pytest.approx(SQRT2 / 2, abs=1e-12)
    assert f["sine-bound-2"] == pytest.approx(SQRT2 / 2, abs=1e-12)
    assert f["sine-bound-3"] == pytest.approx(1.0, abs=1e-12)


def test_rectangle_sine_bound_three():
    assert forms(metrics(RECT21))["sine-bound-3"] == pytest.approx(1.0, abs=1e-12)


def test_square_angular_core():
    # the three factored groups contribute 0 + 0 + 1 and the even deficit
    # vanishes; consistency: core + odd part + 1/2 reproduces the
    # dimensionless residual
    m = metrics(SQUARE)
    f = forms(m)
    assert f["angular-core"] == pytest.approx(1.0, abs=1e-12)
    assert f["angular-core"] + f["p2-closed"] + 0.5 \
        == pytest.approx(normalized_residual(m), abs=1e-12)
    assert f["normalized-residual"] == normalized_residual(m)
    assert bool(angle_sum_hypotheses(m))


def test_rectangle_angular_core():
    m = metrics(RECT21)
    assert forms(m)["angular-core"] == pytest.approx(0.8, abs=1e-12)
    assert bool(angle_sum_hypotheses(m))


def test_square_remainder_and_chain():
    f = forms(metrics(SQUARE))
    assert f["remainder"] == pytest.approx(1.0, abs=1e-12)
    assert f["final-chain"] == pytest.approx(1.0, abs=1e-12)


def test_rectangle_remainder_and_chain():
    f = forms(metrics(RECT21))
    sin_w = math.sin(math.acos(-0.6))
    assert f["remainder"] == pytest.approx(sin_w, abs=1e-12)
    assert f["final-chain"] == pytest.approx(sin_w, abs=1e-12)


# ---------------------------------------------------------------------------
# term bookkeeping
# ---------------------------------------------------------------------------

def test_expanded_table_shape():
    assert len(_EXPANDED_TERMS) == 30
    mult_one = [t for t in _EXPANDED_TERMS if abs(t[0]) == 1]
    mult_two = [t for t in _EXPANDED_TERMS if abs(t[0]) == 2]
    assert len(mult_one) == 24 and len(mult_two) == 6


def test_multiplicity_one_groups_partition_expanded_terms():
    mult_one = {t for t in _EXPANDED_TERMS if abs(t[0]) == 1}
    grouped = set()
    avoided = {"x": {"a", "d"}, "y": {"c", "f"}, "w": {"b", "e"}}
    for name, terms in _MULT1_TERMS.items():
        assert len(terms) == 8
        for t in terms:
            assert not ({t[1], t[2]} & avoided[name])
        grouped |= set(terms)
    assert grouped == mult_one


def test_edge_table_equals_the_written_out_formulas_bit_for_bit():
    p, w = sample_frames(97, 8_192, margin=0.01)
    m = metrics_from_frames(p, w)
    a, b, c, d, e, f = m.a, m.b, m.c, m.d, m.e, m.f
    A123, A124, A134, A234 = m.A123, m.A124, m.A134, m.A234
    # the sums in the order the interval enclosures take them
    written = {
        "e12": f * A123 * A124 * (((a + b) + (e + d)) - 2.0 * c),
        "e23": d * A123 * A234 * (((c + b) + (e + f)) - 2.0 * a),
        "e34": c * A134 * A234 * (((d + b) + (e + a)) - 2.0 * f),
        "e41": a * A124 * A134 * (((c + e) + (b + f)) - 2.0 * d),
        "e13": e * A123 * A134 * (((c + a) + (d + f)) - 2.0 * b),
        "e24": b * A124 * A234 * (((c + d) + (a + f)) - 2.0 * e),
    }
    terms = edge_terms(m)
    assert list(terms) == list(written)
    for name, value in written.items():
        assert np.array_equal(terms[name], value), name
    lhs = (written["e12"] + written["e23"]) + (written["e34"] + written["e41"])
    assert np.array_equal(residual(m, "edge"), lhs - (written["e13"] + written["e24"]))
    assert np.array_equal(normalized_residual(m),
                          residual(m, "edge") / (((a * b) * (c * d)) * (e * f)))


def test_group_sums_recompose_expanded_residual():
    p, w = sample_frames(53, 4096, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    f = forms(m)
    total = f["mult1-x-raw"] + f["mult1-y-raw"] + f["mult1-w-raw"] + f["mult2-raw"]
    np.testing.assert_array_less(np.abs(total - f["expanded"]), 1e-12 * K)
    assert np.array_equal(f["expanded"], residual(m, "expanded"))


# ---------------------------------------------------------------------------
# identity properties on random samples
# ---------------------------------------------------------------------------

def test_three_paths_agree():
    p, w = sample_frames(59, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    r = residual(m, "edge")
    np.testing.assert_array_less(np.abs(r - residual(m, "expanded")), IDENTITY_TOL * K)
    np.testing.assert_array_less(np.abs(r - residual(m, "lemma")), IDENTITY_TOL * K)


@pytest.mark.parametrize("group", ["X", "Y", "W"])
def test_group_raw_vs_factored(group):
    p, w = sample_frames(61, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    f = forms(m)
    raw = f[f"mult1-{group.lower()}-raw"]
    fact = f[f"mult1-{group.lower()}"]
    np.testing.assert_array_less(np.abs(raw - fact), IDENTITY_TOL * K)


def test_multiplicity_two_raw_vs_closed():
    p, w = sample_frames(67, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    f = forms(m)
    np.testing.assert_array_less(np.abs(f["mult2-raw"] - f["mult2-closed"]),
                                 IDENTITY_TOL * K)


def test_angular_parts_definition_vs_closed():
    p, w = sample_frames(71, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    f = forms(m)
    np.testing.assert_allclose(f["p1-definition"], f["p1-closed"], atol=1e-10, rtol=0)
    np.testing.assert_allclose(f["p2-definition"], f["p2-closed"], atol=1e-10, rtol=0)
    # abcdef * (p1 + p2) reproduces the raw multiplicity-two sum
    K = m.a * m.b * m.c * m.d * m.e * m.f
    np.testing.assert_array_less(
        np.abs(K * (f["p1-closed"] + f["p2-closed"]) - f["mult2-raw"]), IDENTITY_TOL * K)


def test_sign_adjudication_is_decisive():
    p, w = sample_frames(73, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    f = forms(m)
    err_plus = np.max(np.abs(f["mult2-raw"] - f["mult2-plus"]) / K)
    assert err_plus <= IDENTITY_TOL
    generic = np.abs(np.sin(m.gamma2) * np.sin(m.gamma4)) >= 0.1
    err_minus_generic = np.abs(f["mult2-raw"] - f["mult2-minus"]) / K
    assert np.all(err_minus_generic[generic] >= 1e6 * IDENTITY_TOL)


def test_cosine_identity_on_derived_triple():
    p, w = sample_frames(79, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    u = m.beta4 - m.alpha1
    v = m.alpha2 - m.beta1
    t = m.gamma1 + m.gamma3
    np.testing.assert_allclose(u + v + t, math.pi, atol=1e-12, rtol=0)
    f = forms(m)
    np.testing.assert_array_equal(f["cosine-triple-cos"],
                                  np.cos(u) + np.cos(v) + np.cos(t))
    assert np.max(np.abs(f["cosine-triple-cos"] - f["cosine-triple-sin"])) <= IDENTITY_TOL


def test_core_remainder_split_identity():
    p, w = sample_frames(83, 20_000, margin=0.01)
    m = metrics_from_frames(p, w)
    f = forms(m)
    split = (2.0 * np.sin((m.Wp - m.Y) / 2) * np.sin((m.W - m.X) / 2)
             * np.sin((m.X + m.Y) / 2) + f["remainder"])
    np.testing.assert_array_equal(f["core-split"], split)
    np.testing.assert_allclose(f["angular-core"], split, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# inequality properties
# ---------------------------------------------------------------------------

def test_residual_nonnegative_on_samples():
    p, w = sample_frames(89, 50_000, margin=0.01)
    m = metrics_from_frames(p, w)
    K = m.a * m.b * m.c * m.d * m.e * m.f
    assert np.min(residual(m, "edge") / K) >= -INEQ_TOL


def test_residual_positive_near_degenerate_frame():
    # one ray collapsing keeps the residual positive but below the interior
    # level; a collapsing diagonal (p1 = p3 -> 0 with w -> 0) drives the
    # normalized residual toward the infimum 0
    eps = 1e-4
    rest = (1.0 - eps) / 3.0
    m = metrics_from_frames(np.array([[rest, rest, rest, eps]]), np.array([1.3]))
    value = normalized_residual(m)[0]
    uniform = metrics_from_frames(np.array([[0.25] * 4]), np.array([1.3]))
    assert value >= 0.0
    assert value < normalized_residual(uniform)[0]

    thin = np.array([[eps, 0.5 - eps, eps, 0.5 - eps]])
    m_thin = metrics_from_frames(thin, np.array([40.0 * eps]))
    assert 0.0 <= normalized_residual(m_thin)[0] < 1e-6


@pytest.mark.parametrize("index", [1, 2, 3])
def test_sine_bounds_nonnegative(index):
    p, w = sample_frames(97, 50_000, margin=0.01)
    m = metrics_from_frames(p, w)
    assert np.min(forms(m)[f"sine-bound-{index}"]) >= -INEQ_TOL


def test_angular_core_nonneg_under_hypotheses():
    p, w = sample_frames(101, 50_000, margin=0.01)
    m = metrics_from_frames(p, w)
    hyp = angle_sum_hypotheses(m)
    assert 0 < hyp.sum() < hyp.size  # both populations exercised
    f = forms(m)
    assert np.min(f["angular-core"][hyp]) >= -INEQ_TOL
    assert np.min(f["final-chain"][hyp]) >= -INEQ_TOL


def test_remainder_nonneg_for_nonnegative_x_y():
    p, w = sample_frames(103, 50_000, margin=0.01)
    m = metrics_from_frames(p, w)
    mask = (m.X >= 0) & (m.Y >= 0)
    assert mask.sum() > 0
    assert np.min(forms(m)["remainder"][mask]) >= -INEQ_TOL


def test_residual_homogeneity_degree_six():
    q = quad_from_points((0.1, 0.2), (2.3, 0.1), (2.0, 1.7), (0.4, 1.2))
    r = residual(metrics(q), "edge")
    for s in (0.5, 3.0):
        rs = residual(metrics(q.scaled(s)), "edge")
        assert rs == pytest.approx(s ** 6 * r, rel=1e-10)


def test_residual_invariant_under_relabeling():
    q = quad_from_points((0.1, 0.2), (2.3, 0.1), (2.0, 1.7), (0.4, 1.2))
    r = residual(metrics(q), "edge")
    relabeled = q
    for _ in range(4):
        relabeled = relabeled.relabeled()
        assert residual(metrics(relabeled), "edge") == pytest.approx(r, rel=1e-10)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_square_passes():
    report = audit(SQUARE, tol=1e-9)
    assert report.passed()
    assert report.sign_resolution == "plus"
    assert report.samples == 1


def test_audit_batch_passes_and_serializes():
    report = audit_samples(7, 5000, margin=0.01)
    assert report.passed()
    assert report.sign_resolution == "plus"
    assert report.check("mult2-sign-resolution").extra["conclusive"]
    doc = report.to_json_dict()
    assert doc["samples"] == 5000 and doc["seed"] == 7
    assert {"id", "max_err", "min_slack", "pass"} <= set(doc["checks"][0])
    assert doc["sign_resolution"] == "plus"


def test_audit_respects_hypothesis_filter():
    # out-of-hypothesis samples still pass the residual check; the core
    # check is reported as skipped when nothing satisfies the filter
    from quadineq.geometry import frame_vertices, quad_from_points as qfp
    for seed in range(500):
        p, w = sample_frames([seed, 999], 1, margin=0.05)
        m = metrics_from_frames(p, w)
        if not bool(angle_sum_hypotheses(m)[0]):
            x1, y1, x2, y2, x3, y3, x4, y4 = (float(np.asarray(c)[0])
                                              for c in frame_vertices(p, w))
            report = audit(qfp((x1, y1), (x2, y2), (x3, y3), (x4, y4)))
            core = report.check("angular-core-nonneg")
            assert core.skipped and core.passed
            assert report.check("residual-nonneg").passed
            return
    pytest.skip("no out-of-hypothesis sample found")


def test_audit_fails_closed_on_a_nan_row():
    # a NaN row must neither hide the finite row of its batch nor pass
    m = metrics_from_frames([[0.25, 0.25, 0.25, 0.25], [0.3, 0.2, 0.25, 0.25]],
                            [math.nan, 1.0])
    with np.errstate(invalid="ignore"):
        report = audit(m)
    assert not report.passed()
    doc = json.loads(dumps(report.to_json_dict()))
    for check in doc["checks"]:
        if check.get("skipped"):
            continue
        assert check["pass"] is False and check["nonfinite"] >= 1, check["id"]
        value = check["min_slack"] if check["kind"] == "inequality" else check["max_err"]
        if check.get("in_hypothesis") == 0:
            # the finite row lies outside the angle-sum hypotheses, so only
            # the NaN row reaches these checks, and it fails them
            assert value is None, check["id"]
            continue
        assert value is not None and math.isfinite(value), check["id"]
    assert report.check("residual-edge-vs-lemma").max_err < IDENTITY_TOL
    resolution = report.check("mult2-sign-resolution")
    assert resolution.extra["nonfinite"] == 2 and not resolution.extra["conclusive"]


def test_audit_of_an_all_nan_batch_fails_and_serializes():
    m = metrics_from_frames([[0.25, 0.25, 0.25, 0.25]], [math.nan])
    with np.errstate(invalid="ignore"):
        report = audit(m)
    assert not report.passed()
    doc = json.loads(dumps(report.to_json_dict()))
    residual_check = next(c for c in doc["checks"] if c["id"] == "residual-nonneg")
    assert residual_check["min_slack"] is None and residual_check["nonfinite"] == 1
    assert all(c["max_err"] is None for c in doc["checks"] if c["kind"] == "identity")


def test_clean_audit_reports_carry_no_nonfinite_key():
    doc = audit_samples(7, 2000, margin=0.01).to_json_dict()
    assert all("nonfinite" not in check for check in doc["checks"])


def test_audit_counts_every_row_of_a_batch():
    m = metrics_from_frames([[0.25, 0.25, 0.25, 0.25]] * 3, [0.9, 1.2, 1.4])
    assert audit(m).samples == 3
    assert audit(quad_from_points((0, 0), (1, 0), (1, 1), (0, 1))).samples == 1


def test_hypothesis_filtered_checks_fail_on_a_nan_row():
    # NaN angles fail the angle-sum hypotheses, so the row must be counted
    # as non-finite before the filter drops it
    m = metrics_from_frames([[0.25, 0.25, 0.25, 0.25]] * 2, [math.nan, 1.4])
    with np.errstate(invalid="ignore"):
        report = audit(m)
    for cid in ("angular-core-nonneg", "final-chain-nonneg"):
        check = report.check(cid)
        assert not check.passed and not check.skipped, cid
        assert check.extra == {"nonfinite": 1, "in_hypothesis": 1}, cid
        assert math.isfinite(check.min_slack), cid
    with np.errstate(invalid="ignore"):
        alone = audit(metrics_from_frames([[0.25, 0.25, 0.25, 0.25]], [math.nan]))
    check = alone.check("final-chain-nonneg")
    assert not check.passed and check.min_slack is None
    assert check.extra == {"nonfinite": 1, "in_hypothesis": 0}
