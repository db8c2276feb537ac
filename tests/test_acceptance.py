"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy sample pass (criteria 2-4) audits one million seeded convex
configurations in vectorized chunks; certification (criterion 5) runs the
full margin-0.1 branch-and-bound and replays the certificate from its JSON
serialization.
"""

import json
import math
import time

import numpy as np
import pytest

from quadineq.certifier import certify, verify_certificate
from quadineq.geometry import (
    metrics,
    metrics_from_frames,
    quad_from_points,
    sample_frames,
)
from quadineq.interval import (
    FrameBox,
    Interval,
    icos,
    isin,
    isqr,
    residual_enclosure,
)
from quadineq.ioutil import dumps
from quadineq.kernel import audit_samples, residual
from quadineq.search import boundary_trend, minimize_residual

IDENTITY_TOL = 1e-9
INEQ_TOL = 1e-12

N_SAMPLES = 1_000_000
AUDIT_SEED = 20240501

SQUARE = quad_from_points((0, 0), (1, 0), (1, 1), (0, 1))
RECT21 = quad_from_points((0, 0), (2, 0), (2, 1), (0, 1))

_IDENTITY_CHECKS = (
    "residual-edge-vs-expanded", "residual-edge-vs-lemma",
    "mult1-x-raw-vs-factored", "mult1-y-raw-vs-factored",
    "mult1-w-raw-vs-factored", "mult2-raw-vs-closed",
    "p1-def-vs-closed", "p2-def-vs-closed", "cosine-triple-identity",
)
_INEQUALITY_CHECKS = (
    "residual-nonneg", "sine-bound-1", "sine-bound-2", "sine-bound-3",
    "angular-core-nonneg", "final-chain-nonneg",
)


@pytest.fixture(scope="module")
def big_audit():
    start = time.perf_counter()
    report = audit_samples(AUDIT_SEED, N_SAMPLES, tol=IDENTITY_TOL, margin=0.01)
    report.elapsed = time.perf_counter() - start
    return report


def test_acceptance_1_exact_values():
    start = time.perf_counter()
    worst = 0.0
    for quad, expect in ((SQUARE, 2.0), (RECT21, 16.0)):
        m = metrics(quad)
        for path in ("edge", "expanded", "lemma"):
            err = abs(residual(m, path) - expect)
            worst = max(worst, err)
            assert err <= 1e-12, (path, expect, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - residual(square)=2 and residual(2x1 rect)=16 "
          f"on all three paths, max abs err {worst:.2e}, {elapsed:.3f} s")


def test_acceptance_2_identity_suite(big_audit):
    worst = {}
    for cid in _IDENTITY_CHECKS:
        check = big_audit.check(cid)
        assert check.passed, cid
        assert check.max_err <= IDENTITY_TOL, (cid, check.max_err)
        worst[cid] = check.max_err
    assert big_audit.elapsed < 300.0
    top = max(worst.values())
    print(f"\nACCEPTANCE 2: PASS - {N_SAMPLES} samples (margin 0.01), "
          f"{len(_IDENTITY_CHECKS)} identity families, max rel err {top:.2e} "
          f"<= 1e-9, {big_audit.elapsed:.1f} s")


def test_acceptance_3_sign_adjudication(big_audit):
    check = big_audit.check("mult2-sign-resolution")
    assert big_audit.sign_resolution == "plus"
    assert check.extra["resolution"] == "plus"
    assert check.extra["err_plus"] <= IDENTITY_TOL
    assert check.extra["err_minus"] >= 1e6 * IDENTITY_TOL
    assert check.extra["conclusive"]
    # binary and reproducible under a different seed
    again = audit_samples(AUDIT_SEED + 1, 50_000, tol=IDENTITY_TOL, margin=0.01)
    assert again.sign_resolution == "plus"
    print(f"\nACCEPTANCE 3: PASS - multiplicity-two scalar form resolves to "
          f"'+sin(g2)sin(g4)' (winner err {check.extra['err_plus']:.2e}, "
          f"loser err {check.extra['err_minus']:.2e} >= 1e6x tol), reproducible")


def test_acceptance_4_inequality_suite(big_audit):
    slacks = {}
    for cid in _INEQUALITY_CHECKS:
        check = big_audit.check(cid)
        assert check.passed and not check.skipped, cid
        assert check.min_slack >= -INEQ_TOL, (cid, check.min_slack)
        slacks[cid] = check.min_slack
    n_hyp = big_audit.check("angular-core-nonneg").extra["in_hypothesis"]
    print(f"\nACCEPTANCE 4: PASS - zero violations over {N_SAMPLES} samples: "
          f"residual >= -1e-12*abcdef, three sine bounds, angular core and "
          f"final chain on {n_hyp} hypothesis-satisfying samples "
          f"(worst slack {min(slacks.values()):.2e})")


def test_acceptance_5_certification():
    start = time.perf_counter()
    cert = certify(margin=0.1, target=0.0, max_boxes=1_000_000)
    certify_time = time.perf_counter() - start
    assert cert.complete
    assert cert.c_star > 0.0
    assert cert.box_count <= 1_000_000

    doc = json.loads(dumps(cert.to_json_dict()))
    start = time.perf_counter()
    assert verify_certificate(doc) is True
    verify_time = time.perf_counter() - start

    tampered = json.loads(dumps(cert.to_json_dict()))
    tampered["leaves"][11]["lower_bound"] = \
        10.0 * tampered["leaves"][11]["lower_bound"] + 1e-6
    assert verify_certificate(tampered) is False

    assert certify_time + verify_time < 600.0
    print(f"\nACCEPTANCE 5: PASS - margin 0.1 certified: c*={cert.c_star:.3e} > 0, "
          f"{cert.box_count} boxes <= 1e6, {len(cert.bounds)} leaves, "
          f"certify {certify_time:.0f} s + replay {verify_time:.0f} s; "
          f"mutated certificate rejected")


def test_acceptance_6_falsification():
    start = time.perf_counter()
    res = minimize_residual(7, starts=256, margin=0.005, budget=2000)
    assert not res.flagged
    assert not res.genuine_candidates
    assert res.best_value > 0.0

    runs = boundary_trend(7, 256, [0.05, 0.005, 0.0005], 2000)
    values = [r.best_value for r in runs]
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 1e-3 * values[0]
    assert all(not r.flagged for r in runs)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6: PASS - 256 starts at margin 0.005: no counterexample "
          f"candidate, best {res.best_value:.3e} > 0; margins (0.05, 0.005, "
          f"0.0005) give decreasing minima {values[0]:.3e} > {values[1]:.3e} > "
          f"{values[2]:.3e} -> 0, {elapsed:.0f} s")


def test_acceptance_7_enclosure_soundness():
    rng = np.random.default_rng(90210)
    n = 100_000
    margin = 0.05
    simplex = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=n)
    p_mid = margin + (1.0 - 4.0 * margin) * simplex
    w_mid = rng.uniform(margin * math.pi, (1.0 - margin) * math.pi, size=n)
    half = rng.uniform(0.0, 0.15, size=(n, 5))
    p_lo = np.maximum(p_mid - half[:, :4], margin)
    p_hi = np.minimum(p_mid + half[:, :4], 1.0 - 3.0 * margin)
    w_lo = np.maximum(w_mid - half[:, 4], margin * math.pi)
    w_hi = np.minimum(w_mid + half[:, 4], (1.0 - margin) * math.pi)
    box = FrameBox(Interval(p_lo[:, 0], p_hi[:, 0]), Interval(p_lo[:, 1], p_hi[:, 1]),
                   Interval(p_lo[:, 2], p_hi[:, 2]), Interval(p_lo[:, 3], p_hi[:, 3]),
                   Interval(w_lo, w_hi), margin)
    r = residual(metrics_from_frames(p_mid, w_mid), "edge")
    violations = 0
    for path in ("edge", "lemma", "both"):
        enc = residual_enclosure(box, path)
        violations += int(np.sum((r < enc.lo) | (r > enc.hi)))
    assert violations == 0

    # inclusion monotonicity on nested boxes, core ops and the residual
    m = 10_000
    t = rng.uniform(0.0, 0.3, size=(m, 10))

    def shrink(iv, t0, t1):
        width = iv.hi - iv.lo
        return Interval(iv.lo + t0 * width, iv.hi - t1 * width)

    outer = FrameBox(Interval(p_lo[:m, 0], p_hi[:m, 0]), Interval(p_lo[:m, 1], p_hi[:m, 1]),
                     Interval(p_lo[:m, 2], p_hi[:m, 2]), Interval(p_lo[:m, 3], p_hi[:m, 3]),
                     Interval(w_lo[:m], w_hi[:m]), margin)
    inner = FrameBox(shrink(outer.p1, t[:, 0], t[:, 1]), shrink(outer.p2, t[:, 2], t[:, 3]),
                     shrink(outer.p3, t[:, 4], t[:, 5]), shrink(outer.p4, t[:, 6], t[:, 7]),
                     shrink(outer.w, t[:, 8], t[:, 9]), margin)
    mono_ok = True
    for path in ("edge", "lemma"):
        enc_in = residual_enclosure(inner, path)
        enc_out = residual_enclosure(outer, path)
        mono_ok &= bool(np.all(enc_in.subset_of(enc_out)))
    u_out = Interval(rng.uniform(-3, 0, m), rng.uniform(0.1, 3, m))
    tt = np.sort(rng.uniform(0, 1, size=(2, m)), axis=0)
    u_in = Interval(u_out.lo + tt[0] * u_out.width, u_out.lo + tt[1] * u_out.width)
    v = Interval(rng.uniform(-2, 0, m), rng.uniform(0.1, 2, m))
    mono_ok &= bool(np.all((u_in + v).subset_of(u_out + v)))
    mono_ok &= bool(np.all((u_in * v).subset_of(u_out * v)))
    mono_ok &= bool(np.all(isqr(u_in).subset_of(isqr(u_out))))
    mono_ok &= bool(np.all(isin(u_in).subset_of(isin(u_out))))
    mono_ok &= bool(np.all(icos(u_in).subset_of(icos(u_out))))
    assert mono_ok
    print(f"\nACCEPTANCE 7: PASS - {n} point-in-box containment checks across "
          f"three enclosure paths with zero violations; inclusion monotonicity "
          f"on {m} nested pairs (residual paths and core operations)")
