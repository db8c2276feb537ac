"""The kernel evaluates every closed form from one shared table of sines and
cosines.  Sharing must change no bits: each public closed form is compared
with np.array_equal against the formula written out with its own np.sin /
np.cos calls, and the audit report must not depend on the block size or on
the number of workers."""

import numpy as np
import pytest

from quadineq import kernel
from quadineq.geometry import metrics, metrics_from_frames, quad_from_points, sample_frames
from quadineq.kernel import (
    angle_sum_hypotheses,
    angular_core,
    angular_parts,
    audit_samples,
    cosine_triple_identity_gap,
    final_chain_slack,
    multiplicity_one_sum,
    multiplicity_two_scalar,
    multiplicity_two_sum,
    remainder_terms,
    residual,
    sine_bound_slack,
)

s = np.sin
co = np.cos


def reference_forms(m):
    """Every closed form, each trig factor evaluated where it is used."""
    K = m.a * m.b * m.c * m.d * m.e * m.f
    x = K * s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s((m.alpha1 - m.beta4) / 2)
    y = K * s(m.Y) * s(m.W / 2) * s(m.X / 2) * s((m.beta1 - m.alpha2) / 2)
    w = K * s(m.W) * co(m.X / 2) * co(m.Y / 2) * s((m.gamma1 + m.gamma3) / 2)
    p1 = 0.5 - 2.0 * s(m.X / 2) ** 2 * co(m.W / 2) ** 2 * co(m.Y / 2) ** 2 \
        - 2.0 * co(m.X / 2) ** 2 * co(m.Wp / 2) ** 2 * s(m.Y / 2) ** 2
    p2 = -0.5 - 2.0 * s((m.alpha1 - m.beta4) / 2) \
        * s((m.beta1 - m.alpha2) / 2) * s((m.gamma1 + m.gamma3) / 2)
    d1 = 0.25 * (co(m.alpha1 + m.beta4) + co(m.alpha3 + m.beta2)
                 + co(m.alpha4 + m.beta3) + co(m.alpha2 + m.beta1)
                 + co(m.gamma1 - m.gamma3) + co(m.gamma2 - m.gamma4))
    d2 = 0.25 * (-co(m.alpha1 - m.beta4) - co(m.alpha3 - m.beta2)
                 - co(m.alpha4 - m.beta3) - co(m.alpha2 - m.beta1)
                 - co(m.gamma1 + m.gamma3) - co(m.gamma2 + m.gamma4))

    def scalar(sign):
        return 0.5 * K * (
            -s(m.alpha1) * s(m.beta4) - s(m.alpha3) * s(m.beta2)
            - s(m.alpha4) * s(m.beta3) - s(m.alpha2) * s(m.beta1)
            + s(m.gamma1) * s(m.gamma3) + sign * s(m.gamma2) * s(m.gamma4))

    u, v, t = m.beta4 - m.alpha1, m.alpha2 - m.beta1, m.gamma1 + m.gamma3
    return {
        "mult1-x": x, "mult1-y": y, "mult1-w": w,
        "mult2-closed": K * (p1 + p2),
        "mult2-plus": scalar(1.0), "mult2-minus": scalar(-1.0),
        "p1-closed": p1, "p2-closed": p2, "p1-definition": d1, "p2-definition": d2,
        "lemma": x + y + w + K * (p1 + p2),
        "cosine-triple": np.abs(co(u) + co(v) + co(t)
                                - (1.0 + 4.0 * s(u / 2) * s(v / 2) * s(t / 2))),
        "sine-bound-1": s((m.Wp - m.Y) / 2) - np.abs(s((m.alpha1 - m.beta4) / 2)),
        "sine-bound-2": s((m.W - m.X) / 2) - np.abs(s((m.beta1 - m.alpha2) / 2)),
        "sine-bound-3": s((m.gamma1 + m.gamma3) / 2) - s((m.X + m.Y) / 2),
        "angular-core": (
            s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s((m.alpha1 - m.beta4) / 2)
            + s(m.Y) * s(m.W / 2) * s(m.X / 2) * s((m.beta1 - m.alpha2) / 2)
            + s(m.W) * co(m.X / 2) * co(m.Y / 2) * s((m.gamma1 + m.gamma3) / 2)
            + (p1 - 0.5)),
        "remainder": (
            2.0 * s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s(m.alpha3 / 2) * co(m.beta2 / 2)
            + 2.0 * s(m.Y) * s(m.W / 2) * s(m.X / 2) * s(m.beta3 / 2) * co(m.alpha4 / 2)
            + 2.0 * s(m.W) * co(m.X / 2) * co(m.Y / 2) * co(m.gamma1 / 2) * s(m.gamma3 / 2)),
        "final-chain": (
            2.0 * s((m.Wp - m.Y) / 2) * s((m.W - m.X) / 2) * s((m.X + m.Y) / 2)
            - 2.0 * s((m.beta4 - m.alpha1) / 2) * s((m.alpha2 - m.beta1) / 2)
            * s((m.gamma1 + m.gamma3) / 2)
            + 2.0 * s(m.W) * co(m.X / 2) * co(m.Y / 2) * co(m.gamma1 / 2) * s(m.gamma3 / 2)),
    }


def public_forms(m):
    closed = angular_parts(m, "closed")
    definition = angular_parts(m, "definition")
    return {
        "mult1-x": multiplicity_one_sum(m, "X", "factored"),
        "mult1-y": multiplicity_one_sum(m, "Y", "factored"),
        "mult1-w": multiplicity_one_sum(m, "W", "factored"),
        "mult2-closed": multiplicity_two_sum(m, "closed"),
        "mult2-plus": multiplicity_two_scalar(m, 1.0),
        "mult2-minus": multiplicity_two_scalar(m, -1.0),
        "p1-closed": closed.p1_value, "p2-closed": closed.p2_value,
        "p1-definition": definition.p1_value, "p2-definition": definition.p2_value,
        "lemma": residual(m, "lemma"),
        "cosine-triple": cosine_triple_identity_gap(
            m.beta4 - m.alpha1, m.alpha2 - m.beta1, m.gamma1 + m.gamma3),
        "sine-bound-1": sine_bound_slack(m, 1),
        "sine-bound-2": sine_bound_slack(m, 2),
        "sine-bound-3": sine_bound_slack(m, 3),
        "angular-core": angular_core(m),
        "remainder": remainder_terms(m),
        "final-chain": final_chain_slack(m),
    }


def frames_of(seed, n, margin):
    return metrics_from_frames(*sample_frames(seed, n, margin))


SHAPES = {
    "square": lambda: metrics(quad_from_points((0, 0), (1, 0), (1, 1), (0, 1))),
    "rectangle-2x1": lambda: metrics(quad_from_points((0, 0), (2, 0), (2, 1), (0, 1))),
    "kite": lambda: metrics(quad_from_points((0, 0), (1, -0.6), (3, 0), (1, 0.6))),
    "frames-margin-0": lambda: frames_of(113, 5_000, 0.0),
    "frames-margin-0.01": lambda: frames_of(113, 5_000, 0.01),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_table_forms_equal_the_formulas_bit_for_bit(shape):
    m = SHAPES[shape]()
    reference = reference_forms(m)
    public = public_forms(m)
    assert public.keys() == reference.keys()
    for name, value in reference.items():
        assert np.array_equal(public[name], value), name


def test_audit_report_does_not_depend_on_the_block_size(monkeypatch):
    # nor on the number of workers the blocks are dealt to, including three,
    # more than the audit ever starts by itself
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernel, "_AUDIT_WORKERS", workers)
        for block in (1_000, 8_192, 200_000):
            monkeypatch.setattr(kernel, "_AUDIT_BLOCK", block)
            reports.append(audit_samples(11, 40_001, margin=0.01).to_json_dict())
    assert all(report == reports[0] for report in reports[1:])
    assert reports[0]["pass"] is True
    # every drawn row is evaluated once: the hypothesis count matches a
    # direct count over the single 40,001-row draw
    in_hypothesis = angle_sum_hypotheses(frames_of([11, 0], 40_001, 0.01)).sum()
    core = next(c for c in reports[0]["checks"] if c["id"] == "angular-core-nonneg")
    assert core["in_hypothesis"] == in_hypothesis
