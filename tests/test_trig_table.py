"""forms(m) evaluates every closed form from one set of 47 sines and
cosines.  Sharing must change no bits: each closed form is compared with
np.array_equal against the formula written out with its own np.sin /
np.cos calls, and the audit report must not depend on the block size or on
the number of workers.  The audit's check tables name forms that exist and
report each check once, in table order."""

import numpy as np
import pytest

from quadineq import kernel
from quadineq.geometry import metrics, metrics_from_frames, quad_from_points, sample_frames
from quadineq.kernel import (
    _IDENTITIES,
    _INEQUALITIES,
    _SIGN_FORMS,
    angle_sum_hypotheses,
    audit,
    audit_samples,
    forms,
    residual,
)

s = np.sin
co = np.cos


def reference_forms(m):
    """Every closed form, each trig factor evaluated where it is used."""
    K = ((m.a * m.b) * (m.c * m.d)) * (m.e * m.f)
    gx = s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s((m.alpha1 - m.beta4) / 2)
    gy = s(m.Y) * s(m.W / 2) * s(m.X / 2) * s((m.beta1 - m.alpha2) / 2)
    gw = s(m.W) * co(m.X / 2) * co(m.Y / 2) * s((m.gamma1 + m.gamma3) / 2)
    even = 2.0 * (s(m.X / 2) ** 2 * co(m.W / 2) ** 2 * co(m.Y / 2) ** 2
                  + co(m.X / 2) ** 2 * co(m.Wp / 2) ** 2 * s(m.Y / 2) ** 2)
    odd = 2.0 * (s((m.alpha1 - m.beta4) / 2) * s((m.beta1 - m.alpha2) / 2)
                 * s((m.gamma1 + m.gamma3) / 2))
    p1 = 0.5 - even
    p2 = -0.5 - odd
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
        "mult1-x": K * gx, "mult1-y": K * gy, "mult1-w": K * gw,
        "mult2-closed": K * (p1 + p2),
        "mult2-plus": scalar(1.0), "mult2-minus": scalar(-1.0),
        "p1-closed": p1, "p2-closed": p2, "p1-definition": d1, "p2-definition": d2,
        "lemma": K * (((gx + gy) + gw) - (even + odd)),
        "cosine-triple-cos": co(u) + co(v) + co(t),
        "cosine-triple-sin": 1.0 + 4.0 * s(u / 2) * s(v / 2) * s(t / 2),
        "sine-bound-1": s((m.Wp - m.Y) / 2) - np.abs(s((m.alpha1 - m.beta4) / 2)),
        "sine-bound-2": s((m.W - m.X) / 2) - np.abs(s((m.beta1 - m.alpha2) / 2)),
        "sine-bound-3": s((m.gamma1 + m.gamma3) / 2) - s((m.X + m.Y) / 2),
        "angular-core": ((gx + gy) + gw) - even,
        "core-split": (
            2.0 * s((m.Wp - m.Y) / 2) * s((m.W - m.X) / 2) * s((m.X + m.Y) / 2)
            + (2.0 * s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s(m.alpha3 / 2) * co(m.beta2 / 2)
               + 2.0 * s(m.Y) * s(m.W / 2) * s(m.X / 2) * s(m.beta3 / 2) * co(m.alpha4 / 2)
               + 2.0 * s(m.W) * co(m.X / 2) * co(m.Y / 2) * co(m.gamma1 / 2)
               * s(m.gamma3 / 2))),
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


# the forms that use no trig, each checked against its own public route
PLAIN_FORMS = {"edge", "expanded", "normalized-residual", "mult1-x-raw",
               "mult1-y-raw", "mult1-w-raw", "mult2-raw"}


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
    table = forms(m)
    assert table.keys() == reference.keys() | PLAIN_FORMS
    for name, value in reference.items():
        assert np.array_equal(table[name], value), name
    for path in ("edge", "expanded", "lemma"):
        assert np.array_equal(table[path], residual(m, path)), path
    assert np.array_equal(table["normalized-residual"],
                          residual(m) / (((m.a * m.b) * (m.c * m.d)) * (m.e * m.f)))


def test_the_lemma_residual_computes_no_audit_table(monkeypatch):
    # residual(m, "lemma") evaluates the 14 trig inputs of lemma_form alone
    table = forms(frames_of(31, 4_096, 0.01))["lemma"]
    monkeypatch.setattr(kernel, "forms", lambda m: pytest.fail("residual called forms"))
    alone = residual(frames_of(31, 4_096, 0.01), "lemma")
    assert alone.tobytes() == table.tobytes()


def test_one_forms_call_makes_47_trig_calls(monkeypatch):
    m = frames_of(7, 8_192, 0.01)
    m.X  # the split angles are computed on first read, with no sin or cos
    calls = []
    for name in ("sin", "cos"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, real=real: calls.append(np.shape(x)) or real(x))
    forms(m)
    assert calls == [(8_192,)] * 47


def test_check_tables_name_forms_and_report_each_check_once_in_order():
    m = frames_of(17, 2_000, 0.01)
    names = forms(m).keys()
    for _, form, other, _ in _IDENTITIES:
        assert {form, other} <= names
    assert set(_SIGN_FORMS) <= names
    for _, form, _ in _INEQUALITIES:
        assert form in names
    ids = [check.id for check in audit(m).checks]
    assert ids == ([cid for cid, *_ in _IDENTITIES] + ["mult2-sign-resolution"]
                   + [cid for cid, *_ in _INEQUALITIES])
    assert len(set(ids)) == len(ids)


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
