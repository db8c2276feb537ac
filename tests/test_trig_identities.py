"""Exact proofs of the rational identities that the trig enclosure intersects.

`interval._frame_angles` encloses each split angle as atan2(opposite,
adjacent) with a positive first argument, so every split angle lies in
(0, pi).  Divided by the side it is measured against, that pair is the
angle's sine and cosine, rational in the frame coordinates p1..p4,
c = cos w, s = sin w and the side length:

    alpha1: (p2 s, p1 - p2 c) / c      beta1: (p4 s, p1 + p4 c) / d
    alpha2: (p3 s, p2 + p3 c) / a      beta2: (p1 s, p2 - p1 c) / c
    alpha3: (p4 s, p3 - p4 c) / f      beta3: (p2 s, p3 + p2 c) / a
    alpha4: (p1 s, p4 + p1 c) / d      beta4: (p3 s, p4 - p3 c) / f

`_lemma_residual` intersects sin X and sin Y with area quotients, and
`_lemma_angles` intersects two expressions each of X, Y, diff14 and diff12.
Each intersection is sound only if its two expressions are equal.  The
tests prove with sympy, using s^2 + c^2 = 1 and the law of cosines for each
squared side, the quotients and the four triangle relations that make the
expressions equal.  They reuse the symbols of tests/test_symmetry.py.

The factored form itself is one function, kernel.lemma_form, that the
audit calls with floats and the certifier with intervals; a test calls it
with symbols, which is where a proof of the half-angle identities starts.

The sign of the sin gamma2 sin gamma4 term in the scalar multiplicity-two
expression follows from the area formulas alone: the last test proves that
mult2-plus equals the raw area products and that mult2-minus misses them by
abcdef sin gamma2 sin gamma4 > 0.  certify, check-cert and search report
that sign without an audit.
"""

import inspect

import numpy as np
import pytest

from quadineq import interval, kernel
from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.interval import FrameBox, Interval, _frame_angles, icos, isin

sp = pytest.importorskip("sympy")

from test_symmetry import COS, P, SIN, SYMBOLS, _frame_quantities  # noqa: E402

p1, p2, p3, p4 = P
# split angle -> (opposite, adjacent, the side both are divided by)
SPLIT = {
    "alpha1": (p2 * SIN, p1 - p2 * COS, "c"),
    "beta1": (p4 * SIN, p1 + p4 * COS, "d"),
    "alpha2": (p3 * SIN, p2 + p3 * COS, "a"),
    "beta2": (p1 * SIN, p2 - p1 * COS, "c"),
    "alpha3": (p4 * SIN, p3 - p4 * COS, "f"),
    "beta3": (p2 * SIN, p3 + p2 * COS, "a"),
    "alpha4": (p1 * SIN, p4 + p1 * COS, "d"),
    "beta4": (p3 * SIN, p4 - p3 * COS, "f"),
}
SIDES = ("a", "c", "d", "f")


def _sin_cos(name):
    opposite, adjacent, side = SPLIT[name]
    return opposite / SYMBOLS[side], adjacent / SYMBOLS[side]


def _vanishes(expr) -> bool:
    """Whether a rational expression is zero once each squared side is its
    law-of-cosines polynomial and s^2 = 1 - c^2: its numerator is reduced
    modulo those relations, one variable at a time."""
    squared = _frame_quantities()
    num = sp.expand(sp.numer(sp.together(expr)))
    for side in SIDES:
        num = sp.rem(num, SYMBOLS[side] ** 2 - squared[side], SYMBOLS[side])
    return sp.expand(sp.rem(sp.expand(num), SIN ** 2 + COS ** 2 - 1, SIN)) == 0


def test_each_pair_is_the_sine_and_cosine_of_its_split_angle():
    # opposite^2 + adjacent^2 is the squared side, so each pair lies on the
    # unit circle; its opposite is positive, so the angle is in (0, pi)
    for name in SPLIT:
        sin, cos = _sin_cos(name)
        assert _vanishes(sin ** 2 + cos ** 2 - 1), name


def test_pairs_match_the_geometry_and_the_interval_angles():
    p, w = sample_frames(17, 200, 0.05)
    m = metrics_from_frames(p, w)
    args = (*P, COS, SIN)
    values = (*p.T, np.cos(w), np.sin(w))
    point = Interval(w, w)
    box = FrameBox(*(Interval(p[:, i], p[:, i]) for i in range(4)), point, 0.05)
    enclosed = _frame_angles(box, isin(point), icos(point))
    for name, (opposite, adjacent, _) in SPLIT.items():
        angle = np.arctan2(sp.lambdify(args, opposite)(*values),
                           sp.lambdify(args, adjacent)(*values))
        np.testing.assert_allclose(angle, getattr(m, name), rtol=0, atol=1e-12)
        assert np.all((enclosed[name].lo <= angle) & (angle <= enclosed[name].hi)), name


def test_sin_x_is_its_area_quotient():
    # X = alpha2 - alpha4: sin X = s (p3 p4 - p1 p2) / (a d)
    (sa2, ca2), (sa4, ca4) = _sin_cos("alpha2"), _sin_cos("alpha4")
    quotient = SIN * (p3 * p4 - p1 * p2) / (SYMBOLS["a"] * SYMBOLS["d"])
    assert _vanishes(sa2 * ca4 - ca2 * sa4 - quotient)


def test_sin_y_is_its_area_quotient():
    # Y = beta4 - beta2: sin Y = s (p2 p3 - p1 p4) / (c f)
    (sb4, cb4), (sb2, cb2) = _sin_cos("beta4"), _sin_cos("beta2")
    quotient = SIN * (p2 * p3 - p1 * p4) / (SYMBOLS["c"] * SYMBOLS["f"])
    assert _vanishes(sb4 * cb2 - cb4 * sb2 - quotient)


# (u, v, the sign of cos w in cos(u + v)): u + v is pi - w or w
TRIANGLES = [("alpha1", "beta2", -1), ("alpha2", "beta3", 1),
             ("alpha3", "beta4", -1), ("alpha4", "beta1", 1)]


@pytest.mark.parametrize("u, v, sign", TRIANGLES,
                         ids=[f"{u}+{v}" for u, v, _ in TRIANGLES])
def test_triangle_relation(u, v, sign):
    # cos(u + v) = sign cos w and sin(u + v) = sin w > 0.  u + v lies in
    # (0, 2 pi); the positive sine puts it in (0, pi), where the cosine
    # fixes it: u + v = pi - w for sign -1 and w for sign +1.
    (su, cu), (sv, cv) = _sin_cos(u), _sin_cos(v)
    assert _vanishes(cu * cv - su * sv - sign * COS)
    assert _vanishes(su * cv + cu * sv - SIN)


def test_triangle_relations_make_the_intersected_forms_equal():
    # with the four relations, each pair that _lemma_angles intersects is one
    # angle, and the crossing angles W and W' of geometry are w and pi - w
    a1, a2, a3, a4, w = sp.symbols("alpha1:5 w")
    relations = {"beta2": sp.pi - w - a1, "beta3": w - a2,
                 "beta4": sp.pi - w - a3, "beta1": w - a4}
    b1, b2, b3, b4 = (relations[f"beta{i}"] for i in range(1, 5))
    pairs = {
        "X": (a2 - a4, b1 - b3),
        "Y": (b4 - b2, a1 - a3),
        "diff14": (a1 - b4, a3 - b2),
        "diff12": (b1 - a2, b3 - a4),
        "W": (((a2 + b1) + (a4 + b3)) / 2, w),
        "Wp": (((a1 + b4) + (a3 + b2)) / 2, sp.pi - w),
    }
    for name, (left, right) in pairs.items():
        assert sp.simplify(left - right) == 0, name


def test_the_factored_form_is_one_text_for_floats_intervals_and_symbols():
    assert interval.lemma_form is kernel.lemma_form
    names = list(inspect.signature(kernel.lemma_form).parameters)[:-2]  # all but sqr, double
    symbols = sp.symbols(names)
    *_, lemma = kernel.lemma_form(*symbols, lambda v: v ** 2, lambda v: 2 * v)
    m = metrics_from_frames(*sample_frames(29, 2_000, 0.01))
    s, c = np.sin, np.cos
    values = {
        "K": m.a * m.b * m.c * m.d * m.e * m.f,
        "sin_X": s(m.X), "sin_Y": s(m.Y), "sin_W": s(m.W),
        "sin_X2": s(m.X / 2), "cos_X2": c(m.X / 2), "sin_Y2": s(m.Y / 2), "cos_Y2": c(m.Y / 2),
        "sin_W2": s(m.W / 2), "cos_W2": c(m.W / 2),
        "sin_Wp2": s(m.Wp / 2), "cos_Wp2": c(m.Wp / 2),
        "sin_g13": s((m.gamma1 + m.gamma3) / 2),
        "sin_a1b4": s((m.alpha1 - m.beta4) / 2), "sin_b1a2": s((m.beta1 - m.alpha2) / 2),
    }
    assert list(values) == names
    symbolic = sp.lambdify(symbols, lemma, "numpy")(*values.values())
    gap = np.abs(symbolic - kernel.forms(m)["lemma"]) / values["K"]
    assert np.max(gap) < 1e-14


def _mult2_forms():
    """mult2-raw, mult2-plus and mult2-minus of kernel.forms in frame
    symbols: the areas of tests/test_symmetry.py, the diagonals b = p1 + p3
    and e = p2 + p4, the side symbols a, c, d and f, each split-angle sine
    from its pair and each sin gamma_i, gamma_i = alpha_i + beta_i, by the
    addition formula."""
    q = _frame_quantities()
    A123, A124, A134, A234 = (q[name] for name in ("A123", "A124", "A134", "A234"))
    a, c, d, f = (SYMBOLS[side] for side in ("a", "c", "d", "f"))
    b, e = p1 + p3, p2 + p4
    sin = {name: _sin_cos(name)[0] for name in SPLIT}
    cos = {name: _sin_cos(name)[1] for name in SPLIT}
    sg = {i: sin[f"alpha{i}"] * cos[f"beta{i}"] + cos[f"alpha{i}"] * sin[f"beta{i}"]
          for i in range(1, 5)}
    K = a * b * c * d * e * f
    raw = (-2 * a * d * (A123 * A234 + A124 * A134)
           - 2 * c * f * (A124 * A123 + A134 * A234)
           + 2 * b * e * (A123 * A134 + A124 * A234))
    sines = (-sin["alpha1"] * sin["beta4"] - sin["alpha3"] * sin["beta2"]
             - sin["alpha4"] * sin["beta3"] - sin["alpha2"] * sin["beta1"] + sg[1] * sg[3])
    return {"mult2-raw": raw,
            "mult2-plus": K / 2 * (sines + sg[2] * sg[4]),
            "mult2-minus": K / 2 * (sines - sg[2] * sg[4])}, K, sg


def test_the_mult2_sign_is_plus():
    # certify, check-cert and search report this sign without sampling it
    forms, K, sg = _mult2_forms()

    # the restated forms are the ones kernel.forms evaluates, to 1e-12
    # relative to abcdef, the scale the audit measures them against
    p, w = sample_frames(31, 200, 0.05)
    m = metrics_from_frames(p, w)
    args = (*P, COS, SIN, *(SYMBOLS[side] for side in ("a", "c", "d", "f")))
    values = (*p.T, np.cos(w), np.sin(w), m.a, m.c, m.d, m.f)
    computed = kernel.forms(m)
    scale = kernel.abcdef(vars(m))
    for name, expr in forms.items():
        gap = np.abs(sp.lambdify(args, expr)(*values) - computed[name]) / scale
        assert np.max(gap) <= 1e-12, name

    # plus reproduces the area products; minus misses them by
    # K sin(gamma2) sin(gamma4), where sin(gamma2) = 2 A123 / (c a) and
    # sin(gamma4) = 2 A134 / (d f) are positive on every convex frame
    raw, plus, minus = forms["mult2-raw"], forms["mult2-plus"], forms["mult2-minus"]
    assert _vanishes(plus - raw)
    assert _vanishes(raw - minus - K * sg[2] * sg[4])
    areas = _frame_quantities()
    assert _vanishes(sg[2] - 2 * areas["A123"] / (SYMBOLS["c"] * SYMBOLS["a"]))
    assert _vanishes(sg[4] - 2 * areas["A134"] / (SYMBOLS["d"] * SYMBOLS["f"]))
    assert not _vanishes(minus - raw)
