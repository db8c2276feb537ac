"""Proofs of the audit's three sine bounds, the first inequalities of the
paper's sign-case chain.  kernel.forms writes them with the angles of
geometry's docstring:

    sine-bound-1  sin((W' - Y)/2) - |sin((alpha1 - beta4)/2)|
    sine-bound-2  sin((W - X)/2)  - |sin((beta1 - alpha2)/2)|
    sine-bound-3  sin((gamma1 + gamma3)/2) - sin((X + Y)/2)

The hypotheses are the vertical-angle relations at the diagonal crossing,
alpha1 + beta2 = alpha3 + beta4 and alpha2 + beta3 = alpha4 + beta1 (the
angle sums of the triangles that meet there), every split angle in (0, pi)
and, by convexity, gamma1 and gamma3 in (0, pi).  Each bound is sin(x + y)
minus sin(x - y) or its absolute value, where the hypotheses make both
arguments linear in two half angles:

    sine-bound-1  x = alpha3/2, y = beta2/2, both in (0, pi/2); the bound
                  is >= 0 because sin(x + y) > 0 and
                  sin^2(x + y) - sin^2(x - y) = sin 2x sin 2y > 0
    sine-bound-2  the same with x = alpha4/2, y = beta3/2
    sine-bound-3  x = gamma1/2, y = gamma3/2, X + Y = gamma1 - gamma3, so
                  the bound is exactly 2 cos(gamma1/2) sin(gamma3/2) > 0

sympy proves the linear rewrites and the trig identities, and solveset
checks each sign on its whole open range, not on samples.  A float check on
sampled frames ties each proof to kernel.forms.
"""

import numpy as np
import pytest

from quadineq import kernel
from quadineq.geometry import metrics_from_frames, sample_frames

sp = pytest.importorskip("sympy")

alpha1, alpha2, alpha3, alpha4 = sp.symbols("alpha1:5", positive=True)
beta1, beta2, beta3, beta4 = sp.symbols("beta1:5", positive=True)
x, y = sp.symbols("x y", positive=True)
X = ((alpha2 + beta1) - (alpha4 + beta3)) / 2
Y = ((alpha1 + beta4) - (alpha3 + beta2)) / 2
W = ((alpha2 + beta1) + (alpha4 + beta3)) / 2
Wp = ((alpha1 + beta4) + (alpha3 + beta2)) / 2
gamma1, gamma3 = alpha1 + beta1, alpha3 + beta3
# the two vertical-angle relations, solved for alpha2 and beta4
VERTICAL = {alpha2: alpha4 + beta1 - beta3, beta4: alpha1 + beta2 - alpha3}

# bound -> (the argument of the subtracted sine, the argument of the other
# sine, whether the subtracted sine is taken in absolute value, and x, y)
BOUNDS = {
    "sine-bound-1": ((Wp - Y) / 2, (alpha1 - beta4) / 2, True, (alpha3 / 2, beta2 / 2)),
    "sine-bound-2": ((W - X) / 2, (beta1 - alpha2) / 2, True, (alpha4 / 2, beta3 / 2)),
    "sine-bound-3": ((gamma1 + gamma3) / 2, (X + Y) / 2, False, (gamma1 / 2, gamma3 / 2)),
}


def _positive_on(f, lo, hi) -> bool:
    """Whether f(t) > 0 for every t in the open interval (lo, hi)."""
    t = sp.Symbol("t", real=True)
    return sp.solveset(f(t) <= 0, t, sp.Interval.open(lo, hi)) == sp.S.EmptySet


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_the_hypotheses_make_each_bound_sin_of_x_plus_y_minus_sin_of_x_minus_y(bound):
    # x and y, the halves hx and hy of two angles in (0, pi), lie in (0, pi/2)
    plus, minus, absolute, (hx, hy) = BOUNDS[bound]
    plus, minus = (sp.expand(arg.subs(VERTICAL)) for arg in (plus, minus))
    assert sp.expand(plus - (hx + hy)) == 0
    if absolute:  # |sin| is even, so the sign of its argument is free
        assert sp.expand(minus - (hx - hy)) == 0 or sp.expand(minus + (hx - hy)) == 0
    else:
        assert sp.expand(minus - (hx - hy)) == 0


def test_sine_bounds_1_and_2_are_nonnegative():
    # sin(x + y) - |sin(x - y)| times sin(x + y) + |sin(x - y)| is
    # sin^2(x + y) - sin^2(x - y) = sin 2x sin 2y, and for x, y in (0, pi/2)
    # the second factor and the product are positive
    identity = sp.sin(x + y) ** 2 - sp.sin(x - y) ** 2 - sp.sin(2 * x) * sp.sin(2 * y)
    assert sp.simplify(sp.expand_trig(identity)) == 0
    a, b = sp.Symbol("a", positive=True), sp.Symbol("b", real=True)
    assert sp.expand((a - sp.Abs(b)) * (a + sp.Abs(b)) - (a ** 2 - b ** 2)) == 0
    assert _positive_on(sp.sin, 0, sp.pi)  # sin(x + y), sin 2x and sin 2y


def test_sine_bound_3_is_twice_cos_half_gamma1_sin_half_gamma3():
    identity = sp.sin(x + y) - sp.sin(x - y) - 2 * sp.cos(x) * sp.sin(y)
    assert sp.expand(sp.expand_trig(identity)) == 0
    # x = gamma1/2 and y = gamma3/2 lie in (0, pi/2)
    assert _positive_on(sp.cos, 0, sp.pi / 2)
    assert _positive_on(sp.sin, 0, sp.pi / 2)


def test_forms_evaluates_each_bound_as_proved_on_sampled_frames():
    m = metrics_from_frames(*sample_frames([41, 0], 100_000, 0.001))
    # the hypotheses hold on the samples, up to rounding
    assert np.max(np.abs((m.alpha1 + m.beta2) - (m.alpha3 + m.beta4))) < 1e-13
    assert np.max(np.abs((m.alpha2 + m.beta3) - (m.alpha4 + m.beta1))) < 1e-13
    for angle in (m.alpha1, m.alpha2, m.alpha3, m.alpha4,
                  m.beta1, m.beta2, m.beta3, m.beta4, m.gamma1, m.gamma3):
        assert np.all((angle > 0) & (angle < np.pi))
    f = kernel.forms(m)
    proved = {
        "sine-bound-1": (m.alpha3 / 2, m.beta2 / 2),
        "sine-bound-2": (m.alpha4 / 2, m.beta3 / 2),
    }
    for bound, (hx, hy) in proved.items():
        closed = np.sin(hx + hy) - np.abs(np.sin(hx - hy))
        assert np.max(np.abs(f[bound] - closed)) < 1e-14
    closed = 2.0 * np.cos(m.gamma1 / 2) * np.sin(m.gamma3 / 2)
    assert np.max(np.abs(f["sine-bound-3"] - closed)) < 1e-14
