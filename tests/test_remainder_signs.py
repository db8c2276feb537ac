"""X >= 0, Y >= 0 and the sign of the remainder terms, the steps of the
paper's sign-case chain between the relabeling and final-chain.  kernel.forms
writes, with the angles of geometry's docstring,

    remainder  2 sin X sin(W'/2) sin(Y/2) sin(alpha3/2) cos(beta2/2)
             + 2 sin Y sin(W/2)  sin(X/2) sin(beta3/2)  cos(alpha4/2)
             + tail

with tail = 2 sin W cos(X/2) cos(Y/2) cos(gamma1/2) sin(gamma3/2).  The
facts are the vertical-angle relations at the diagonal crossing,
alpha2 + beta3 = alpha4 + beta1 and alpha1 + beta2 = alpha3 + beta4, the
angle sums of the triangles z1z3z4 (beta1 + alpha3 + gamma4 = pi) and
z1z2z3 (alpha1 + beta3 + gamma2 = pi), and every split angle in (0, pi).
They make

    X = beta1 - beta3 = pi - (gamma3 + gamma4)
    Y = alpha1 - alpha3 = pi - (gamma2 + gamma3)

so the angle-sum hypotheses gamma2 + gamma3 <= pi and gamma3 + gamma4 <= pi
are exactly Y >= 0 and X >= 0.  Under them every factor of the first two
terms is >= 0: W - X = alpha4 + beta3 and W' - Y = alpha3 + beta2 are
positive and W + W' = pi, so X lies in [0, W), Y in [0, W') and W, W' in
(0, pi), and each sine and cosine is read where it is nonnegative.

sympy proves each identity as a combination of the facts, carries the
ranges in exact interval arithmetic (pi-multiple endpoints) and checks each
sine and cosine on its whole range with solveset, not on samples.  Sampled
frames tie the proofs to QuadMetrics, kernel.angle_sum_hypotheses and
kernel.forms.
"""

import numpy as np
import pytest

from quadineq import kernel
from quadineq.geometry import metrics_from_frames, sample_frames

sp = pytest.importorskip("sympy")

alpha1, alpha2, alpha3, alpha4 = sp.symbols("alpha1:5", positive=True)
beta1, beta2, beta3, beta4 = sp.symbols("beta1:5", positive=True)
SPLIT = (alpha1, alpha2, alpha3, alpha4, beta1, beta2, beta3, beta4)
X = ((alpha2 + beta1) - (alpha4 + beta3)) / 2
Y = ((alpha1 + beta4) - (alpha3 + beta2)) / 2
W = ((alpha2 + beta1) + (alpha4 + beta3)) / 2
Wp = ((alpha1 + beta4) + (alpha3 + beta2)) / 2
gamma1, gamma2, gamma3, gamma4 = (alpha1 + beta1, alpha2 + beta2,
                                  alpha3 + beta3, alpha4 + beta4)
# each fact, written as an expression that is zero
FACTS = (alpha2 + beta3 - alpha4 - beta1, alpha1 + beta2 - alpha3 - beta4,
         beta1 + alpha3 + gamma4 - sp.pi, alpha1 + beta3 + gamma2 - sp.pi)

# the first two remainder terms, each twice the product of five factors
# (function, quantity of QuadMetrics, multiple of the quantity)
HALF = sp.Rational(1, 2)
TERMS = {
    "x-term": ((sp.sin, "X", 1), (sp.sin, "Wp", HALF), (sp.sin, "Y", HALF),
               (sp.sin, "alpha3", HALF), (sp.cos, "beta2", HALF)),
    "y-term": ((sp.sin, "Y", 1), (sp.sin, "W", HALF), (sp.sin, "X", HALF),
               (sp.sin, "beta3", HALF), (sp.cos, "alpha4", HALF)),
}


def _follows(claim) -> bool:
    """Whether the linear expression `claim`, stated as zero, is a rational
    combination of FACTS."""
    coefficients = sp.symbols("c1:5")
    rest = sp.expand(claim - sum(c * fact for c, fact in zip(coefficients, FACTS)))
    return sp.linsolve(sp.Poly(rest, *SPLIT, sp.pi).coeffs(), coefficients) != sp.S.EmptySet


def _ranges(hypothesis) -> dict:
    """The range of each quantity TERMS reads, in exact interval arithmetic,
    when X and Y lie in `hypothesis` and every split angle in [0, pi], the
    closure of (0, pi), which only widens each range."""
    angle = sp.AccumBounds(0, sp.pi)
    two = angle + angle  # alpha4 + beta3, alpha3 + beta2
    # W = pi - W' with W' = Y + (alpha3 + beta2), and W = X + (alpha4 + beta3);
    # the same with X and Y, W and W' swapped
    crossing = (sp.pi - (hypothesis + two)).intersection(hypothesis + two)
    half_difference = hypothesis.intersection(crossing - two)
    return {"X": half_difference, "Y": half_difference, "W": crossing, "Wp": crossing,
            **{str(a): angle for a in SPLIT}}


def _nonnegative_on(f, bounds) -> bool:
    """Whether f(t) >= 0 for every t in the closed range `bounds`."""
    t = sp.Symbol("t", real=True)
    return sp.solveset(f(t) < 0, t, sp.Interval(bounds.min, bounds.max)) == sp.S.EmptySet


def test_x_and_y_are_pi_less_two_consecutive_interior_angles():
    assert _follows(X - (beta1 - beta3)) and _follows(X - (sp.pi - (gamma3 + gamma4)))
    assert _follows(Y - (alpha1 - alpha3)) and _follows(Y - (sp.pi - (gamma2 + gamma3)))
    # the facts do not prove everything: X is not the other angle sum's slack
    assert not _follows(X - (sp.pi - (gamma2 + gamma3)))
    assert not _follows(X)


def test_w_and_w_prime_exceed_x_and_y_by_two_split_angles_and_add_to_pi():
    assert sp.expand(W - X - (alpha4 + beta3)) == 0
    assert sp.expand(Wp - Y - (alpha3 + beta2)) == 0
    assert _follows(W + Wp - sp.pi)


@pytest.mark.parametrize("term", sorted(TERMS))
def test_each_factor_is_nonnegative_on_its_range_under_the_hypotheses(term):
    ranges = _ranges(sp.AccumBounds(0, sp.oo))
    assert ranges["X"] == sp.AccumBounds(0, sp.pi) and ranges["W"] == sp.AccumBounds(0, sp.pi)
    for f, quantity, multiple in TERMS[term]:
        assert _nonnegative_on(f, multiple * ranges[quantity]), (f, quantity)
    # without X >= 0 and Y >= 0 the ranges prove no sign for the term
    ranges = _ranges(sp.AccumBounds(-sp.oo, sp.oo))
    assert not all(_nonnegative_on(f, multiple * ranges[quantity])
                   for f, quantity, multiple in TERMS[term])


def test_metrics_forms_and_the_hypotheses_agree_with_the_proofs_on_sampled_frames():
    m = metrics_from_frames(*sample_frames([7, 1], 100_000, 0.001))
    assert np.max(np.abs(m.X - (np.pi - (m.gamma3 + m.gamma4)))) < 1e-14
    assert np.max(np.abs(m.Y - (np.pi - (m.gamma2 + m.gamma3)))) < 1e-14
    inside = kernel.angle_sum_hypotheses(m)
    assert 0.2 < np.mean(inside) < 0.3  # 25.0% here
    # the mask is Y >= 0 and X >= 0, up to its boundary slack
    slack = kernel._HYPOTHESIS_SLACK
    assert min(np.min(m.X[inside]), np.min(m.Y[inside])) >= -slack
    assert np.all(np.minimum(m.X, m.Y)[~inside] < 0)
    terms = {term: 2.0 * np.prod([getattr(np, f.__name__)(float(multiple) * getattr(m, quantity))
                                  for f, quantity, multiple in factors], axis=0)
             for term, factors in TERMS.items()}
    tail = 2.0 * np.sin(m.W) * np.cos(m.X / 2) * np.cos(m.Y / 2) \
        * np.cos(m.gamma1 / 2) * np.sin(m.gamma3 / 2)
    remainder = kernel.forms(m)["remainder"]
    assert np.max(np.abs(remainder - (terms["x-term"] + terms["y-term"] + tail))) < 1e-14
    for term, values in terms.items():
        # |d term / dX| and |d term / dY| are at most 2, so a row inside the
        # slack reads at least -2 slack; outside the hypotheses terms fall
        # far below zero (-0.56 and -0.57 here)
        assert np.min(values[inside]) >= -2.0 * slack, term
        assert np.min(values[~inside]) < -0.1, term
