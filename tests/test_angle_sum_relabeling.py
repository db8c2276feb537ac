"""The relabeling step of the paper's sign-case chain: a cyclic relabeling of
the vertices always reaches the angle-sum hypotheses gamma2 + gamma3 <= pi
and gamma3 + gamma4 <= pi, under which the audit checks angular-core and
final-chain.

Write s_i = gamma_i + gamma_(i+1), indices mod 4.  The interior angles add
to 2 pi, so s1 + s3 = s2 + s4 = 2 pi, and one sum of each opposite pair is
at most pi: s_i with i odd and s_j with j even.  An odd and an even index
differ by 1 or 3, so they are cyclically adjacent, {i, j} = {t, t + 1}.
Relabeling vertex k + 1 as vertex 1 reads gamma_(n+k) as gamma_n, and so
turns the hypotheses into s_(2+k) <= pi and s_(3+k) <= pi; k = t - 2 meets
them.  sympy checks the sums and the enumeration checks the indices
exactly; sampled frames tie the argument to kernel.angle_sum_hypotheses.
"""

import numpy as np
import pytest

from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.kernel import angle_sum_hypotheses

sp = pytest.importorskip("sympy")


def consecutive_sum(gammas, i):
    """s_i = gamma_i + gamma_(i+1) of the 1-based angles gammas, mod 4."""
    return gammas[(i - 1) % 4] + gammas[i % 4]


def rotate(p, w):
    """The frame of the same quadrilateral with vertex 2 relabeled 1:
    (p1, p2, p3, p4, w) -> (p2, p3, p4, p1, pi - w)."""
    return np.roll(p, -1, axis=1), np.pi - w


def test_opposite_consecutive_sums_each_add_to_the_angle_sum():
    gammas = sp.symbols("gamma1:5", positive=True)
    total = sum(gammas)
    assert sp.expand(consecutive_sum(gammas, 1) + consecutive_sum(gammas, 3) - total) == 0
    assert sp.expand(consecutive_sum(gammas, 2) + consecutive_sum(gammas, 4) - total) == 0


@pytest.mark.parametrize("i", [1, 3])
@pytest.mark.parametrize("j", [2, 4])
def test_some_rotation_puts_an_odd_and_an_even_sum_in_the_hypotheses(i, j):
    # after relabeling by k the hypotheses read s_(2+k) and s_(3+k)
    rotations = [k for k in range(4) if {(2 + k) % 4, (3 + k) % 4} == {i % 4, j % 4}]
    assert len(rotations) == 1


def test_some_rotation_of_every_sampled_frame_meets_the_hypotheses():
    p, w = sample_frames([7, 0], 100_000, 0.001)
    gammas, met = [], []
    for _ in range(4):
        m = metrics_from_frames(p, w)
        gammas.append(np.array([m.gamma1, m.gamma2, m.gamma3, m.gamma4]))
        met.append(angle_sum_hypotheses(m))
        p, w = rotate(p, w)
    assert np.max(np.abs(gammas[0].sum(axis=0) - 2 * np.pi)) < 1e-13
    for k, rotated in enumerate(gammas):
        # k rotations read gamma_(n+k) as gamma_n
        assert np.max(np.abs(rotated - np.roll(gammas[0], -k, axis=0))) < 1e-12
    # each relabeling meets the hypotheses on about a quarter of the frames
    # (24.7-25.3% here), so none does without the others
    for k, mask in enumerate(met):
        assert 0.2 < np.mean(mask) < 0.3, k
    assert np.logical_or.reduce(met).all()
