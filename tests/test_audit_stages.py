"""The audit walks the forms of a block stage by stage: each check runs as
soon as the forms it reads exist, and a form is dropped once no later check
reads it.  The fold must be the one over the whole forms(m) dict, check for
check, and one block of 8,192 rows must stay within its memory bound."""

import math
import tracemalloc
import warnings

import numpy as np

from quadineq import kernel
from quadineq.geometry import metrics_from_frames, sample_frames
from quadineq.kernel import (
    _IDENTITIES,
    _INEQUALITIES,
    _SIGN_FORMS,
    _Accumulator,
    abcdef,
    angle_sum_hypotheses,
    forms,
)


def one_dict_fold(m) -> _Accumulator:
    """The three check tables run over forms(m) evaluated whole."""
    acc = _Accumulator()
    f = forms(m)
    K = abcdef(vars(m))
    for cid, form, other, scaled in _IDENTITIES:
        gap = np.abs(f[form] - f[other])
        acc.err(cid, gap / K if scaled else gap)
    for form in _SIGN_FORMS:
        acc.err(form, np.abs(f["mult2-raw"] - f[form]) / K)
    within = np.atleast_1d(angle_sum_hypotheses(m))
    for cid, form, filtered in _INEQUALITIES:
        acc.slack(cid, f[form], within if filtered else None)
    return acc


def test_the_staged_fold_is_the_one_dict_fold():
    p, w = sample_frames([5, 0], 8_192, 0.01)
    w[40] = math.nan  # every angle NaN: outside the hypotheses
    m = metrics_from_frames(p, w)
    within = angle_sum_hypotheses(m)
    inside = np.flatnonzero(within)
    outside = np.flatnonzero(~within & np.isfinite(w))
    assert len(inside) > 1 and len(outside) > 1
    # finite angle sums with a NaN in alpha1, which forms of every stage
    # read, or in a length, which the residual routes and K read
    m.alpha1[[inside[0], outside[0]]] = math.nan
    m.a[[inside[1], outside[1]]] = math.nan
    assert np.count_nonzero(angle_sum_hypotheses(m)) == len(inside)

    staged = _Accumulator()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kernel._accumulate_checks(staged, m)
        whole = one_dict_fold(m)
    assert staged.max_err == whole.max_err
    assert staged.min_slack == whole.min_slack
    assert staged.counts == whole.counts
    assert staged.nonfinite == whole.nonfinite
    # the NaN rows reach both tables, inside and outside the hypotheses
    assert whole.nonfinite["residual-edge-vs-expanded"] == 3
    assert whole.nonfinite["angular-core-nonneg"] == 3
    assert whole.counts["angular-core-nonneg"] == len(inside)


def test_one_block_of_checks_peaks_under_5_5_mb():
    frames = sample_frames([0, 0], 8_192, 0.01)
    kernel._block_checks(frames)  # first calls may fill caches
    tracemalloc.start()
    try:
        kernel._block_checks(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6, f"one block peaked at {peak / 1e6:.2f} MB"
