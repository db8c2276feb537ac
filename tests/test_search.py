"""Multi-start counterexample search."""

import math

import numpy as np
import pytest

from quadineq import search
from quadineq.geometry import (DiagonalFrame, metrics, metrics_from_frames, quad_from_frame,
                               sample)
from quadineq.ioutil import dumps
from quadineq.kernel import normalized_residual
from quadineq.search import (
    _descend,
    _objective,
    _project,
    boundary_trend,
    minimize_residual,
)

ANGLE_FIELDS = ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4",
                "gamma1", "gamma2", "gamma3", "gamma4", "X", "Y", "W", "Wp")


def test_search_finds_positive_minimum_and_no_candidates():
    res = minimize_residual(7, starts=64, margin=0.05, budget=2000)
    assert res.best_value > 0.0
    assert not res.flagged
    assert not res.genuine_candidates


def test_best_value_matches_kernel_at_best_frame():
    res = minimize_residual(11, starts=16, margin=0.05, budget=1000)
    m = metrics(quad_from_frame(res.best_frame))
    assert abs(float(normalized_residual(m)) - res.best_value) <= 1e-12


def test_search_deterministic():
    a = minimize_residual(3, starts=8, margin=0.05, budget=400)
    b = minimize_residual(3, starts=8, margin=0.05, budget=400)
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())


def test_budget_zero_returns_start_values():
    res = minimize_residual(5, starts=1, margin=0.05, budget=0)
    t = res.trajectories[0]
    assert t.evaluations == 0 and t.iterations == 0
    assert res.best_value == t.start_value == t.best_value
    assert t.start == t.end


def test_budget_respected_and_best_monotone():
    res = minimize_residual(13, starts=8, margin=0.05, budget=300)
    for t in res.trajectories:
        assert t.evaluations <= 300
        assert t.best_value <= t.start_value


def test_margin_trend_decreases_toward_zero():
    runs = boundary_trend(11, 32, [0.05, 0.005, 0.0005], 1500)
    values = [r.best_value for r in runs]
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 1e-3 * values[0]
    assert runs[0].margin_schedule == [0.05, 0.005, 0.0005]


def _without_schedule(result):
    doc = result.to_json_dict()
    del doc["margin_schedule"]
    return doc


@pytest.mark.parametrize("budget", [40, 700])
def test_schedule_batch_equals_one_margin_searches(budget):
    # margins far apart retire their rows at very different iterations, so
    # the batch is compacted many times while the other margin still runs
    margins = [0.05, 0.0005]
    runs = boundary_trend(4, 6, margins, budget)
    iterations = {t.iterations for r in runs for t in r.trajectories}
    assert len(iterations) > 3
    for m, run in zip(margins, runs):
        assert run.margin_schedule == margins
        assert _without_schedule(run) == _without_schedule(minimize_residual(4, 6, m, budget))


@pytest.mark.parametrize("budget", [40, 600])
def test_trajectories_do_not_depend_on_the_other_starts(budget):
    # a small budget retires many rows in the same pass
    k = 4
    few = boundary_trend(9, k, [0.05, 0.001], budget)
    many = boundary_trend(9, 3 * k, [0.05, 0.001], budget)
    for a, b in zip(few, many):
        assert ([t.to_json_dict() for t in a.trajectories]
                == [t.to_json_dict() for t in b.trajectories[:k]])


def test_search_evaluates_only_the_points_it_counts(monkeypatch):
    # every objective row is a start point or a counted evaluation: a pass
    # evaluates one trial point per row, and a shrink its five vertices
    rows = []

    def counting(p, w):
        rows.append(len(w))
        return metrics_from_frames(p, w)

    monkeypatch.setattr(search, "metrics_from_frames", counting)
    runs = boundary_trend(0, 16, [0.05, 0.005, 0.0005], 300)
    evaluations = sum(t.evaluations for r in runs for t in r.trajectories)
    assert sum(rows) == evaluations + 3 * 16


def test_a_flat_objective_reflects_contracts_and_shrinks_once(monkeypatch):
    # the initial simplex is already converged, but a row whose reflection
    # fails still contracts and shrinks before it stops: 1 + 1 + 5 evaluations
    monkeypatch.setattr(search, "_objective", lambda x: np.zeros(x.shape[:-1]))
    x0 = _project(_raw_rows(np.random.default_rng(3), 8), 0.05)
    _, best_f, evals, iters = _descend(x0, np.zeros(8), np.full(8, 0.05), 100)
    assert (best_f == 0.0).all()
    assert evals.tolist() == [12] * 8 and iters.tolist() == [1] * 8


def test_descent_calls_the_objective_once_per_pass(monkeypatch):
    # a pass steps every row once: a trial point (its reflection or
    # contraction) or a shrink (five vertices).  Run alone, a row makes one
    # call per step after its initial simplex.  The rows are independent, so
    # the batch runs as many passes as its longest row has steps, and it
    # makes one call for its initial simplex plus one per pass
    calls = []

    def counting(x):
        calls.append(x.size // 5)
        return _objective(x)

    monkeypatch.setattr(search, "_objective", counting)
    margin = np.repeat([0.05, 0.0005], 8)
    x0 = _project(_raw_rows(np.random.default_rng(8), len(margin)), margin)
    f0 = _objective(x0)
    passes, shrinks = [], 0
    for k in range(len(x0)):
        calls.clear()
        _descend(x0[k:k + 1], f0[k:k + 1], margin[k:k + 1], 300)
        assert calls[0] == 5 and set(calls[1:]) <= {1, 5}
        passes.append(len(calls) - 1)
        shrinks += calls.count(5) - 1
    assert shrinks > 1  # the batch folds shrinks into its trial calls
    calls.clear()
    _, _, evals, _ = _descend(x0, f0, margin, 300)
    assert len(calls) == 1 + max(passes)
    assert sum(calls) == evals.sum()


def test_a_row_that_never_beats_its_start_reports_the_start(monkeypatch):
    # the simplex holds a re-projected copy of the start, which may differ
    # from it in the last bit
    monkeypatch.setattr(search, "_objective", lambda x: np.zeros(x.shape[:-1]))
    margin = np.full(64, 0.05)
    x0 = _project(_raw_rows(np.random.default_rng(5), 64), margin)
    assert (_project(x0, margin) != x0).any()
    for budget in (5, 100):
        best_x, _, _, _ = _descend(x0, np.zeros(64), margin, budget)
        assert _bits(best_x) == _bits(x0)


def test_budget_of_one_simplex_reports_its_best_vertex():
    res = minimize_residual(5, starts=4, margin=0.05, budget=5)
    for t in res.trajectories:
        assert t.evaluations == 5 and t.iterations == 0
        assert t.best_value <= t.start_value
    assert any(t.best_value < t.start_value for t in res.trajectories)


def test_projection_is_identity_on_feasible_points():
    rng = np.random.default_rng(0)
    margin = 0.05
    simplex = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=100)
    p = margin + (1.0 - 4.0 * margin) * simplex
    w = rng.uniform(margin * np.pi, (1 - margin) * np.pi, size=(100, 1))
    x = np.concatenate([p, w], axis=1)
    np.testing.assert_allclose(_project(x, margin), x, atol=1e-12, rtol=0)


def test_projection_restores_feasibility():
    rng = np.random.default_rng(1)
    margin = 0.05
    x = rng.uniform(-1.0, 2.0, size=(500, 5))
    proj = _project(x, margin)
    assert np.all(proj[:, :4] >= margin - 1e-15)
    np.testing.assert_allclose(proj[:, :4].sum(axis=1), 1.0, atol=1e-12, rtol=0)
    assert np.all(proj[:, 4] >= margin * np.pi)
    assert np.all(proj[:, 4] <= (1 - margin) * np.pi)


def test_parameter_validation():
    with pytest.raises(ValueError):
        minimize_residual(0, starts=0)
    with pytest.raises(ValueError):
        minimize_residual(0, margin=0.5)
    with pytest.raises(ValueError):
        minimize_residual(0, budget=-1)


def test_result_serializes():
    res = minimize_residual(17, starts=4, margin=0.05, budget=200)
    doc = res.to_json_dict()
    assert doc["seed"] == 17 and doc["starts"] == 4
    assert len(doc["trajectories"]) == 4
    assert doc["counterexample_candidates"] == []


# -- bitwise oracles: the fast paths against the plain formulas -------------

def _project_reference(x, margin):
    """The projection written plainly; margin broadcasts against x[..., :1]."""
    p = x[..., :4]
    q = np.maximum(p - margin, 0.0)
    s = q.sum(axis=-1, keepdims=True)
    uniform = np.full_like(p, 0.25)
    scaled = np.where(s > 0.0, margin + (1.0 - 4.0 * margin) * q / np.where(s > 0.0, s, 1.0),
                      uniform)
    w = np.clip(x[..., 4:5], margin * math.pi, (1.0 - margin) * math.pi)
    return np.concatenate([scaled, w], axis=-1)


def _raw_rows(rng, n):
    """Rows (n, 5) around the feasible set: a third with every p at or below
    any margin (the uniform fallback), and w spread past both ends."""
    x = np.concatenate([rng.uniform(-0.3, 1.0, size=(n, 4)),
                        rng.uniform(-0.5, math.pi + 0.5, size=(n, 1))], axis=1)
    x[: n // 3, :4] = rng.uniform(-1.0, 1e-6, size=(n // 3, 4))
    return x


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("shape", [(), (2,), (6,)])
def test_projection_is_bitwise_the_plain_formula(shape):
    rng = np.random.default_rng(21)
    n = 600
    x = _raw_rows(rng, n * math.prod(shape)).reshape((n,) + shape + (5,))
    margin = rng.choice([1e-6, 0.0005, 0.05, 0.2], size=n)
    lead = (n,) + (1,) * (len(shape) + 1)
    expect = _project_reference(x, margin.reshape(lead))
    assert _bits(_project(x, margin)) == _bits(expect)
    assert _bits(_project(x, 0.05)) == _bits(_project_reference(x, 0.05))
    projected = _project(x, margin).reshape(-1, 5)
    assert (projected[:, :4] == 0.25).all(axis=1).sum() >= n // 3  # the fallback ran


def _feasible_rows(seed, n):
    """Feasible rows at margins 0.05 and 0.0005, with rows clamped to
    either end of the w range and rows on the uniform fallback."""
    rng = np.random.default_rng(seed)
    margin = np.repeat([0.05, 0.0005], n // 2)
    x = _project(_raw_rows(rng, n), margin)
    w = x[:, 4]
    assert (w == margin * math.pi).any() and (w == (1.0 - margin) * math.pi).any()
    assert (x[:, :4] == 0.25).all(axis=1).any()
    return np.ascontiguousarray(x)


def test_objective_is_bitwise_the_edge_residual_of_the_full_metrics():
    x = _feasible_rows(5, 2000)
    m = metrics_from_frames(x[:, :4], x[:, 4])
    for name in ANGLE_FIELDS:  # reading the angles must not move a length or area
        getattr(m, name)
    assert _objective(x).tobytes() == normalized_residual(m, "edge").tobytes()
    assert _objective(x.reshape(1000, 2, 5)).tobytes() == _objective(x).tobytes()


def _angle_reference(px, py, ax, ay, bx, by):
    ux, uy, vx, vy = ax - px, ay - py, bx - px, by - py
    return np.arctan2(ux * vy - uy * vx, ux * vx + uy * vy)


def _angles_reference(x1, y1, x2, y2, x3, y3, x4, y4):
    a1 = _angle_reference(x1, y1, x2, y2, x3, y3)
    b1 = _angle_reference(x1, y1, x3, y3, x4, y4)
    a2 = _angle_reference(x2, y2, x3, y3, x4, y4)
    b2 = _angle_reference(x2, y2, x4, y4, x1, y1)
    a3 = _angle_reference(x3, y3, x4, y4, x1, y1)
    b3 = _angle_reference(x3, y3, x1, y1, x2, y2)
    a4 = _angle_reference(x4, y4, x1, y1, x2, y2)
    b4 = _angle_reference(x4, y4, x2, y2, x3, y3)
    return dict(alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4,
                beta1=b1, beta2=b2, beta3=b3, beta4=b4,
                gamma1=a1 + b1, gamma2=a2 + b2, gamma3=a3 + b3, gamma4=a4 + b4,
                X=0.5 * ((a2 + b1) - (a4 + b3)), Y=0.5 * ((a1 + b4) - (a3 + b2)),
                W=0.5 * ((a2 + b1) + (a4 + b3)), Wp=0.5 * ((a1 + b4) + (a3 + b2)))


def test_lazy_angle_fields_are_bitwise_the_eager_formulas():
    x = _feasible_rows(6, 2000)
    cw, sw = np.cos(x[:, 4]), np.sin(x[:, 4])
    zero = np.zeros(len(x))
    expect = _angles_reference(x[:, 0], zero, x[:, 1] * cw, x[:, 1] * sw,
                               -x[:, 2], zero, -x[:, 3] * cw, -x[:, 3] * sw)
    batch = metrics_from_frames(x[:, :4], x[:, 4])
    for name in ANGLE_FIELDS:
        assert getattr(batch, name).tobytes() == expect[name].tobytes(), name
    assert batch._coords is None  # released once the angles are computed
    quads = [sample(k, margin=0.01) for k in range(20)]
    quads += [quad_from_frame(DiagonalFrame(*row[:4], row[4], normalized=True))
              for row in x[:20]]
    for quad in quads:
        m = metrics(quad)
        (x1, y1), (x2, y2), (x3, y3), (x4, y4) = quad.vertices
        expect = _angles_reference(x1, y1, x2, y2, x3, y3, x4, y4)
        for name in ANGLE_FIELDS:
            assert np.float64(getattr(m, name)).tobytes() == expect[name].tobytes(), name


def _descend_reference(x0, f0, margin, budget):
    """The lockstep descent written plainly: reflection and contraction as
    separate objective calls, numpy's own reductions, the plain projection.
    margin is (n, 1)."""
    n = len(x0)
    best_x, best_f = x0.copy(), f0.copy()
    evals, iters = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    if budget < 5:
        return best_x, best_f, evals, iters

    def keep_best(bx, bf, simplex, values):
        low = values.min(axis=1)
        improved = np.nonzero(low < bf)[0]
        bf[improved] = low[improved]
        bx[improved] = simplex[improved, values[improved].argmin(axis=1)]
        return low

    steps = np.concatenate([np.repeat(0.12 * (1.0 - 4.0 * margin), 4, axis=1),
                            0.12 * (1.0 - 2.0 * margin) * math.pi], axis=1)
    simplex = np.repeat(x0[:, None, :], 6, axis=1)
    simplex[:, np.arange(5) + 1, np.arange(5)] += steps
    simplex = _project_reference(simplex, margin[:, None])
    values = np.empty((n, 6))
    values[:, 0] = f0
    values[:, 1:] = _objective(simplex[:, 1:, :])
    evals[:] = 5
    keep_best(best_x, best_f, simplex, values)
    rows = np.arange(n if budget > 5 else 0)
    bx, bf, ev, it = best_x[rows], best_f[rows], evals[rows], iters[rows]
    while rows.size:
        order = np.argsort(values, axis=1, kind="stable")
        ranked = np.arange(rows.size)[:, None]
        simplex, values = simplex[ranked, order], values[ranked, order]
        centroid = simplex[:, :-1, :].mean(axis=1)
        worst, f_worst = simplex[:, -1, :], values[:, -1]
        reflected = _project_reference(centroid + (centroid - worst), margin)
        f_reflect = _objective(reflected)
        ev += 1
        accept_reflect = f_reflect < values[:, -2]
        need_contract = ~accept_reflect & (ev + 1 <= budget)
        contracted = np.empty_like(worst)
        f_contract = np.full(rows.size, np.inf)
        if np.any(need_contract):
            inner = centroid[need_contract] + 0.5 * (worst[need_contract]
                                                     - centroid[need_contract])
            contracted[need_contract] = _project_reference(inner, margin[need_contract])
            f_contract[need_contract] = _objective(contracted[need_contract])
            ev[need_contract] += 1
        accept_contract = need_contract & (f_contract < np.minimum(f_worst, f_reflect))
        need_shrink = need_contract & ~accept_contract & (ev + 5 <= budget)
        simplex[accept_reflect, -1, :] = reflected[accept_reflect]
        values[accept_reflect, -1] = f_reflect[accept_reflect]
        simplex[accept_contract, -1, :] = contracted[accept_contract]
        values[accept_contract, -1] = f_contract[accept_contract]
        if np.any(need_shrink):
            best_vertex = simplex[need_shrink, :1, :]
            shrunk = _project_reference(
                best_vertex + 0.5 * (simplex[need_shrink, 1:, :] - best_vertex),
                margin[need_shrink, None])
            simplex[need_shrink, 1:, :] = shrunk
            values[need_shrink, 1:] = _objective(shrunk)
            ev[need_shrink] += 5
        it[accept_reflect | accept_contract | need_shrink] += 1
        low = keep_best(bx, bf, simplex, values)
        done = (values.max(axis=1) - low <= 1e-15 * (1.0 + np.abs(low))) | (ev + 1 > budget)
        if np.any(done):
            slots = rows[done]
            best_x[slots], best_f[slots] = bx[done], bf[done]
            evals[slots], iters[slots] = ev[done], it[done]
            keep = ~done
            rows, simplex, values, margin, bx, bf, ev, it = (
                a[keep] for a in (rows, simplex, values, margin, bx, bf, ev, it))
    return best_x, best_f, evals, iters


# 8, 11, 12 and 13 are where a contraction, or the shrink after it, only
# just fits the budget or only just misses it
@pytest.mark.parametrize("budget", [5, 6, 7, 8, 11, 12, 13, 90, 600, 2000])
def test_descent_is_bitwise_the_plain_loop(budget):
    rng = np.random.default_rng(budget)
    margin = np.repeat([0.05, 0.005, 0.0005, 1e-6], 16)
    x0 = _project_reference(_raw_rows(rng, len(margin)), margin[:, None])
    f0 = _objective(x0)
    got = _descend(x0, f0, margin, budget)
    expect = _descend_reference(x0, f0, margin[:, None], budget)
    for a, b in zip(got, expect):
        assert _bits(a) == _bits(b)
