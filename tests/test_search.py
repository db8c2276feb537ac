"""Multi-start counterexample search."""

import numpy as np
import pytest

from quadineq.geometry import metrics, quad_from_frame
from quadineq.ioutil import dumps
from quadineq.kernel import normalized_residual
from quadineq.search import (
    _project,
    boundary_trend,
    minimize_residual,
)


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
