"""Adversarial counterexample search over the diagonal-frame space.

Multi-start derivative-free descent (reflect / contract / shrink simplex
steps with feasibility projection) minimizes the scale-free objective
residual / abcdef over the margin-truncated frame domain.  The search is a
falsifier, not a prover: any frame whose normalized residual dips below
-INEQ_TOL, the audit's inequality tolerance, is flagged as a counterexample
candidate and re-audited through the full identity suite before being
reported as genuine.

A margin schedule runs as one lockstep descent: every (margin, start) pair
is a row of one batch, with its own margin, and each loop pass steps every
row still descending.  A row leaves the batch as soon as it converges or
cannot afford another step, so a finished row costs nothing afterwards.
Rows stay independent: each start draws from its own RNG stream, derived
from (seed, start index), and every step, projection, ranking and
objective value is computed row by row, so a row's trajectory does not
depend on which rows share its batch.  Runs are deterministic per (seed,
starts, margin, budget), and a schedule's results equal those of separate
one-margin searches.

Each pass steps every row once, in one projection and one objective call:
by a trial point, its reflection or, where that reflection failed on the
pass before, its inside contraction; or, where that contraction failed on
the pass before, by the five vertices of its shrink.  The call's points
open with one slot per row, holding its trial point or its first shrunk
vertex, and the other four vertices of each shrink follow.  So the
objective computes only points that a row counts: on the 256-start,
three-margin search at seed 0 (768 rows, budget 2000) it computes 917,001
rows, the 916,233 counted evaluations plus the 768 starts, in 1,997 calls:
the starts, the initial simplices and 1,995 passes of 457 rows on average
(1,075 at most).  It reads only the lengths and areas of the edge
residual, never a split angle.  Each row's simplex is kept ranked by one
stable sort per pass, so its lowest and highest values are its first and
last columns.  The step avoids numpy's slow wrappers and reductions over a
short axis.  Every value is bitwise what the plain formulas give, which
tests/test_search.py checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DiagonalFrame, metrics_from_frames, quad_from_frame,
                       sample_frames)
from .kernel import INEQ_TOL, audit, normalized_residual

# the test the re-audit's residual-nonneg check applies
COUNTEREXAMPLE_THRESHOLD = -INEQ_TOL

_N_COORDS = 5  # p1..p4, w


@dataclass(frozen=True)
class Trajectory:
    """Per-start summary: where it began, where it ended, how hard it worked."""

    start: tuple
    end: tuple
    start_value: float
    best_value: float
    iterations: int
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "start": {"p": list(self.start[:4]), "w": self.start[4]},
            "end": {"p": list(self.end[:4]), "w": self.end[4]},
            "start_value": self.start_value,
            "best_value": self.best_value,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


@dataclass
class SearchResult:
    """Outcome of one multi-start minimization run."""

    seed: int
    starts: int
    margin: float
    budget: int
    best_value: float
    best_frame: DiagonalFrame
    trajectories: list
    margin_schedule: list = field(default_factory=list)
    candidates: list = field(default_factory=list)      # frames below threshold
    genuine_candidates: list = field(default_factory=list)  # survived re-audit

    @property
    def flagged(self) -> bool:
        return bool(self.candidates)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "starts": self.starts,
            "margin": self.margin,
            "budget": self.budget,
            "best_value": self.best_value,
            "best_frame": self.best_frame.to_json_dict()["frame"],
            "margin_schedule": list(self.margin_schedule),
            "counterexample_candidates": [f.to_json_dict()["frame"]
                                          for f in self.candidates],
            "genuine_counterexamples": [f.to_json_dict()["frame"]
                                        for f in self.genuine_candidates],
            "trajectories": [t.to_json_dict() for t in self.trajectories],
        }


def _project(x: np.ndarray, margin) -> np.ndarray:
    """Project points (rows, …, 5) onto the feasible set: p on the
    margin-floored simplex (clamp-and-renormalize the excess above the
    floor) and w clamped to its truncated range.  margin is a scalar or one
    margin per row, of shape (rows,).

    The work runs on a coordinate-major copy, so that each numpy call makes
    one pass over all points, not one short pass per point; the result is
    a transposed view of that copy."""
    t = np.ascontiguousarray(x.T)  # (5, …, rows): margin broadcasts along rows
    q = np.maximum(t[:4] - margin, 0.0)
    s = q[0] + q[1] + q[2] + q[3]  # left to right, as numpy sums four terms
    spread = s > 0.0
    out = np.empty_like(t)
    out[:4] = np.where(spread, margin + (1.0 - 4.0 * margin) * q / np.where(spread, s, 1.0),
                       0.25)
    np.minimum(np.maximum(t[4], margin * math.pi), (1.0 - margin) * math.pi, out=out[4])
    return out.T


def _objective(x: np.ndarray) -> np.ndarray:
    """Normalized residual at feasible coordinate rows (…, 5)."""
    flat = x.reshape(-1, _N_COORDS)
    value = normalized_residual(metrics_from_frames(flat[:, :4], flat[:, 4]), "edge")
    return np.asarray(value).reshape(x.shape[:-1])


def _initial_points(seed: int, starts: int, margin: float) -> np.ndarray:
    points = np.empty((starts, _N_COORDS))
    for k in range(starts):
        p, w = sample_frames([seed, k], 1, margin)
        points[k, :4], points[k, 4] = p[0], w[0]
    return points


def _rank(simplex: np.ndarray, values: np.ndarray) -> tuple:
    """Each row's vertices and values, best first, by a stable argsort
    applied through one flat gather."""
    order = np.argsort(values, axis=1, kind="stable")
    flat = (order + np.arange(0, order.size, _N_COORDS + 1)[:, None]).ravel()
    return (simplex.reshape(-1, _N_COORDS).take(flat, axis=0).reshape(order.shape + (-1,)),
            values.take(flat).reshape(order.shape))


def _descend(x0: np.ndarray, f0: np.ndarray, margin: np.ndarray, budget: int) -> tuple:
    """Lockstep simplex descent from the feasible rows x0 (n, 5) with values
    f0, each row within its own margin (n,).

    budget caps the objective evaluations each row may spend beyond its
    start point.  The loop works on the rows still descending: a row that
    converges or cannot afford another reflection is written back to its
    slot and dropped from the batch, never while its contraction or shrink
    is pending.  Returns each row's best point, best value, evaluation count
    and iteration count.

    Each row's simplex is ranked, best first, once after the initial simplex
    and at the end of every pass, by a stable sort.  The objective is finite
    on the feasible set (margins >= 1e-6), so column 0 holds the row's
    lowest value, at its first such vertex, as a NaN-propagating elementwise
    minimum over the columns would give (a NaN would sort last instead), and
    column -1 its highest.  Column 0 is also the row's best point so far: a
    step replaces only later columns, and on a tie the sort keeps the older
    vertex first.
    """
    n = len(x0)
    evals = np.zeros(n, dtype=int)
    iters = np.zeros(n, dtype=int)
    if budget < _N_COORDS:
        return x0.copy(), f0.copy(), evals, iters

    # initial simplex: the start plus one perturbed vertex per coordinate
    steps = np.concatenate([np.repeat(0.12 * (1.0 - 4.0 * margin)[:, None], 4, axis=1),
                            0.12 * (1.0 - 2.0 * margin)[:, None] * math.pi], axis=1)
    simplex = np.repeat(x0[:, None, :], _N_COORDS + 1, axis=1)
    axes = np.arange(_N_COORDS)
    simplex[:, axes + 1, axes] += steps
    simplex = _project(simplex, margin)
    values = np.empty((n, _N_COORDS + 1))
    values[:, 0] = f0
    values[:, 1:] = _objective(simplex[:, 1:, :])
    evals[:] = _N_COORDS
    simplex, values = _rank(simplex, values)
    best_x, best_f = simplex[:, 0].copy(), values[:, 0].copy()

    # the batch: the rows still descending, by their slots in the outputs; a
    # budget of exactly _N_COORDS is spent on the initial simplex
    rows = np.arange(n if budget > _N_COORDS else 0)
    simplex, values, margin, ev, it = (a[rows] for a in (simplex, values, margin, evals, iters))
    # rows whose reflection failed, with its value, to contract on the next
    # pass; rows whose contraction failed, to shrink on the next pass
    pending, f_fail = np.zeros(rows.size, dtype=bool), np.full(rows.size, np.inf)
    shrink = np.zeros(rows.size, dtype=bool)
    while rows.size:
        # the vertices but the worst, summed in order: the same sums as
        # .mean(axis=1), without numpy's slow reduction over a short axis
        centroid = sum((simplex[:, k] for k in range(1, _N_COORDS)), simplex[:, 0]) / _N_COORDS
        worst = simplex[:, -1, :]
        f_worst = values[:, -1]

        # one step per row, all in one objective call: a trial point, that
        # is, its reflection or, where the reflection failed on the pass
        # before (the simplex has not moved since), its inside contraction;
        # or, where that contraction failed, its shrink toward its best
        # vertex.  The points open with one slot per row, holding its trial
        # point or its first shrunk vertex; the other four shrunk vertices
        # of each shrinking row follow the slots
        trial = centroid + np.where(pending, -0.5, 1.0)[:, None] * (centroid - worst)
        shrinking = shrink.nonzero()[0]
        block = simplex[shrinking]
        shrunk = block[:, :1] + 0.5 * (block[:, 1:] - block[:, :1])
        trial[shrinking] = shrunk[:, 0]
        points = _project(np.concatenate([trial, shrunk[:, 1:].reshape(-1, _N_COORDS)]),
                          np.concatenate([margin, margin[shrinking].repeat(_N_COORDS - 1)]))
        f_points = _objective(points)
        trial, f_trial = points[:rows.size], f_points[:rows.size]
        simplex[shrinking, 1], values[shrinking, 1] = trial[shrinking], f_trial[shrinking]
        simplex[shrinking, 2:] = points[rows.size:].reshape(-1, _N_COORDS - 1, _N_COORDS)
        values[shrinking, 2:] = f_points[rows.size:].reshape(-1, _N_COORDS - 1)
        # a shrinking row has no trial point: its +inf value accepts nothing
        f_trial[shrinking] = np.inf
        ev += np.where(shrink, _N_COORDS, 1)
        accept = np.where(pending, f_trial < np.minimum(f_worst, f_fail),
                          f_trial < values[:, -2])
        failed = ~(accept | shrink)  # a trial point, rejected
        shrink = pending & failed & (ev <= budget - _N_COORDS)
        pending, f_fail = ~pending & failed & (ev < budget), f_trial
        np.copyto(simplex[:, -1], trial, where=accept[:, None])
        np.copyto(values[:, -1], f_trial, where=accept)
        it += accept | shrink

        simplex, values = _rank(simplex, values)
        low = values[:, 0]
        converged = values[:, -1] - low <= 1e-15 * (1.0 + np.abs(low))
        done = (converged | (ev >= budget)) & ~(pending | shrink)
        if done.any():
            slots = rows[done]
            best_x[slots], best_f[slots] = simplex[done, 0], low[done]
            evals[slots], iters[slots] = ev[done], it[done]
            keep = ~done
            rows, simplex, values, margin, ev, it, pending, f_fail, shrink = (
                a[keep] for a in (rows, simplex, values, margin, ev, it, pending, f_fail, shrink))
    # a row that never beat its start reports the start itself: its simplex
    # holds a re-projected copy, and the projection is not bitwise idempotent
    unmoved = best_f == f0
    best_x[unmoved] = x0[unmoved]
    return best_x, best_f, evals, iters


def minimize_residual(seed: int, starts: int = 64, margin: float = 0.05,
                      budget: int = 2000) -> SearchResult:
    """Multi-start simplex descent on the normalized residual: the
    one-margin case of `boundary_trend`.

    budget caps the number of objective evaluations each start may spend
    beyond its own start-point evaluation; budget 0 reports the start
    points themselves.
    """
    return boundary_trend(seed, starts, [margin], budget)[0]


def boundary_trend(seed: int, starts: int, margins, budget: int) -> list:
    """One multi-start search per margin of a schedule, all run as one
    lockstep batch; documents how the attainable minimum decays toward the
    degenerate boundary.

    Each (margin, start) row descends on its own (see the module
    docstring), so each margin's SearchResult is the one a search at that
    margin alone gives.  Every argument is checked before the first
    objective evaluation.
    """
    margins = list(margins)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if starts < 1:
        raise ValueError("starts must be at least 1")
    if not all(1e-6 <= m <= 0.2 for m in margins):
        raise ValueError("margin must lie in [1e-6, 0.2]")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not margins:
        return []

    column = np.repeat(np.array(margins, dtype=float), starts)
    x0 = _project(np.concatenate([_initial_points(seed, starts, float(m)) for m in margins]),
                  column)
    f0 = _objective(x0)
    best_x, best_f, evals, iters = _descend(x0, f0, column, budget)

    results = []
    for i, m in enumerate(margins):
        rows = slice(i * starts, (i + 1) * starts)
        frames = [DiagonalFrame(*map(float, x[:4]), float(x[4]), normalized=True)
                  for x in best_x[rows]]
        trajectories = [
            Trajectory(start=tuple(map(float, a)), end=tuple(map(float, b)),
                       start_value=float(fa), best_value=float(fb),
                       iterations=int(k), evaluations=int(e))
            for a, b, fa, fb, k, e in zip(x0[rows], best_x[rows], f0[rows], best_f[rows],
                                          iters[rows], evals[rows])
        ]
        candidates = [f for f, t in zip(frames, trajectories)
                      if t.best_value < COUNTEREXAMPLE_THRESHOLD]
        genuine = [f for f in candidates
                   if not audit(quad_from_frame(f)).check("residual-nonneg").passed]
        winner = int(np.argsort(best_f[rows], kind="stable")[0])
        results.append(SearchResult(
            seed=seed, starts=starts, margin=float(m), budget=budget,
            best_value=trajectories[winner].best_value, best_frame=frames[winner],
            trajectories=trajectories, margin_schedule=margins,
            candidates=candidates, genuine_candidates=genuine,
        ))
    return results
