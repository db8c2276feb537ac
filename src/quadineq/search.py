"""Adversarial counterexample search over the diagonal-frame space.

Multi-start derivative-free descent (reflect / contract / shrink simplex
steps with feasibility projection) minimizes the scale-free objective
residual / abcdef over the margin-truncated frame domain.  The search is a
falsifier, not a prover: any frame whose normalized residual dips below
-1e-12 is flagged as a counterexample candidate and re-audited through the
full identity suite before being reported as genuine.

Runs are deterministic per (seed, starts, margin, budget): every start has
its own RNG stream derived from (seed, start index), so results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DiagonalFrame, metrics_from_frames, quad_from_frame,
                       sample_frames)
from .kernel import audit, normalized_residual

COUNTEREXAMPLE_THRESHOLD = -1e-12

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


def _project(x: np.ndarray, margin: float) -> np.ndarray:
    """Project points (…, 5) onto the feasible set: p on the margin-floored
    simplex (clamp-and-renormalize the excess above the floor) and w clamped
    to its truncated range."""
    p = x[..., :4]
    q = np.maximum(p - margin, 0.0)
    s = q.sum(axis=-1, keepdims=True)
    uniform = np.full_like(p, 0.25)
    scaled = np.where(s > 0.0, margin + (1.0 - 4.0 * margin) * q / np.where(s > 0.0, s, 1.0),
                      uniform)
    w = np.clip(x[..., 4:5], margin * math.pi, (1.0 - margin) * math.pi)
    return np.concatenate([scaled, w], axis=-1)


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


def minimize_residual(seed: int, starts: int = 64, margin: float = 0.05,
                      budget: int = 2000) -> SearchResult:
    """Multi-start simplex descent on the normalized residual.

    budget caps the number of objective evaluations each start may spend
    beyond its own start-point evaluation; budget 0 reports the start
    points themselves.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    if not (1e-6 <= margin <= 0.2):
        raise ValueError("margin must lie in [1e-6, 0.2]")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    x0 = _project(_initial_points(seed, starts, margin), margin)
    f0 = _objective(x0)
    best_x = x0.copy()
    best_f = f0.copy()
    evals = np.zeros(starts, dtype=int)
    iters = np.zeros(starts, dtype=int)

    n_vertices = _N_COORDS + 1
    if budget >= n_vertices - 1:
        # initial simplex: the start plus one perturbed vertex per coordinate
        steps = np.array([0.12 * (1.0 - 4.0 * margin)] * 4
                         + [0.12 * (1.0 - 2.0 * margin) * math.pi])
        simplex = np.repeat(x0[:, None, :], n_vertices, axis=1)
        for j in range(_N_COORDS):
            simplex[:, j + 1, j] += steps[j]
        simplex = _project(simplex, margin)
        values = np.empty((starts, n_vertices))
        values[:, 0] = f0
        values[:, 1:] = _objective(simplex[:, 1:, :])
        evals += _N_COORDS

        active = np.ones(starts, dtype=bool)
        while np.any(active):
            order = np.argsort(values, axis=1, kind="stable")
            ranked = np.take_along_axis(simplex, order[:, :, None], axis=1)
            ranked_f = np.take_along_axis(values, order, axis=1)
            simplex, values = ranked, ranked_f

            centroid = simplex[:, :-1, :].mean(axis=1)
            worst = simplex[:, -1, :]
            f_worst = values[:, -1]
            f_second = values[:, -2]

            can_reflect = active & (evals + 1 <= budget)
            reflected = _project(centroid + (centroid - worst), margin)
            f_reflect = np.full(starts, np.inf)
            if np.any(can_reflect):
                f_reflect[can_reflect] = _objective(reflected[can_reflect])
                evals[can_reflect] += 1

            accept_reflect = can_reflect & (f_reflect < f_second)
            need_contract = can_reflect & ~accept_reflect & (evals + 1 <= budget)
            contracted = _project(centroid + 0.5 * (worst - centroid), margin)
            f_contract = np.full(starts, np.inf)
            if np.any(need_contract):
                f_contract[need_contract] = _objective(contracted[need_contract])
                evals[need_contract] += 1
            accept_contract = need_contract & (f_contract < np.minimum(f_worst, f_reflect))

            need_shrink = need_contract & ~accept_contract & (evals + _N_COORDS <= budget)
            simplex[accept_reflect, -1, :] = reflected[accept_reflect]
            values[accept_reflect, -1] = f_reflect[accept_reflect]
            simplex[accept_contract, -1, :] = contracted[accept_contract]
            values[accept_contract, -1] = f_contract[accept_contract]
            if np.any(need_shrink):
                best_vertex = simplex[need_shrink, :1, :]
                shrunk = _project(best_vertex + 0.5 * (simplex[need_shrink, 1:, :]
                                                       - best_vertex), margin)
                simplex[need_shrink, 1:, :] = shrunk
                values[need_shrink, 1:] = _objective(shrunk)
                evals[need_shrink] += _N_COORDS

            stepped = accept_reflect | accept_contract | need_shrink
            iters[stepped] += 1

            improved = values.min(axis=1) < best_f
            arg = values.argmin(axis=1)
            rows = np.nonzero(improved)[0]
            best_f[rows] = values[rows, arg[rows]]
            best_x[rows] = simplex[rows, arg[rows], :]

            spread = values.max(axis=1) - values.min(axis=1)
            converged = spread <= 1e-15 * (1.0 + np.abs(values.min(axis=1)))
            out_of_budget = evals + 1 > budget
            active &= ~(converged | out_of_budget)
            # starts that can no longer afford any step are done
            active &= stepped | (evals + 1 <= budget)

    order = np.lexsort((np.arange(starts), best_f))
    winner = int(order[0])
    frames = [DiagonalFrame(*map(float, best_x[k, :4]), float(best_x[k, 4]),
                            normalized=True) for k in range(starts)]
    trajectories = [
        Trajectory(start=tuple(map(float, x0[k])), end=tuple(map(float, best_x[k])),
                   start_value=float(f0[k]), best_value=float(best_f[k]),
                   iterations=int(iters[k]), evaluations=int(evals[k]))
        for k in range(starts)
    ]

    candidates = [frames[k] for k in range(starts)
                  if best_f[k] < COUNTEREXAMPLE_THRESHOLD]
    genuine = [f for f in candidates
               if not audit(quad_from_frame(f)).check("residual-nonneg").passed]

    return SearchResult(
        seed=seed, starts=starts, margin=margin, budget=budget,
        best_value=float(best_f[winner]), best_frame=frames[winner],
        trajectories=trajectories, margin_schedule=[margin],
        candidates=candidates, genuine_candidates=genuine,
    )


def boundary_trend(seed: int, starts: int, margins, budget: int) -> list:
    """Independent searches over a decreasing margin schedule; documents how
    the attainable minimum decays toward the degenerate boundary."""
    margins = list(margins)
    results = []
    for m in margins:
        res = minimize_residual(seed, starts=starts, margin=float(m), budget=budget)
        res.margin_schedule = margins
        results.append(res)
    return results
