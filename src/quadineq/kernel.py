"""Evaluation and auditing of the degree-six inequality.

For the side z_i z_j shared by two triangles of the quadrilateral, the edge
expression multiplies the free side length, the two triangle areas and the
sum of the two triangle-inequality slacks at that side, e.g.

    E12 = f A123 A124 (a + b + e + d - 2c)

The inequality under audit is E12 + E23 + E34 + E41 >= E13 + E24.  Expanding
every edge expression yields 30 terms: 24 in which a length enters with
coefficient +1 (multiplicity one) and 6 with coefficient -2 (multiplicity
two).  The multiplicity-one terms split into three groups of eight by which
length pair they avoid ({a,d} -> X group, {c,f} -> Y group, {b,e} -> W
group), and each group collapses to a single product of abcdef with sines
of the derived angles.  The multiplicity-two terms collapse to abcdef times
a closed angular expression.  This module evaluates the residual through all
of these routes and audits every identity and inequality along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    QuadMetrics,
    metrics,
    metrics_from_frames,
    sample,
    sample_frames,
)

RESIDUAL_PATHS = ("edge", "expanded", "lemma")
MULT1_GROUPS = ("X", "Y", "W")

# Boundary slack for the closed angle-sum hypotheses gamma2+gamma3 <= pi and
# gamma3+gamma4 <= pi: rectangles sit exactly on the boundary and must not
# fall out of the filter through angle roundoff.
_HYPOTHESIS_SLACK = 1e-12

# frame-uniform audits are evaluated in batches of this many rows
_AUDIT_CHUNK = 200_000


def _abcdef(m: QuadMetrics):
    return m.a * m.b * m.c * m.d * m.e * m.f


@dataclass(frozen=True)
class EdgeTermSet:
    """The six degree-six edge expressions of one configuration."""

    e12: object
    e23: object
    e34: object
    e41: object
    e13: object
    e24: object

    @property
    def lhs(self):
        return self.e12 + self.e23 + self.e34 + self.e41

    @property
    def rhs(self):
        return self.e13 + self.e24


@dataclass(frozen=True)
class AngularParts:
    """The even (p1_value) and odd (p2_value) halves of the multiplicity-two
    angular expression; abcdef * (p1_value + p2_value) is the raw sum."""

    p1_value: object
    p2_value: object


def edge_terms(m: QuadMetrics) -> EdgeTermSet:
    return EdgeTermSet(
        e12=m.f * m.A123 * m.A124 * (m.a + m.b + m.e + m.d - 2.0 * m.c),
        e23=m.d * m.A123 * m.A234 * (m.c + m.b + m.e + m.f - 2.0 * m.a),
        e34=m.c * m.A134 * m.A234 * (m.d + m.b + m.e + m.a - 2.0 * m.f),
        e41=m.a * m.A124 * m.A134 * (m.c + m.e + m.b + m.f - 2.0 * m.d),
        e13=m.e * m.A123 * m.A134 * (m.c + m.a + m.d + m.f - 2.0 * m.b),
        e24=m.b * m.A124 * m.A234 * (m.c + m.d + m.a + m.f - 2.0 * m.e),
    )


# The 30 expanded terms as (coefficient, free length, companion length,
# area, area).  Rows group five by five per edge expression.
_EXPANDED_TERMS = (
    (1, "f", "a", "A123", "A124"), (1, "f", "b", "A123", "A124"),
    (1, "f", "e", "A123", "A124"), (1, "f", "d", "A123", "A124"),
    (-2, "f", "c", "A123", "A124"),
    (1, "d", "c", "A123", "A234"), (1, "d", "b", "A123", "A234"),
    (1, "d", "e", "A123", "A234"), (1, "d", "f", "A123", "A234"),
    (-2, "d", "a", "A123", "A234"),
    (1, "c", "d", "A134", "A234"), (1, "c", "b", "A134", "A234"),
    (1, "c", "e", "A134", "A234"), (1, "c", "a", "A134", "A234"),
    (-2, "c", "f", "A134", "A234"),
    (1, "a", "c", "A124", "A134"), (1, "a", "e", "A124", "A134"),
    (1, "a", "b", "A124", "A134"), (1, "a", "f", "A124", "A134"),
    (-2, "a", "d", "A124", "A134"),
    (-1, "e", "c", "A123", "A134"), (-1, "e", "a", "A123", "A134"),
    (-1, "e", "d", "A123", "A134"), (-1, "e", "f", "A123", "A134"),
    (2, "e", "b", "A123", "A134"),
    (-1, "b", "c", "A124", "A234"), (-1, "b", "d", "A124", "A234"),
    (-1, "b", "a", "A124", "A234"), (-1, "b", "f", "A124", "A234"),
    (2, "b", "e", "A124", "A234"),
)

# Multiplicity-one terms whose explicit length pair avoids {a, d} (X group),
# {c, f} (Y group) or {b, e} (W group).
_MULT1_TERMS = {
    "X": (
        (1, "f", "e", "A123", "A124"), (1, "f", "b", "A123", "A124"),
        (1, "c", "b", "A134", "A234"), (1, "c", "e", "A134", "A234"),
        (-1, "e", "c", "A123", "A134"), (-1, "e", "f", "A123", "A134"),
        (-1, "b", "c", "A124", "A234"), (-1, "b", "f", "A124", "A234"),
    ),
    "Y": (
        (1, "d", "b", "A123", "A234"), (1, "d", "e", "A123", "A234"),
        (1, "a", "e", "A124", "A134"), (1, "a", "b", "A124", "A134"),
        (-1, "e", "a", "A123", "A134"), (-1, "e", "d", "A123", "A134"),
        (-1, "b", "d", "A124", "A234"), (-1, "b", "a", "A124", "A234"),
    ),
    "W": (
        (1, "f", "a", "A123", "A124"), (1, "f", "d", "A123", "A124"),
        (1, "d", "c", "A123", "A234"), (1, "d", "f", "A123", "A234"),
        (1, "c", "d", "A134", "A234"), (1, "c", "a", "A134", "A234"),
        (1, "a", "c", "A124", "A134"), (1, "a", "f", "A124", "A134"),
    ),
}


def _sum_terms(m: QuadMetrics, terms):
    total = 0.0
    for coef, l1, l2, a1, a2 in terms:
        total = total + coef * getattr(m, l1) * getattr(m, l2) \
            * getattr(m, a1) * getattr(m, a2)
    return total


def multiplicity_one_sum(m: QuadMetrics, group: str, form: str = "raw"):
    """One of the three multiplicity-one groups, raw or in factored form.

    Factored closed forms (K = abcdef):

        X group: K sin X  sin(W'/2) sin(Y/2) sin((alpha1 - beta4)/2)
        Y group: K sin Y  sin(W/2)  sin(X/2) sin((beta1 - alpha2)/2)
        W group: K sin W  cos(X/2)  cos(Y/2) sin((gamma1 + gamma3)/2)
    """
    if group not in MULT1_GROUPS:
        raise ValueError(f"unknown multiplicity-one group {group!r}")
    if form == "raw":
        return _sum_terms(m, _MULT1_TERMS[group])
    if form != "factored":
        raise ValueError(f"unknown form {form!r}")
    K = _abcdef(m)
    if group == "X":
        return K * np.sin(m.X) * np.sin(m.Wp / 2) * np.sin(m.Y / 2) \
            * np.sin((m.alpha1 - m.beta4) / 2)
    if group == "Y":
        return K * np.sin(m.Y) * np.sin(m.W / 2) * np.sin(m.X / 2) \
            * np.sin((m.beta1 - m.alpha2) / 2)
    return K * np.sin(m.W) * np.cos(m.X / 2) * np.cos(m.Y / 2) \
        * np.sin((m.gamma1 + m.gamma3) / 2)


def multiplicity_two_sum(m: QuadMetrics, form: str = "raw"):
    """Sum of the six multiplicity-two terms, raw or via the closed form
    abcdef * (p1_value - 1/2 + p2_value + 1/2)."""
    if form == "raw":
        return (-2.0 * m.a * m.d * (m.A123 * m.A234 + m.A124 * m.A134)
                - 2.0 * m.c * m.f * (m.A124 * m.A123 + m.A134 * m.A234)
                + 2.0 * m.b * m.e * (m.A123 * m.A134 + m.A124 * m.A234))
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    parts = angular_parts(m)
    return _abcdef(m) * (parts.p1_value + parts.p2_value)


def multiplicity_two_scalar(m: QuadMetrics, gamma24_sign: float = 1.0):
    """Multiplicity-two sum as abcdef/2 times a pure sine expression.

    gamma24_sign picks the sign of the sin(gamma2) sin(gamma4) term; the
    audit adjudicates which sign reproduces the raw area-product sum
    (+1 is the variant consistent with the closed forms).
    """
    s = np.sin
    return 0.5 * _abcdef(m) * (
        -s(m.alpha1) * s(m.beta4) - s(m.alpha3) * s(m.beta2)
        - s(m.alpha4) * s(m.beta3) - s(m.alpha2) * s(m.beta1)
        + s(m.gamma1) * s(m.gamma3) + gamma24_sign * s(m.gamma2) * s(m.gamma4))


def angular_parts(m: QuadMetrics, form: str = "closed") -> AngularParts:
    """Even/odd halves of the multiplicity-two angular expression.

    form="definition" evaluates the six-cosine sums produced by
    linearizing the sine products; form="closed" evaluates

        p1 = 1/2 - 2 sin^2(X/2) cos^2(W/2) cos^2(Y/2)
                 - 2 cos^2(X/2) cos^2(W'/2) sin^2(Y/2)
        p2 = -1/2 - 2 sin((alpha1-beta4)/2) sin((beta1-alpha2)/2)
                      sin((gamma1+gamma3)/2)
    """
    s = np.sin
    co = np.cos
    if form == "definition":
        p1 = 0.25 * (co(m.alpha1 + m.beta4) + co(m.alpha3 + m.beta2)
                     + co(m.alpha4 + m.beta3) + co(m.alpha2 + m.beta1)
                     + co(m.gamma1 - m.gamma3) + co(m.gamma2 - m.gamma4))
        p2 = 0.25 * (-co(m.alpha1 - m.beta4) - co(m.alpha3 - m.beta2)
                     - co(m.alpha4 - m.beta3) - co(m.alpha2 - m.beta1)
                     - co(m.gamma1 + m.gamma3) - co(m.gamma2 + m.gamma4))
        return AngularParts(p1_value=p1, p2_value=p2)
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    p1 = 0.5 - 2.0 * s(m.X / 2) ** 2 * co(m.W / 2) ** 2 * co(m.Y / 2) ** 2 \
        - 2.0 * co(m.X / 2) ** 2 * co(m.Wp / 2) ** 2 * s(m.Y / 2) ** 2
    p2 = -0.5 - 2.0 * s((m.alpha1 - m.beta4) / 2) \
        * s((m.beta1 - m.alpha2) / 2) * s((m.gamma1 + m.gamma3) / 2)
    return AngularParts(p1_value=p1, p2_value=p2)


def residual(m: QuadMetrics, path: str = "edge"):
    """LHS - RHS of the inequality (length^6 units), through one of three
    algebraically independent routes:

        edge      difference of the six composite edge expressions
        expanded  sum of the 30 individual terms
        lemma     factored multiplicity-one groups plus the closed
                  multiplicity-two form
    """
    if path == "edge":
        t = edge_terms(m)
        return t.lhs - t.rhs
    if path == "expanded":
        return _sum_terms(m, _EXPANDED_TERMS)
    if path == "lemma":
        return (multiplicity_one_sum(m, "X", "factored")
                + multiplicity_one_sum(m, "Y", "factored")
                + multiplicity_one_sum(m, "W", "factored")
                + multiplicity_two_sum(m, "closed"))
    raise ValueError(f"unknown residual path {path!r}")


def normalized_residual(m: QuadMetrics, path: str = "edge"):
    """Dimensionless residual / abcdef, for scale-free reporting."""
    return residual(m, path) / _abcdef(m)


def cosine_triple_identity_gap(u, v, t):
    """|cos u + cos v + cos t - 1 - 4 sin(u/2) sin(v/2) sin(t/2)| for angle
    triples with u + v + t = pi."""
    lhs = np.cos(u) + np.cos(v) + np.cos(t)
    rhs = 1.0 + 4.0 * np.sin(u / 2) * np.sin(v / 2) * np.sin(t / 2)
    return np.abs(lhs - rhs)


def sine_bound_slack(m: QuadMetrics, index: int):
    """Slack of the three sine comparison bounds (nonnegative on convex
    input):

        1: sin((W' - Y)/2) - |sin((alpha1 - beta4)/2)|
        2: sin((W  - X)/2) - |sin((beta1 - alpha2)/2)|
        3: sin((gamma1 + gamma3)/2) - sin((X + Y)/2)
    """
    if index == 1:
        return np.sin((m.Wp - m.Y) / 2) - np.abs(np.sin((m.alpha1 - m.beta4) / 2))
    if index == 2:
        return np.sin((m.W - m.X) / 2) - np.abs(np.sin((m.beta1 - m.alpha2) / 2))
    if index == 3:
        return np.sin((m.gamma1 + m.gamma3) / 2) - np.sin((m.X + m.Y) / 2)
    raise ValueError("index must be 1, 2 or 3")


def angle_sum_hypotheses(m: QuadMetrics):
    """Mask of samples with gamma2+gamma3 <= pi and gamma3+gamma4 <= pi."""
    bound = np.pi + _HYPOTHESIS_SLACK
    return (m.gamma2 + m.gamma3 <= bound) & (m.gamma3 + m.gamma4 <= bound)


def angular_core(m: QuadMetrics):
    """Dimensionless sum of the three factored multiplicity-one groups and
    the even multiplicity-two deficit (p1_value - 1/2); nonnegative whenever
    the angle-sum hypotheses hold."""
    s = np.sin
    co = np.cos
    p1 = angular_parts(m).p1_value
    return (s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s((m.alpha1 - m.beta4) / 2)
            + s(m.Y) * s(m.W / 2) * s(m.X / 2) * s((m.beta1 - m.alpha2) / 2)
            + s(m.W) * co(m.X / 2) * co(m.Y / 2) * s((m.gamma1 + m.gamma3) / 2)
            + (p1 - 0.5))


def remainder_terms(m: QuadMetrics):
    """The three leftover products after bounding the angular core:

        2 sin X sin(W'/2) sin(Y/2) sin(alpha3/2) cos(beta2/2)
      + 2 sin Y sin(W/2)  sin(X/2) sin(beta3/2)  cos(alpha4/2)
      + 2 sin W cos(X/2)  cos(Y/2) cos(gamma1/2) sin(gamma3/2)
    """
    s = np.sin
    co = np.cos
    return (2.0 * s(m.X) * s(m.Wp / 2) * s(m.Y / 2) * s(m.alpha3 / 2) * co(m.beta2 / 2)
            + 2.0 * s(m.Y) * s(m.W / 2) * s(m.X / 2) * s(m.beta3 / 2) * co(m.alpha4 / 2)
            + 2.0 * s(m.W) * co(m.X / 2) * co(m.Y / 2) * co(m.gamma1 / 2) * s(m.gamma3 / 2))


def final_chain_slack(m: QuadMetrics):
    """Closing combination of the sign-case argument; nonnegative on samples
    satisfying the angle-sum hypotheses:

        2 sin((W'-Y)/2) sin((W-X)/2) sin((X+Y)/2)
      - 2 sin((beta4-alpha1)/2) sin((alpha2-beta1)/2) sin((gamma1+gamma3)/2)
      + 2 sin W cos(X/2) cos(Y/2) cos(gamma1/2) sin(gamma3/2)
    """
    s = np.sin
    co = np.cos
    return (2.0 * s((m.Wp - m.Y) / 2) * s((m.W - m.X) / 2) * s((m.X + m.Y) / 2)
            - 2.0 * s((m.beta4 - m.alpha1) / 2) * s((m.alpha2 - m.beta1) / 2)
            * s((m.gamma1 + m.gamma3) / 2)
            + 2.0 * s(m.W) * co(m.X / 2) * co(m.Y / 2) * co(m.gamma1 / 2) * s(m.gamma3 / 2))


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one audited identity, inequality or sign adjudication."""

    id: str
    kind: str  # "identity" | "inequality" | "resolution"
    tol: float
    passed: bool
    max_err: float | None = None
    min_slack: float | None = None
    skipped: bool = False
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {"id": self.id, "kind": self.kind, "tol": self.tol,
               "pass": bool(self.passed), "max_err": self.max_err,
               "min_slack": self.min_slack}
        if self.skipped:
            doc["skipped"] = True
        doc.update(self.extra)
        return doc


@dataclass
class AuditReport:
    """Aggregated audit outcome over one configuration or a seeded batch."""

    seed: int | None
    samples: int
    tol: float
    ineq_tol: float
    checks: list
    sign_resolution: str

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "tol": self.tol,
            "ineq_tol": self.ineq_tol,
            "checks": [c.to_json_dict() for c in self.checks],
            "sign_resolution": self.sign_resolution,
            "pass": self.passed(),
        }


class _Accumulator:
    """Running max-error / min-slack merge across sample chunks."""

    def __init__(self):
        self.max_err: dict[str, float] = {}
        self.min_slack: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def err(self, key: str, values) -> None:
        v = float(np.max(values)) if np.size(values) else float("-inf")
        self.max_err[key] = max(self.max_err.get(key, float("-inf")), v)

    def slack(self, key: str, values) -> None:
        n = int(np.size(values))
        self.counts[key] = self.counts.get(key, 0) + n
        if n:
            v = float(np.min(values))
            self.min_slack[key] = min(self.min_slack.get(key, float("inf")), v)


def _accumulate_checks(acc: _Accumulator, m: QuadMetrics) -> None:
    K = _abcdef(m)
    r_edge = residual(m, "edge")
    r_expanded = residual(m, "expanded")
    r_lemma = residual(m, "lemma")
    acc.err("residual-edge-vs-expanded", np.abs(r_edge - r_expanded) / K)
    acc.err("residual-edge-vs-lemma", np.abs(r_edge - r_lemma) / K)

    for group in MULT1_GROUPS:
        raw = multiplicity_one_sum(m, group, "raw")
        fact = multiplicity_one_sum(m, group, "factored")
        acc.err(f"mult1-{group.lower()}-raw-vs-factored", np.abs(raw - fact) / K)

    m2_raw = multiplicity_two_sum(m, "raw")
    acc.err("mult2-raw-vs-closed",
            np.abs(m2_raw - multiplicity_two_sum(m, "closed")) / K)
    acc.err("mult2-sign-plus",
            np.abs(m2_raw - multiplicity_two_scalar(m, 1.0)) / K)
    acc.err("mult2-sign-minus",
            np.abs(m2_raw - multiplicity_two_scalar(m, -1.0)) / K)

    closed = angular_parts(m, "closed")
    defn = angular_parts(m, "definition")
    acc.err("p1-def-vs-closed", np.abs(defn.p1_value - closed.p1_value))
    acc.err("p2-def-vs-closed", np.abs(defn.p2_value - closed.p2_value))

    acc.err("cosine-triple-identity",
            cosine_triple_identity_gap(m.beta4 - m.alpha1, m.alpha2 - m.beta1,
                                       m.gamma1 + m.gamma3))

    core = angular_core(m)
    split = (2.0 * np.sin((m.Wp - m.Y) / 2) * np.sin((m.W - m.X) / 2)
             * np.sin((m.X + m.Y) / 2) + remainder_terms(m))
    acc.err("core-remainder-split", np.abs(core - split))

    acc.slack("residual-nonneg", r_edge / K)
    for i in (1, 2, 3):
        acc.slack(f"sine-bound-{i}", sine_bound_slack(m, i))

    hyp = np.atleast_1d(angle_sum_hypotheses(m))
    acc.slack("angular-core-nonneg", np.atleast_1d(core)[hyp])
    acc.slack("final-chain-nonneg", np.atleast_1d(final_chain_slack(m))[hyp])


_IDENTITY_IDS = (
    "residual-edge-vs-expanded", "residual-edge-vs-lemma",
    "mult1-x-raw-vs-factored", "mult1-y-raw-vs-factored",
    "mult1-w-raw-vs-factored", "mult2-raw-vs-closed",
    "p1-def-vs-closed", "p2-def-vs-closed",
    "cosine-triple-identity", "core-remainder-split",
)
_INEQUALITY_IDS = (
    "residual-nonneg", "sine-bound-1", "sine-bound-2", "sine-bound-3",
    "angular-core-nonneg", "final-chain-nonneg",
)


def _finalize(acc: _Accumulator, seed, samples, tol, ineq_tol) -> AuditReport:
    checks: list[CheckResult] = []
    for cid in _IDENTITY_IDS:
        err = acc.max_err[cid]
        checks.append(CheckResult(id=cid, kind="identity", tol=tol,
                                  passed=err <= tol, max_err=err))

    err_plus = acc.max_err["mult2-sign-plus"]
    err_minus = acc.max_err["mult2-sign-minus"]
    resolution = "plus" if err_plus <= err_minus else "minus"
    winner = min(err_plus, err_minus)
    loser = max(err_plus, err_minus)
    checks.append(CheckResult(
        id="mult2-sign-resolution", kind="resolution", tol=tol,
        passed=winner <= tol, max_err=winner,
        extra={"resolution": resolution, "err_plus": err_plus,
               "err_minus": err_minus,
               "conclusive": bool(loser >= 1e6 * tol)}))

    for cid in _INEQUALITY_IDS:
        n = acc.counts.get(cid, 0)
        if n == 0:
            checks.append(CheckResult(id=cid, kind="inequality", tol=ineq_tol,
                                      passed=True, skipped=True,
                                      extra={"in_hypothesis": 0}))
            continue
        slack = acc.min_slack[cid]
        extra = {}
        if cid in ("angular-core-nonneg", "final-chain-nonneg"):
            extra["in_hypothesis"] = n
        checks.append(CheckResult(id=cid, kind="inequality", tol=ineq_tol,
                                  passed=slack >= -ineq_tol, min_slack=slack,
                                  extra=extra))

    return AuditReport(seed=seed, samples=samples, tol=tol, ineq_tol=ineq_tol,
                       checks=checks, sign_resolution=resolution)


def audit(q, tol: float = 1e-9, ineq_tol: float = 1e-12) -> AuditReport:
    """Audit every identity and inequality on a single configuration.

    Accepts a Quadrilateral or a precomputed QuadMetrics.  Identity errors
    are normalized by abcdef and compared against tol; inequality slacks
    are dimensionless and compared against -ineq_tol.
    """
    m = q if isinstance(q, QuadMetrics) else metrics(q)
    acc = _Accumulator()
    _accumulate_checks(acc, m)
    return _finalize(acc, seed=None, samples=1, tol=tol, ineq_tol=ineq_tol)


def audit_samples(seed: int, samples: int, tol: float = 1e-9,
                  ineq_tol: float = 1e-12, margin: float = 0.01,
                  strategy: str = "frame-uniform") -> AuditReport:
    """Audit over a seeded batch of random convex quadrilaterals.

    frame-uniform batches are evaluated vectorized in chunks; the slower
    point-rejection strategy draws one configuration per derived seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    acc = _Accumulator()
    if strategy == "frame-uniform":
        done = 0
        part = 0
        while done < samples:
            n = min(_AUDIT_CHUNK, samples - done)
            p, w = sample_frames([seed, part], n, margin)
            _accumulate_checks(acc, metrics_from_frames(p, w))
            done += n
            part += 1
    elif strategy == "point-rejection":
        for i in range(samples):
            q = sample([seed, i], strategy="point-rejection")
            _accumulate_checks(acc, metrics(q))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _finalize(acc, seed=seed, samples=samples, tol=tol, ineq_tol=ineq_tol)
