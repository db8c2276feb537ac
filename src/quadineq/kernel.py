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

Every closed form is written once, over a table (_Trig) that holds each
sine and cosine it needs; a public function builds the table for its own
input, and the audit builds one per block and shares it among all checks.
The edge and expanded residuals and the raw group sums use no trig at all,
so each identity still compares two independent computations.  A
frame-uniform audit draws _AUDIT_CHUNK rows per sample_frames call and
evaluates them in blocks of _AUDIT_BLOCK rows, small enough that a block's
temporaries stay in cache.  It deals each chunk's blocks to _AUDIT_WORKERS
workers (the calling thread and pool threads), since most of a block's time
is spent in numpy calls that release the interpreter lock; each worker keeps
its own running maxima, minima and counts, and these merge exactly, so the
report is the same for any block size and any number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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

# frame-uniform audits draw this many rows per sample_frames call ...
_AUDIT_CHUNK = 200_000
# ... and evaluate them in blocks of this many rows ...
_AUDIT_BLOCK = 8_192
# ... dealt round-robin to this many workers: the calling thread and one pool
# thread per further worker, at most one worker per usable CPU
_AUDIT_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)


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


class _Trig:
    """Every sine and cosine that the closed forms use, each evaluated once
    per QuadMetrics and shared by every closed form that needs it.

    A trailing 2 halves the angle (sin_X2 = sin(X/2), cos_b2_2 =
    cos(beta2/2)); the letter-pair names are halved sums and differences:

        sin_a1b4 = sin((alpha1 - beta4)/2)     sin_WpY = sin((W' - Y)/2)
        sin_b1a2 = sin((beta1 - alpha2)/2)     sin_WX  = sin((W - X)/2)
        sin_g13  = sin((gamma1 + gamma3)/2)    sin_XY  = sin((X + Y)/2)

    sin_alpha, sin_beta and sin_gamma list the sines of the twelve split and
    interior angles (index 0 is angle 1).  cos_plus and cos_minus are the
    twelve cosines of the definition form of the angular parts, in the order
    of angular_parts' sums; they are evaluated from their own arguments, not
    derived from the closed forms' half-angle factors.
    """

    def __init__(self, m: QuadMetrics):
        s = np.sin
        co = np.cos
        self.sin_X, self.sin_Y, self.sin_W = s(m.X), s(m.Y), s(m.W)
        self.sin_X2, self.sin_Y2 = s(m.X / 2), s(m.Y / 2)
        self.sin_W2, self.sin_Wp2 = s(m.W / 2), s(m.Wp / 2)
        self.cos_X2, self.cos_Y2 = co(m.X / 2), co(m.Y / 2)
        self.cos_W2, self.cos_Wp2 = co(m.W / 2), co(m.Wp / 2)
        self.sin_a1b4 = s((m.alpha1 - m.beta4) / 2)
        self.sin_b1a2 = s((m.beta1 - m.alpha2) / 2)
        self.sin_g13 = s((m.gamma1 + m.gamma3) / 2)
        self.sin_WpY = s((m.Wp - m.Y) / 2)
        self.sin_WX = s((m.W - m.X) / 2)
        self.sin_XY = s((m.X + m.Y) / 2)
        self.sin_a3_2, self.cos_b2_2 = s(m.alpha3 / 2), co(m.beta2 / 2)
        self.sin_b3_2, self.cos_a4_2 = s(m.beta3 / 2), co(m.alpha4 / 2)
        self.cos_g1_2, self.sin_g3_2 = co(m.gamma1 / 2), s(m.gamma3 / 2)
        self.sin_alpha = [s(v) for v in (m.alpha1, m.alpha2, m.alpha3, m.alpha4)]
        self.sin_beta = [s(v) for v in (m.beta1, m.beta2, m.beta3, m.beta4)]
        self.sin_gamma = [s(v) for v in (m.gamma1, m.gamma2, m.gamma3, m.gamma4)]
        pairs = ((m.alpha1, m.beta4), (m.alpha3, m.beta2),
                 (m.alpha4, m.beta3), (m.alpha2, m.beta1))
        self.cos_plus = [co(u + v) for u, v in pairs] \
            + [co(m.gamma1 - m.gamma3), co(m.gamma2 - m.gamma4)]
        self.cos_minus = [co(u - v) for u, v in pairs] \
            + [co(m.gamma1 + m.gamma3), co(m.gamma2 + m.gamma4)]


def _factored_groups(K, t: _Trig):
    """The X, Y and W multiplicity-one groups in factored form."""
    return (K * t.sin_X * t.sin_Wp2 * t.sin_Y2 * t.sin_a1b4,
            K * t.sin_Y * t.sin_W2 * t.sin_X2 * t.sin_b1a2,
            K * t.sin_W * t.cos_X2 * t.cos_Y2 * t.sin_g13)


def _closed_parts(t: _Trig) -> AngularParts:
    p1 = 0.5 - 2.0 * t.sin_X2 ** 2 * t.cos_W2 ** 2 * t.cos_Y2 ** 2 \
        - 2.0 * t.cos_X2 ** 2 * t.cos_Wp2 ** 2 * t.sin_Y2 ** 2
    p2 = -0.5 - 2.0 * t.sin_a1b4 * t.sin_b1a2 * t.sin_g13
    return AngularParts(p1_value=p1, p2_value=p2)


def _definition_parts(t: _Trig) -> AngularParts:
    c, d = t.cos_plus, t.cos_minus
    p1 = 0.25 * (c[0] + c[1] + c[2] + c[3] + c[4] + c[5])
    p2 = 0.25 * (-d[0] - d[1] - d[2] - d[3] - d[4] - d[5])
    return AngularParts(p1_value=p1, p2_value=p2)


def _mult2_closed(K, parts: AngularParts):
    return K * (parts.p1_value + parts.p2_value)


def _lemma(groups, mult2_closed):
    x, y, w = groups
    return x + y + w + mult2_closed


def _scalar_rest(t: _Trig):
    """multiplicity_two_scalar's bracket without its gamma24_sign term."""
    sa, sb, sg = t.sin_alpha, t.sin_beta, t.sin_gamma
    return (-sa[0] * sb[3] - sa[2] * sb[1] - sa[3] * sb[2] - sa[1] * sb[0]
            + sg[0] * sg[2])


def _scalar(K, t: _Trig, rest, gamma24_sign: float):
    return 0.5 * K * (rest + gamma24_sign * t.sin_gamma[1] * t.sin_gamma[3])


def _triple_gap(cos_u, cos_v, cos_t, sin_u2, sin_v2, sin_t2):
    lhs = cos_u + cos_v + cos_t
    rhs = 1.0 + 4.0 * sin_u2 * sin_v2 * sin_t2
    return np.abs(lhs - rhs)


def _sine_bound(t: _Trig, index: int):
    if index == 1:
        return t.sin_WpY - np.abs(t.sin_a1b4)
    if index == 2:
        return t.sin_WX - np.abs(t.sin_b1a2)
    return t.sin_g13 - t.sin_XY


def _angular_core(t: _Trig, closed: AngularParts):
    return (t.sin_X * t.sin_Wp2 * t.sin_Y2 * t.sin_a1b4
            + t.sin_Y * t.sin_W2 * t.sin_X2 * t.sin_b1a2
            + t.sin_W * t.cos_X2 * t.cos_Y2 * t.sin_g13
            + (closed.p1_value - 0.5))


def _remainder(t: _Trig):
    return (2.0 * t.sin_X * t.sin_Wp2 * t.sin_Y2 * t.sin_a3_2 * t.cos_b2_2
            + 2.0 * t.sin_Y * t.sin_W2 * t.sin_X2 * t.sin_b3_2 * t.cos_a4_2
            + 2.0 * t.sin_W * t.cos_X2 * t.cos_Y2 * t.cos_g1_2 * t.sin_g3_2)


def _final_chain(t: _Trig):
    # sin((beta4-alpha1)/2) sin((alpha2-beta1)/2) is the product of the two
    # negated table sines, which is bit for bit the product of the sines
    return (2.0 * t.sin_WpY * t.sin_WX * t.sin_XY
            - 2.0 * t.sin_a1b4 * t.sin_b1a2 * t.sin_g13
            + 2.0 * t.sin_W * t.cos_X2 * t.cos_Y2 * t.cos_g1_2 * t.sin_g3_2)


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
    return _factored_groups(_abcdef(m), _Trig(m))[MULT1_GROUPS.index(group)]


def multiplicity_two_sum(m: QuadMetrics, form: str = "raw"):
    """Sum of the six multiplicity-two terms, raw or via the closed form
    abcdef * (p1_value - 1/2 + p2_value + 1/2)."""
    if form == "raw":
        return (-2.0 * m.a * m.d * (m.A123 * m.A234 + m.A124 * m.A134)
                - 2.0 * m.c * m.f * (m.A124 * m.A123 + m.A134 * m.A234)
                + 2.0 * m.b * m.e * (m.A123 * m.A134 + m.A124 * m.A234))
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    return _mult2_closed(_abcdef(m), _closed_parts(_Trig(m)))


def multiplicity_two_scalar(m: QuadMetrics, gamma24_sign: float = 1.0):
    """Multiplicity-two sum as abcdef/2 times a pure sine expression.

    gamma24_sign picks the sign of the sin(gamma2) sin(gamma4) term; the
    audit adjudicates which sign reproduces the raw area-product sum
    (+1 is the variant consistent with the closed forms).
    """
    t = _Trig(m)
    return _scalar(_abcdef(m), t, _scalar_rest(t), gamma24_sign)


def angular_parts(m: QuadMetrics, form: str = "closed") -> AngularParts:
    """Even/odd halves of the multiplicity-two angular expression.

    form="definition" evaluates the six-cosine sums produced by
    linearizing the sine products; form="closed" evaluates

        p1 = 1/2 - 2 sin^2(X/2) cos^2(W/2) cos^2(Y/2)
                 - 2 cos^2(X/2) cos^2(W'/2) sin^2(Y/2)
        p2 = -1/2 - 2 sin((alpha1-beta4)/2) sin((beta1-alpha2)/2)
                      sin((gamma1+gamma3)/2)
    """
    if form == "definition":
        return _definition_parts(_Trig(m))
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    return _closed_parts(_Trig(m))


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
        K = _abcdef(m)
        t = _Trig(m)
        return _lemma(_factored_groups(K, t), _mult2_closed(K, _closed_parts(t)))
    raise ValueError(f"unknown residual path {path!r}")


def normalized_residual(m: QuadMetrics, path: str = "edge"):
    """Dimensionless residual / abcdef, for scale-free reporting."""
    return residual(m, path) / _abcdef(m)


def cosine_triple_identity_gap(u, v, t):
    """|cos u + cos v + cos t - 1 - 4 sin(u/2) sin(v/2) sin(t/2)| for angle
    triples with u + v + t = pi."""
    return _triple_gap(np.cos(u), np.cos(v), np.cos(t),
                       np.sin(u / 2), np.sin(v / 2), np.sin(t / 2))


def sine_bound_slack(m: QuadMetrics, index: int):
    """Slack of the three sine comparison bounds (nonnegative on convex
    input):

        1: sin((W' - Y)/2) - |sin((alpha1 - beta4)/2)|
        2: sin((W  - X)/2) - |sin((beta1 - alpha2)/2)|
        3: sin((gamma1 + gamma3)/2) - sin((X + Y)/2)
    """
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2 or 3")
    return _sine_bound(_Trig(m), index)


def angle_sum_hypotheses(m: QuadMetrics):
    """Mask of samples with gamma2+gamma3 <= pi and gamma3+gamma4 <= pi."""
    bound = np.pi + _HYPOTHESIS_SLACK
    return (m.gamma2 + m.gamma3 <= bound) & (m.gamma3 + m.gamma4 <= bound)


def angular_core(m: QuadMetrics):
    """Dimensionless sum of the three factored multiplicity-one groups and
    the even multiplicity-two deficit (p1_value - 1/2); nonnegative whenever
    the angle-sum hypotheses hold."""
    t = _Trig(m)
    return _angular_core(t, _closed_parts(t))


def remainder_terms(m: QuadMetrics):
    """The three leftover products after bounding the angular core:

        2 sin X sin(W'/2) sin(Y/2) sin(alpha3/2) cos(beta2/2)
      + 2 sin Y sin(W/2)  sin(X/2) sin(beta3/2)  cos(alpha4/2)
      + 2 sin W cos(X/2)  cos(Y/2) cos(gamma1/2) sin(gamma3/2)
    """
    return _remainder(_Trig(m))


def final_chain_slack(m: QuadMetrics):
    """Closing combination of the sign-case argument; nonnegative on samples
    satisfying the angle-sum hypotheses:

        2 sin((W'-Y)/2) sin((W-X)/2) sin((X+Y)/2)
      - 2 sin((beta4-alpha1)/2) sin((alpha2-beta1)/2) sin((gamma1+gamma3)/2)
      + 2 sin W cos(X/2) cos(Y/2) cos(gamma1/2) sin(gamma3/2)
    """
    return _final_chain(_Trig(m))


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
    """Running max-error / min-slack merge across sample blocks.

    NaN propagates through np.max and np.min, so a clean block costs one
    reduction per check.  A block whose reduction is not finite has its
    non-finite entries counted per check and left out of the reduction, so
    one bad row neither hides the finite rows of its block nor goes unseen.
    """

    def __init__(self):
        self.max_err: dict[str, float] = {}
        self.min_slack: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.nonfinite: dict[str, int] = {}

    def _finite(self, key: str, values):
        ok = np.isfinite(values)
        self.nonfinite[key] = self.nonfinite.get(key, 0) + int(ok.size - np.count_nonzero(ok))
        return values[ok]

    def err(self, key: str, values) -> None:
        values = np.asarray(values)
        if not values.size:
            return
        # errors are absolute values: NaN and +inf both reach the maximum
        v = float(np.max(values))
        if not math.isfinite(v):
            values = self._finite(key, values)
            if not values.size:
                return
            v = float(np.max(values))
        self.max_err[key] = max(self.max_err.get(key, float("-inf")), v)

    def slack(self, key: str, values) -> None:
        values = np.asarray(values)
        self.counts[key] = self.counts.get(key, 0) + values.size
        if not values.size:
            return
        # NaN and -inf reach the minimum, +inf only the maximum
        v = float(np.min(values))
        if not (math.isfinite(v) and math.isfinite(np.max(values))):
            values = self._finite(key, values)
            if not values.size:
                return
            v = float(np.min(values))
        self.min_slack[key] = min(self.min_slack.get(key, float("inf")), v)

    def merge(self, other: _Accumulator) -> None:
        """Fold in the blocks that another accumulator has seen.  Maxima,
        minima and sums are exact, so the result does not depend on how the
        blocks were split between the two."""
        for key, v in other.max_err.items():
            self.max_err[key] = max(self.max_err.get(key, float("-inf")), v)
        for key, v in other.min_slack.items():
            self.min_slack[key] = min(self.min_slack.get(key, float("inf")), v)
        for mine, theirs in ((self.counts, other.counts),
                             (self.nonfinite, other.nonfinite)):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n


def _accumulate_checks(acc: _Accumulator, m: QuadMetrics) -> None:
    # One trig table serves every closed form of this block; the edge and
    # expanded residuals and the raw group sums share nothing with it.  It
    # comes first: its first angle read computes the block's split angles,
    # and no other block-sized array is alive yet.
    t = _Trig(m)
    K = _abcdef(m)
    closed = _closed_parts(t)
    groups = _factored_groups(K, t)
    m2_closed = _mult2_closed(K, closed)
    r_edge = residual(m, "edge")
    r_expanded = residual(m, "expanded")
    r_lemma = _lemma(groups, m2_closed)
    acc.err("residual-edge-vs-expanded", np.abs(r_edge - r_expanded) / K)
    acc.err("residual-edge-vs-lemma", np.abs(r_edge - r_lemma) / K)

    for group, fact in zip(MULT1_GROUPS, groups):
        raw = multiplicity_one_sum(m, group, "raw")
        acc.err(f"mult1-{group.lower()}-raw-vs-factored", np.abs(raw - fact) / K)

    m2_raw = multiplicity_two_sum(m, "raw")
    acc.err("mult2-raw-vs-closed", np.abs(m2_raw - m2_closed) / K)
    rest = _scalar_rest(t)
    acc.err("mult2-sign-plus", np.abs(m2_raw - _scalar(K, t, rest, 1.0)) / K)
    acc.err("mult2-sign-minus", np.abs(m2_raw - _scalar(K, t, rest, -1.0)) / K)

    defn = _definition_parts(t)
    acc.err("p1-def-vs-closed", np.abs(defn.p1_value - closed.p1_value))
    acc.err("p2-def-vs-closed", np.abs(defn.p2_value - closed.p2_value))

    # u = beta4 - alpha1, v = alpha2 - beta1, t = gamma1 + gamma3: cos is
    # even and sin odd, so the table's cosines and negated sines are exact
    acc.err("cosine-triple-identity",
            _triple_gap(t.cos_minus[0], t.cos_minus[3], t.cos_minus[4],
                        -t.sin_a1b4, -t.sin_b1a2, t.sin_g13))

    core = _angular_core(t, closed)
    split = 2.0 * t.sin_WpY * t.sin_WX * t.sin_XY + _remainder(t)
    acc.err("core-remainder-split", np.abs(core - split))

    acc.slack("residual-nonneg", r_edge / K)
    for i in (1, 2, 3):
        acc.slack(f"sine-bound-{i}", _sine_bound(t, i))

    # the hypotheses are False on NaN angles: count the non-finite rows they
    # would drop before filtering, so that such a row still fails the check
    # (a finite sum, one reduction, proves there are none)
    hyp = np.atleast_1d(angle_sum_hypotheses(m))
    for key, values in (("angular-core-nonneg", core),
                        ("final-chain-nonneg", _final_chain(t))):
        values = np.atleast_1d(values)
        if not math.isfinite(np.sum(values)):
            acc._finite(key, values[~hyp])
        acc.slack(key, values[hyp])


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


def _nonfinite(n: int) -> dict:
    return {"nonfinite": n} if n else {}


def _finalize(acc: _Accumulator, seed, samples, tol, ineq_tol) -> AuditReport:
    # A check with a non-finite entry fails; its max_err / min_slack cover
    # the finite entries and are None when there are none.
    checks: list[CheckResult] = []
    for cid in _IDENTITY_IDS:
        err = acc.max_err.get(cid)
        bad = acc.nonfinite.get(cid, 0)
        checks.append(CheckResult(id=cid, kind="identity", tol=tol,
                                  passed=not bad and err <= tol, max_err=err,
                                  extra=_nonfinite(bad)))

    err_plus = acc.max_err.get("mult2-sign-plus")
    err_minus = acc.max_err.get("mult2-sign-minus")
    bad = acc.nonfinite.get("mult2-sign-plus", 0) + acc.nonfinite.get("mult2-sign-minus", 0)
    plus = math.inf if err_plus is None else err_plus
    minus = math.inf if err_minus is None else err_minus
    resolution = "plus" if plus <= minus else "minus"
    winner = min(plus, minus)
    loser = max(plus, minus)
    checks.append(CheckResult(
        id="mult2-sign-resolution", kind="resolution", tol=tol,
        passed=not bad and winner <= tol,
        max_err=winner if math.isfinite(winner) else None,
        extra={"resolution": resolution, "err_plus": err_plus,
               "err_minus": err_minus,
               "conclusive": bool(not bad and loser >= 1e6 * tol),
               **_nonfinite(bad)}))

    for cid in _INEQUALITY_IDS:
        n = acc.counts.get(cid, 0)
        bad = acc.nonfinite.get(cid, 0)
        if n == 0 and not bad:
            checks.append(CheckResult(id=cid, kind="inequality", tol=ineq_tol,
                                      passed=True, skipped=True,
                                      extra={"in_hypothesis": 0}))
            continue
        slack = acc.min_slack.get(cid)
        extra = _nonfinite(bad)
        if cid in ("angular-core-nonneg", "final-chain-nonneg"):
            extra["in_hypothesis"] = n
        checks.append(CheckResult(id=cid, kind="inequality", tol=ineq_tol,
                                  passed=not bad and slack >= -ineq_tol,
                                  min_slack=slack, extra=extra))

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
    return _finalize(acc, seed=None, samples=int(np.size(m.a)), tol=tol,
                     ineq_tol=ineq_tol)


def audit_samples(seed: int, samples: int, tol: float = 1e-9,
                  ineq_tol: float = 1e-12, margin: float = 0.01,
                  strategy: str = "frame-uniform") -> AuditReport:
    """Audit over a seeded batch of random convex quadrilaterals.

    frame-uniform draws _AUDIT_CHUNK rows per sample_frames([seed, part])
    call, so the sample stream depends only on seed, samples and margin.
    Each chunk is evaluated in slices of _AUDIT_BLOCK rows: one
    metrics_from_frames call and one shared trig table per block, sized so
    that the block's temporaries stay in cache.  The blocks of a chunk are
    dealt round-robin to up to _AUDIT_WORKERS workers, each with its own
    accumulator; an audit of one block starts no thread.  A chunk is
    released before the next one is drawn.  Maxima, minima and counts merge
    exactly in any order, so the report does not depend on the block size
    or the number of workers.  The slower point-rejection strategy draws
    one configuration per derived seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if strategy == "frame-uniform":
        blocks = -(-min(samples, _AUDIT_CHUNK) // _AUDIT_BLOCK)
        accs = [_Accumulator() for _ in range(min(_AUDIT_WORKERS, blocks))]
        if len(accs) == 1:
            _audit_chunks(accs, None, seed, samples, margin)
        else:
            with ThreadPoolExecutor(len(accs) - 1) as pool:
                _audit_chunks(accs, pool, seed, samples, margin)
        acc = accs[0]
        for other in accs[1:]:
            acc.merge(other)
    elif strategy == "point-rejection":
        acc = _Accumulator()
        for i in range(samples):
            q = sample([seed, i], strategy="point-rejection")
            _accumulate_checks(acc, metrics(q))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _finalize(acc, seed=seed, samples=samples, tol=tol, ineq_tol=ineq_tol)


def _audit_chunks(accs, pool, seed, samples: int, margin: float) -> None:
    # worker k checks blocks k, k + len(accs), ... of every chunk into
    # accs[k]; worker 0 is the calling thread, the others run on the pool
    step = len(accs)
    done = 0
    part = 0
    while done < samples:
        n = min(_AUDIT_CHUNK, samples - done)
        p, w = sample_frames([seed, part], n, margin)
        starts = range(0, n, _AUDIT_BLOCK)
        futures = [pool.submit(_audit_blocks, accs[k], p, w, starts[k::step])
                   for k in range(1, step)]
        _audit_blocks(accs[0], p, w, starts[::step])
        for future in futures:
            future.result()
        del p, w  # before the next chunk is drawn
        done += n
        part += 1


def _audit_blocks(acc: _Accumulator, p, w, starts) -> None:
    for lo in starts:
        hi = lo + _AUDIT_BLOCK
        _accumulate_checks(acc, metrics_from_frames(p[lo:hi], w[lo:hi]))
