"""Evaluation and auditing of the degree-six inequality.

For the side z_i z_j shared by two triangles of the quadrilateral, the edge
expression multiplies the free side length, the two triangle areas and the
sum of the two triangle-inequality slacks at that side, e.g.

    E12 = f A123 A124 (a + b + e + d - 2c)

The inequality under audit is E12 + E23 + E34 + E41 >= E13 + E24.  EDGES
tabulates the six expressions; edge_form writes them and the residual, and
abcdef the product of the six lengths, once for floats, intervals and
symbols, so the audit, the search and the interval enclosures share one
grouping.  Expanded, the edge expressions give 30 terms: 24 in which a
length enters with coefficient +1 (multiplicity one) and 6 with coefficient
-2 (multiplicity two).  The former split into three groups of eight by
which length pair they avoid ({a,d} -> X group, {c,f} -> Y group, {b,e} ->
W group), and each group collapses to a single product of abcdef with sines
of the derived angles.  The latter collapse to abcdef times a closed
angular expression; lemma_form writes both once.

forms(m) evaluates every quantity the audit compares, each written once
with its formula in the docstring, and computes each sine and cosine that
they share once; it merges the five stages of _stages.  The edge and
expanded residuals and the raw group sums use no trig at all, so each
identity still compares two independent computations.  The audit is three
tables, _IDENTITIES, _SIGN_FORMS and _INEQUALITIES, that name the forms each
check compares.  Every check reads the forms of one stage, so the audit
runs each stage's checks on that stage alone and drops the stage before the
next one is evaluated.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    QuadMetrics,
    check_margin,
    metrics,
    metrics_from_frames,
    sample,
    sample_frames,
)

RESIDUAL_PATHS = ("edge", "expanded", "lemma")

# The audit's tolerances: an identity's gap (over abcdef where it has length^6
# units) must be at most IDENTITY_TOL, an inequality's slack at least -INEQ_TOL.
IDENTITY_TOL = 1e-9
INEQ_TOL = 1e-12

# Boundary slack for the closed angle-sum hypotheses gamma2+gamma3 <= pi and
# gamma3+gamma4 <= pi: rectangles sit exactly on the boundary and must not
# fall out of the filter through angle roundoff.
_HYPOTHESIS_SLACK = 1e-12

# frame-uniform audits draw this many rows per sample_frames call, each draw
# one part of the sample stream ...
_AUDIT_CHUNK = 200_000
# ... and evaluate them in blocks of this many rows.  A block's temporaries
# outgrow a 2 MB L2 cache whatever its size; a larger block makes fewer numpy
# calls (1M-sample audits on a 2-core Xeon, 3 runs in one process: 1.50-1.59,
# 1.10-1.14 and 0.91-0.98 s with 2,048-, 4,096- and 8,192-row blocks) ...
_AUDIT_BLOCK = 8_192
# ... mapped over a pool of this many threads, at most one per usable CPU
_AUDIT_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)


# The six edge expressions as (name, sign, free length, area, area, the
# four slack lengths, the doubled length): the row ("e12", 1, "f", "A123",
# "A124", ("a", "b", "e", "d"), "c") is E12 = f A123 A124 (a + b + e + d - 2c),
# and sign says on which side of the inequality the expression stands.
EDGES = (
    ("e12", 1, "f", "A123", "A124", ("a", "b", "e", "d"), "c"),
    ("e23", 1, "d", "A123", "A234", ("c", "b", "e", "f"), "a"),
    ("e34", 1, "c", "A134", "A234", ("d", "b", "e", "a"), "f"),
    ("e41", 1, "a", "A124", "A134", ("c", "e", "b", "f"), "d"),
    ("e13", -1, "e", "A123", "A134", ("c", "a", "d", "f"), "b"),
    ("e24", -1, "b", "A124", "A234", ("c", "d", "a", "f"), "e"),
)


def edge_form(q, double, nonneg):
    """The six edge expressions by name, in EDGES order, and the residual
    ((E12 + E23) + (E34 + E41)) - (E13 + E24), for q mapping each length and
    area name to its value: E12 = f A123 A124 nonneg(((a + b) + (e + d)) -
    double(c)).  double is exact; nonneg clamps an interval slack, a sum of
    two triangle inequalities, to its proven range [0, inf), and is the
    identity elsewhere.  Certificates depend on this order bit for bit."""
    E = {name: q[free] * q[A1] * q[A2]
         * nonneg(((q[s1] + q[s2]) + (q[s3] + q[s4])) - double(q[twice]))
         for name, _, free, A1, A2, (s1, s2, s3, s4), twice in EDGES}
    return E, ((E["e12"] + E["e23"]) + (E["e34"] + E["e41"])) - (E["e13"] + E["e24"])


def abcdef(q):
    """((a b) (c d)) (e f): the six lengths in q, multiplied in one order."""
    return ((q["a"] * q["b"]) * (q["c"] * q["d"])) * (q["e"] * q["f"])


def _double(v):
    return 2.0 * v


def _same(v):
    return v


def edge_terms(m: QuadMetrics) -> dict:
    """The six edge expressions by name, in EDGES order."""
    return edge_form(vars(m), _double, _same)[0]


# The 30 expanded terms as (coefficient, free length, companion length,
# area, area), five per edge expression: its four slack lengths with
# coefficient sign (multiplicity one), then its doubled length with -2 sign.
_EXPANDED_TERMS = tuple(
    (coef, free, other, A1, A2)
    for _, sign, free, A1, A2, slack, twice in EDGES
    for coef, other in zip((sign,) * 4 + (-2 * sign,), slack + (twice,)))

# Multiplicity-one terms whose explicit length pair avoids {a, d} (X group),
# {c, f} (Y group) or {b, e} (W group).
_MULT1_TERMS = {
    group: tuple(t for t in _EXPANDED_TERMS
                 if abs(t[0]) == 1 and not {t[1], t[2]} & avoided)
    for group, avoided in (("x", {"a", "d"}), ("y", {"c", "f"}), ("w", {"b", "e"}))
}


def _sum_terms(m: QuadMetrics, terms):
    total = 0.0
    for coef, l1, l2, a1, a2 in terms:
        total = total + coef * getattr(m, l1) * getattr(m, l2) \
            * getattr(m, a1) * getattr(m, a2)
    return total


def lemma_form(K, sin_X, sin_Y, sin_W, sin_X2, cos_X2, sin_Y2, cos_Y2, sin_W2, cos_W2,
               sin_Wp2, cos_Wp2, sin_g13, sin_a1b4, sin_b1a2, sqr, double):
    """The factored trig form, one text for floats, intervals and sympy
    symbols, with arguments named as in forms.  It returns the parts

        x     sin X sin(W'/2) sin(Y/2) sin((alpha1 - beta4)/2)
        y     sin Y sin(W/2)  sin(X/2) sin((beta1 - alpha2)/2)
        w     sin W cos(X/2)  cos(Y/2) sin((gamma1 + gamma3)/2)
        even  2 sin^2(X/2) cos^2(W/2) cos^2(Y/2) + 2 cos^2(X/2) cos^2(W'/2) sin^2(Y/2)
        odd   2 sin((alpha1 - beta4)/2) sin((beta1 - alpha2)/2) sin((gamma1 + gamma3)/2)

    and the residual K (((x + y) + w) - (even + odd)), K = abcdef: summed
    first and scaled once, which keeps interval sub-distributivity on our
    side.  sqr and double must be exact.  Certificates depend on the order
    of these products bit for bit.
    """
    x = sin_X * sin_Wp2 * sin_Y2 * sin_a1b4
    y = sin_Y * sin_W2 * sin_X2 * sin_b1a2
    w = sin_W * cos_X2 * cos_Y2 * sin_g13
    even = double(sqr(sin_X2) * sqr(cos_W2) * sqr(cos_Y2)
                  + sqr(cos_X2) * sqr(cos_Wp2) * sqr(sin_Y2))
    odd = double(sin_a1b4 * sin_b1a2 * sin_g13)
    return x, y, w, even, odd, K * (((x + y) + w) - (even + odd))


def _lemma_trig(m: QuadMetrics) -> tuple:
    """The 14 sines and cosines that lemma_form reads after K, in order."""
    s, co = np.sin, np.cos
    sin_X, sin_Y, sin_W = s(m.X), s(m.Y), s(m.W)
    sin_X2, sin_Y2, sin_W2, sin_Wp2 = s(m.X / 2), s(m.Y / 2), s(m.W / 2), s(m.Wp / 2)
    cos_X2, cos_Y2, cos_W2, cos_Wp2 = co(m.X / 2), co(m.Y / 2), co(m.W / 2), co(m.Wp / 2)
    return (sin_X, sin_Y, sin_W, sin_X2, cos_X2, sin_Y2, cos_Y2, sin_W2, cos_W2, sin_Wp2,
            cos_Wp2, s((m.gamma1 + m.gamma3) / 2), s((m.alpha1 - m.beta4) / 2),
            s((m.beta1 - m.alpha2) / 2))


def forms(m: QuadMetrics) -> dict:
    """Every quantity the audit compares, by name.  With K = abcdef:

    The residual (length^6 units) by three independent routes, and scaled:

        edge                 E12 + E23 + E34 + E41 - E13 - E24
        expanded             the 30 expanded terms, summed one by one
        lemma                lemma_form's residual
        normalized-residual  edge / K

    The multiplicity-one groups, each raw (mult1-x-raw, mult1-y-raw,
    mult1-w-raw: its eight terms summed) and factored (mult1-x = K x, and
    so on, from lemma_form).  The multiplicity-two sum, raw (mult2-raw: its
    six area products) and closed, mult2-closed = K (p1-closed + p2-closed)
    with p1-closed = 1/2 - even and p2-closed = -1/2 - odd, and by definition

        p1-definition  (cos(alpha1 + beta4) + cos(alpha3 + beta2)
                        + cos(alpha4 + beta3) + cos(alpha2 + beta1)
                        + cos(gamma1 - gamma3) + cos(gamma2 - gamma4)) / 4
        p2-definition  -(the same six cosines with each sum and difference
                         swapped) / 4

    and as a pure sine expression, with either sign of its last term (+
    reproduces mult2-raw, proved in tests/test_trig_identities.py, and
    agrees with the closed forms; the audit adjudicates the two on samples):

        mult2-plus, mult2-minus
            K/2 (- sin alpha1 sin beta4 - sin alpha3 sin beta2
                 - sin alpha4 sin beta3 - sin alpha2 sin beta1
                 + sin gamma1 sin gamma3 +/- sin gamma2 sin gamma4)

    The two sides of cos u + cos v + cos t = 1 + 4 sin(u/2) sin(v/2) sin(t/2),
    which holds when u + v + t = pi, at u = beta4 - alpha1,
    v = alpha2 - beta1, t = gamma1 + gamma3: cosine-triple-cos and
    cosine-triple-sin.

    The sine comparison bounds, nonnegative on convex input:

        sine-bound-1  sin((W' - Y)/2) - |sin((alpha1 - beta4)/2)|
        sine-bound-2  sin((W - X)/2)  - |sin((beta1 - alpha2)/2)|
        sine-bound-3  sin((gamma1 + gamma3)/2) - sin((X + Y)/2)

    The sign-case chain.  angular-core = ((x + y) + w) - even and final-chain
    are nonnegative under the angle-sum hypotheses; core-split splits it as

        core-split   2 sin((W' - Y)/2) sin((W - X)/2) sin((X + Y)/2) + remainder
        remainder    2 sin X sin(W'/2) sin(Y/2) sin(alpha3/2) cos(beta2/2)
                   + 2 sin Y sin(W/2)  sin(X/2) sin(beta3/2)  cos(alpha4/2)
                   + 2 sin W cos(X/2)  cos(Y/2) cos(gamma1/2) sin(gamma3/2)
        final-chain  2 sin((W' - Y)/2) sin((W - X)/2) sin((X + Y)/2)
                   - 2 sin((beta4 - alpha1)/2) sin((alpha2 - beta1)/2)
                       sin((gamma1 + gamma3)/2)
                   + 2 sin W cos(X/2) cos(Y/2) cos(gamma1/2) sin(gamma3/2)

    The dict merges the five stages of _stages, which evaluate each of the
    47 sines and cosines once.  A trailing 2 halves an angle (sin_X2 =
    sin(X/2)); a letter pair is a halved sum or difference (sin_a1b4 =
    sin((alpha1 - beta4)/2)).
    """
    merged = {}
    for stage in _stages(m, abcdef(vars(m))):
        merged.update(stage)
    return merged


def _stages(m: QuadMetrics, K):
    """The forms of forms(m) in five dicts, in this order:

        1. the residual routes: edge, expanded, lemma, normalized-residual;
        2. the multiplicity-one groups, raw and factored;
        3. the multiplicity-two forms: mult2-raw, -closed, -plus, -minus;
        4. the closed and definition forms and the cosine triple;
        5. the sine bounds and the sign-case chain.

    K is abcdef(vars(m)).  A stage evaluates the sines and cosines that it
    alone reads where it reads them.  The 14 that lemma_form reads are
    evaluated in the first stage, which keeps the 12 that the fourth and
    fifth stages read again; the unscaled lemma parts, and angular-core
    formed from them, are kept for the stages that read them.  A generator
    holds its locals across a yield, so each one is deleted once no later
    stage reads it, and a stage's forms live only as long as its caller
    keeps them.
    """
    s, co = np.sin, np.cos
    edge = residual(m, "edge")
    expanded = residual(m, "expanded")
    (sin_X, sin_Y, sin_W, sin_X2, cos_X2, sin_Y2, cos_Y2, sin_W2, cos_W2,
     sin_Wp2, cos_Wp2, sin_g13, sin_a1b4, sin_b1a2) = trig = _lemma_trig(m)
    x, y, w, even, odd, lemma = lemma_form(K, *trig, np.square, _double)
    del trig, cos_W2, cos_Wp2
    core = ((x + y) + w) - even
    yield {"edge": edge, "expanded": expanded, "lemma": lemma,
           "normalized-residual": edge / K}
    del edge, expanded, lemma

    yield {"mult1-x": K * x, "mult1-y": K * y, "mult1-w": K * w,
           **{f"mult1-{g}-raw": _sum_terms(m, terms) for g, terms in _MULT1_TERMS.items()}}
    del x, y, w

    p1, p2 = 0.5 - even, -0.5 - odd
    del even
    sines = (-s(m.alpha1) * s(m.beta4) - s(m.alpha3) * s(m.beta2)
             - s(m.alpha4) * s(m.beta3) - s(m.alpha2) * s(m.beta1)
             + s(m.gamma1) * s(m.gamma3))
    sg24 = s(m.gamma2) * s(m.gamma4)
    yield {"mult2-raw": (-2.0 * m.a * m.d * (m.A123 * m.A234 + m.A124 * m.A134)
                         - 2.0 * m.c * m.f * (m.A124 * m.A123 + m.A134 * m.A234)
                         + 2.0 * m.b * m.e * (m.A123 * m.A134 + m.A124 * m.A234)),
           "mult2-closed": K * (p1 + p2),
           "mult2-plus": 0.5 * K * (sines + sg24),
           "mult2-minus": 0.5 * K * (sines - sg24)}
    del sines, sg24

    # cos is even and sin odd: cos(alpha1 - beta4) is cos u, and
    # sin((alpha1 - beta4)/2) sin((beta1 - alpha2)/2) is exactly
    # sin(u/2) sin(v/2)
    d1, d4, d5 = co(m.alpha1 - m.beta4), co(m.alpha2 - m.beta1), co(m.gamma1 + m.gamma3)
    yield {"p1-closed": p1,
           "p2-closed": p2,
           "p1-definition": 0.25 * (co(m.alpha1 + m.beta4) + co(m.alpha3 + m.beta2)
                                    + co(m.alpha4 + m.beta3) + co(m.alpha2 + m.beta1)
                                    + co(m.gamma1 - m.gamma3) + co(m.gamma2 - m.gamma4)),
           "p2-definition": 0.25 * (-d1 - co(m.alpha3 - m.beta2) - co(m.alpha4 - m.beta3)
                                    - d4 - d5 - co(m.gamma2 + m.gamma4)),
           "cosine-triple-cos": d1 + d4 + d5,
           "cosine-triple-sin": 1.0 + 4.0 * sin_a1b4 * sin_b1a2 * sin_g13}
    del p1, p2, d1, d4, d5

    sin_WpY = s((m.Wp - m.Y) / 2)
    sin_WX = s((m.W - m.X) / 2)
    sin_XY = s((m.X + m.Y) / 2)
    head = 2.0 * sin_WpY * sin_WX * sin_XY
    tail = 2.0 * sin_W * cos_X2 * cos_Y2 * co(m.gamma1 / 2) * s(m.gamma3 / 2)
    remainder = (2.0 * sin_X * sin_Wp2 * sin_Y2 * s(m.alpha3 / 2) * co(m.beta2 / 2)
                 + 2.0 * sin_Y * sin_W2 * sin_X2 * s(m.beta3 / 2) * co(m.alpha4 / 2) + tail)
    yield {"sine-bound-1": sin_WpY - np.abs(sin_a1b4),
           "sine-bound-2": sin_WX - np.abs(sin_b1a2),
           "sine-bound-3": sin_g13 - sin_XY,
           "angular-core": core,
           "remainder": remainder,
           "core-split": head + remainder,
           "final-chain": head - odd + tail}


def residual(m: QuadMetrics, path: str = "edge"):
    """LHS - RHS of the inequality (length^6 units), through one of three
    algebraically independent routes:

        edge      difference of the six composite edge expressions
        expanded  sum of the 30 individual terms
        lemma     the factored trig form, lemma_form
    """
    if path == "edge":
        return edge_form(vars(m), _double, _same)[1]
    if path == "expanded":
        return _sum_terms(m, _EXPANDED_TERMS)
    if path == "lemma":
        return lemma_form(abcdef(vars(m)), *_lemma_trig(m), np.square, _double)[-1]
    raise ValueError(f"unknown residual path {path!r}")


def normalized_residual(m: QuadMetrics, path: str = "edge"):
    """Dimensionless residual / abcdef, for scale-free reporting."""
    return residual(m, path) / abcdef(vars(m))


def angle_sum_hypotheses(m: QuadMetrics):
    """Mask of gamma2+gamma3 <= pi and gamma3+gamma4 <= pi, exactly Y >= 0 and X >= 0."""
    bound = np.pi + _HYPOTHESIS_SLACK
    return (m.gamma2 + m.gamma3 <= bound) & (m.gamma3 + m.gamma4 <= bound)


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
            "ineq_tol": INEQ_TOL,
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

    def slack(self, key: str, values, within=None) -> None:
        """within, a row mask, keeps only the rows it selects.  The angle-sum
        hypotheses are False on NaN angles, so the non-finite rows that the
        mask drops are counted first, and such a row still fails the check
        (a finite sum, one reduction, proves there are none)."""
        values = np.atleast_1d(values)
        if within is not None:
            if not math.isfinite(np.sum(values)):
                self._finite(key, values[~within])
            values = values[within]
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


# (check id, form, the form it must equal, whether the gap is divided by
# abcdef), in report order
_IDENTITIES = (
    ("residual-edge-vs-expanded", "edge", "expanded", True),
    ("residual-edge-vs-lemma", "edge", "lemma", True),
    ("mult1-x-raw-vs-factored", "mult1-x-raw", "mult1-x", True),
    ("mult1-y-raw-vs-factored", "mult1-y-raw", "mult1-y", True),
    ("mult1-w-raw-vs-factored", "mult1-w-raw", "mult1-w", True),
    ("mult2-raw-vs-closed", "mult2-raw", "mult2-closed", True),
    ("p1-def-vs-closed", "p1-definition", "p1-closed", False),
    ("p2-def-vs-closed", "p2-definition", "p2-closed", False),
    ("cosine-triple-identity", "cosine-triple-cos", "cosine-triple-sin", False),
    ("core-remainder-split", "angular-core", "core-split", False),
)
# the two scalar multiplicity-two forms, each compared with mult2-raw; the
# sign-resolution check, reported between the two tables, picks the closer
_SIGN_FORMS = ("mult2-plus", "mult2-minus")
# (check id, form that must be nonnegative, whether only the rows within the
# angle-sum hypotheses count), in report order
_INEQUALITIES = (
    ("residual-nonneg", "normalized-residual", False),
    ("sine-bound-1", "sine-bound-1", False),
    ("sine-bound-2", "sine-bound-2", False),
    ("sine-bound-3", "sine-bound-3", False),
    ("angular-core-nonneg", "angular-core", True),
    ("final-chain-nonneg", "final-chain", True),
)


def _accumulate_checks(acc: _Accumulator, m: QuadMetrics) -> None:
    """Fold every check of the three tables into acc.  Every check reads the
    forms of one stage of _stages, so each stage runs, in table order, the
    checks whose forms it holds, and is dropped before the next stage is
    evaluated."""
    K = abcdef(vars(m))
    within = np.atleast_1d(angle_sum_hypotheses(m))
    for stage in _stages(m, K):
        for cid, form, other, scaled in _IDENTITIES:
            if form in stage:
                gap = np.abs(stage[form] - stage[other])
                acc.err(cid, gap / K if scaled else gap)
        for form in _SIGN_FORMS:
            if form in stage:
                acc.err(form, np.abs(stage["mult2-raw"] - stage[form]) / K)
        for cid, form, filtered in _INEQUALITIES:
            if form in stage:
                acc.slack(cid, stage[form], within if filtered else None)
        del stage  # or the loop would hold this stage's forms through the next


def _nonfinite(n: int) -> dict:
    return {"nonfinite": n} if n else {}


def _finalize(acc: _Accumulator, seed, samples, tol) -> AuditReport:
    # A check with a non-finite entry fails; its max_err / min_slack cover
    # the finite entries and are None when there are none.
    checks: list[CheckResult] = []
    for cid, *_ in _IDENTITIES:
        err = acc.max_err.get(cid)
        bad = acc.nonfinite.get(cid, 0)
        checks.append(CheckResult(id=cid, kind="identity", tol=tol,
                                  passed=not bad and err <= tol, max_err=err,
                                  extra=_nonfinite(bad)))

    err_plus, err_minus = (acc.max_err.get(form) for form in _SIGN_FORMS)
    bad = sum(acc.nonfinite.get(form, 0) for form in _SIGN_FORMS)
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

    for cid, _, filtered in _INEQUALITIES:
        n = acc.counts.get(cid, 0)
        bad = acc.nonfinite.get(cid, 0)
        if n == 0 and not bad:
            checks.append(CheckResult(id=cid, kind="inequality", tol=INEQ_TOL,
                                      passed=True, skipped=True,
                                      extra={"in_hypothesis": 0}))
            continue
        slack = acc.min_slack.get(cid)
        extra = _nonfinite(bad)
        if filtered:
            extra["in_hypothesis"] = n
        checks.append(CheckResult(id=cid, kind="inequality", tol=INEQ_TOL,
                                  passed=not bad and slack >= -INEQ_TOL,
                                  min_slack=slack, extra=extra))

    return AuditReport(seed=seed, samples=samples, tol=tol, checks=checks,
                       sign_resolution=resolution)


def audit(q, tol: float = IDENTITY_TOL) -> AuditReport:
    """Audit every identity and inequality on a single configuration.

    Accepts a Quadrilateral or a precomputed QuadMetrics.  Identity errors
    are normalized by abcdef and compared against tol; inequality slacks
    are dimensionless and compared against -INEQ_TOL.
    """
    m = q if isinstance(q, QuadMetrics) else metrics(q)
    acc = _Accumulator()
    _accumulate_checks(acc, m)
    return _finalize(acc, seed=None, samples=int(np.size(m.a)), tol=tol)


def audit_samples(seed: int, samples: int, tol: float = IDENTITY_TOL,
                  margin: float = 0.01, strategy: str = "frame-uniform") -> AuditReport:
    """Audit over a seeded batch of random convex quadrilaterals.

    frame-uniform draws _AUDIT_CHUNK rows per sample_frames([seed, part])
    call, so the sample stream depends on seed, samples, margin and
    _AUDIT_CHUNK.  Each chunk is evaluated in slices of _AUDIT_BLOCK rows:
    one metrics_from_frames call per block, whose forms are checked stage by
    stage (_accumulate_checks); the block size trades the number of numpy
    calls against the size of a block's temporaries.  The blocks of a chunk
    are mapped over one pool of _AUDIT_WORKERS threads, which starts a
    thread only when none of its own is idle, since numpy releases the
    interpreter lock for most of a block's time; each block returns its own
    accumulator, merged in block order.  A chunk is released before the next
    one is drawn.  Maxima, minima and counts merge exactly, so the report
    does not depend on the block size or the number of workers.  The slower
    point-rejection strategy draws one configuration per derived seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    margin = check_margin(margin)  # checked even where point-rejection ignores it
    acc = _Accumulator()
    if strategy == "frame-uniform":
        with ThreadPoolExecutor(_AUDIT_WORKERS) as pool:
            for part, done in enumerate(range(0, samples, _AUDIT_CHUNK)):
                n = min(_AUDIT_CHUNK, samples - done)
                p, w = sample_frames([seed, part], n, margin)
                blocks = ((p[lo:lo + _AUDIT_BLOCK], w[lo:lo + _AUDIT_BLOCK])
                          for lo in range(0, n, _AUDIT_BLOCK))
                for block in pool.map(_block_checks, blocks):
                    acc.merge(block)
                del p, w  # before the next chunk is drawn
    else:  # `sample` refuses a strategy outside geometry.STRATEGIES
        for i in range(samples):
            _accumulate_checks(acc, metrics(sample([seed, i], strategy=strategy)))
    return _finalize(acc, seed=seed, samples=samples, tol=tol)


def _block_checks(frames) -> _Accumulator:
    """The checks of one (p, w) block of frames, in an accumulator of its own."""
    acc = _Accumulator()
    _accumulate_checks(acc, metrics_from_frames(*frames))
    return acc
