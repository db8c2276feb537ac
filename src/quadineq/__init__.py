"""Verification toolkit for a degree-six inequality on convex quadrilaterals.

For a convex quadrilateral with sides c, a, f, d (in cyclic order), diagonals
b and e, and triangle areas A123, A124, A134, A234, each of the six segments
gets a degree-six edge expression such as

    E12 = f * A123 * A124 * (a + b + e + d - 2c)

and the library evaluates, audits, certifies, and attacks the inequality

    E12 + E23 + E34 + E41 >= E13 + E24.

Submodules: geometry (construction, metrics, sampling), kernel (the EDGES
table of the six edge expressions, the three residual paths, forms(m) with
every audited closed form by name, and the identity/inequality audits),
interval (outward-rounded enclosure arithmetic), certifier (branch-and-bound
lower-bound certificates), search (multi-start counterexample search), cli
(command-line front door).
"""

__version__ = "0.7.0"

from .geometry import (  # noqa: E402
    DiagonalFrame,
    DuplicatePoints,
    GeometryError,
    InvalidFrame,
    NonConvex,
    QuadMetrics,
    Quadrilateral,
    RejectionBudgetExceeded,
    frame_of,
    metrics,
    metrics_from_frames,
    quad_from_frame,
    quad_from_points,
    sample,
    sample_frames,
)
from .kernel import (  # noqa: E402
    AuditReport,
    CheckResult,
    angle_sum_hypotheses,
    audit,
    audit_samples,
    edge_terms,
    forms,
    normalized_residual,
    residual,
)
from .interval import (  # noqa: E402
    DivisionByZeroInterval,
    FrameBox,
    IndeterminateRegion,
    Interval,
    IntervalError,
    NegativeSqrtDomain,
    iatan2,
    icos,
    isin,
    isqr,
    isqrt,
    residual_enclosure,
)
from .certifier import (  # noqa: E402
    Certificate,
    Leaf,
    MalformedCertificate,
    certify,
    verify_certificate,
)
from .search import (  # noqa: E402
    SearchResult,
    Trajectory,
    boundary_trend,
    minimize_residual,
)
