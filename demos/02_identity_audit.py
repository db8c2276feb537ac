#!/usr/bin/env python3
"""Audit every identity and inequality over a large seeded sample batch.

Each multiplicity-one group of the expanded inequality must match its
factored closed form, the multiplicity-two terms must match theirs, and the
even/odd angular parts must agree with their defining cosine sums.  The
audit also adjudicates the sign of the sin(gamma2) sin(gamma4) term in the
scalar multiplicity-two expression by direct comparison against the raw
area products: the '+' variant wins by fifteen orders of magnitude.
"""

from quadineq import audit_samples
from quadineq.kernel import INEQ_TOL


def main():
    report = audit_samples(seed=42, samples=200_000, tol=1e-9, margin=0.01)
    print(f"samples={report.samples}  seed={report.seed}  "
          f"identity tol={report.tol:g}  inequality tol={INEQ_TOL:g}")
    print(f"{'check':32s} {'kind':10s} {'max err':>12s} {'min slack':>12s} pass")
    for c in report.checks:
        err = "-" if c.max_err is None else f"{c.max_err:.2e}"
        slack = "-" if c.min_slack is None else f"{c.min_slack:.2e}"
        print(f"{c.id:32s} {c.kind:10s} {err:>12s} {slack:>12s} {c.passed}")
    sign = report.check("mult2-sign-resolution")
    print(f"\nsign resolution: '{report.sign_resolution}' "
          f"(err_plus={sign.extra['err_plus']:.2e}, "
          f"err_minus={sign.extra['err_minus']:.2e}, "
          f"conclusive={sign.extra['conclusive']})")
    print(f"all checks pass: {report.passed()}")


if __name__ == "__main__":
    main()
