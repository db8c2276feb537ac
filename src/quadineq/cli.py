"""Command-line front door: evaluation reports, batch audits, certification
runs, certificate verification, and counterexample search.

Every report embeds the toolkit version, the full effective configuration,
and the multiplicity-two sign (from its own audit for eval and audit, as
proved in tests/test_trig_identities.py for the others), and is
byte-identical across runs with the same configuration and seed.  Exit
status: 0 when all checks pass (or the certificate is complete / verifies),
1 on a violation or incomplete result, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .certifier import Certificate, MalformedCertificate, certify, verify_certificate
from .geometry import (
    ANGLE_FIELDS,
    STRATEGIES,
    GeometryError,
    QuadMetrics,
    frame_of,
    metrics,
    quad_from_json,
)
from .interval import IntervalError
from .ioutil import dumps
from .kernel import (IDENTITY_TOL, RESIDUAL_PATHS, abcdef, audit, audit_samples,
                     edge_terms, residual)
from .search import boundary_trend


class UsageError(Exception):
    """Usage error carrying a diagnostic for stderr (exit status 2)."""


def _load_json_argument(text: str, what: str) -> dict:
    """Parse an inline JSON value or, with a leading '@', a JSON file."""
    source = "<{}>".format(what)
    if text.startswith("@"):
        source = text[1:]
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {source}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {source}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal with more digits than Python converts
        raise UsageError(f"malformed JSON in {source}: {exc}")
    except RecursionError:
        raise UsageError(f"malformed JSON in {source}: nested too deeply")


def _sign_probe() -> str:
    # proved by test_trig_identities.py::test_the_mult2_sign_is_plus; perfbench wraps this name
    return "plus"


def _check_writable(path: str) -> None:
    """Refuse an --out path that cannot be written before any work is spent
    on it; a file this check creates is removed again, and an existing one
    is left as it is."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")
    if not existed:
        os.remove(path)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _emit(report: dict, args, csv_rows=None) -> None:
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = dumps(report) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _finite_tol(tol: float) -> float:
    if not (0.0 <= tol < math.inf):
        raise UsageError(f"tol must be finite and nonnegative, not {tol!r}")
    return tol


def _report(args, config_fields, sign_resolution, **body) -> dict:
    """A command's report: the envelope every command shares (version,
    command, the effective configuration named by config_fields, and the
    sign resolution) around the command's own fields."""
    config = {name: getattr(args, name) for name in config_fields}
    return {"version": __version__, "command": args.command, "config": config,
            "sign_resolution": sign_resolution, **body}


# eval's metrics, in report order: the lengths and areas, then the angles
_METRIC_FIELDS = tuple(f.name for f in fields(QuadMetrics)
                       if not f.name.startswith("_")) + ANGLE_FIELDS


def _cmd_eval(args) -> int:
    if (args.points is None) == (args.frame is None):
        raise UsageError("eval needs exactly one of --points or --frame")
    # the flag names the configuration: an object holding that key gives its
    # value, anything else is the bare value
    key = "points" if args.points is not None else "frame"
    doc = _load_json_argument(getattr(args, key), "configuration")
    if isinstance(doc, dict) and key in doc:
        doc = doc[key]
    try:
        quad = quad_from_json(key, doc)
    except GeometryError as exc:
        raise UsageError(f"invalid configuration: {exc}")

    with np.errstate(over="ignore", invalid="ignore"):
        m = metrics(quad)
        terms = edge_terms(m)
        residuals = {path: float(residual(m, path)) for path in RESIDUAL_PATHS}
        scale = float(abcdef(vars(m)))
    # coordinates near 1e100 pass the diameter check, but the degree-six
    # terms overflow a float; near 1e-53 they underflow, and the audit's
    # checks, scaled by abcdef, become 0/0
    for name, value in [*terms.items(), *residuals.items(), ("abcdef", scale)]:
        if not math.isfinite(value) or (name == "abcdef" and value < sys.float_info.min):
            raise UsageError(f"{name} is {float(value)!r} for this configuration: "
                             f"its degree-six terms do not fit a float; scale it "
                             f"toward unit size")
    report_audit = audit(m, tol=_finite_tol(args.tol))
    metric_doc = {name: float(getattr(m, name)) for name in _METRIC_FIELDS}
    report = _report(
        args, ("points", "frame", "tol", "format"), report_audit.sign_resolution,
        input=quad.to_json_dict(),
        frame=frame_of(quad).normalize().to_json_dict()["frame"],
        metrics=metric_doc,
        edge_terms={k: float(v) for k, v in terms.items()},
        residual=residuals,
        audit=report_audit.to_json_dict(),
    )
    rows = [("quantity", "value")]
    rows += list(metric_doc.items())
    rows += [(f"edge_terms.{k}", v) for k, v in report["edge_terms"].items()]
    rows += [(f"residual.{k}", v) for k, v in residuals.items()]
    _emit(report, args, rows)
    return 0 if report_audit.passed() else 1


def _cmd_audit(args) -> int:
    try:
        report_audit = audit_samples(args.seed, args.samples,
                                     tol=_finite_tol(args.tol),
                                     margin=args.margin, strategy=args.strategy)
    except ValueError as exc:  # GeometryError included
        raise UsageError(str(exc))
    report = _report(args, ("samples", "seed", "tol", "margin", "strategy", "format"),
                     report_audit.sign_resolution, audit=report_audit.to_json_dict())
    rows = [("check", "kind", "max_err", "min_slack", "pass")]
    for c in report_audit.checks:
        rows.append((c.id, c.kind, c.max_err, c.min_slack,
                     "true" if c.passed else "false"))
    _emit(report, args, rows)
    return 0 if report_audit.passed() else 1


def _cmd_certify(args) -> int:
    try:
        cert = certify(margin=args.margin, target=args.target,
                       max_boxes=args.max_boxes)
    except ValueError as exc:
        raise UsageError(str(exc))
    except IntervalError as exc:
        raise UsageError(f"margin {args.margin!r} is too fine for the interval "
                         f"enclosures: {exc}")
    doc = cert.to_json_dict()
    if args.out:
        _write(args.out, dumps(doc) + "\n")
    summary = _report(args, ("margin", "target", "max_boxes", "out"), _sign_probe(),
                      complete=cert.complete, c_star=cert.c_star,
                      box_count=cert.box_count, leaves=cert.tree.count("L"))
    if not args.out:
        summary["certificate"] = doc
    sys.stdout.write(dumps(summary) + "\n")
    return 0 if (cert.complete and cert.c_star > 0.0) else 1


def _cmd_check_cert(args) -> int:
    doc = _load_json_argument("@" + args.certificate, "certificate")
    try:
        cert = Certificate.from_json_dict(doc)
        ok = verify_certificate(cert)
    except MalformedCertificate as exc:
        raise UsageError(f"malformed certificate: {exc}")
    report = _report(args, ("certificate",), _sign_probe(), verified=ok,
                     margin=cert.margin, c_star=cert.c_star,
                     complete=cert.complete, leaves=cert.tree.count("L"))
    _emit(report, args)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    try:
        results = boundary_trend(args.seed, args.starts, args.margin, args.budget)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = _report(
        args, ("seed", "starts", "budget", "format"), _sign_probe(),
        margins=list(args.margin),
        runs=[r.to_json_dict() for r in results],
        best_values=[r.best_value for r in results],
        counterexample_candidates=sum(len(r.candidates) for r in results),
        genuine_counterexamples=sum(len(r.genuine_candidates) for r in results),
    )
    rows = [("margin", "start", "start_value", "best_value", "iterations",
             "evaluations")]
    for r in results:
        for i, t in enumerate(r.trajectories):
            rows.append((r.margin, i, t.start_value, t.best_value,
                         t.iterations, t.evaluations))
    _emit(report, args, rows)
    return 0 if report["genuine_counterexamples"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadineq",
        description="Verification toolkit for a degree-six inequality on "
                    "convex quadrilaterals.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one configuration")
    p_eval.add_argument("--points", help='inline JSON or @file: [[x,y] x4] or {"points": ...}')
    p_eval.add_argument("--frame",
                        help='inline JSON or @file: {"p": [...], "w": w} or {"frame": ...}')
    p_eval.add_argument("--tol", type=float, default=IDENTITY_TOL)

    p_audit = sub.add_parser("audit", help="audit identities over seeded samples")
    p_audit.add_argument("--samples", type=int, default=1000)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--tol", type=float, default=IDENTITY_TOL)
    p_audit.add_argument("--margin", type=float, default=0.01)
    p_audit.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])

    p_cert = sub.add_parser("certify", help="branch-and-bound residual certification")
    p_cert.add_argument("--margin", type=float, default=0.1)
    p_cert.add_argument("--target", type=float, default=0.0)
    p_cert.add_argument("--max-boxes", type=int, default=1_000_000)

    p_check = sub.add_parser("check-cert", help="replay and verify a certificate")
    p_check.add_argument("certificate", help="path to a certificate JSON file")

    p_search = sub.add_parser("search", help="multi-start counterexample search")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--starts", type=int, default=64)
    p_search.add_argument("--margin", type=float, nargs="+", default=[0.05])
    p_search.add_argument("--budget", type=int, default=2000)

    p_cert.add_argument("--out", help="write the certificate to this path; the summary "
                                      "goes to stdout without it")
    for p in (p_eval, p_audit, p_check, p_search):
        p.add_argument("--out", help="write the report to this path")
    for p in (p_eval, p_audit, p_search):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "audit": _cmd_audit,
    "certify": _cmd_certify,
    "check-cert": _cmd_check_cert,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.out:
            _check_writable(args.out)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
