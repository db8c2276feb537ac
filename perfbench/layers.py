"""Per-layer metrics: span analysis of one traced op, direct timings of the
interval layer on a certificate's leaves, and tracemalloc peaks.

Every name in `PER_LAYER` is reported by every workload; a layer the
workload does not call reports 0.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from spans import inside, self_times

PER_LAYER = {
    "interval.both_us_per_box": "us",
    "interval.both_us_per_box_allleaves": "us",
    "interval.edge_us_per_box": "us",
    "interval.lemma_us_per_box": "us",
    "interval.mean_value_us_per_box": "us",
    "interval.quantities_us_per_box": "us",
    "interval.isin_ns": "ns",
    "interval.iatan2_ns": "ns",
    "interval.isqrt_ns": "ns",
    "interval.mul_ns": "ns",
    "interval.leaves_ok_edge": "count",
    "interval.leaves_ok_lemma": "count",
    "interval.leaves_ok_mean_value": "count",
    "interval.leaves_pos_edge": "count",
    "interval.leaves_pos_lemma": "count",
    "interval.leaves_pos_mean_value": "count",
    "certifier.boxes": "count",
    "certifier.leaves": "count",
    "certifier.enclosure_s": "s",
    "certifier.enclosure_calls": "count",
    "certifier.boxes_per_call": "boxes/call",
    "certifier.self_s": "s",
    "certifier.self_share": "share",
    "certifier.to_json_s": "s",
    "certifier.parse_s": "s",
    "certifier.verify_enclosure_s": "s",
    "certifier.verify_self_s": "s",
    "certifier.verify_peak_mb": "MB",
    "ioutil.dumps_s": "s",
    "ioutil.dumps_peak_mb": "MB",
    "ioutil.bytes": "bytes",
    "cli.self_s": "s",
    "cli.probe_s": "s",
    "geometry.sample_s": "s",
    "geometry.metrics_s": "s",
    "kernel.checks_s": "s",
    "search.evals": "count",
    "search.objective_calls": "count",
    "search.rows_per_call": "rows/call",
    "search.objective_s": "s",
    "search.self_s": "s",
    "search.reaudits": "count",
    "trace.overhead_share": "share",
}

SMALL_BATCH = 8192
ELEMENTS = 1_000_000
_REPEATS = 5


def install_wrappers(tracer, captured: dict) -> None:
    """Wrap each layer's entry points as the CLI reaches them.

    `captured` receives the largest document passed to `dumps` and the
    certificate passed to `verify_certificate`, for the peak measurements
    made after the traced op.
    """
    from quadineq import certifier, cli, kernel, search

    def boxes(args, kwargs, result):
        return {"boxes": int(np.size(args[0].p1.lo))}

    def rows(args, kwargs, result):
        return {"rows": int(np.shape(args[0])[0])}

    def dumped(args, kwargs, result):
        if len(result) > captured.get("doc_bytes", -1):
            captured["doc"], captured["doc_bytes"] = args[0], len(result)
        return {"bytes": len(result)}

    def verified(args, kwargs, result):
        captured["cert"] = args[0]
        return {}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "_sign_probe", "cli.probe")
    tracer.wrap(cli, "dumps", "ioutil.dumps", dumped)
    tracer.wrap(cli, "certify", "certifier.certify")
    tracer.wrap(cli, "verify_certificate", "certifier.verify", verified)
    tracer.wrap(certifier.Certificate, "from_json_dict", "certifier.from_json")
    tracer.wrap(certifier.Certificate, "to_json_dict", "certifier.to_json")
    tracer.wrap(certifier, "residual_enclosure", "interval.residual_enclosure", boxes)
    tracer.wrap(cli, "audit_samples", "kernel.audit_samples")
    tracer.wrap(kernel, "sample_frames", "geometry.sample_frames")
    tracer.wrap(kernel, "metrics_from_frames", "geometry.metrics_from_frames", rows)
    tracer.wrap(cli, "boundary_trend", "search.boundary_trend")
    tracer.wrap(search, "metrics_from_frames", "geometry.metrics_from_frames", rows)
    tracer.wrap(search, "normalized_residual", "kernel.normalized_residual")
    tracer.wrap(search, "audit", "kernel.audit")


def span_metrics(spans, report: dict) -> dict:
    """Per-layer metrics from the spans of one traced op and the report of
    its last command."""
    selfs = self_times(spans)
    probe = inside(spans, "cli.probe")

    def select(name, within=None):
        return [s for s in spans if s.name == name and s.id not in probe
                and (within is None or s.id in within)]

    def total(name, within=None):
        return sum(s.duration for s in select(name, within))

    def self_total(name):
        return sum(selfs[s.id] for s in select(name))

    certify = inside(spans, "certifier.certify")
    verify = inside(spans, "certifier.verify")
    trend = inside(spans, "search.boundary_trend")
    audits = inside(spans, "kernel.audit_samples")
    enclosures = select("interval.residual_enclosure", certify)
    calls = len(enclosures)
    boxes = sum(s.info["boxes"] for s in enclosures)
    certify_s = total("certifier.certify")
    objective = select("kernel.normalized_residual", trend)
    objective_rows = sum(s.info["rows"] for s in select("geometry.metrics_from_frames", trend))
    trajectories = [t for run in report.get("runs", []) for t in run["trajectories"]]
    return {
        "certifier.boxes": report.get("box_count", 0),
        "certifier.leaves": report.get("leaves", 0),
        "certifier.enclosure_s": total("interval.residual_enclosure", certify),
        "certifier.enclosure_calls": calls,
        "certifier.boxes_per_call": boxes / calls if calls else 0.0,
        "certifier.self_s": self_total("certifier.certify"),
        "certifier.self_share": (self_total("certifier.certify") / certify_s
                                 if certify_s else 0.0),
        "certifier.to_json_s": total("certifier.to_json"),
        "certifier.parse_s": total("certifier.from_json"),
        "certifier.verify_enclosure_s": total("interval.residual_enclosure", verify),
        "certifier.verify_self_s": self_total("certifier.verify"),
        "ioutil.dumps_s": total("ioutil.dumps"),
        "ioutil.bytes": sum(s.info["bytes"] for s in select("ioutil.dumps")),
        "cli.self_s": self_total("cli.main"),
        "cli.probe_s": sum(s.duration for s in spans if s.name == "cli.probe"),
        "geometry.sample_s": total("geometry.sample_frames", audits),
        "geometry.metrics_s": total("geometry.metrics_from_frames", audits),
        "kernel.checks_s": self_total("kernel.audit_samples"),
        "search.evals": sum(t["evaluations"] for t in trajectories),
        "search.objective_calls": len(objective),
        "search.rows_per_call": objective_rows / len(objective) if objective else 0.0,
        "search.objective_s": (total("geometry.metrics_from_frames", trend)
                               + total("kernel.normalized_residual", trend)),
        "search.self_s": self_total("search.boundary_trend"),
        "search.reaudits": len(select("kernel.audit", trend)),
    }


def traced_peak_mb(fn, *args) -> float:
    """Peak MB that `fn(*args)` allocates, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _median_seconds(fn, *args, repeats: int = _REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def interval_metrics(cert, seed: int) -> dict:
    """Time the interval layer directly on a certificate's leaves, and count
    the leaves each single enclosure path decides on its own."""
    from quadineq.certifier import _gauge_clip
    from quadineq.interval import (FrameBox, Interval, edge_mean_value_enclosure,
                                   frame_quantities, iatan2, isin, isqrt,
                                   residual_enclosure)

    margin = cert.margin
    boxes = np.array([leaf.box for leaf in cert.leaves], dtype=float)
    recorded = np.array([leaf.lower_bound for leaf in cert.leaves])

    def frame_box(rows) -> FrameBox:
        (p1, p2, p3, p4), w, _ = _gauge_clip(boxes[rows], margin)
        return FrameBox(p1, p2, p3, p4, w, margin)

    paths = {
        "both": lambda box: residual_enclosure(box, "both"),
        "edge": lambda box: residual_enclosure(box, "edge"),
        "lemma": lambda box: residual_enclosure(box, "lemma"),
        "mean_value": edge_mean_value_enclosure,
        "quantities": frame_quantities,
    }
    rng = np.random.default_rng(seed)
    n = len(boxes)
    per_box = min(SMALL_BATCH, n)
    small = frame_box(np.sort(rng.choice(n, size=per_box, replace=False)))
    out = {f"interval.{name}_us_per_box": _median_seconds(fn, small) / per_box * 1e6
           for name, fn in paths.items()}
    out["interval.both_us_per_box_allleaves"] = (
        _median_seconds(paths["both"], frame_box(slice(None)), repeats=1) / n * 1e6)

    for name in ("edge", "lemma", "mean_value"):
        ok = pos = 0
        for start in range(0, n, SMALL_BATCH):
            rows = slice(start, start + SMALL_BATCH)
            lo = np.asarray(paths[name](frame_box(rows)).lo, dtype=float)
            ok += int(np.count_nonzero(lo >= recorded[rows]))
            pos += int(np.count_nonzero(lo >= 0.0))
        out[f"interval.leaves_ok_{name}"] = ok
        out[f"interval.leaves_pos_{name}"] = pos

    lo = rng.uniform(0.1, 3.0, ELEMENTS)
    x = Interval(lo, lo + rng.uniform(0.0, 1e-3, ELEMENTS))
    c_lo = rng.uniform(-1.0, 1.0, ELEMENTS)
    c = Interval(c_lo, c_lo + rng.uniform(0.0, 1e-3, ELEMENTS))
    elementwise = {
        "isin": lambda: isin(x),
        "iatan2": lambda: iatan2(x, c),
        "isqrt": lambda: isqrt(x),
        "mul": lambda: x * c,
    }
    for name, fn in elementwise.items():
        out[f"interval.{name}_ns"] = _median_seconds(fn) / ELEMENTS * 1e9
    return out
