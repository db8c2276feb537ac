"""The benchmark's trace wraps package functions by name.  A refactor that
drops or renames one of them breaks only a traced benchmark run, so check
here that every wrapped name exists, that a traced search and a traced
audit reach their spans, and that `restore` puts the originals back."""

import importlib
from pathlib import Path

import pytest

from quadineq import certifier, cli, kernel, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEARCH_HOOKS = [(search, "metrics_from_frames"), (search, "normalized_residual"),
                (search, "audit"), (cli, "boundary_trend"), (cli, "main")]
AUDIT_HOOKS = [(kernel, "sample_frames"), (kernel, "metrics_from_frames"),
               (cli, "audit_samples")]
HOOKS = SEARCH_HOOKS + AUDIT_HOOKS


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_install_wrappers_and_restore(perfbench):
    layers, spans = perfbench
    originals = [getattr(owner, name) for owner, name in HOOKS]
    tracer = spans.Tracer()
    try:
        layers.install_wrappers(tracer, {})  # KeyError on a missing name
        wrapped = [getattr(owner, name) for owner, name in HOOKS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert [getattr(owner, name) for owner, name in HOOKS] == originals


def test_traced_search_records_the_search_spans(perfbench, capsys):
    layers, spans = perfbench
    tracer = spans.Tracer()
    layers.install_wrappers(tracer, {})
    try:
        code = cli.main(["search", "--seed", "2", "--starts", "3", "--margin", "0.05",
                         "0.005", "--budget", "60"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert {"search.boundary_trend", "geometry.metrics_from_frames",
            "kernel.normalized_residual"} <= {span.name for span in tracer.spans}
    metrics = layers.span_metrics(tracer.spans, {})
    assert metrics["search.objective_calls"] > 0
    assert metrics["search.rows_per_call"] > 0


def test_traced_audit_records_the_audit_spans(perfbench, capsys):
    layers, spans = perfbench
    tracer = spans.Tracer()
    layers.install_wrappers(tracer, {})
    try:
        code = cli.main(["audit", "--samples", "5000", "--seed", "3", "--margin", "0.01"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert {"kernel.audit_samples", "geometry.sample_frames",
            "geometry.metrics_from_frames"} <= {span.name for span in tracer.spans}
    metrics = layers.span_metrics(tracer.spans, {})
    assert metrics["geometry.metrics_s"] > 0
    assert metrics["kernel.checks_s"] > 0


def test_traced_audit_records_a_metrics_span_per_block(perfbench, capsys, monkeypatch):
    # the audit's second worker calls the wrapped kernel.metrics_from_frames
    # from a pool thread; every block must still be traced, inside the audit
    layers, spans = perfbench
    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 2)
    tracer = spans.Tracer()
    layers.install_wrappers(tracer, {})
    try:
        code = cli.main(["audit", "--samples", "20000", "--seed", "3", "--margin", "0.01"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    audits = spans.inside(tracer.spans, "kernel.audit_samples")
    blocks = [span for span in tracer.spans if span.name == "geometry.metrics_from_frames"]
    assert len(blocks) == -(-20_000 // kernel._AUDIT_BLOCK) == 3
    assert sum(span.info["rows"] for span in blocks) == 20_000
    assert all(span.id in audits for span in blocks)


def test_interval_metrics_reports_every_interval_name(perfbench, monkeypatch):
    # a traced run times the interval layer on a certificate's leaves through
    # `Certificate.leaves` and `_gauge_clip`; 1,000 elementwise samples in
    # place of 1M keep this fast (the repeat count is bound at definition).
    # The lemma form decides every leaf of the margin-0.2 tree, so the
    # mean-value count is read at 0.15, where it is 150
    layers, _ = perfbench
    monkeypatch.setattr(layers, "ELEMENTS", 1000)
    metrics = layers.interval_metrics(certifier.certify(margin=0.15), 0)
    names = {name for name in layers.PER_LAYER if name.startswith("interval.")}
    assert names <= set(metrics)
    assert metrics["interval.leaves_pos_mean_value"] > 0
