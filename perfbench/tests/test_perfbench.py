"""Tests of the benchmark's own plumbing: span self time, wrapper restore,
failure counting, and a traced margin-0.2 certify smoke run.

    python3 -m pytest -q perfbench/tests
"""

import json
import types

import pytest

from layers import PER_LAYER, install_wrappers, span_metrics
from spans import Span, Tracer, covered, inside, self_times
from workloads import Runner


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, op=0)


# -- self time ----------------------------------------------------------------

def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(5.0, 6.0), (1.0, 2.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "child", 1.0, 4.0, parent=0),
        _span(2, "grandchild", 2.0, 3.0, parent=1),
        _span(3, "child", 5.0, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)
    # self times of a tree add up to the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_inside_collects_every_descendant():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0),
        _span(2, "c", 2.0, 3.0, parent=1),
        _span(3, "c", 5.0, 9.0),
    ]
    assert inside(spans, "b") == {1, 2}
    assert inside(spans, "a") == {0, 1, 2}
    assert inside(spans, "c") == {2, 3}


# -- wrappers -------------------------------------------------------------------

class _Thing:
    @staticmethod
    def build(x):
        return x + 1

    def twice(self, x):
        return 2 * x


def test_wrappers_record_nested_spans_and_restore_originals():
    module = types.ModuleType("fake")

    def outer(x):
        return module.inner(x) + _Thing.build(x) + _Thing().twice(x)

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    module.outer, module.inner = outer, inner
    raw_build, raw_twice = _Thing.__dict__["build"], _Thing.__dict__["twice"]

    tracer = Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", lambda a, k, r: {"arg": a[0]})
    tracer.wrap(_Thing, "build", "build")
    tracer.wrap(_Thing, "twice", "twice")
    assert module.outer(3) == 3 + 4 + 6
    with pytest.raises(ValueError):
        module.inner(-1)
    tracer.restore()

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("build", 0), ("twice", 0),
                     ("inner", None)]
    assert tracer.spans[1].info == {"arg": 3}
    assert all(s.end >= s.start for s in tracer.spans)  # the raising call too
    assert module.outer is outer and module.inner is inner
    assert _Thing.__dict__["build"] is raw_build
    assert _Thing.__dict__["twice"] is raw_twice
    assert len(tracer.spans) == 5
    module.outer(1)
    assert len(tracer.spans) == 5  # restored: nothing more recorded


def test_install_wrappers_is_undone_by_restore():
    from quadineq import certifier, cli, kernel, search

    owners = (cli, certifier, kernel, search, certifier.Certificate)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    install_wrappers(tracer, {})
    assert cli.main is not before[0]["main"]
    tracer.restore()
    for owner, saved in zip(owners, before):
        for name, value in saved.items():
            assert vars(owner)[name] is value, name


# -- failure counting and the smoke run ---------------------------------------

def test_failures_are_counted_and_do_not_stop_the_run(tmp_path, monkeypatch):
    runner = Runner("certify", 0, str(tmp_path))
    cert = str(tmp_path / "cert.json")
    good = runner.certify("timed", "0.2", cert)
    assert good.ok and good.report["complete"] and good.artifact_bytes > 0

    # wrong c_star expected
    bad = runner.check_cert("timed", cert, good.report["c_star"] * 2)
    assert not bad.ok and "differs" in bad.reason

    # tampered certificate: a raised leaf bound must fail verification
    with open(cert, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["leaves"][0]["lower_bound"] = 1.0
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rejected = runner.check_cert("timed", tampered, good.report["c_star"])
    assert not rejected.ok and "exit status 1" in rejected.reason

    missing = runner.check_cert("timed", str(tmp_path / "missing.json"), 0.0)
    assert not missing.ok and "exit status 2" in missing.reason

    # an exception inside the command is a failed op, not a crashed run
    from quadineq import cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "certify", broken)
    raised = runner.certify("timed", "0.2", cert)
    assert not raised.ok and "boom" in raised.reason
    monkeypatch.undo()

    # determinism guard: a hash that differs from the run's first one fails
    runner._hashes[" ".join(["certify", "--margin", "0.2", "--out", cert])] = "0" * 64
    changed = runner.certify("timed", "0.2", cert)
    assert not changed.ok and "sha256" in changed.reason

    assert [r.ok for r in runner.results] == [True, False, False, False, False, False]


def test_traced_smoke_run_accounts_for_the_command(tmp_path):
    runner = Runner("certify", 0, str(tmp_path))
    tracer = Tracer()
    captured: dict = {}
    install_wrappers(tracer, captured)
    try:
        result = runner.certify("traced", "0.2", str(tmp_path / "cert.json"))
    finally:
        tracer.restore()
    assert result.ok
    metrics = span_metrics(tracer.spans, result.report)
    assert set(metrics) <= set(PER_LAYER)
    assert metrics["certifier.boxes"] == 357
    assert metrics["certifier.leaves"] == 179
    assert metrics["certifier.enclosure_calls"] >= 2
    # dumps ran twice: the certificate (written with a newline) and the summary
    from quadineq.ioutil import dumps
    assert metrics["ioutil.bytes"] == result.artifact_bytes - 1 + len(dumps(result.report))
    assert captured["doc"]["leaves"]

    main = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(main) == 1
    parts = ("certifier.enclosure_s", "certifier.self_s", "certifier.to_json_s",
             "ioutil.dumps_s", "cli.self_s", "cli.probe_s")
    assert sum(metrics[p] for p in parts) == pytest.approx(main[0].duration, rel=1e-9)


def test_replay_certificate_is_cached_per_source_key(tmp_path, monkeypatch):
    import workloads
    from quadineq import cli

    runner = Runner("replay", 0, str(tmp_path))
    cache = tmp_path / "cache"
    cached = str(cache / "replay-cert.json")
    monkeypatch.setattr(workloads, "CERT_MARGIN", "0.2")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "certify", broken)
        failed = runner.replay_certificate(str(cache), "k1")
    assert failed["wrote"] and not cache.exists() and runner.cert_path != cached

    first = runner.replay_certificate(str(cache), "k1")
    assert first["wrote"] and runner.cert_path == cached and first["c_star"] > 0
    count = len(runner.results)
    again = runner.replay_certificate(str(cache), "k1")
    assert not again["wrote"] and len(runner.results) == count
    assert again["sha256"] == first["sha256"]
    assert runner.replay_certificate(str(cache), "k2")["wrote"]
    assert runner.check_cert("timed", runner.cert_path, runner.cert_c_star).ok
