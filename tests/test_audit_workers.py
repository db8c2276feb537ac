"""The frame-uniform audit deals the blocks of each chunk to several
workers, each filling its own accumulator, and merges them at the end.  The
report must not depend on the number of workers or the block size, a
failing worker must fail the audit and leave no thread behind, and an audit
of one block must start no thread at all."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from quadineq import cli, kernel
from quadineq.kernel import _Accumulator, audit_samples


def test_nan_row_report_does_not_depend_on_workers_or_blocks(monkeypatch):
    # row 13,500 lies in block 13 of 1,000 rows and block 1 of 8,192 rows,
    # so worker 1 checks it whenever there are two or three workers
    real = kernel.sample_frames

    def poisoned(seed, n, margin):
        p, w = real(seed, n, margin)
        w[13_500] = math.nan
        return p, w

    monkeypatch.setattr(kernel, "sample_frames", poisoned)
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernel, "_AUDIT_WORKERS", workers)
        for block in (1_000, 8_192, 200_000):
            monkeypatch.setattr(kernel, "_AUDIT_BLOCK", block)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                reports.append(audit_samples(11, 40_001, margin=0.01).to_json_dict())
    assert all(report == reports[0] for report in reports[1:])
    assert reports[0]["pass"] is False
    failed = [c for c in reports[0]["checks"] if not c["pass"]]
    assert failed and all(c["nonfinite"] >= 1 for c in failed)
    assert {c["id"] for c in failed} >= {"residual-nonneg", "angular-core-nonneg"}


def test_many_workers_on_a_short_switch_interval_give_the_same_report(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows: a lost or doubled block would change a count
    monkeypatch.setattr(kernel, "_AUDIT_BLOCK", 1_000)
    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 1)
    expected = audit_samples(5, 20_000, margin=0.01).to_json_dict()
    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = audit_samples(5, 20_000, margin=0.01).to_json_dict()
    finally:
        sys.setswitchinterval(interval)
    assert report == expected


def _fed(*blocks):
    acc = _Accumulator()
    for kind, key, values in blocks:
        getattr(acc, kind)(key, np.asarray(values, dtype=float))
    return acc


def _state(acc):
    return acc.max_err, acc.min_slack, acc.counts, acc.nonfinite


LEFT = (("err", "e", [1.0, 3.0]), ("slack", "s", [0.5, np.nan]),
        ("err", "left-only", [np.inf, 2.0]), ("slack", "t", []))
RIGHT = (("err", "e", [2.0, np.nan]), ("slack", "s", [-1.0, -np.inf]),
         ("err", "right-only", [4.0]), ("slack", "u", [np.nan]))


def test_merge_equals_one_accumulator_fed_every_block():
    left, right = _fed(*LEFT), _fed(*RIGHT)
    left.merge(right)
    assert _state(left) == _state(_fed(*LEFT, *RIGHT))
    assert _state(left) == (
        {"e": 3.0, "left-only": 2.0, "right-only": 4.0},
        {"s": -1.0},
        {"s": 4, "t": 0, "u": 1},
        {"s": 2, "left-only": 1, "e": 1, "u": 1})


def test_merge_with_empty_accumulators():
    empty = _Accumulator()
    empty.merge(_Accumulator())
    assert _state(empty) == ({}, {}, {}, {})
    into_empty = _Accumulator()
    into_empty.merge(_fed(*RIGHT))
    assert _state(into_empty) == _state(_fed(*RIGHT))
    full = _fed(*LEFT)
    full.merge(_Accumulator())
    assert _state(full) == _state(_fed(*LEFT))


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_worker_fails_the_audit_and_leaves_no_thread(monkeypatch, failing):
    real = kernel._accumulate_checks
    caller = threading.get_ident()

    def fails_on_one_worker(acc, m):
        if (threading.get_ident() == caller) == (failing == 0):
            raise RuntimeError(f"worker {failing} failed")
        real(acc, m)

    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 2)
    monkeypatch.setattr(kernel, "_accumulate_checks", fails_on_one_worker)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"worker {failing} failed"):
        audit_samples(2, 3 * kernel._AUDIT_BLOCK, margin=0.01)
    assert threading.active_count() == before


def test_audits_of_one_block_start_no_thread(monkeypatch, tmp_path, capsys):
    # a 5,000-sample audit is one block and eval audits its one
    # configuration; certify, check-cert and search report the proved sign
    # and run no audit at all
    def no_pool(*args, **kwargs):
        raise AssertionError("an audit of one block built a thread pool")

    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 2)
    monkeypatch.setattr(kernel, "ThreadPoolExecutor", no_pool)
    assert audit_samples(3, 5_000, margin=0.01).passed()
    cert = tmp_path / "cert.json"
    assert cli.main(["certify", "--margin", "0.2", "--out", str(cert)]) == 0
    assert cli.main(["check-cert", str(cert)]) == 0
    assert cli.main(["search", "--seed", "1", "--starts", "2", "--margin", "0.05",
                     "--budget", "40"]) == 0
    assert cli.main(["eval", "--points", "[[0, 0], [1, 0], [1, 1], [0, 1]]"]) == 0
    capsys.readouterr()
