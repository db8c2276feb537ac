"""The frame-uniform audit maps the blocks of each chunk over a thread pool;
each block returns its own accumulator, and the caller merges them in block
order.  The report must not depend on the number of workers or the block
size; it does depend on the chunk size, since each chunk's draw is one part
of the sample stream.  A failing block must fail the audit and leave no
thread behind, and an audit of one block must start no thread at all."""

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
    # so a pool thread checks it whenever there are two or three workers
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


def test_the_fold_across_chunks_does_not_depend_on_workers(monkeypatch):
    # 40,001 samples in chunks of 10,000 are five draws, the last of one row,
    # each cut into blocks of 3,000 and 1,000 rows; one NaN row sits in the
    # third draw, so the fold must carry it across the chunk boundaries
    real = kernel.sample_frames

    def poisoned(seed, n, margin):
        p, w = real(seed, n, margin)
        if seed[1] == 2:
            w[4_321] = math.nan
        return p, w

    monkeypatch.setattr(kernel, "sample_frames", poisoned)
    monkeypatch.setattr(kernel, "_AUDIT_CHUNK", 10_000)
    monkeypatch.setattr(kernel, "_AUDIT_BLOCK", 3_000)
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernel, "_AUDIT_WORKERS", workers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reports.append(audit_samples(11, 40_001, margin=0.01).to_json_dict())
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert reports[0]["samples"] == 40_001 and reports[0]["pass"] is False
    # every check counts the row once; the sign resolution once per sign
    assert {c["id"]: c["nonfinite"] for c in reports[0]["checks"]} == {
        **{cid: 1 for cid, *_ in kernel._IDENTITIES + kernel._INEQUALITIES},
        "mult2-sign-resolution": 2}


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
    # `failing` picks the block of the one chunk that raises
    real_frames, real_checks = kernel.sample_frames, kernel._block_checks
    chunks = []

    def recorded(*args):
        chunks.append(real_frames(*args))
        return chunks[-1]

    def fails_on_one_block(frames):
        lo = failing * kernel._AUDIT_BLOCK
        if np.array_equal(frames[1], chunks[-1][1][lo:lo + kernel._AUDIT_BLOCK]):
            raise RuntimeError(f"block {failing} failed")
        return real_checks(frames)

    monkeypatch.setattr(kernel, "_AUDIT_WORKERS", 2)
    monkeypatch.setattr(kernel, "sample_frames", recorded)
    monkeypatch.setattr(kernel, "_block_checks", fails_on_one_block)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {failing} failed"):
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
