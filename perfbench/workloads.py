"""The benchmark's workloads: which CLI commands an op runs, how each
command's result is checked, and the set-up every workload process does.

Every command goes through `quadineq.cli.main(argv)` in this process, the
same front door users run.  A command counts as failed when it raises, exits
non-zero, or its report or file fails the checks below; failures are counted
and never stop the run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass

WORKLOADS = ("certify", "replay", "audit", "search")

CERT_MARGIN = "0.12"
SEARCH_MARGINS = ("0.05", "0.005", "0.0005")


@dataclass
class OpResult:
    kind: str            # "warmup", "setup", "timed" or "traced"
    command: str
    wall_s: float
    ok: bool
    reason: str
    sha256: str
    artifact_bytes: int
    report: dict

    def summary(self) -> dict:
        return {"kind": self.kind, "command": self.command,
                "wall_s": self.wall_s, "ok": self.ok, "reason": self.reason,
                "sha256": self.sha256, "artifact_bytes": self.artifact_bytes}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_certify(report: dict) -> str:
    if report.get("complete") is not True:
        return "certificate is not complete"
    if not report.get("c_star", 0.0) > 0.0:
        return f"c_star {report.get('c_star')!r} is not positive"
    return ""


def _check_replay(report: dict, c_star) -> str:
    if report.get("verified") is not True:
        return "certificate did not verify"
    if report.get("c_star") != c_star:
        return f"c_star {report.get('c_star')!r} differs from the certificate's {c_star!r}"
    return ""


def _check_audit(report: dict) -> str:
    if report.get("sign_resolution") != "plus":
        return f"sign resolution {report.get('sign_resolution')!r}, expected 'plus'"
    return ""


def _check_search(report: dict) -> str:
    if report.get("genuine_counterexamples") != 0:
        return f"{report.get('genuine_counterexamples')!r} genuine counterexamples"
    best = report.get("best_values", [])
    if not all(a > b for a, b in zip(best, best[1:])):
        return f"best values {best!r} are not strictly decreasing"
    return ""


class Runner:
    """Runs one workload's commands in this process and checks each one."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.results: list[OpResult] = []
        self.cert_path = os.path.join(workdir, "cert.json")
        self.cert_c_star = None
        self.cert_box_count = 0
        self.cert_bytes = 0
        self._hashes: dict[str, str] = {}

    def _run(self, kind: str, argv: list, check, artifact=None) -> OpResult:
        """Run one command, time it, check it, and record the result.

        `check(report)` returns "" or the reason the report is wrong;
        `artifact` names the file the command writes, if any.
        """
        from quadineq import cli

        if artifact is not None and os.path.exists(artifact):
            os.remove(artifact)  # a failed command must not pass on a stale file
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            code = None
            reason = "raised " + traceback.format_exc(limit=3).replace("\n", " | ")
        wall = time.perf_counter() - start
        report: dict = {}
        if code is not None:
            reason = ""
            try:
                report = json.loads(out.getvalue())
            except json.JSONDecodeError as exc:
                reason = f"report is not JSON: {exc}"
            if code != 0:
                reason = f"exit status {code}: {err.getvalue().strip()[:200]}"
            elif not reason:
                reason = check(report)
        if artifact is not None and os.path.exists(artifact):
            digest, size = sha256_file(artifact), os.path.getsize(artifact)
        else:
            text = out.getvalue().encode()
            digest, size = hashlib.sha256(text).hexdigest(), len(text)
        # determinism guard: one command with the same inputs must give the
        # same bytes on every successful op of a run
        if not reason:
            first = self._hashes.setdefault(" ".join(argv), digest)
            if digest != first:
                reason = f"sha256 {digest[:12]} differs from the run's first {first[:12]}"
        result = OpResult(kind, argv[0], wall, not reason, reason, digest, size, report)
        self.results.append(result)
        return result

    # -- the commands ----------------------------------------------------

    def certify(self, kind: str, margin: str, path: str) -> OpResult:
        return self._run(kind, ["certify", "--margin", margin, "--out", path],
                         _check_certify, artifact=path)

    def check_cert(self, kind: str, path: str, c_star) -> OpResult:
        return self._run(kind, ["check-cert", path],
                         lambda report: _check_replay(report, c_star))

    def audit(self, kind: str, samples: int) -> OpResult:
        return self._run(kind, ["audit", "--samples", str(samples), "--seed",
                                str(self.seed), "--margin", "0.01"], _check_audit)

    def search(self, kind: str, starts: int, budget: int) -> OpResult:
        return self._run(kind, ["search", "--seed", str(self.seed), "--starts",
                                str(starts), "--margin", *SEARCH_MARGINS,
                                "--budget", str(budget)], _check_search)

    # -- set-up and ops --------------------------------------------------

    def warm_up(self) -> None:
        """Run every command once on a small input, so first-call costs
        stay out of the timed ops."""
        warm = os.path.join(self.workdir, "warm.json")
        result = self.certify("warmup", "0.2", warm)
        self.check_cert("warmup", warm, result.report.get("c_star"))
        self.audit("warmup", 10_000)
        self.search("warmup", 16, 200)
        with contextlib.suppress(FileNotFoundError):
            os.remove(warm)

    def replay_certificate(self, cache_dir: str, key: str) -> dict:
        """Point replay ops at this commit's margin-0.12 certificate.

        The certificate is written once per `key`, a hash of the package
        sources, and reused by later runs in the same checkout.  Returns
        its summary; `wrote` says whether this call wrote it.
        """
        cached = os.path.join(cache_dir, "replay-cert.json")
        sidecar = os.path.join(cache_dir, "replay-cert.summary.json")
        try:
            with open(sidecar, encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, json.JSONDecodeError):
            summary = {}
        wrote = summary.get("key") != key or not os.path.exists(cached)
        if wrote:
            result = self.certify("setup", CERT_MARGIN, self.cert_path)
            summary = {"key": key, "c_star": result.report.get("c_star"),
                       "box_count": result.report.get("box_count", 0),
                       "bytes": result.artifact_bytes, "sha256": result.sha256}
            if result.ok:  # a failed certificate is checked where it lies, never cached
                os.makedirs(cache_dir, exist_ok=True)
                os.replace(self.cert_path, cached)
                with open(sidecar, "w", encoding="utf-8") as fh:
                    json.dump(summary, fh)
                self.cert_path = cached
        else:
            self.cert_path = cached
        self.cert_c_star = summary["c_star"]
        self.cert_box_count = summary["box_count"]
        self.cert_bytes = summary["bytes"]
        return {**summary, "wrote": wrote}

    def op(self, kind: str = "timed") -> OpResult:
        """One closed-loop operation of the workload."""
        if self.workload == "certify":
            return self.certify(kind, CERT_MARGIN, self.cert_path)
        if self.workload == "replay":
            return self.check_cert(kind, self.cert_path, self.cert_c_star)
        if self.workload == "audit":
            return self.audit(kind, 1_000_000)
        return self.search(kind, 256, 2000)
