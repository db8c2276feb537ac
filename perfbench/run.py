"""quadineq benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run it from any directory; it works on the package sources in `src/` next
to this directory.  A workload sets up (imports and a warm-up of every
command), then runs its op in a closed loop, one at a time, until
`--seconds` have passed (at least one op).  With `--trace 1` it then runs
one more op with spans recorded around every layer, plus direct timings
of the interval layer on replay, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
report with the environment, every op and its sha256, and the failure
reasons.  `--workload all` runs every workload in its own process, in
order, and prints one table.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"  # relative to ROOT
SETUP_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cert_mb": "MB"}
# what command_s is called on each workload
COMMAND_NAMES = {"certify": "certify_s", "replay": "check_s", "search": "search_s"}


def load_package():
    """Import quadineq from this checkout's sources, never an installed copy."""
    package = SRC / "quadineq"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no quadineq sources at {package}")
    sys.path.insert(0, str(SRC))
    import quadineq

    if Path(quadineq.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported quadineq from {quadineq.__file__}, "
                         f"not from {package}")
    return quadineq


def source_key() -> str:
    """Hash of the package sources and the numeric stack they run on."""
    import numpy

    digest = hashlib.sha256(f"{platform.python_version()} {numpy.__version__}".encode())
    for path in sorted((SRC / "quadineq").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Set up, run the closed loop and, if traced, the traced op.

    Returns (metrics, report): metrics maps each name to its value.
    """
    start = time.perf_counter()
    load_package()
    setup = {"import_s": time.perf_counter() - start, "warm_up_s": []}

    workdir = OUT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, str(workdir))
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    try:
        # set up several times and take the median round; the imports and
        # the replay certificate happen once per process
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            runner.warm_up()
            setup["warm_up_s"].append(time.perf_counter() - start)
        setup_s = setup["import_s"] + statistics.median(setup["warm_up_s"])
        if workload == "replay":
            start = time.perf_counter()
            setup["certificate"] = runner.replay_certificate(str(OUT / "cache"),
                                                             source_key())
            setup["certificate_s"] = time.perf_counter() - start
            setup_s += setup["certificate_s"]

        loop_start = time.perf_counter()
        while True:
            runner.op()
            if time.perf_counter() - loop_start >= seconds:
                break
        timed = [r for r in runner.results if r.kind == "timed"]
        command_s = statistics.median(r.wall_s for r in timed)
        # the op's certificate on certify, the checked one on replay, the
        # margin-0.2 warm-up one on audit and search
        cert_bytes = max([runner.cert_bytes] + [r.artifact_bytes for r in runner.results
                                                if r.command == "certify"])
        metrics = {"command_s": command_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb(), "cert_mb": cert_bytes / 1e6}
        if workload == "audit":
            named = {"audit_samples_per_s": (1e6 / command_s, "samples/s")}
        else:
            named = {COMMAND_NAMES[workload]: (command_s, "s")}
        if trace:
            metrics = traced_metrics(runner, command_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    failed = [r for r in runner.results if not r.ok]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "setup": setup,
        "error_rate": len(failed) / len(runner.results),
        "failures": [f"{r.kind} {r.command}: {r.reason}" for r in failed],
        "named": named,
        "ops": [r.summary() for r in runner.results],
    }
    return metrics, report


def traced_metrics(runner, command_s: float) -> dict:
    """One op with every layer wrapped, then the per-layer extras."""
    from layers import (PER_LAYER, install_wrappers, interval_metrics,
                        span_metrics, traced_peak_mb)
    from quadineq import certifier, ioutil
    from spans import Tracer

    tracer = Tracer()
    tracer.op = len(runner.results)
    captured: dict = {}
    install_wrappers(tracer, captured)
    try:
        traced = runner.op("traced")
    finally:
        tracer.restore()
    tracer.write(OUT / f"spans-{runner.workload}.jsonl")

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(span_metrics(tracer.spans, traced.report))
    metrics["trace.overhead_share"] = traced.wall_s / command_s - 1.0
    if runner.workload == "replay":
        metrics["certifier.boxes"] = runner.cert_box_count
    if "doc" in captured:
        metrics["ioutil.dumps_peak_mb"] = traced_peak_mb(ioutil.dumps, captured.pop("doc"))
    if "cert" in captured:
        cert = captured.pop("cert")
        metrics["certifier.verify_peak_mb"] = traced_peak_mb(
            certifier.verify_certificate, cert)
        metrics.update(interval_metrics(cert, runner.seed))
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process, in order, and print a table."""
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=1800, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit status {child.returncode}")
            status = 1
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {workload}: attempted {result['attempted']}, failed "
              f"{result['failed']}, error_rate {report['error_rate']:.4g} failed/attempted")
        rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        rows.update({name: tuple(v) for name, v in report["named"].items()})
        for name, (value, unit) in rows.items():
            if value != 0:
                print(f"  {name:40s} {value:>16.6g} {unit}")
        zeros = sum(1 for value, _ in rows.values() if value == 0)
        if zeros:
            print(f"  ({zeros} metrics read 0: layers this workload does not call)")
        for reason in report["failures"]:
            print(f"  FAILED {reason}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)

    metrics, report = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    if args.trace:
        from layers import PER_LAYER as units
    else:
        units = END_TO_END
    failed = sum(1 for op in report["ops"] if not op["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(report["ops"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
