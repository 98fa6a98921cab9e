#!/usr/bin/env python3
"""Benchmark for `fednb run-grid` and `fednb verify`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload synth-grid --seed 42 --seconds 25 --trace 0

--trace 0 runs each command as a fresh subprocess, one at a time, and reports
the end-to-end metrics: run_grid_s, verify_s, setup_s, peak_rss_mb and
error_rate (verify_s and error_rate as text lines only, see UNGATED).
--trace 1 runs the same commands in this process, first untraced as a
baseline and then once with every layer wrapped (see tracer.py), and reports
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Every command run is checked:
exit code 0, 15/15 verification checks, and a results.csv identical to the
reference hash (seed 42) and to every other run of the same input. A run
that fails a check counts in `failed` and its timings are discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads these when it loads, in this process (trace mode) and in children
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PER_CYCLE = 3
# Printed but left out of the result object, so no bound applies. One cell that
# verify re-runs costs a different number of Nelder-Mead evaluations on every
# input, which spreads verify_s across seeds by 20-30% on synth-grid and
# wide-k10. run-grid runs the same verification, so its cost is in run_grid_s.
UNGATED = ("verify_s",)

from workloads import WORKLOADS  # noqa: E402


class Ledger:
    """Counts attempted and failed command runs, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.errors)


class HashBook:
    """results.csv hashes per input. Input 0 must match the reference hash when
    there is one; every input must match its own first run."""

    def __init__(self, reference: str | None):
        self.expected = {0: reference} if reference else {}

    def check(self, key, path: str) -> tuple[bool, str]:
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            return False, f"results.csv unreadable: {exc}"
        want = self.expected.setdefault(key, digest)
        return digest == want, f"results.csv sha256 {digest}, expected {want}"


def checkout_problem() -> str | None:
    for rel in ("src/fednb/cli.py", "configs/synth.cfg"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"{rel} not found under {ROOT}: run from a full fednb checkout"
    return None


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], log_path: str) -> tuple[int, float, float]:
    """Run one command to completion; returns (exit code, wall s, maxrss MB)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def kv_all_passed(path: str) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            kv = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    except OSError:
        return False
    return kv.get("passed_count") == "15" and kv.get("total") == "15"


def report_all_passed(text: str) -> bool:
    lines = text.strip().splitlines()
    return bool(lines) and lines[-1] == "15/15 passed"


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def mean_of_medians(per_input: list[list[float]]) -> float:
    """Mean over inputs of each input's median; inputs with no sample skipped."""
    meds = [statistics.median(v) for v in per_input if v]
    return statistics.fmean(meds) if meds else float("nan")


def measure_end_to_end(workload, seed: int, seconds: float, work: str, ledger: Ledger) -> dict:
    fednb = [sys.executable, "-m", "fednb.cli"]
    seeds = workload.input_seeds(seed)
    cfg_args = [workload.cli_config_args(ROOT, work, s) for s in seeds]
    hashes = HashBook(workload.reference_sha256(seed))
    log = os.path.join(work, "child.log")

    setup = []
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    grid_s = [[] for _ in seeds]
    verify_s = [[] for _ in seeds]
    rss = [[] for _ in seeds]
    t0 = time.perf_counter()
    n = 0
    while n < len(seeds) or time.perf_counter() - t0 < seconds:
        j = n % len(seeds)
        n += 1
        # set-up probes are spread over the run so a passing slowdown moves the median less
        for _ in range(SETUP_PER_CYCLE):
            rc, wall, _ = run_child([*probe, *cfg_args[j]], log)
            if ledger.record(rc == 0, f"setup probe input {j}: exit {rc}: {read(log)[-500:]}"):
                setup.append(wall)
        out = os.path.join(work, f"out{n}")
        rc, wall, maxrss = run_child([*fednb, "run-grid", *cfg_args[j], "--out", out], log)
        print(f"input {j} (seed {seeds[j]}): run-grid {wall:.4f} s, exit {rc}")
        same, why = hashes.check(j, os.path.join(out, "results.csv"))
        checks_ok = kv_all_passed(os.path.join(out, "verification.kv"))
        if ledger.record(rc == 0 and checks_ok and same,
                         f"run-grid input {j}: exit {rc}, 15/15 {checks_ok}, {why}"):
            grid_s[j].append(wall)
            rss[j].append(maxrss)
        rc, wall, _ = run_child([*fednb, "verify", "--results", out], log)
        print(f"input {j} (seed {seeds[j]}): verify {wall:.4f} s, exit {rc}")
        passed = report_all_passed(read(log))
        if ledger.record(rc == 0 and passed, f"verify input {j}: exit {rc}, 15/15 {passed}"):
            verify_s[j].append(wall)
        shutil.rmtree(out, ignore_errors=True)

    return {
        "run_grid_s": (mean_of_medians(grid_s), "s"),
        "verify_s": (mean_of_medians(verify_s), "s"),
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "peak_rss_mb": (mean_of_medians(rss), "MB"),
    }


def inprocess_cycle(cli, cfg_args: list[str], out: str, ledger: Ledger, hashes: HashBook, label: str):
    """run-grid then verify through fednb.cli.main in this process; returns the
    wall time of both commands, or None if a check failed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc_grid = cli.main(["run-grid", *cfg_args, "--out", out])
        mark = len(buf.getvalue())
        rc_verify = cli.main(["verify", "--results", out])
        t2 = time.perf_counter()
    same, why = hashes.check(0, os.path.join(out, "results.csv"))
    checks_ok = kv_all_passed(os.path.join(out, "verification.kv"))
    ok_grid = ledger.record(rc_grid == 0 and checks_ok and same,
                            f"{label} run-grid: exit {rc_grid}, 15/15 {checks_ok}, {why}")
    passed = report_all_passed(buf.getvalue()[mark:])
    ok_verify = ledger.record(rc_verify == 0 and passed,
                              f"{label} verify: exit {rc_verify}, 15/15 {passed}")
    shutil.rmtree(out, ignore_errors=True)
    return t2 - t0 if ok_grid and ok_verify else None


def measure_layers(workload, seed: int, seconds: float, work: str, ledger: Ledger) -> dict:
    sys.path.insert(0, SRC)
    import fednb.cli as cli
    import tracer

    cfg_args = workload.cli_config_args(ROOT, work, seed)
    hashes = HashBook(workload.reference_sha256(seed))
    baseline = []
    t0 = time.perf_counter()
    while not baseline or time.perf_counter() - t0 < seconds:
        wall = inprocess_cycle(cli, cfg_args, os.path.join(work, "base"), ledger, hashes, "untraced")
        if wall is None:
            break
        baseline.append(wall)

    with tracer.Tracer() as tr:
        tr.instrument()
        traced = inprocess_cycle(cli, cfg_args, os.path.join(work, "traced"), ledger, hashes, "traced")
    problems = tracer.consistency_errors(tr.spans)
    for p in problems:
        ledger.record(False, f"trace: {p}")

    os.makedirs(WORK, exist_ok=True)
    tr.dump(os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json"),
            {"workload": workload.name, "seed": seed,
             "layer_self_ms": tracer.layer_self_ms(tr.spans)})
    metrics = tracer.layer_metrics(tr.spans)
    if traced is not None and baseline:
        base = statistics.median(baseline)
        metrics["trace.overhead_pct"] = ((traced - base) / base * 100.0, "%")
    else:
        metrics["trace.overhead_pct"] = (float("nan"), "%")
    for layer, ms in tracer.layer_self_ms(tr.spans).items():
        print(f"layer {layer:12s} self {ms:12.3f} ms")
    for cmd, (wall, total) in zip(("run-grid", "verify"), tracer.command_walls_ms(tr.spans)):
        print(f"traced {cmd}: {wall:.3f} ms wall, layer self times sum to {total:.3f} ms")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print("env " + json.dumps({"workload": workload.name, "seed": args.seed,
                               "trace": args.trace, **environment()}))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    ledger = Ledger()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(workload, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in ledger.errors:
        print(f"failed: {err}")
    if not args.trace:
        print(f"metric error_rate {ledger.failed / max(ledger.attempted, 1)} ratio"
              f" ({ledger.failed}/{ledger.attempted} command runs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    metrics = {name: m for name, m in metrics.items() if name not in UNGATED}
    correct = ledger.failed == 0 and ledger.attempted > 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value if value == value else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
