"""ffbm benchmark: one run of one workload, ending in a JSON result line.

    python3 perfbench/run.py --workload polbooks --seed 1 --seconds 50 --trace 0

Run it from the repository root; ffbm is imported from ./src.  Every
measurement happens in a fresh worker process (perfbench/worker.py), one
repetition after another (jobs=1), so the lazily filled tables in ffbm
start cold as in a command-line run.  Times are in reference seconds:
wall time with each stretch divided by the machine's slowdown at that
moment, which a calibration kernel interleaved in the worker measures
(clock.py).  The per-pass details also give wall seconds.

--trace 0  end-to-end metrics, tracing off.  Workload passes (set-up, then
           run_experiment + experiment_payload) repeat, each in a new
           process, while the last pass's wall time still fits in
           --seconds; extra set-up-only processes bring the set-up samples
           to SETUP_SAMPLES.  Each metric is the median over its samples.
--trace 1  per-layer metrics: one untraced pass, one traced pass that
           makes run_repetition's calls with a span around each, and a
           fresh process timing the first and second description_length.
           The traced pass must reproduce the untraced pass's outputs.

Every repetition's outputs are checked (see worker.check_outputs); a
repetition that fails a check counts as a failed operation.  The second
to last line of output is a JSON object with provenance, per-pass figures
and, when traced, the spans; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import ess

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("polbooks", "planted-500x5")
SETUP_SAMPLES = 5
# A run must end within 180 s; leave room for start-up and output.
TIME_LIMIT_S = 170.0
LIMITS = ("no hardware counters; peak RSS from getrusage (ru_maxrss) of each worker process; "
          "times in reference seconds (wall time corrected by an interleaved calibration "
          "kernel, clock.py) on a shared machine, where other tenants still add noise")


class WorkerError(RuntimeError):
    pass


def spawn(root: str, task: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"time limit reached before the {task} worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, root, task, workload, str(seed), repr(start)],
            cwd=root, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{task} worker did not finish within the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"{task} worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_count(failures) -> int:
    return sum(1 for rep in failures if rep)


def measure(root, workload, seed, seconds, deadline):
    """End-to-end metrics from untraced passes."""
    started = time.monotonic()
    passes, last_s = [], 0.0
    while not passes or time.monotonic() - started + last_s <= seconds:
        pass_start = time.monotonic()
        passes.append(spawn(root, "pass", workload, seed, deadline))
        last_s = time.monotonic() - pass_start
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(root, "setup", workload, seed, deadline)["setup_s"])

    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    failures = [f for p in passes for f in p["failures"]]
    details = {"passes": passes, "setup_samples": setups}
    return metrics, len(failures), failed_count(failures), details


def trace(root, workload, seed, deadline):
    """Per-layer metrics from a traced pass, checked against an untraced one."""
    untraced = spawn(root, "pass", workload, seed, deadline)
    traced = spawn(root, "traced", workload, seed, deadline)
    probe = spawn(root, "dl-probe", workload, seed, deadline)

    failures = untraced["failures"]
    for rep, (want, got) in enumerate(zip(untraced["values"], traced["values"])):
        if want != got:
            failures[rep].append(f"traced outputs {got} differ from run_repetition's {want}")
    if len(traced["values"]) != len(untraced["values"]):
        raise WorkerError("traced and untraced passes ran different repetition counts")

    metrics = dict(traced["layers"])
    metrics.update(probe)
    metrics["mala.min_ess_per_s"] = sum(untraced["theta_min_ess"]) / untraced["run_s"]
    metrics["trace.overhead_s"] = traced["pipeline_s"] - untraced["run_s"]
    details = {"untraced": untraced, "traced_pipeline_s": traced["pipeline_s"],
               "spans": traced["spans"]}
    return metrics, len(failures), failed_count(failures), details


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: str):
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(os.path.join(root, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def source_digest(root: str) -> str:
    """SHA-256 over ffbm's source and data files, to identify code without git."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "ffbm")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt", ".csv")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def provenance(root: str, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(root),
        "ffbm_source_sha256": source_digest(root),
        "limits": LIMITS,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="start another workload pass while the last one would still "
                             "end within this many seconds of the first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffbm", "__init__.py")):
        print(f"perfbench: no ffbm sources under {os.path.join(root, 'src')}; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        ess.self_test()
    except AssertionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    try:
        if args.trace:
            metrics, attempted, failed, details = trace(root, args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, details = measure(
                root, args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"perfbench: measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    details["provenance"] = provenance(root, args.workload, args.seed)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
