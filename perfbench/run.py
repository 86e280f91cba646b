"""janostab benchmark.

    python3 perfbench/run.py --workload base_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh workload processes (``worker.py``) with
the BLAS/OpenMP thread counts pinned to 1:

* ``--trace 0``: ``SETUPS`` processes are timed from start to the end of
  their warm-up op (``setup_s`` is the median); the middle one then runs
  the workload in a closed loop for ``--seconds`` and reports the
  end-to-end metrics.
* ``--trace 1``: one process runs a fixed, seed-derived op list four times,
  alternately untraced and traced, and reports per-layer metrics.

The last line of stdout is the result object; the line before it records
the environment.  Results and spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("base_sweep", "lemma_grid", "counterexample")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUPS = 9
PROCESS_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode: str, extra=()):
    """Start one worker; return (process, kill timer, seconds until READY,
    warm-up ok)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise WorkerError(f"{mode} worker exited before its warm-up op finished")
        return proc, timer, ready_s, line.split()[1] == "1"
    except BaseException:
        stop(proc, timer)
        raise


def stop(proc, timer) -> None:
    timer.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, timer) -> str:
    """Wait for the worker and return its last stdout line."""
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        stop(proc, timer)
    if code != 0 or not out.strip():
        raise WorkerError(f"worker exited with code {code}")
    return out.strip().splitlines()[-1]


def nearest_rank(sorted_values, q: float) -> float:
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 of the package sources, which names the code under test
    even in a checkout without ``.git``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def time_setup(args) -> tuple:
    """(seconds to READY, warm-up ok) of one set-up-only worker."""
    proc, timer, ready_s, ok = start_worker(args, "setup")
    try:
        proc.wait()
    finally:
        stop(proc, timer)
    return ready_s, ok


def run_untraced(args, extra) -> tuple:
    # Set-ups are split around the measuring process so their median spans
    # the run rather than one moment of the host's load.
    before = [time_setup(args) for _ in range(SETUPS // 2)]
    proc, timer, ready_s, warm_ok = start_worker(
        args, "measure", ["--seconds", str(args.seconds), *extra]
    )
    doc = json.loads(finish(proc, timer))
    after = [time_setup(args) for _ in range(SETUPS - 1 - SETUPS // 2)]
    setups = before + [(ready_s, warm_ok and doc["warmup_ok"])] + after
    setup_s = [t for t, _ in setups]
    op_ms = sorted(1e3 * s for s in doc["op_s"])
    attempted = doc["attempted"]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (attempted / sum(doc["op_s"]), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (nearest_rank(op_ms, 0.9), "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - doc["failed"]) / attempted, "fraction"),
    }
    detail = {"setup_runs_s": setup_s, "ops": attempted, "reasons": doc["reasons"]}
    return doc, all(ok for _, ok in setups), metrics, detail


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    return "bytes" if metric.endswith(".bytes") else "count"


def run_traced(args, extra) -> tuple:
    proc, timer, _, warm_ok = start_worker(args, "trace", extra)
    doc = json.loads(finish(proc, timer))
    metrics = {key: (value, layer_unit(key)) for key, value in doc["metrics"].items()}
    detail = {"reasons": doc["reasons"], "count_mismatches": doc["count_mismatches"]}
    if not doc["counts_repeat"]:
        print(f"count metrics differ between traced passes: {doc['count_mismatches']}", file=sys.stderr)
    return doc, warm_ok and doc["warmup_ok"] and doc["counts_repeat"], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cap the op count (smoke tests)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt every op's output before it is checked (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "janostab" / "__init__.py").is_file():
        print(f"error: no janostab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    extra = []
    if args.max_ops is not None:
        extra += ["--max-ops", str(args.max_ops)]
    if args.inject_fault:
        extra.append("--inject-fault")
    try:
        doc, ok, metrics, detail = (run_traced if args.trace else run_untraced)(args, extra)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in doc["reasons"]:
        print(f"failed op: {reason}", file=sys.stderr)
    result = {
        "correct": bool(ok and doc["failed"] == 0),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"env": env, "detail": detail, **result}, indent=1))
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
