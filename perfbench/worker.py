"""One workload process: import the package, run the warm-up op, then
measure.  Started by ``run.py``; not meant to be run by hand.

It prints ``READY <ok>`` once the warm-up op is done (``run.py`` times
set-up up to that line), then, unless ``--mode setup``, one JSON line with
the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import janostab
    import janostab.cli

    if Path(janostab.__file__).resolve().parent != src / "janostab":
        raise ImportError(f"janostab imported from {janostab.__file__}, not {src}")
    return janostab


def run_op(workload, spec, inject_fault: bool):
    """(seconds, failure reason or None) for one op and its checks."""
    t0 = time.perf_counter()
    try:
        output = workload.run(spec)
    except Exception as exc:  # the op failed; count it and keep measuring
        elapsed = time.perf_counter() - t0
        return elapsed, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        if inject_fault:
            output = workload.corrupt(output)
        workload.check(spec, output)
    except Exception as exc:
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


class Tally:
    def __init__(self):
        self.op_s = []
        self.reasons = []

    def add(self, spec, elapsed, reason):
        self.op_s.append(elapsed)
        if reason is not None:
            self.reasons.append(f"{spec!r}: {reason}")

    def as_dict(self) -> dict:
        return {
            "attempted": len(self.op_s),
            "failed": len(self.reasons),
            "reasons": self.reasons[:5],
        }


def measure(workload, specs, seconds: float, inject_fault: bool) -> dict:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for spec in specs:
        if time.perf_counter() >= deadline:
            break
        tally.add(spec, *run_op(workload, spec, inject_fault))
    doc = tally.as_dict()
    doc["op_s"] = tally.op_s
    return doc


def trace(janostab, workload, specs, inject_fault: bool, tag: str) -> dict:
    """Untraced and traced passes over one fixed op list, interleaved.

    Counts must repeat exactly between the two traced passes.
    """
    tally = Tally()
    pass_s = {"plain": 0.0, "traced": 0.0}
    layer_runs = []
    spans_path = OUT_DIR / f"spans-{tag}.jsonl"
    spans_path.unlink(missing_ok=True)
    for traced in (False, True, False, True):
        tracer = Tracer()
        if traced:
            tracer.install(janostab)
        try:
            for op_id, spec in enumerate(specs):
                with tracer.op(op_id):
                    elapsed, reason = run_op(workload, spec, inject_fault)
                tally.add(spec, elapsed, reason)
                pass_s["traced" if traced else "plain"] += elapsed
        finally:
            tracer.uninstall()
        if traced:
            layer_runs.append(tracer.layer_metrics())
            tracer.write_spans(spans_path, f"pass{len(layer_runs)}")
    first, second = layer_runs
    mismatched = [k for k in first if not k.endswith(".self_s") and first[k] != second[k]]
    metrics = {
        k: (v + second[k]) / 2 if k.endswith(".self_s") else v for k, v in first.items()
    }
    metrics["trace.overhead_frac"] = 1.0 - pass_s["plain"] / pass_s["traced"]
    doc = tally.as_dict()
    metrics["failed_frac"] = doc["failed"] / doc["attempted"]
    doc["metrics"] = metrics
    doc["counts_repeat"] = not mismatched
    doc["count_mismatches"] = mismatched
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    janostab = import_package()
    workload = WORKLOADS[args.workload](janostab)

    warm_spec = workload.warmup()
    try:
        warm_out = workload.run(warm_spec)
        workload.check(warm_spec, warm_out)
        if hasattr(workload, "check_warmup"):
            workload.check_warmup(warm_out)
        warm_ok = True
    except Exception:
        traceback.print_exc()
        warm_ok = False
    print(f"READY {int(warm_ok)}", flush=True)
    if args.mode == "setup":
        return 0

    rng = random.Random(f"{workload.name}:{args.seed}")
    specs = workload.schedule(rng)
    if args.mode == "measure":
        if args.max_ops is not None:
            specs = (s for _, s in zip(range(args.max_ops), specs))
        doc = measure(workload, specs, args.seconds, args.inject_fault)
    else:
        count = workload.trace_ops if args.max_ops is None else args.max_ops
        fixed = [s for _, s in zip(range(count), specs)]
        OUT_DIR.mkdir(exist_ok=True)
        doc = trace(janostab, workload, fixed, args.inject_fault, f"{workload.name}-{args.seed}")
    doc["warmup_ok"] = warm_ok
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
