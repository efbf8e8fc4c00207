"""Benchmark entry point.

    python3 bench/run.py --workload dser_run --seed 1 --seconds 15 --trace 0

Imports the program from src/ next to this directory, then sets up and
runs measured passes until --seconds of stage time have been measured,
checking every pass's outputs. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end figures, pooled over passes;
with --trace 1 they are per-layer figures from traced passes, and spans are
written to .bench_work/spans/<workload>.jsonl at exit. Exits 1 if any outputs check fails,
2 if the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def environment(work: Path) -> dict:
    import numpy

    mounts = []
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mounts.append((fields[1], fields[2]))
    real = str(work.resolve())
    fs = max((m for m in mounts if real == m[0] or real.startswith(m[0].rstrip("/") + "/")),
             key=lambda m: len(m[0]), default=(None, "unknown"))[1]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(), "run_dir_fs": fs}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
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


def measured(passes: list[dict]) -> float:
    return sum(p["measured_s"] for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Run the clean-up in finally (stopping the stub) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "selfevolve" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        print(json.dumps({"environment": environment(work)}), flush=True)
        setup_times = []
        # With tracing, the first half of the time runs untraced passes and
        # the second half traced ones; their difference is the overhead.
        tracer = tracing.Tracer() if args.trace else None
        budget = args.seconds / 2 if tracer else args.seconds
        plain, traced, errors = [], [], []
        phases = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        for passes, pass_tracer in phases:
            while not passes or measured(passes) < budget:
                rep = len(plain) + len(traced)
                # Set-up is repeated before every pass, so that its samples
                # spread over the run like the passes' do.
                t0 = time.perf_counter()
                wl.setup(rep)
                setup_times.append(time.perf_counter() - t0)
                out, errs = workloads.measure_pass(wl, rep, pass_tracer)
                passes.append(out)
                errors += errs

        if tracer is None:
            metrics = {name: {"value": value, "unit": workloads.UNITS[name]}
                       for name, value in workloads.end_to_end(wl, plain, setup_times).items()}
        else:
            stub = None
            if wl.over_http:
                stub = {key: [v for p in traced for v in p["stub"][key]]
                        for key in ("service_s", "mock_self_us")}
            layer = tracing.layer_metrics(tracer, stub)
            layer["store.bytes_per_event"] = statistics.median(
                p["log_bytes"] / p["events"] for p in plain + traced)
            layer["trace.overhead_pct"] = 100 * (
                statistics.median(p["measured_s"] for p in traced)
                / statistics.median(p["measured_s"] for p in plain) - 1)
            metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                       for name, value in layer.items()}
            spans = WORK / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.write(spans / f"{args.workload}.jsonl")
        passes = plain + traced
        attempted = sum(p["attempts"] for p in passes)
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": attempted - sum(p["successes"] for p in passes),
            "metrics": metrics,
        }))
        return 1 if errors else 0
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
