"""Self-tests of the outputs check.

    python3 bench/selftest.py

Writes a small dser run and shows that the check passes on it and fails on
each corruption: a mutated answer, a run made with another seed, and a log
cut mid-record that has not been resumed. Exits 0 only if every case
behaves as stated.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from selfevolve.reports import write_run_reports  # noqa: E402
from selfevolve.store import RunStore  # noqa: E402

RUN_SEED = 11


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cases(work: Path) -> int:
    wl = workloads.DserRun(seed=7, work=work)
    wl.k = 4
    wl.setup(0)

    def write(name: str, run_seed: int):
        before = wl.attempts()
        run = wl.write_run(work / name, run_seed)
        return run, wl.attempts() - before

    def dser_errors(run, calls) -> list[str]:
        _, states = run.store.load_run(run.run_id)
        return wl.check_run(run, states, calls)

    clean, calls = write("clean", RUN_SEED)
    reports = work / "reports"
    write_run_reports(clean.store, clean.run_id, reports)

    shutil.copytree(clean.store.root, work / "mutated")
    mutated = workloads.Run(RunStore(work / "mutated"), clean.run_id, RUN_SEED)
    log = mutated.store.root / mutated.run_id / "events.log"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event["kind"] == "IterationCommitted" and event["payload"]["record"]["index"] == 20:
            event["payload"]["record"]["answer"] = "424242"
            lines[i] = json.dumps(event, separators=(",", ":")) + "\n"
            break
    log.write_text("".join(lines), encoding="utf-8")

    other, other_calls = write("other", RUN_SEED + 1)
    other = workloads.Run(other.store, other.run_id, RUN_SEED)
    cut = workloads.cut_copies(clean, (0.6,), work / "cut")[0]

    # (case, errors the check reported, whether it should report any)
    cases = [
        ("clean run passes", dser_errors(clean, calls), False),
        ("mutated answer fails", dser_errors(mutated, calls), True),
        ("run made with another seed fails", dser_errors(other, other_calls), True),
        ("log cut mid-record, not resumed, fails the run check",
         dser_errors(cut, calls), True),
        ("log cut mid-record, not resumed, fails the reports check",
         check.check_resumed(reports, [(cut.store, cut.run_id)], work), True),
    ]
    ok = True
    for name, errors, expect_errors in cases:
        passed = bool(errors) == expect_errors
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}" + (f"  ({errors[0]})" if errors else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
