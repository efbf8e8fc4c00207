"""Resume check for VERDEP runs, cut where a trial has exited early.

    python3 bench/verdep_resume.py

Writes a verdep_http-shaped run on the mock in-process, then, for each trial
that exited on its accept or reject limit, cuts a copy of the log just
before that trial's TrialExited event, resumes it and compares the trial's
committed view with the uninterrupted run's. Prints one line per differing
trial and exits 1 if any differs, 0 if every resumed trial matches.

The timed benchmark resumes DSER runs only, because this case fails at the
commit that added the benchmark: run_verdep_trial enters its loop without
testing the streaks it rebuilt, so the resumed trial runs past its exit.
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
from selfevolve import engine  # noqa: E402
from selfevolve.backend import MockBackendProvider  # noqa: E402
from selfevolve.engine import COMPLETED, PromptSet  # noqa: E402
from selfevolve.store import RunStore  # noqa: E402

SEED = 5


def main() -> int:
    work = ROOT / ".bench_work" / f"verdep-resume-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(work: Path) -> int:
    wl = workloads.VerdepHttp
    spec = workloads.mock_spec_from_dict(wl.mock)
    problems = workloads.make_problems(SEED, wl.n_problems)
    store = RunStore(work / "run")
    run_id = engine.run_experiment(problems, wl.k, wl.config, MockBackendProvider(spec),
                                   PromptSet(), SEED, store, parallelism=1, run_id="run",
                                   store_sync="flush")
    _, states = store.load_run(run_id)
    want = check.committed_view(states)
    lines = (store.root / run_id / "events.log").read_bytes().splitlines(keepends=True)

    differing = exits = 0
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event["kind"] != "TrialExited" or event["payload"]["status"] == COMPLETED:
            continue
        exits += 1
        tid = tuple(event["trial"])
        root = work / f"cut-{i}"
        (root / run_id).mkdir(parents=True)
        shutil.copy(store.root / run_id / "manifest.json", root / run_id / "manifest.json")
        (root / run_id / "events.log").write_bytes(b"".join(lines[:i]))
        copy = RunStore(root)
        engine.resume_experiment(copy, run_id, MockBackendProvider(spec),
                                 parallelism=1, store_sync="flush")
        got = check.committed_view(copy.load_run(run_id)[1])
        if got[tid] != want[tid]:
            differing += 1
            print(f"{tid}: resumed {len(got[tid][0])} records, status {got[tid][1]}; "
                  f"uninterrupted {len(want[tid][0])} records, status {want[tid][1]}")
    print(f"{differing} of {exits} early-exited trials differ after resume")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
