"""The outputs check: compares committed views, never raw log bytes.

A committed view maps each trial to its records (every field) and its exit
status, as the program rebuilds them from the log. Timestamps, thread
interleaving and run ids do not enter it. Each function returns a list of
error strings; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

from selfevolve import engine, markov
from selfevolve.answers import extract_answer
from selfevolve.backend import MockBackendProvider
from selfevolve.engine import COMPLETED, PromptSet
from selfevolve.reports import write_run_reports

RERUN_SAMPLE = 6
SIGMAS = 5.0


def committed_view(states: dict) -> dict:
    return {tid: ([r.to_dict() for r in st.records], st.status)
            for tid, st in states.items()}


def _rerun(spec, config, problem, run_seed: int, trial_index: int):
    """The trial run in-process on a fresh mock, with no store."""
    mock = MockBackendProvider(spec).for_problem(problem)
    state = engine.run_trial(
        config, mock, problem.statement, PromptSet(),
        engine.trial_seed(run_seed, problem.problem_id, trial_index),
        problem_id=problem.problem_id, trial_index=trial_index)
    return [r.to_dict() for r in state.records], state.status


def _within(hits: int, total: int, p: float) -> bool:
    return abs(hits / total - p) <= SIGMAS * math.sqrt(p * (1 - p) / total) + 1e-12


def check_dser(states: dict, run_seed: int, problems, spec, config,
               k: int, backend_calls: int) -> list[str]:
    """Fixed-horizon run on the mock: shape, call count, Avg@n law, re-runs."""
    n_iter = config.max_iterations
    errors = []
    for tid, st in sorted(states.items()):
        if [r.index for r in st.records] != list(range(n_iter + 1)):
            errors.append(f"{tid}: {len(st.records)} records, want {n_iter + 1} contiguous")
        if any(r.failure is not None for r in st.records):
            errors.append(f"{tid}: a record carries a failure")
        if st.status != COMPLETED:
            errors.append(f"{tid}: status {st.status}")
        for r in st.records:
            key = extract_answer(r.solution_text)
            if r.answer != (key.canonical if key else None):
                errors.append(f"{tid}: record {r.index} answer {r.answer!r} "
                              f"disagrees with its solution")
    want_calls = len(problems) * k * (1 + 2 * n_iter)
    if backend_calls != want_calls:
        errors.append(f"backend made {backend_calls} calls, want {want_calls}")
    if errors:
        return errors

    truth = {p.problem_id: p.answer.canonical for p in problems}
    start = markov.StateDistribution(spec.initial_correct_probability,
                                     1 - spec.initial_correct_probability)
    for n in range(n_iter + 1):
        p = markov.evolve_distribution(spec.transition, start, n).pi_c
        hits = sum(st.records[n].answer == truth[tid[0]] for tid, st in states.items())
        if not _within(hits, len(states), p):
            errors.append(f"Avg@{n} = {hits / len(states):.4f}, chain law {p:.4f}")

    by_id = {p.problem_id: p for p in problems}
    view = committed_view(states)
    for tid in random.Random(run_seed).sample(sorted(states), RERUN_SAMPLE):
        if _rerun(spec, config, by_id[tid[0]], run_seed, tid[1]) != view[tid]:
            errors.append(f"{tid}: committed records differ from an in-process re-run")
    return errors


def check_equals_inprocess(states: dict, run_seed: int, problems, spec,
                           config, k: int) -> list[str]:
    """Every trial's committed view equals the same trial run in-process."""
    view = committed_view(states)
    errors = []
    for problem in problems:
        for t in range(k):
            tid = (problem.problem_id, t)
            if view.get(tid) != _rerun(spec, config, problem, run_seed, t):
                errors.append(f"{tid}: committed view differs from the in-process run")
    return errors


def _csv_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def check_resumed(report_dir: Path, resumed: list[tuple], out_dir: Path) -> list[str]:
    """Reports of each resumed copy, (store, run_id), are byte-identical to
    the uninterrupted run's."""
    want = _csv_files(report_dir)
    errors = []
    for i, (store, run_id) in enumerate(resumed):
        got_dir = out_dir / f"resumed-{i}"
        try:
            write_run_reports(store, run_id, got_dir)
        except Exception as e:  # the program rejecting the copy is a failed check
            errors.append(f"resumed copy {i}: reports failed: {type(e).__name__}: {e}")
            continue
        if _csv_files(got_dir) != want:
            errors.append(f"resumed copy {i}: metrics CSVs differ from the uninterrupted run")
    return errors


def avg_counts(states: dict, problems) -> dict[str, list[tuple[int, int]]]:
    """Per problem and iteration, (trials answering correctly, trials), counted
    from the committed view; a trial that exited early keeps its final answer."""
    counts = {}
    for problem in problems:
        trials = [st for tid, st in states.items() if tid[0] == problem.problem_id]
        counts[problem.problem_id] = [
            (sum(st.records[min(n, len(st.records) - 1)].answer == problem.answer.canonical
                 for st in trials), len(trials))
            for n in range(max(len(st.records) for st in trials))]
    return counts


def check_avg_column(counts: dict, report_dir: Path) -> list[str]:
    """The avg_at_k column of each metrics CSV equals the counted fraction."""
    errors = []
    for pid, expected in counts.items():
        with open(report_dir / f"metrics_{pid}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(expected):
            errors.append(f"{pid}: {len(rows)} metric rows, want {len(expected)}")
            continue
        for n, (row, (hits, total)) in enumerate(zip(rows, expected)):
            if float(row["avg_at_k"]) != hits / total:
                errors.append(f"{pid}: avg_at_k[{n}] = {row['avg_at_k']}, counted {hits}/{total}")
    return errors


def check_sampler(outcomes: list[tuple], chain) -> list[str]:
    """Correct-exit fraction of step-level samples (no reject limit, start
    Incorrect) against the absorption law."""
    p = markov.absorption_probabilities(chain, "S2").p_correct_exit
    hits = sum(kind == "Accepted" and correct for kind, correct in outcomes)
    if not _within(hits, len(outcomes), p):
        return [f"sampler correct-exit fraction {hits / len(outcomes):.4f}, law {p:.4f}"]
    return []
