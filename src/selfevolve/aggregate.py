"""Per-iteration accuracy metrics of one problem's trials, read off its answer
table.

The table holds each trial's answer (its canonical string, or None) at every
iteration that all the problem's trials have reached; a trial that has exited
keeps its last answer. Avg@K is the fraction of a column that matches the
ground truth (a missing answer counts as incorrect). Cons@K is the
correctness of the column's majority vote; its windowed form pools the
trailing WINDOW columns of every trial. All functions are pure over committed
trial data.
"""

from __future__ import annotations

from collections import Counter

from .answers import AnswerKey
from .engine import ACCEPTED_EXIT, REJECTED_EXIT, VERDEP, TrialState

WINDOW = 10
EXITED = (ACCEPTED_EXIT, REJECTED_EXIT)


def majority_vote(answers: list[str | None]) -> str | None:
    """The most frequent answer, ties broken by first appearance; None when
    no answer is present."""
    counts = Counter(a for a in answers if a is not None)
    return counts.most_common(1)[0][0] if counts else None


def answer_table(trials: list[TrialState]) -> list[list[str | None]]:
    """Each trial's answers at the iterations every trial has reached, in one
    pass over the records. An exited trial has reached them all."""
    horizon = min((len(t.records) for t in trials if t.status not in EXITED),
                  default=max(len(t.records) for t in trials))
    table = []
    for t in trials:
        answers = [r.answer for r in t.records[:horizon]]
        table.append(answers + answers[-1:] * (horizon - len(answers)))
    return table


def metric_rows(trials: list[TrialState], truth: AnswerKey) -> list[dict]:
    """One row per column of the answer table: avg_at_k and cons_at_k; from
    column WINDOW-1 on, avg_windowed and cons_windowed over the trailing
    WINDOW columns; and, when every trial is VERDEP, the fractions of trials
    accepted, rejected and still running at that iteration."""
    table = answer_table(trials)
    truth = truth.canonical
    k = len(trials)
    exits = ([(t.status, len(t.records) - 1) for t in trials if t.status in EXITED]
             if all(t.controller == VERDEP for t in trials) else None)
    hits: list[int] = []
    rows = []
    for n in range(len(table[0])):
        column = [answers[n] for answers in table]
        hits.append(column.count(truth))
        row = {"iteration": n, "avg_at_k": hits[n] / k,
               "cons_at_k": int(majority_vote(column) == truth)}
        if n >= WINDOW - 1:
            pool = [a for answers in table for a in answers[n - WINDOW + 1:n + 1]]
            row["avg_windowed"] = sum(hits[-WINDOW:]) / len(pool)
            row["cons_windowed"] = int(majority_vote(pool) == truth)
        if exits is not None:
            accepted = sum(status == ACCEPTED_EXIT and at <= n for status, at in exits)
            rejected = sum(status == REJECTED_EXIT and at <= n for status, at in exits)
            row.update(accepted_ratio=accepted / k, rejected_ratio=rejected / k,
                       running_ratio=(k - accepted - rejected) / k)
        rows.append(row)
    return rows
