"""Post-hoc analysis: recompute all metrics from a run's event log and write
CSV tables and SVG charts. Everything here is a pure function of the log, so
analyzing twice produces byte-identical artifacts. A run still in progress is
reported up to the iteration that all of a problem's trials have reached."""

from __future__ import annotations

import csv
from pathlib import Path

from .aggregate import WINDOW, metric_rows
from .charts import write_line_chart
from .engine import run_inputs
from .store import RunStore

METRIC_COLUMNS = ["iteration", "avg_at_k", "cons_at_k", "cons_windowed",
                  "accepted_ratio", "rejected_ratio"]
EXIT_COLUMNS = ["iteration", "accepted_ratio", "rejected_ratio", "running_ratio"]
POOLED_COLUMNS = ["problem", "avg_pooled", "cons_pooled"]


def write_metrics_csv(path, rows: list[dict], columns: list[str]) -> None:
    """The given columns of rows; a column a row lacks is left empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _series(rows: list[dict], column: str) -> list[tuple]:
    return [(r["iteration"], r[column]) for r in rows if column in r]


def write_run_reports(store: RunStore, run_id: str, out_dir: str | Path) -> list[Path]:
    """For each problem with a committed iteration, its metric CSV and chart,
    and its exit ratios when its trials are VERDEP; then the pooled table over
    the last WINDOW iterations of each problem that has that many."""
    manifest, states = store.load_run(run_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def table(name, rows, columns):
        write_metrics_csv(out / name, rows, columns)
        written.append(out / name)

    def chart(name, series, title):
        write_line_chart(out / name, {k: v for k, v in series.items() if v}, title=title)
        written.append(out / name)

    pooled = []
    for pid, problem in run_inputs(manifest).problems.items():
        if problem.answer is None:
            continue
        trials = [st for tid, st in sorted(states.items()) if tid[0] == pid]
        rows = metric_rows(trials, problem.answer)
        if not rows:
            continue
        table(f"metrics_{pid}.csv", rows, METRIC_COLUMNS)
        chart(f"metrics_{pid}.svg",
              {c: _series(rows, c) for c in ("avg_at_k", "cons_at_k", "cons_windowed")},
              f"accuracy over iterations: {pid}")
        if "running_ratio" in rows[0]:
            table(f"exit_ratios_{pid}.csv", rows, EXIT_COLUMNS)
            chart(f"exit_ratios_{pid}.svg",
                  {e: _series(rows, f"{e}_ratio") for e in ("accepted", "rejected", "running")},
                  f"exit ratios: {pid}")
        if len(rows) >= WINDOW:
            pooled.append({"problem": pid, "avg_pooled": rows[-1]["avg_windowed"],
                           "cons_pooled": rows[-1]["cons_windowed"]})
    if pooled:
        table("pooled_table.csv", pooled, POOLED_COLUMNS)
    return written
