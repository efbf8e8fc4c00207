"""Post-hoc analysis: recompute all metrics from a run's event log and write
CSV tables and SVG charts. Everything here is a pure function of the log, so
analyzing twice produces byte-identical artifacts."""

from __future__ import annotations

import csv
from pathlib import Path

from .aggregate import (exit_ratio_series, metric_rows, pooled_table_metrics,
                        write_metrics_csv)
from .answers import normalize_answer
from .charts import write_line_chart
from .engine import VERDEP
from .store import RunStore


FINAL_WINDOW = 10


def write_run_reports(store: RunStore, run_id: str, out_dir: str | Path,
                      window: int = 10) -> list[Path]:
    """Write per-problem metric CSVs/charts, exit ratios for VERDEP trials, and
    the pooled summary table over the last FINAL_WINDOW iterations."""
    manifest, states = store.load_run(run_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    pooled_rows = []
    for problem in manifest["problems"]:
        pid = problem["id"]
        trials = [st for tid, st in sorted(states.items()) if tid[0] == pid]
        if problem["answer"] is None:
            continue
        truth = normalize_answer(problem["answer"])
        rows = metric_rows(trials, truth, window=window)

        csv_path = out / f"metrics_{pid}.csv"
        write_metrics_csv(csv_path, rows)
        written.append(csv_path)

        series = {
            "avg_at_k": [(r["iteration"], r["avg_at_k"]) for r in rows],
            "cons_at_k": [(r["iteration"], r["cons_at_k"]) for r in rows],
            "cons_windowed": [
                (r["iteration"], r["cons_windowed"])
                for r in rows if r["cons_windowed"] != ""
            ],
        }
        series = {k: v for k, v in series.items() if v}
        chart_path = out / f"metrics_{pid}.svg"
        write_line_chart(chart_path, series, title=f"accuracy over iterations: {pid}")
        written.append(chart_path)

        if all(t.controller == VERDEP for t in trials):
            exits = exit_ratio_series(trials)
            exit_path = out / f"exit_ratios_{pid}.csv"
            with open(exit_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(
                    fh, fieldnames=["iteration", "accepted_ratio",
                                    "rejected_ratio", "running_ratio"])
                writer.writeheader()
                writer.writerows(exits)
            written.append(exit_path)
            exit_chart = out / f"exit_ratios_{pid}.svg"
            write_line_chart(exit_chart, {
                "accepted": [(r["iteration"], r["accepted_ratio"]) for r in exits],
                "rejected": [(r["iteration"], r["rejected_ratio"]) for r in exits],
                "running": [(r["iteration"], r["running_ratio"]) for r in exits],
            }, title=f"exit ratios: {pid}")
            written.append(exit_chart)

        min_len = min(len(t.records) for t in trials)
        if min_len >= FINAL_WINDOW:
            avg_pooled, cons_pooled = pooled_table_metrics(
                trials, truth, final_window=FINAL_WINDOW)
            pooled_rows.append({"problem": pid, "avg_pooled": avg_pooled,
                                "cons_pooled": cons_pooled})

    if pooled_rows:
        pooled_path = out / "pooled_table.csv"
        with open(pooled_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["problem", "avg_pooled",
                                                    "cons_pooled"])
            writer.writeheader()
            writer.writerows(pooled_rows)
        written.append(pooled_path)
    return written
