"""Compare two sets of benchmark results.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds result lines (the last stdout line of bench/run.py), one per
run, all of one workload. For every metric the script prints each side's
median and quartile spread (distance between the quartiles as a share of
the median), the change of the median, and whether the change is worse than
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            for name, metric in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main() -> int:
    before, after = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_than_bound = False
    print(f"{'metric':44s} {'before':>12s} {'spread':>7s} {'after':>12s} {'spread':>7s} {'change':>8s}")
    for name in sorted(set(before) & set(after)):
        (b, bs), (a, as_) = summary(before[name]), summary(after[name])
        change = (a - b) / abs(b) if b else float("nan")
        m = declared.get(name, {})
        flag = ""
        if "bound" in m:
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                flag, worse_than_bound = "  WORSE THAN BOUND", True
        print(f"{name:44s} {b:12.5g} {bs:7.3f} {a:12.5g} {as_:7.3f} {change:+8.2%}{flag}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
