"""Spans around the program's public boundaries, installed from outside.

The tracer patches module attributes of the program for the duration of a
timed stage and restores them afterwards; nothing inside the program changes.
Spans stay in memory as tuples and are written out once, at exit.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

from selfevolve import backend, engine, markov, reports, store

# (module, attribute, span name, count(args, result) or None). A count is a
# number of items the call handled, stored with its span.
PATCHES = [
    (engine, "derive_seed", "seeds.derive_seed", None),
    (engine, "extract_answer", "answers.extract_answer", None),
    (backend, "extract_answer", "answers.extract_answer", None),
    (engine, "run_trial", "engine.trial", None),
    (engine, "resume_experiment", "engine.resume", None),
    (engine, "rebuild_trial_states", "engine.rebuild", lambda a, r: len(a[1])),
    (store.RunLog, "append", "store.append",
     lambda a, r: int(a[1] == "IterationCommitted")),
    (store.RunStore, "events", "store.events", None),
    (store.RunStore, "load_run", "store.load_run", None),
    (store, "_read_events", "store.read_log", lambda a, r: len(r[0])),
    (reports, "write_run_reports", "reports.analyze", None),
    (reports, "metric_rows", "aggregate.metric_rows",
     lambda a, r: len(a[0]) * len(r)),
    (reports, "write_line_chart", "reports.chart", None),
    (reports, "write_metrics_csv", "reports.csv", None),
    (markov, "simulate_verdep_chain", "markov.sample", None),
]


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a span with no parent on its thread
    name: str
    thread: int
    stage: str  # "<pass>:<stage>"
    start_ns: int
    end_ns: int
    count: int | None


class Tracer:
    """Collects spans from wrapped calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stage = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            n = count(args, result) if count is not None else None
            spans.append(Span(sid, parent, name, threading.get_ident(), self.stage, t0, t1, n))
            return result

        return traced

    @contextmanager
    def active(self, stage: str):
        """Trace one stage, named "<rep>:<stage>": patch every boundary and
        restore them on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        self.stage = stage
        try:
            for (owner, attr, name, count), (_, _, original) in zip(PATCHES, saved):
                setattr(owner, attr, self.wrap(name, original, count))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class TracedBackend:
    """Wraps one backend object; spans each reasoning call."""

    def __init__(self, tracer: Tracer, inner):
        self.reasoning_call = tracer.wrap("backend.call", inner.reasoning_call)


class WrappedProvider:
    """A provider whose per-problem backends pass through wrap(backend)."""

    def __init__(self, inner, wrap):
        self._inner, self._wrap, self._cache = inner, wrap, {}

    def for_problem(self, problem):
        if problem.problem_id not in self._cache:
            self._cache[problem.problem_id] = self._wrap(self._inner.for_problem(problem))
        return self._cache[problem.problem_id]


UNITS = {
    "seeds.derive_seed_calls_per_iteration": "count",
    "seeds.derive_seed_us": "us",
    "answers.extract_answer_calls_per_iteration": "count",
    "answers.extract_answer_us": "us",
    "backend.calls_per_iteration": "count",
    "backend.mock_call_self_us": "us",
    "backend.http_call_ms_p50": "ms",
    "backend.http_call_ms_p99": "ms",
    "backend.http_overhead_ms_p50": "ms",
    "backend.attempts_per_call": "count",
    "engine.self_us_per_iteration": "us",
    "engine.slot_gap_ms_p50": "ms",
    "engine.slot_gap_ms_p99": "ms",
    "engine.rebuild_us_per_event": "us",
    "store.events_per_iteration": "count",
    "store.bytes_per_event": "B",
    "store.append_us_p50": "us",
    "store.append_us_p99": "us",
    "store.load_run_s": "s",
    "store.read_us_per_event": "us",
    "store.log_reads_per_resume": "count",
    "aggregate.us_per_trial_iteration": "us",
    "reports.chart_s": "s",
    "reports.csv_s": "s",
    "markov.sampler_us_per_sample": "us",
    "trace.overhead_pct": "%",
}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, stub_stats: dict | None) -> dict[str, float]:
    """Per-layer figures derived from the spans of traced stages.

    Per-iteration ratios and backend figures use the experiment stage, the
    write in the workload's own regime; read and analysis figures use every
    stage. stub_stats holds
    the stub's service and mock times for requests made while tracing, or
    None for in-process workloads. Each request the stub served is one
    attempt.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    children_ns: dict[int, int] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            children_ns[s.parent] = children_ns.get(s.parent, 0) + s.end_ns - s.start_ns

    def dur_us(s):
        return (s.end_ns - s.start_ns) / 1e3

    def self_us(s):
        return (s.end_ns - s.start_ns - children_ns.get(s.id, 0)) / 1e3

    def writing(name):
        return [s for s in by_name.get(name, []) if s.stage.endswith(":experiment")]

    iterations = sum(s.count for s in writing("store.append"))
    calls = writing("backend.call")
    call_ms = [dur_us(s) / 1e3 for s in calls]

    gaps_ms = []
    per_worker: dict[tuple, list[Span]] = {}
    for s in calls:
        per_worker.setdefault((s.stage, s.thread), []).append(s)
    for worker_calls in per_worker.values():
        worker_calls.sort(key=lambda s: s.start_ns)
        gaps_ms += [(b.start_ns - a.end_ns) / 1e6 for a, b in zip(worker_calls, worker_calls[1:])]

    if stub_stats is not None:
        mock_self = statistics.median(stub_stats["mock_self_us"])
        service_ms = statistics.median(stub_stats["service_s"]) * 1e3
        attempts = len(stub_stats["service_s"])
    else:
        mock_self = statistics.median(self_us(s) for s in calls)
        service_ms = mock_self / 1e3
        attempts = len(calls)

    reads = by_name["store.read_log"]
    rebuilds = by_name["engine.rebuild"]
    rows = by_name["aggregate.metric_rows"]
    resumes = by_name["engine.resume"]
    parents = {s.id: s.parent for s in spans}
    resume_ids = {s.id for s in resumes}

    def under_resume(s):
        p = s.parent
        while p >= 0:
            if p in resume_ids:
                return True
            p = parents.get(p, -1)
        return False

    analyses = len(by_name["reports.analyze"])
    return {
        "seeds.derive_seed_calls_per_iteration": len(writing("seeds.derive_seed")) / iterations,
        "seeds.derive_seed_us": statistics.median(map(dur_us, by_name["seeds.derive_seed"])),
        "answers.extract_answer_calls_per_iteration":
            len(writing("answers.extract_answer")) / iterations,
        "answers.extract_answer_us":
            statistics.median(map(dur_us, by_name["answers.extract_answer"])),
        "backend.calls_per_iteration": len(calls) / iterations,
        "backend.mock_call_self_us": mock_self,
        "backend.http_call_ms_p50": _pct(call_ms, 0.50),
        "backend.http_call_ms_p99": _pct(call_ms, 0.99),
        "backend.http_overhead_ms_p50": _pct(call_ms, 0.50) - service_ms,
        "backend.attempts_per_call": attempts / len(calls),
        "engine.self_us_per_iteration": sum(map(self_us, writing("engine.trial"))) / iterations,
        "engine.slot_gap_ms_p50": _pct(gaps_ms, 0.50),
        "engine.slot_gap_ms_p99": _pct(gaps_ms, 0.99),
        "engine.rebuild_us_per_event":
            sum(map(dur_us, rebuilds)) / sum(s.count for s in rebuilds),
        "store.events_per_iteration": len(writing("store.append")) / iterations,
        "store.append_us_p50": _pct([dur_us(s) for s in writing("store.append")], 0.50),
        "store.append_us_p99": _pct([dur_us(s) for s in writing("store.append")], 0.99),
        "store.load_run_s": statistics.median(dur_us(s) / 1e6 for s in by_name["store.load_run"]),
        "store.read_us_per_event": sum(map(dur_us, reads)) / sum(s.count for s in reads),
        "store.log_reads_per_resume": sum(map(under_resume, reads)) / len(resumes),
        "aggregate.us_per_trial_iteration": sum(map(dur_us, rows)) / sum(s.count for s in rows),
        "reports.chart_s": sum(map(dur_us, by_name["reports.chart"])) / 1e6 / analyses,
        "reports.csv_s": sum(map(dur_us, by_name["reports.csv"])) / 1e6 / analyses,
        "markov.sampler_us_per_sample":
            statistics.median(map(dur_us, by_name["markov.sample"])),
    }
