"""The benchmark runs this source tree through a frozen API: its two
self-checks must pass, every attribute its tracer patches must exist and be
looked up when a run calls it, and a traced pass must read every layer."""

import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

from selfevolve import backend, engine, store
from selfevolve.backend import MockBackendProvider, mock_spec_from_dict

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("script", ["selftest.py", "verdep_resume.py"])
def test_bench_check_passes(script):
    result = subprocess.run([sys.executable, str(BENCH / script)], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_bench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attribute, span, _ in tracing.PATCHES:
        assert callable(getattr(owner, attribute, None)), f"{span}: {owner.__name__}.{attribute}"


def test_trace_patch_points_are_reached(tmp_path, monkeypatch):
    # the tracer patches module attributes, so a hot path that bound one of
    # them locally would leave its span empty and its per-layer metrics unread
    counts = {}

    def count(owner, attribute):
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            counts[attribute, owner.__name__] += 1
            return original(*args, **kwargs)

        counts[attribute, owner.__name__] = 0
        monkeypatch.setattr(owner, attribute, counted)

    for owner, attribute in ((engine, "derive_seed"), (engine, "extract_answer"),
                             (backend, "extract_answer"), (engine, "run_trial"),
                             (store.RunLog, "append")):
        count(owner, attribute)
    spec = mock_spec_from_dict({"ground_truth": "60", "initial_correct_probability": 0.5,
                                "p_ic": 0.3, "p_ci": 0.1})
    engine.run_experiment([engine.Problem("p0", "what is 59+1?", spec.ground_truth)], 1,
                          engine.ControllerConfig(max_iterations=3), MockBackendProvider(spec),
                          engine.PromptSet(), 5, store.RunStore(tmp_path), store_sync="flush")
    assert all(counts.values()), counts


def test_bench_traced_pass_reads_every_layer(tmp_path, monkeypatch):
    # one traced pass of dser_run shrunk to 1 problem x K=8 x 3 iterations: a
    # change that leaves a patch target callable but breaks the count its span
    # holds (the kind RunLog.append is given, say) fails a check or a metric
    monkeypatch.syspath_prepend(str(BENCH))
    check, tracing, workloads = map(importlib.import_module, ("check", "tracing", "workloads"))

    class SmallDserRun(workloads.DserRun):
        n_problems, k = 1, 8
        config = engine.ControllerConfig(kind="dser", max_iterations=3)

    assert SmallDserRun.k >= check.RERUN_SAMPLE  # the trials the check re-runs
    wl = SmallDserRun(7, tmp_path)
    wl.problems = workloads.make_problems(wl.seed, wl.n_problems)
    tracer = tracing.Tracer()
    _, errors = workloads.measure_pass(wl, 0, tracer)
    assert errors == []
    metrics = tracing.layer_metrics(tracer, None)
    assert len(metrics) == 24
    assert all(math.isfinite(value) for value in metrics.values()), metrics



def test_bench_traced_http_pass_reads_every_layer(tmp_path, monkeypatch):
    # one traced pass of verdep_http shrunk to 1 problem x K=4, budget 6 and
    # A=R=2, against the loopback stub: the HTTP path's spans and the stub's
    # own timings must feed every layer's metric
    monkeypatch.syspath_prepend(str(BENCH))
    tracing, workloads = map(importlib.import_module, ("tracing", "workloads"))

    class SmallVerdepHttp(workloads.VerdepHttp):
        n_problems, k = 1, 4
        config = engine.ControllerConfig(kind="verdep", max_iterations=6, accept_limit=2,
                                         reject_limit=2)

    wl = SmallVerdepHttp(7, tmp_path)
    try:
        wl.setup(0)
        tracer = tracing.Tracer()
        out, errors = workloads.measure_pass(wl, 0, tracer)
    finally:
        if hasattr(wl, "http"):  # the backend's keep-alive sockets
            wl.http.close()
        wl.close()
    assert errors == []
    metrics = tracing.layer_metrics(tracer, out["stub"])
    assert len(metrics) == 24
    assert all(math.isfinite(value) for value in metrics.values()), metrics
