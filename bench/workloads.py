"""The workloads and the measured pass they share.

Every pass runs the same stages: write a run (experiment), write its reports
(analyze), finish copies of a DSER run cut at late crash points (resume),
and sample the verdict-gated chain (sample). The workloads differ in the
regime the write runs in:

- dser_run: in-process and CPU-bound (mock, store_sync=flush).
- verdep_http: over loopback HTTP and bound by slot use (stub with a fixed
  delay, store_sync=always, the shipped default).
"""

from __future__ import annotations

import ctypes
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from selfevolve import engine, markov, reports
from selfevolve.answers import normalize_answer
from selfevolve.backend import (BackendConfig, HttpBackend, MockBackendProvider,
                                mock_spec_from_dict)
from selfevolve.engine import ControllerConfig, Problem, PromptSet
from selfevolve.store import RunStore

import check
from tracing import TracedBackend, WrappedProvider

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PARALLELISM = 2
CRASH_FRACTIONS = (0.85, 0.93, 0.99)
# write_run_reports is repeated until the stage has run this long in a pass,
# so that the small runs of verdep_http are timed over more than a few
# milliseconds.
ANALYZE_MIN_S = 1.5
# Crash-point copies are finished with flushed appends, so that reading and
# rebuilding the log, not fsync, set the resume time.
RESUME_SYNC = "flush"
# The chain behind `selfevolve simulate verdep`, without a reject limit so
# that the absorption law is exact; the budget is never reached in practice.
SAMPLER_CHAIN = markov.AbsorbingChainParams(alpha=0.3, beta=0.8, y_c0=0.9, y_i0=0.3,
                                            accept_limit=5)
SAMPLER_BUDGET = 10_000
SAMPLES = 30_000
STUB_DELAY_MS = 20
# glibc keeps freed heap memory, so the resident size would creep from pass
# to pass; malloc_trim hands it back. None where the C library lacks it.
MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)

DSER_MOCK = {"ground_truth": "0", "initial_correct_probability": 0.0,
             "p_ic": 0.3, "p_ci": 0.1, "alpha": 0.1, "beta": 0.9}
DSER_CONFIG = ControllerConfig(kind="dser", max_iterations=40)
VERDEP_MOCK = {"ground_truth": "0", "initial_correct_probability": 0.3,
               "p_ic": 0.3, "p_ci": 0.1, "alpha": 0.3, "beta": 0.8}
VERDEP_CONFIG = ControllerConfig(kind="verdep", max_iterations=30,
                                 accept_limit=5, reject_limit=10)


def run_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def make_problems(seed: int, count: int) -> list[Problem]:
    """Problems drawn from the seed; statements hold no blank line, because
    the HTTP backend joins context segments with one."""
    rng = random.Random(seed)
    return [Problem(f"p{i}",
                    f"Problem {i} of set {seed}: find the integer that the "
                    f"puzzle with code {rng.randrange(10**6)} encodes.",
                    normalize_answer(str(rng.randrange(1, 10_000))))
            for i in range(count)]


class Meter:
    """Wraps backends to count the calls that returned and the seconds
    workers spent inside calls."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def wrap(self, backend):
        call = backend.reasoning_call

        def metered(request):
            returned = False
            t0 = time.perf_counter()
            try:
                response = call(request)
                returned = True
                return response
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.seconds += elapsed
                    self.calls += returned

        return SimpleNamespace(reasoning_call=metered)


@dataclass
class Run:
    store: RunStore
    run_id: str
    run_seed: int


class Workload:
    """One workload's inputs and backend. Subclasses fix the shape."""

    name: str
    mock: dict
    config: ControllerConfig
    sync: str
    n_problems: int
    k: int
    over_http = False

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.spec = mock_spec_from_dict(self.mock)
        self.meter = Meter()

    def write_run(self, root: Path, run_seed: int, tracer=None) -> Run:
        store = RunStore(root)
        run_id = engine.run_experiment(
            self.problems, self.k, self.config, self.backend(tracer), PromptSet(),
            run_seed, store, parallelism=PARALLELISM, run_id="run", store_sync=self.sync)
        return Run(store, run_id, run_seed)

    def close(self) -> None:
        pass


class DserRun(Workload):
    name = "dser_run"
    mock = DSER_MOCK
    config = DSER_CONFIG
    sync = "flush"
    n_problems = 4
    k = 16

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.providers: list[MockBackendProvider] = []

    def setup(self, rep: int) -> None:
        """Start the program as a user would, then build the inputs."""
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); import selfevolve.cli"],
                       check=True)
        self.problems = make_problems(self.seed, self.n_problems)

    def backend(self, tracer):
        provider = MockBackendProvider(self.spec)
        self.providers.append(provider)
        metered = WrappedProvider(provider, self.meter.wrap)
        if tracer:
            return WrappedProvider(metered, lambda b: TracedBackend(tracer, b))
        return metered

    def attempts(self) -> int:
        return sum(pr.for_problem(p).call_count
                   for pr in self.providers for p in self.problems)

    def service_s(self) -> float:
        """Backend service time so far: the mock's time inside its calls."""
        return self.meter.seconds

    def check_run(self, run: Run, states: dict, backend_calls: int) -> list[str]:
        return check.check_dser(states, run.run_seed, self.problems,
                                self.spec, self.config, self.k, backend_calls)

    def resume_source(self, run: Run, report_dir: Path, tracer) -> tuple:
        """The run the resume stage cuts, its reports, and the backend that
        finishes the copies: this pass's own run."""
        return run, report_dir, self.backend(tracer), []


class VerdepHttp(Workload):
    name = "verdep_http"
    over_http = True
    stub = None
    mock = VERDEP_MOCK
    config = VERDEP_CONFIG
    sync = "always"
    n_problems = 2
    k = 16
    dser = source = None

    def setup(self, rep: int) -> None:
        """Start the stub process and wait until it listens."""
        self.close()
        self.problems = make_problems(self.seed, self.n_problems)
        config = {"delay_ms": STUB_DELAY_MS, "spec": self.mock,
                  "problems": [{"statement": p.statement, "answer": p.answer.canonical}
                               for p in self.problems]}
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), str(SRC), json.dumps(config)],
            stdout=subprocess.PIPE, text=True)
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError("loopback stub failed to start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.http = HttpBackend(BackendConfig(
            endpoint=f"{self.url}/v1/chat/completions", model="mock",
            max_in_flight=PARALLELISM, timeout_s=30.0))

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as resp:
            return json.load(resp)

    def backend(self, tracer):
        metered = self.meter.wrap(self.http)
        return TracedBackend(tracer, metered) if tracer else metered

    def attempts(self) -> int:
        return self.stats()["requests"]

    def service_s(self) -> float:
        """Backend service time so far: the stub's fixed delay per request."""
        return self.attempts() * STUB_DELAY_MS / 1000.0

    def check_run(self, run: Run, states: dict, backend_calls: int) -> list[str]:
        return check.check_equals_inprocess(states, run.run_seed,
                                            self.problems, self.spec, self.config, self.k)

    def resume_source(self, run: Run, report_dir: Path, tracer) -> tuple:
        """A dser_run-shaped run on the mock, written and checked once, untimed.

        The resume stage finishes copies of DSER runs only. A VERDEP trial
        whose log ends between its exit record and its TrialExited event is
        resumed past its exit (see bench/verdep_resume.py).
        """
        errors = []
        if self.dser is None:
            self.dser = DserRun(self.seed, self.work / "dser-source")
            self.dser.problems = make_problems(self.seed, self.dser.n_problems)
            self.source = self.dser.write_run(self.dser.work / "run", run_seed(self.seed, 0))
            _, states = self.source.store.load_run(self.source.run_id)
            errors = self.dser.check_run(self.source, states, self.dser.attempts())
            reports.write_run_reports(self.source.store, self.source.run_id,
                                      self.dser.work / "reports")
            errors += check.check_avg_column(check.avg_counts(states, self.dser.problems),
                                             self.dser.work / "reports")
        return self.source, self.dser.work / "reports", self.dser.backend(tracer), errors

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


WORKLOADS = {cls.name: cls for cls in (DserRun, VerdepHttp)}


def cut_copies(run: Run, fractions: tuple[float, ...], dest: Path) -> list[Run]:
    """Copies of the run whose logs end mid-record at each crash point."""
    src = run.store.root / run.run_id
    log = (src / "events.log").read_bytes()
    copies = []
    for i, fraction in enumerate(fractions):
        root = dest / f"cut-{i}"
        (root / run.run_id).mkdir(parents=True)
        shutil.copy(src / "manifest.json", root / run.run_id / "manifest.json")
        cut = int(len(log) * fraction)
        if log[cut - 1:cut] == b"\n":
            cut -= 1
        (root / run.run_id / "events.log").write_bytes(log[:cut])
        copies.append(Run(RunStore(root), run.run_id, run.run_seed))
    return copies


def measure_pass(wl, rep: int, tracer=None) -> tuple[dict, list[str]]:
    """One pass over every stage; returns (timings and counts, check errors).

    Only the stage bodies are timed; the outputs check runs between and
    after them.
    """
    stages = tracer or _Untraced()
    work = wl.work / f"pass-{rep}"
    work.mkdir(parents=True, exist_ok=True)
    stub_before = wl.stats() if tracer and wl.over_http else None
    attempts, service, calls = wl.attempts(), wl.service_s(), wl.meter.calls
    out: dict = {"experiment_s": 0.0, "analyze_s": 0.0, "resume_s": 0.0, "sample_s": 0.0}

    @contextmanager
    def timed(stage: str):
        """Time one stage into out[stage + "_s"], tracing it when tracing.
        Collecting garbage and releasing free heap memory first keep earlier
        stages' garbage out of its time and its resident size."""
        gc.collect()
        if MALLOC_TRIM:
            MALLOC_TRIM(0)
        with stages.active(f"{rep}:{stage}"):
            t0 = time.perf_counter()
            yield
            out[f"{stage}_s"] += time.perf_counter() - t0

    with timed("experiment"):
        run = wl.write_run(work / "run", run_seed(wl.seed, rep), tracer)
    out["experiment_service_s"] = wl.service_s() - service

    events = run.store.events(run.run_id)
    states = engine.rebuild_trial_states(run.store.manifest(run.run_id), events)
    errors = wl.check_run(run, states, wl.attempts() - attempts)
    out["iterations"] = sum(len(st.records) for st in states.values())
    out["events"] = len(events)
    out["log_bytes"] = (run.store.root / run.run_id / "events.log").stat().st_size
    avg_counts = check.avg_counts(states, wl.problems)
    # Only the program's own data should set the peak resident size.
    del events, states

    report_dir = work / "reports"
    source, source_reports, backend, source_errors = wl.resume_source(run, report_dir, tracer)
    errors += source_errors
    copies = cut_copies(source, CRASH_FRACTIONS, work / "cuts")
    sampler_seed = run_seed(wl.seed, rep) * SAMPLES
    outcomes = []
    analyses = 0
    # The machine's speed drifts over seconds, so the short stages run in
    # chunks, one before each resume and one after the last: each is then
    # timed at several moments of the pass.
    chunks = len(copies) + 1
    for i in range(chunks):
        with timed("analyze"):
            start, n = time.perf_counter(), 0
            while not n or time.perf_counter() - start < ANALYZE_MIN_S / chunks:
                reports.write_run_reports(run.store, run.run_id, report_dir)
                n += 1
            analyses += n
        with timed("sample"):
            for seed in range(sampler_seed + len(outcomes),
                              sampler_seed + (i + 1) * SAMPLES // chunks):
                kind, correct, _ = markov.simulate_verdep_chain(
                    SAMPLER_CHAIN, seed=seed, max_iterations=SAMPLER_BUDGET)
                outcomes.append((kind, correct))
        if i < len(copies):
            with timed("resume"):
                engine.resume_experiment(copies[i].store, copies[i].run_id, backend,
                                         parallelism=PARALLELISM, store_sync=RESUME_SYNC)
    out["analyses"] = analyses

    out["attempts"] = wl.attempts() - attempts
    out["successes"] = wl.meter.calls - calls
    out["measured_s"] = sum(out[f"{stage}_s"]
                            for stage in ("experiment", "analyze", "resume", "sample"))
    if stub_before is not None:
        stats = wl.stats()
        out["stub"] = {key: stats[key][stub_before["requests"]:]
                       for key in ("service_s", "mock_self_us")}
    errors += check.check_avg_column(avg_counts, report_dir)
    errors += check.check_resumed(source_reports, [(c.store, c.run_id) for c in copies], work)
    errors += check.check_sampler(outcomes, SAMPLER_CHAIN)
    shutil.rmtree(work)
    return out, errors


UNITS = {
    "setup_s": "s", "iterations_per_s": "1/s", "log_bytes_per_iteration": "B",
    "slot_utilization": "ratio", "analyze_s": "s", "resume_s": "s",
    "mc_samples_per_s": "1/s", "peak_rss_mb": "MB",
}


def end_to_end(wl, passes: list[dict], setup_times: list[float]) -> dict[str, float]:
    """Figures pooled over passes (sums of work over sums of time); set-up
    time is the median of the set-ups that preceded each pass."""
    def total(key):
        return sum(p[key] for p in passes)

    return {
        "setup_s": statistics.median(setup_times),
        "iterations_per_s": total("iterations") / total("experiment_s"),
        "log_bytes_per_iteration": total("log_bytes") / total("iterations"),
        "slot_utilization": total("experiment_service_s") / (total("experiment_s") * PARALLELISM),
        "analyze_s": total("analyze_s") / total("analyses"),
        "resume_s": total("resume_s") / len(passes),
        "mc_samples_per_s": SAMPLES * len(passes) / total("sample_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class _Untraced:
    def active(self, stage: str):
        return nullcontext()
