import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from selfevolve import engine
from selfevolve.cli import main
from selfevolve.config import ConfigInvalid, RunConfig, config_hash, load_problems
from selfevolve.store import RunStore, run_dir


BASE_CONFIG = """\
mock:
  ground_truth: "60"
  initial_correct_probability: 0.5
  p_ic: 0.3
  p_ci: 0.1
  alpha: 0.2
  beta: 0.8
controller:
  kind: dser
  max_iterations: 3
experiment:
  problems: problems.json
  k_trials: 2
  run_seed: 11
  parallelism: 2
output_dir: out
"""

PROBLEMS = [{"id": "p0", "statement": "what is 59+1?", "answer": "60"}]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "config.yaml").write_text(BASE_CONFIG)
    (tmp_path / "problems.json").write_text(json.dumps(PROBLEMS))
    return tmp_path


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


# --- config validation -------------------------------------------------------

def test_config_loads(workspace):
    cfg = RunConfig.load(workspace / "config.yaml")
    assert cfg.k_trials == 2
    assert cfg.controller.max_iterations == 3
    assert cfg.run_seed == 11
    assert len(cfg.load_problems()) == 1


def test_config_requires_exactly_one_backend(workspace):
    text = BASE_CONFIG + "backend:\n  endpoint: http://x/v1\n"
    (workspace / "both.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        RunConfig.load(workspace / "both.yaml")
    assert any("exactly one" in e for e in err.value.errors)

    neither = BASE_CONFIG.replace("mock:", "notmock:")
    (workspace / "neither.yaml").write_text(neither)
    with pytest.raises(ConfigInvalid):
        RunConfig.load(workspace / "neither.yaml")


def test_config_unknown_keys_reported(workspace):
    text = BASE_CONFIG.replace("  kind: dser", "  kind: dser\n  bogus_key: 1")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        RunConfig.load(workspace / "bad.yaml")
    assert any("bogus_key" in e for e in err.value.errors)


def test_config_missing_problems_file(workspace):
    text = BASE_CONFIG.replace("problems.json", "absent.json")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        RunConfig.load(workspace / "bad.yaml")
    assert any("absent.json" in e for e in err.value.errors)


def test_config_collects_multiple_errors(workspace):
    text = ("mock:\n  bogus: 1\ncontroller:\n  nope: 2\n"
            "experiment:\n  k_trials: 0\n")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        RunConfig.load(workspace / "bad.yaml")
    assert len(err.value.errors) >= 3


def test_config_hash_stable_and_sensitive(workspace):
    cfg = RunConfig.load(workspace / "config.yaml")
    h1 = config_hash(cfg.snapshot())
    h2 = config_hash(cfg.snapshot())
    assert h1 == h2
    snap = cfg.snapshot()
    snap["controller"]["max_iterations"] = 99
    assert config_hash(snap) != h1


def test_load_problems_jsonl_and_duplicates(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "statement": "q1", "answer": "1"}\n'
                    '{"id": "b", "statement": "q2"}\n')
    problems = load_problems(path)
    assert [p.problem_id for p in problems] == ["a", "b"]
    assert problems[1].answer is None

    path.write_text('{"id": "a", "statement": "q1"}\n{"id": "a", "statement": "q2"}\n')
    with pytest.raises(ConfigInvalid):
        load_problems(path)


@pytest.mark.parametrize("name, content", [
    ("problems.json", b'[{"id": "p0", "statement": "q"'),
    ("problems.jsonl", b'{"id": "p0", "statement": "q"}\n{"id": "p1",\n'),
    ("problems.yaml", b"- id: p0\n  statement: [unclosed\n"),
    ("problems.json", b'[{"id": "p0", "statement": "\xff"}]'),
], ids=["json", "jsonl", "yaml", "not_utf8"])
def test_cli_run_rejects_unreadable_problems_file(workspace, name, content):
    # a problems file that does not parse is an invalid config (exit 2),
    # reported before a run directory is written
    (workspace / name).write_bytes(content)
    text = BASE_CONFIG.replace("problems: problems.json", f"problems: {name}")
    (workspace / "bad.yaml").write_text(text)
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2, result.output
    assert "cannot read problems file" in result.output
    assert not (workspace / "out").exists()


def test_cli_run_rejects_empty_statement(workspace):
    problems = PROBLEMS + [{"id": "p1", "statement": "", "answer": "60"}]
    (workspace / "problems.json").write_text(json.dumps(problems))
    result = invoke("run", workspace / "config.yaml")
    assert result.exit_code == 2, result.output
    assert "record 1: statement must be non-empty" in result.output
    assert not (workspace / "out").exists()


# --- run / resume / analyze --------------------------------------------------

def committed_view(states):
    return {tid: ([r.to_dict() for r in st.records], st.status)
            for tid, st in states.items()}


def run_cli_experiment(workspace):
    result = invoke("run", workspace / "config.yaml")
    assert result.exit_code == 0, result.output
    return result.output.strip().splitlines()[-1]


def test_cli_run_writes_reports(workspace):
    run_id = run_cli_experiment(workspace)
    reports = workspace / "out" / "reports" / run_id
    assert (reports / "metrics_p0.csv").exists()
    assert (reports / "metrics_p0.svg").exists()
    log = run_dir(workspace / "out" / "runs", run_id) / "events.log"
    assert log.exists()


def test_cli_run_invalid_config_exit_code(workspace):
    (workspace / "bad.yaml").write_text(BASE_CONFIG + "backend:\n  endpoint: e\n")
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2


def test_cli_run_rejects_unknown_store_sync(workspace):
    text = BASE_CONFIG.replace("  parallelism: 2", "  parallelism: 2\n  store_sync: bogus")
    (workspace / "bad.yaml").write_text(text)
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2
    assert "store_sync" in result.output
    assert not (workspace / "out").exists()


MOCK_SECTION = BASE_CONFIG[:BASE_CONFIG.index("controller:")]
HTTP_SECTION = ("backend:\n  endpoint: http://127.0.0.1:9/v1\n  model: m\n"
                "  max_attempts: 0\n")


@pytest.mark.parametrize("old,new", [
    ("  p_ic: 0.3", "  p_ic: 2"),
    ('  ground_truth: "60"\n', ""),
    ("  kind: dser", "  kind: bogus"),
    ("  k_trials: 2", "  k_trials: abc"),
    ("  parallelism: 2", "  parallelism: abc"),
    ("  parallelism: 2", "  parallelism: 0"),
    ("  run_seed: 11", "  run_seed: abc"),
    ("  max_iterations: 3", "  max_iterations: 3\n  max_parse_retries: -1"),
    (MOCK_SECTION, HTTP_SECTION),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts", "max_in_flight")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts", "rps")),
    ("  k_trials: 2", "  k_trials: 2.7"),
    ("  k_trials: 2", "  k_trials: true"),
    ("  parallelism: 2", "  parallelism: 1.9"),
    ("  run_seed: 11", "  run_seed: 11.5"),
    ("  max_iterations: 3", "  max_iterations: 2.5"),
    ("  max_iterations: 3", "  max_iterations: 3\n  accept_limit: 2.5"),
    ("  max_iterations: 3", "  max_iterations: 3\n  reject_limit: true"),
], ids=["p_ic_out_of_range", "no_ground_truth", "unknown_kind", "k_trials_not_int",
        "parallelism_not_int", "parallelism_zero", "run_seed_not_int",
        "max_parse_retries_negative", "max_attempts_zero", "max_in_flight_zero",
        "rps_zero", "k_trials_float", "k_trials_bool", "parallelism_float",
        "run_seed_float", "max_iterations_float", "accept_limit_float",
        "reject_limit_bool"])
def test_cli_run_rejects_invalid_values(workspace, old, new):
    # each value a dataclass or the integer check rejects is an invalid config
    # (exit 2), reported before a run directory is written
    assert old in BASE_CONFIG
    (workspace / "bad.yaml").write_text(BASE_CONFIG.replace(old, new))
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2, result.output
    assert "invalid config" in result.output
    assert not (workspace / "out").exists()


def test_cli_resume_uses_run_settings(workspace, monkeypatch):
    text = BASE_CONFIG.replace("  parallelism: 2", "  parallelism: 1\n  store_sync: flush")
    (workspace / "flush.yaml").write_text(text)
    result = invoke("run", workspace / "flush.yaml")
    assert result.exit_code == 0, result.output
    run_id = result.output.strip().splitlines()[-1]
    runs = workspace / "out" / "runs"
    manifest = json.loads(run_dir(runs, run_id).joinpath("manifest.json").read_text())
    assert (manifest["parallelism"], manifest["store_sync"]) == (1, "flush")
    want = committed_view(RunStore(runs).load_run(run_id)[1])
    log = run_dir(runs, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])

    seen = {}
    open_log, run = RunStore.open_log, engine._run

    def spy_open_log(self, run_id, sync="always"):
        seen["sync"] = sync
        return open_log(self, run_id, sync=sync)

    def spy_run(store, run_id, manifest, backend, parallelism, store_sync):
        seen["parallelism"] = parallelism
        return run(store, run_id, manifest, backend, parallelism, store_sync)

    monkeypatch.setattr(RunStore, "open_log", spy_open_log)
    monkeypatch.setattr(engine, "_run", spy_run)
    result = invoke("resume", run_id, "--runs-dir", runs, "--config", workspace / "flush.yaml")
    assert result.exit_code == 0, result.output
    assert seen == {"sync": "flush", "parallelism": 1}
    assert committed_view(RunStore(runs).load_run(run_id)[1]) == want


def carry_forward_false(config):
    config["controller"]["carry_forward_on_failure"] = False


def unknown_controller_key(config):
    config["controller"]["bogus"] = 1


def backend_max_attempts_zero(config):
    del config["mock"]
    config["backend"] = {"endpoint": "http://127.0.0.1:9/v1", "model": "m",
                         "max_attempts": 0}


@pytest.mark.parametrize("edit", [carry_forward_false, unknown_controller_key,
                                  backend_max_attempts_zero],
                         ids=lambda edit: edit.__name__)
def test_cli_resume_rejects_invalid_manifest_config(workspace, edit):
    # a manifest section that cannot build its config is an invalid config
    # (exit 2), and the resume appends nothing to the log
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    path = run_dir(runs, run_id) / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["config"])
    path.write_text(json.dumps(manifest))
    log = run_dir(runs, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    result = invoke("resume", run_id, "--runs-dir", runs)
    assert result.exit_code == 2, result.output
    assert "invalid config" in result.output
    assert log.read_bytes() == full[:len(full) // 2]


def test_cli_resume_noop_on_finished_run(workspace):
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    before = run_dir(runs, run_id).joinpath("events.log").read_bytes()
    result = invoke("resume", run_id, "--runs-dir", runs,
                    "--config", workspace / "config.yaml")
    assert result.exit_code == 0, result.output
    after = run_dir(runs, run_id).joinpath("events.log").read_bytes()
    assert after == before


def test_cli_resume_config_drift(workspace):
    run_id = run_cli_experiment(workspace)
    drifted = BASE_CONFIG.replace("max_iterations: 3", "max_iterations: 4")
    (workspace / "drift.yaml").write_text(drifted)
    result = invoke("resume", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--config", workspace / "drift.yaml")
    assert result.exit_code == 3


def test_cli_resume_missing_run(workspace):
    result = invoke("resume", "nope", "--runs-dir", workspace / "out" / "runs")
    assert result.exit_code == 5


def test_cli_analyze_idempotent(workspace):
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    out1 = workspace / "a1"
    out2 = workspace / "a2"
    for out in (out1, out2):
        result = invoke("analyze", run_id, "--runs-dir", runs, "--out", out)
        assert result.exit_code == 0, result.output
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes()


def test_cli_analyze_dser_writes_no_exit_ratios(workspace):
    run_id = run_cli_experiment(workspace)
    result = invoke("analyze", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--out", workspace / "a")
    assert result.exit_code == 0, result.output
    assert (workspace / "a" / "metrics_p0.csv").exists()
    assert not list((workspace / "a").glob("exit_ratios_*"))


def test_cli_analyze_corrupt_log(workspace):
    run_id = run_cli_experiment(workspace)
    log = run_dir(workspace / "out" / "runs", run_id) / "events.log"
    lines = log.read_text().splitlines()
    lines[2] = "garbage"
    log.write_text("\n".join(lines) + "\n")
    result = invoke("analyze", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--out", workspace / "a")
    assert result.exit_code == 4


def test_cli_verdep_run_emits_exit_ratios(workspace):
    text = BASE_CONFIG.replace("kind: dser", "kind: verdep")
    text = text.replace("max_iterations: 3", "max_iterations: 30")
    (workspace / "vd.yaml").write_text(text)
    result = invoke("run", workspace / "vd.yaml")
    assert result.exit_code == 0, result.output
    run_id = result.output.strip().splitlines()[-1]
    reports = workspace / "out" / "reports" / run_id
    assert (reports / "exit_ratios_p0.csv").exists()


# --- simulate subcommands ----------------------------------------------------

def test_simulate_stationary_known_values():
    result = invoke("simulate", "stationary", "--p-ic", "0.3", "--p-ci", "0.1")
    assert result.exit_code == 0
    assert "pi_c=0.750000" in result.output
    assert "lambda2=0.600000" in result.output


def test_simulate_stationary_degenerate():
    result = invoke("simulate", "stationary", "--p-ic", "0", "--p-ci", "0")
    assert result.exit_code == 1


def test_simulate_trajectory_deterministic():
    args = ("simulate", "trajectory", "--p-ic", "0.3", "--p-ci", "0.1",
            "--steps", "40", "--seed", "9")
    a = invoke(*args)
    b = invoke(*args)
    assert a.exit_code == 0
    assert a.output == b.output
    assert set(a.output.strip()) <= {"C", "I"}


def test_simulate_absorb_known_value():
    result = invoke("simulate", "absorb", "--alpha", "0.5", "--beta", "0.5",
                    "--y-c0", "0.5", "--y-i0", "0.5")
    assert result.exit_code == 0
    assert "p_correct_exit=0.484375" in result.output


def test_simulate_verdep_csv(tmp_path):
    csv_path = tmp_path / "exits.csv"
    result = invoke("simulate", "verdep", "--alpha", "0.3", "--beta", "0.8",
                    "--y-c0", "0.6", "--y-i0", "0.6", "--reject-limit", "10",
                    "--samples", "500", "--csv", csv_path)
    assert result.exit_code == 0, result.output
    assert "accepted=" in result.output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "exit,fraction"
    fractions = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(fractions) == pytest.approx(1.0)


@pytest.mark.parametrize("args", [
    ("trajectory", "--p-ic", "0.3", "--p-ci", "0.1", "--steps", "-1"),
    ("absorb", "--alpha", "0.5", "--beta", "0.5", "--y-c0", "0.5", "--y-i0", "0.5",
     "--accept-limit", "0"),
    *[("verdep", "--alpha", "0.3", "--beta", "0.8", "--y-c0", "0.6", "--y-i0", "0.6",
       option, "0")
      for option in ("--samples", "--max-iterations", "--accept-limit", "--reject-limit")],
], ids=["steps", "absorb_accept_limit", "samples", "max_iterations",
        "verdep_accept_limit", "reject_limit"])
def test_simulate_rejects_out_of_range_integers(args):
    result = invoke("simulate", *args)
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output


# --- unfinished runs ---------------------------------------------------------

TWO_PROBLEMS = PROBLEMS + [{"id": "p1", "statement": "what is 6+1?", "answer": "7"}]


def workspace_with(root, config_text):
    root.mkdir(parents=True, exist_ok=True)
    (root / "config.yaml").write_text(config_text)
    (root / "problems.json").write_text(json.dumps(TWO_PROBLEMS))
    return root


def report_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_analyze_unfinished_run(workspace):
    # one worker runs p0's trials, then p1's; the cut leaves p0's second trial
    # short and p1 with no record
    text = (BASE_CONFIG.replace("max_iterations: 3", "max_iterations: 12")
            .replace("  parallelism: 2", "  parallelism: 1"))
    workspace_with(workspace, text)
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    full = report_bytes(workspace / "out" / "reports" / run_id)
    assert "pooled_table.csv" in full
    log = run_dir(runs, run_id) / "events.log"
    log_bytes = log.read_bytes()
    log.write_bytes(log_bytes[:len(log_bytes) * 3 // 8])

    result = invoke("analyze", run_id, "--runs-dir", runs, "--out", workspace / "partial")
    assert result.exit_code == 0, result.output
    partial = report_bytes(workspace / "partial")
    assert sorted(partial) == ["metrics_p0.csv", "metrics_p0.svg"]
    # the rows written are the uninterrupted run's rows up to that iteration
    rows = partial["metrics_p0.csv"].splitlines()
    assert 1 < len(rows) < len(full["metrics_p0.csv"].splitlines())
    assert full["metrics_p0.csv"].splitlines()[:len(rows)] == rows

    result = invoke("resume", run_id, "--runs-dir", runs, "--reports-dir", workspace / "resumed")
    assert result.exit_code == 0, result.output
    assert report_bytes(workspace / "resumed") == full


def test_cli_run_killed_resumes_to_the_uninterrupted_run(tmp_path):
    text = (BASE_CONFIG.replace("max_iterations: 3", "max_iterations: 40")
            .replace("  k_trials: 2", "  k_trials: 8")
            .replace("  parallelism: 2", "  parallelism: 2\n  store_sync: always"))
    killed = workspace_with(tmp_path / "killed", text)
    runs = killed / "out" / "runs"
    env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-m", "selfevolve.cli", "run", "config.yaml"],
                             cwd=killed, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30.0
        logs = []
        while child.poll() is None and time.monotonic() < deadline:
            logs = list(runs.glob("*/events.log"))
            if logs and logs[0].read_bytes().count(b"\n") >= 20:
                break
            time.sleep(0.005)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL
    assert b"RunFinalized" not in logs[0].read_bytes()
    run_id = logs[0].parent.name

    result = invoke("analyze", run_id, "--runs-dir", runs, "--out", killed / "partial")
    assert result.exit_code == 0, result.output
    result = invoke("resume", run_id, "--runs-dir", runs, "--reports-dir", killed / "reports")
    assert result.exit_code == 0, result.output

    whole = workspace_with(tmp_path / "whole", text)
    whole_id = run_cli_experiment(whole)
    assert (committed_view(RunStore(runs).load_run(run_id)[1])
            == committed_view(RunStore(whole / "out" / "runs").load_run(whole_id)[1]))
    assert (report_bytes(killed / "reports")
            == report_bytes(whole / "out" / "reports" / whole_id))
