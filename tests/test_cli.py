import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from selfevolve import engine
from selfevolve.answers import normalize_answer
from selfevolve.backend import MockBackendProvider, mock_spec_from_dict
from selfevolve.cli import _exit_on_error
from selfevolve.config import ConfigInvalid, load_problems, read_config
from selfevolve.engine import ControllerConfig, Problem, PromptSet, run_inputs
from selfevolve.store import RunStore, config_hash, run_dir

from cli_harness import invoke
from fixtures import CORRUPT_LINE_EDITS
from stub_server import StubChatServer, completion


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


# --- config validation -------------------------------------------------------

def test_config_loads(workspace):
    description, output_dir = read_config(workspace / "config.yaml")
    assert output_dir == workspace.resolve() / "out"
    assert "k_trials" not in description["config"]
    inputs = run_inputs(description)
    assert inputs.k_trials == 2
    assert inputs.controller.max_iterations == 3
    assert inputs.run_seed == 11
    assert len(inputs.problems) == 1


def test_config_requires_exactly_one_backend(workspace):
    text = BASE_CONFIG + "backend:\n  endpoint: http://x/v1\n"
    (workspace / "both.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        read_config(workspace / "both.yaml")
    assert any("exactly one" in e for e in err.value.errors)

    neither = BASE_CONFIG.replace("mock:", "notmock:")
    (workspace / "neither.yaml").write_text(neither)
    with pytest.raises(ConfigInvalid):
        read_config(workspace / "neither.yaml")


def test_config_unknown_keys_reported(workspace):
    text = BASE_CONFIG.replace("  kind: dser", "  kind: dser\n  bogus_key: 1")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        read_config(workspace / "bad.yaml")
    assert any("bogus_key" in e for e in err.value.errors)


def test_config_missing_problems_file(workspace):
    text = BASE_CONFIG.replace("problems.json", "absent.json")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        read_config(workspace / "bad.yaml")
    assert any("absent.json" in e for e in err.value.errors)


def test_config_collects_multiple_errors(workspace):
    text = ("mock:\n  bogus: 1\ncontroller:\n  nope: 2\n"
            "experiment:\n  k_trials: 0\n")
    (workspace / "bad.yaml").write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        read_config(workspace / "bad.yaml")
    assert len(err.value.errors) >= 3


def test_config_hash_stable_and_sensitive(workspace):
    config = read_config(workspace / "config.yaml")[0]["config"]
    h1 = config_hash(config)
    assert config_hash(read_config(workspace / "config.yaml")[0]["config"]) == h1
    config["controller"]["max_iterations"] = 99
    assert config_hash(config) != h1


def test_load_problems_jsonl_and_duplicates(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "statement": "q1", "answer": "1"}\n'
                    '{"id": "b", "statement": "q2"}\n')
    records = load_problems(path)
    assert [r["id"] for r in records] == ["a", "b"]
    assert records[1]["answer"] is None

    # the problems are built, and duplicates refused, as a manifest's are
    path.write_text('{"id": "a", "statement": "q1"}\n{"id": "a", "statement": "q2"}\n')
    with pytest.raises(ConfigInvalid, match="duplicate problem id"):
        run_inputs({"config": {"controller": {}}, "problems": load_problems(path),
                    "k_trials": 1, "run_seed": 0})


UNREADABLE = "cannot read problems file"
NO_RECORDS = "problems file must be a non-empty list"
NO_ID = "record 1 needs 'id' and 'statement'"


@pytest.mark.parametrize("name, content, message", [
    ("problems.json", b'[{"id": "p0", "statement": "q"', UNREADABLE),
    ("problems.jsonl", b'{"id": "p0", "statement": "q"}\n{"id": "p1",\n', UNREADABLE),
    ("problems.yaml", b"- id: p0\n  statement: [unclosed\n", UNREADABLE),
    ("problems.json", b'[{"id": "p0", "statement": "\xff"}]', UNREADABLE),
    ("problems.json", b"[]", NO_RECORDS),
    ("problems.jsonl", b"\n", NO_RECORDS),
    ("problems.yaml", b"p0: q\n", NO_RECORDS),
    ("problems.json", b'[{"id": "p0", "statement": "q"}, {"statement": "q"}]', NO_ID),
    ("problems.jsonl", b'{"id": "p0", "statement": "q"}\n{"id": "p1"}\n', NO_ID),
    ("problems.yaml", b"- id: p0\n  statement: q\n- p1\n", NO_ID),
], ids=["json", "jsonl", "yaml", "not_utf8", "empty_json", "empty_jsonl", "yaml_mapping",
        "no_id", "no_statement", "not_a_record"])
def test_cli_run_rejects_unreadable_problems_file(workspace, name, content, message):
    # a problems file that does not parse, or holds no list of records with
    # an id and a statement, is an invalid config (exit 2), reported before a
    # run directory is written
    (workspace / name).write_bytes(content)
    text = BASE_CONFIG.replace("problems: problems.json", f"problems: {name}")
    (workspace / "bad.yaml").write_text(text)
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2, result.output
    assert message in result.output
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
EXPERIMENT_SECTION = BASE_CONFIG[BASE_CONFIG.index("experiment:"):BASE_CONFIG.index("output_dir:")]
HTTP_SECTION = ("backend:\n  endpoint: http://127.0.0.1:9/v1\n  model: m\n"
                "  max_attempts: 0\n")


INVALID_VALUES = [
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
    ("  beta: 0.8", "  beta: 0.8\n  wrong_answer_space: 2.5"),
    ("  beta: 0.8", "  beta: 0.8\n  wrong_answer_space: true"),
    ("  initial_correct_probability: 0.5", "  initial_correct_probability: true"),
    ("  alpha: 0.2", "  alpha: true"),
    ("  beta: 0.8", "  beta: false"),
    ("  p_ic: 0.3", "  p_ic: true"),
    ("  p_ic: 0.3", '  p_ic: "0.3"'),
    ("  p_ci: 0.1", '  p_ci: "0.1"'),
    ("  alpha: 0.2", '  alpha: "0.2"'),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "max_attempts: 2.5")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "backoff_base_ms: -5")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "backoff_max_ms: -1")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "max_in_flight: 2.5")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "max_response_tokens: 1.5")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "timeout_s: true")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "rps: true")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "temperature: true")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "max_in_flight: true")),
    ("controller:", "controler:"),
    ("  beta: 0.8", "  beta: 0.8\n  betta: 0.2"),
    ("  k_trials: 2", '  k_trials: "2"'),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "timeout_s: .inf")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "rps: .inf")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "temperature: .inf")),
    (MOCK_SECTION, HTTP_SECTION.replace("  max_attempts: 0\n", "").replace("http:", "ftp:")),
    (BASE_CONFIG, "- mock\n- controller\n"),
    (BASE_CONFIG, "mock: {p_ic: [0.3\n"),
    (EXPERIMENT_SECTION, "experiment: [problems.json]\n"),
    ("  k_trials: 2", "  k_trials: 2\n  k_trails: 3"),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "timeout_s: 1.0e+10")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "rps: 1.0e-10")),
    (MOCK_SECTION, HTTP_SECTION.replace("max_attempts: 0", "rps: 1.0e-9\n  max_in_flight: 10")),
    (MOCK_SECTION, HTTP_SECTION.replace(
        "max_attempts: 0", "backoff_base_ms: 10000000000000\n  backoff_max_ms: 10000000000000000")),
]
INVALID_VALUE_IDS = ["p_ic_out_of_range", "no_ground_truth", "unknown_kind", "k_trials_not_int",
        "parallelism_not_int", "parallelism_zero", "run_seed_not_int",
        "max_parse_retries_negative", "max_attempts_zero", "max_in_flight_zero",
        "rps_zero", "k_trials_float", "k_trials_bool", "parallelism_float",
        "run_seed_float", "max_iterations_float", "accept_limit_float",
        "reject_limit_bool", "wrong_answer_space_float", "wrong_answer_space_bool",
        "initial_correct_probability_bool", "alpha_bool", "beta_bool", "p_ic_bool",
        "p_ic_string", "p_ci_string", "alpha_string", "max_attempts_float",
        "backoff_base_ms_negative", "backoff_max_ms_negative", "max_in_flight_float",
        "max_response_tokens_float", "timeout_s_bool", "rps_bool", "temperature_bool",
        "max_in_flight_bool", "misspelled_section", "unknown_mock_key", "k_trials_string",
        "timeout_s_inf", "rps_inf", "temperature_inf", "endpoint_ftp", "root_not_mapping",
        "not_yaml", "experiment_not_mapping", "unknown_experiment_key", "timeout_s_past_limit",
        "rps_wait_past_limit", "rps_wait_past_limit_in_flight", "backoff_max_ms_past_limit"]
# the cases only a config file can hold: a manifest has no sections of its own
FILE_ONLY_CASES = {"misspelled_section", "root_not_mapping", "not_yaml",
                   "experiment_not_mapping", "unknown_experiment_key"}


@pytest.mark.parametrize("old,new", INVALID_VALUES, ids=INVALID_VALUE_IDS)
def test_cli_run_rejects_invalid_values(workspace, old, new):
    # each value a dataclass or the integer check rejects is an invalid config
    # (exit 2), reported before a run directory is written
    assert old in BASE_CONFIG
    (workspace / "bad.yaml").write_text(BASE_CONFIG.replace(old, new))
    result = invoke("run", workspace / "bad.yaml")
    assert result.exit_code == 2, result.output
    assert "invalid config" in result.output
    assert not (workspace / "out").exists()


def carry_into_manifest(bad_config):
    """The edit that writes what a config file holds into a run manifest: its
    mock or backend section, its controller keys and its experiment values,
    each where a manifest holds it."""
    def edit(manifest):
        config = manifest["config"]
        config.pop("mock")
        config.update({s: bad_config[s] for s in ("mock", "backend") if s in bad_config})
        config["controller"].update(bad_config["controller"])
        manifest.update({k: v for k, v in bad_config["experiment"].items() if k != "problems"})
    return edit


@pytest.mark.parametrize("old,new", [
    pytest.param(old, new, id=case_id)
    for (old, new), case_id in zip(INVALID_VALUES, INVALID_VALUE_IDS)
    if case_id not in FILE_ONLY_CASES])
def test_cli_resume_refuses_what_run_refuses(workspace, old, new):
    # a config file and a manifest are built by the same code: a stored
    # unstamped manifest carrying a value that run refuses makes resume and
    # analyze refuse it with the same error, before they append or write
    bad = BASE_CONFIG.replace(old, new)
    (workspace / "bad.yaml").write_text(bad)
    refused_run = invoke("run", workspace / "bad.yaml")
    assert refused_run.exit_code == 2, refused_run.output
    for command in ("resume", "analyze"):
        result = edited_manifest_command(workspace, command, carry_into_manifest(
            yaml.safe_load(bad)))
        assert result.exit_code == 2, result.output
        assert result.output == refused_run.output


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


def carry_forward_false(manifest):
    manifest["config"]["controller"]["carry_forward_on_failure"] = False


def unknown_controller_key(manifest):
    manifest["config"]["controller"]["bogus"] = 1


def backend_max_attempts_zero(manifest):
    config = manifest["config"]
    del config["mock"]
    config["backend"] = {"endpoint": "http://127.0.0.1:9/v1", "model": "m",
                         "max_attempts": 0}


def empty_statement(manifest):
    manifest["problems"][0]["statement"] = ""


def unknown_prompts_key(manifest):
    manifest["config"]["prompts"]["bogus"] = "x"


def numeric_answer(manifest):
    manifest["problems"][0]["answer"] = 60


def deleted(key):
    def edit(manifest):
        del manifest[key]
    edit.__name__ = f"deleted_{key}"
    return edit


def bogus_store_sync(manifest):
    manifest["store_sync"] = "bogus"


def parallelism_zero(manifest):
    manifest["parallelism"] = 0


def edited_manifest_command(workspace, command, edit):
    """The result of command on a CLI run whose manifest edit(manifest)
    changed, unstamped as older versions wrote it, and whose log was then
    cut in half; asserts that the command left the log as it was and wrote
    no report directory.

    The config_hash is that of the edited config, or empty without one, and
    there is no inputs_hash; an edit after the stamps were written is drift
    instead (see below)."""
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    path = run_dir(runs, run_id) / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    manifest["config_hash"] = config_hash(manifest["config"]) if "config" in manifest else ""
    del manifest["inputs_hash"]
    path.write_text(json.dumps(manifest))
    log = run_dir(runs, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    out = ["--out", workspace / "a"] if command == "analyze" else []
    result = invoke(command, run_id, "--runs-dir", runs, *out)
    assert log.read_bytes() == full[:len(full) // 2]
    assert not (workspace / "a").exists()
    shutil.rmtree(workspace / "out")
    return result


@pytest.mark.parametrize("edit", [carry_forward_false, unknown_controller_key,
                                  backend_max_attempts_zero, empty_statement,
                                  unknown_prompts_key, numeric_answer, *map(deleted, (
                                      "config", "problems", "k_trials", "run_seed")),
                                  bogus_store_sync, parallelism_zero],
                         ids=lambda edit: edit.__name__)
def test_cli_resume_rejects_invalid_manifest_config(workspace, edit):
    # a manifest whose config sections, problems or run settings cannot build
    # is an invalid config (exit 2) for resume and analyze alike
    for command in ("resume", "analyze"):
        result = edited_manifest_command(workspace, command, edit)
        assert result.exit_code == 2, result.output
        assert "invalid config" in result.output


def edited_p_ic(manifest):
    manifest["config"]["mock"]["p_ic"] = 0.9


def edited_run_seed(manifest):
    manifest["run_seed"] = 99


def edited_k_trials(manifest):
    manifest["k_trials"] = 5


def edited_statement(manifest):
    manifest["problems"][0]["statement"] = "what is 58+2?"


def deleted_config(path):
    manifest = json.loads(path.read_text())
    del manifest["config"]
    path.write_text(json.dumps(manifest))


def refused(workspace, command, rewrite):
    """The result of command on a CLI run whose manifest rewrite(path) changed
    after the run and whose log was then cut in half; asserts that the
    command left the log as it was and wrote no report directory."""
    (workspace / "config.yaml").write_text(
        BASE_CONFIG.replace("max_iterations: 3", "max_iterations: 6"))
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    rewrite(run_dir(runs, run_id) / "manifest.json")
    log = run_dir(runs, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    out = ["--out", workspace / "a"] if command == "analyze" else []
    result = invoke(command, run_id, "--runs-dir", runs, *out)
    assert log.read_bytes() == full[:len(full) // 2]
    assert not (workspace / "a").exists()
    return result


@pytest.mark.parametrize("edit,stamp", [
    pytest.param(edit, stamp, id=edit.__name__) for edit, stamp in (
        (edited_p_ic, "config_hash"), (carry_forward_false, "config_hash"),
        (edited_run_seed, "inputs_hash"), (edited_k_trials, "inputs_hash"),
        (edited_statement, "inputs_hash"))])
@pytest.mark.parametrize("command", ["resume", "analyze"])
def test_cli_refuses_manifest_edited_after_run(workspace, command, edit, stamp):
    # a manifest that no longer hashes to a stamp it was written with was
    # edited after the run: resume and analyze exit 3 before they append or
    # write, even when the edited config could not build (exit 2 otherwise)
    def rewrite(path):
        manifest = json.loads(path.read_text())
        assert config_hash(manifest["config"]) == manifest["config_hash"]
        edit(manifest)
        path.write_text(json.dumps(manifest))

    result = refused(workspace, command, rewrite)
    assert result.exit_code == 3, result.output
    assert stamp in result.output


@pytest.mark.parametrize("damage,code", [
    pytest.param(lambda path: path.write_text('{"broken'), 5, id="undecodable"),
    pytest.param(lambda path: path.write_text("[]"), 5, id="not_an_object"),
    pytest.param(deleted_config, 3, id="deleted_config")])
@pytest.mark.parametrize("command", ["resume", "analyze"])
def test_cli_refuses_damaged_manifest(workspace, command, damage, code):
    # a manifest that is not a JSON object is as good as missing (exit 5); a
    # stamped one without its config fails its config_hash (exit 3)
    result = refused(workspace, command, damage)
    assert result.exit_code == code, result.output


@pytest.mark.parametrize("command", ["resume", "analyze"])
def test_cli_unreadable_log_is_store_unavailable(workspace, command):
    # an event log that cannot be read exits 5, as an unreadable manifest
    # does, and the run directory is left as it was
    run_id = run_cli_experiment(workspace)
    directory = run_dir(workspace / "out" / "runs", run_id)
    (directory / "events.log").unlink()
    (directory / "events.log").mkdir()
    before = {p: p.read_bytes() if p.is_file() else None for p in directory.rglob("*")}
    out = ["--out", workspace / "a"] if command == "analyze" else []
    result = invoke(command, run_id, "--runs-dir", workspace / "out" / "runs", *out)
    assert result.exit_code == 5, result.output
    assert "error: store unavailable: " in result.output
    assert "Is a directory" in result.output
    assert {p: p.read_bytes() if p.is_file() else None for p in directory.rglob("*")} == before
    assert not (workspace / "a").exists()


def api_run(workspace):
    """A run of the config file made by calling start_run, as a script would;
    (store, run_id)."""
    store = RunStore(workspace / "runs")
    return store, engine.start_run(store, read_config(workspace / "config.yaml")[0])


def test_cli_analyze_refuses_edited_api_run(workspace):
    # start_run writes the manifest the CLI run writes, stamps and all, and
    # analyze refuses it once edited
    store, run_id = api_run(workspace)
    path = run_dir(store.root, run_id) / "manifest.json"
    manifest = json.loads(path.read_text())
    cli_id = run_cli_experiment(workspace)
    cli = json.loads((run_dir(workspace / "out" / "runs", cli_id) / "manifest.json").read_text())
    assert ({k: v for k, v in manifest.items() if k not in ("run_id", "created_at")}
            == {k: v for k, v in cli.items() if k not in ("run_id", "created_at")})
    edited_p_ic(manifest)
    path.write_text(json.dumps(manifest))
    result = invoke("analyze", run_id, "--runs-dir", store.root, "--out", workspace / "a")
    assert result.exit_code == 3, result.output
    assert not (workspace / "a").exists()


def test_cli_unstamped_manifest_analyzes_and_resumes(workspace):
    # an empty config_hash and no inputs_hash, as an API run wrote before runs
    # were stamped, vouch for nothing and are not checked
    store, run_id = api_run(workspace)
    path = run_dir(store.root, run_id) / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config_hash"] = ""
    del manifest["inputs_hash"]
    path.write_text(json.dumps(manifest))
    result = invoke("analyze", run_id, "--runs-dir", store.root, "--out", workspace / "a1")
    assert result.exit_code == 0, result.output
    log = run_dir(store.root, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    result = invoke("resume", run_id, "--runs-dir", store.root,
                    "--reports-dir", workspace / "a2")
    assert result.exit_code == 0, result.output
    for report in sorted((workspace / "a1").iterdir()):
        assert report.read_bytes() == (workspace / "a2" / report.name).read_bytes()


def test_cli_resume_noop_on_finished_run(workspace):
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    before = run_dir(runs, run_id).joinpath("events.log").read_bytes()
    result = invoke("resume", run_id, "--runs-dir", runs,
                    "--config", workspace / "config.yaml")
    assert result.exit_code == 0, result.output
    after = run_dir(runs, run_id).joinpath("events.log").read_bytes()
    assert after == before


def edited_problems(**fields):
    def edit(workspace):
        (workspace / "problems.json").write_text(json.dumps([dict(PROBLEMS[0], **fields)]))
    edit.__name__ = "edited_" + "_".join(fields)
    return edit


def added_problem(workspace):
    (workspace / "problems.json").write_text(json.dumps(TWO_PROBLEMS))


def edited_config(old, new, name):
    def edit(workspace):
        (workspace / "config.yaml").write_text(BASE_CONFIG.replace(old, new))
    edit.__name__ = name
    return edit


@pytest.mark.parametrize("edit", [
    edited_config("max_iterations: 3", "max_iterations: 4", "edited_max_iterations"),
    edited_config("run_seed: 11", "run_seed: 12", "edited_run_seed"),
    edited_config("p_ic: 0.3", "p_ic: 0.4", "edited_p_ic"),
    edited_problems(statement="what is 58+2?"), edited_problems(answer="61"),
    edited_problems(id="q0"), added_problem,
], ids=lambda edit: edit.__name__)
def test_cli_resume_config_drift(workspace, edit):
    # resume --config compares what the live config and its problems file
    # build with what the manifest builds: a change to any trial's chain is
    # drift (exit 3), found before the cut log is touched
    run_id = run_cli_experiment(workspace)
    log = run_dir(workspace / "out" / "runs", run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    edit(workspace)
    result = invoke("resume", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--config", workspace / "config.yaml")
    assert result.exit_code == 3, result.output
    assert "live config differs" in result.output
    assert log.read_bytes() == full[:len(full) // 2]


def live_parallelism(workspace, manifest):
    (workspace / "config.yaml").write_text(
        BASE_CONFIG.replace("parallelism: 2", "parallelism: 1"))


def live_store_sync(workspace, manifest):
    (workspace / "config.yaml").write_text(
        BASE_CONFIG.replace("parallelism: 2", "parallelism: 2\n  store_sync: flush"))


def carry_forward_true(workspace, manifest):
    manifest["config"]["controller"]["carry_forward_on_failure"] = True


def parent_form(workspace, manifest):
    # the config of a CLI run written before the manifest was the config
    # file's description held the experiment's seed and trial count too
    manifest["config"].update(k_trials=manifest["k_trials"], run_seed=manifest["run_seed"])


@pytest.mark.parametrize("edit", [live_parallelism, live_store_sync, carry_forward_true,
                                  parent_form], ids=lambda edit: edit.__name__)
def test_cli_resume_config_accepts_the_same_inputs(workspace, edit):
    # a live config that differs from the run only in the run settings, which
    # the run's own override, or a re-stamped manifest in an older form that
    # builds the same inputs, is no drift: the cut run resumes with --config
    # to the uninterrupted run's reports
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    path = run_dir(runs, run_id) / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(workspace, manifest)
    manifest["config_hash"] = config_hash(manifest["config"])
    path.write_text(json.dumps(manifest))
    log = run_dir(runs, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    result = invoke("resume", run_id, "--runs-dir", runs, "--config", workspace / "config.yaml",
                    "--reports-dir", workspace / "resumed")
    assert result.exit_code == 0, result.output
    assert (report_bytes(workspace / "resumed")
            == report_bytes(workspace / "out" / "reports" / run_id))


def test_cli_resume_missing_run(tmp_path):
    # a runs dir that does not exist, a mistyped one say, is a missing store
    # (exit 5) for resume and analyze, and neither leaves a directory behind
    for command, out in (("resume", []), ("analyze", ["--out", tmp_path / "a"])):
        result = invoke(command, "nope", "--runs-dir", tmp_path / "typo" / "runs", *out)
        assert result.exit_code == 5, result.output
        assert list(tmp_path.iterdir()) == []


def test_cli_run_into_a_file_is_store_unavailable(workspace):
    # an output_dir that is a regular file cannot hold the run: exit 5 with
    # one error line, and nothing is written
    (workspace / "afile").write_text("")
    (workspace / "file.yaml").write_text(
        BASE_CONFIG.replace("output_dir: out", "output_dir: afile"))
    before = sorted(workspace.rglob("*"))
    result = invoke("run", workspace / "file.yaml")
    assert result.exit_code == 5, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: store unavailable: ")
    assert result.stderr.count("\n") == 1
    assert sorted(workspace.rglob("*")) == before
    assert (workspace / "afile").read_text() == ""


@pytest.mark.parametrize("command", ["run", "resume", "analyze", "simulate_verdep"])
def test_cli_unwritable_report_exits_5(workspace, command):
    # a report or CSV whose directory is a regular file exits 5 with one error
    # line naming the path; run and resume print the run id first, since the
    # run itself is committed
    run_id = run_cli_experiment(workspace)
    runs, blocker = workspace / "out" / "runs", workspace / "afile"
    if command == "run":
        blocker = workspace / "out" / "reports"
        shutil.rmtree(blocker)
    blocker.write_text("")
    result = invoke(*{
        "run": ["run", workspace / "config.yaml"],
        "resume": ["resume", run_id, "--runs-dir", runs, "--reports-dir", blocker],
        "analyze": ["analyze", run_id, "--runs-dir", runs, "--out", blocker],
        "simulate_verdep": ["simulate", "verdep", "--alpha", "0.3", "--beta", "0.8",
                            "--y-c0", "0.6", "--y-i0", "0.6", "--samples", "10",
                            "--csv", blocker / "x.csv"]}[command])
    assert result.exit_code == 5, result.output
    assert result.stderr.startswith("error: cannot write: ")
    assert result.stderr.count("\n") == 1
    assert str(blocker) in result.stderr
    assert blocker.read_text() == ""
    printed = result.stdout.strip()
    if command in ("run", "resume"):
        assert (runs / printed / "manifest.json").is_file()
        assert (printed == run_id) == (command == "resume")
    else:
        assert printed.startswith("" if command == "analyze" else "accepted=")


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


def test_cli_analyze_skips_problem_without_answer(workspace):
    # a problem with no answer has no accuracy to report: analyze writes no
    # file for it, and the answered problem's reports are as a run alone gives
    alone = run_cli_experiment(workspace)
    (workspace / "problems.json").write_text(json.dumps(
        PROBLEMS + [{"id": "p1", "statement": "what is 6+1?"}]))
    run_id = run_cli_experiment(workspace)
    result = invoke("analyze", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--out", workspace / "a")
    assert result.exit_code == 0, result.output
    assert report_bytes(workspace / "a") == report_bytes(workspace / "out" / "reports" / alone)


def test_cli_resume_api_run_without_backend_section(workspace):
    # a run_experiment run records no mock or backend section, so only its
    # caller can pass the backend: resume refuses it (exit 2) and leaves the
    # cut log as it was, while analyze needs no backend
    store = RunStore(workspace / "runs")
    spec = mock_spec_from_dict(yaml.safe_load(BASE_CONFIG)["mock"])
    run_id = engine.run_experiment(
        [Problem("p0", "what is 59+1?", normalize_answer("60"))], 2,
        ControllerConfig(max_iterations=3), MockBackendProvider(spec), PromptSet(), 11, store)
    log = run_dir(store.root, run_id) / "events.log"
    full = log.read_bytes()
    log.write_bytes(full[:len(full) // 2])
    result = invoke("resume", run_id, "--runs-dir", store.root)
    assert result.exit_code == 2, result.output
    assert "the run has no 'mock' or 'backend' section to build" in result.output
    assert log.read_bytes() == full[:len(full) // 2]
    result = invoke("analyze", run_id, "--runs-dir", store.root, "--out", workspace / "a")
    assert result.exit_code == 0, result.output


def test_cli_analyze_dser_writes_no_exit_ratios(workspace):
    run_id = run_cli_experiment(workspace)
    result = invoke("analyze", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--out", workspace / "a")
    assert result.exit_code == 0, result.output
    assert (workspace / "a" / "metrics_p0.csv").exists()
    assert not list((workspace / "a").glob("exit_ratios_*"))


@pytest.mark.parametrize("edit", CORRUPT_LINE_EDITS.values(), ids=CORRUPT_LINE_EDITS.keys())
def test_cli_analyze_corrupt_log(workspace, edit):
    # a finished run's log with a corrupt middle line exits 4 from analyze,
    # and from resume, which rebuilds a finished log too and leaves it as it was
    run_id = run_cli_experiment(workspace)
    log = run_dir(workspace / "out" / "runs", run_id) / "events.log"
    lines = log.read_bytes().splitlines()
    lines[2] = edit(lines[2])
    corrupt = b"\n".join(lines) + b"\n"
    log.write_bytes(corrupt)
    result = invoke("analyze", run_id, "--runs-dir", workspace / "out" / "runs",
                    "--out", workspace / "a")
    assert result.exit_code == 4, result.output
    result = invoke("resume", run_id, "--runs-dir", workspace / "out" / "runs")
    assert result.exit_code == 4, result.output
    assert log.read_bytes() == corrupt


def exit_moved_onto_exited_trial(lines):
    """lines with the second trial's exit edited to name the first trial,
    which exited before it."""
    events = [json.loads(line) for line in lines]
    first, second = [i for i, e in enumerate(events) if e["kind"] == "TrialExited"][:2]
    events[second]["trial"] = events[first]["trial"]
    lines[second] = json.dumps(events[second], separators=(",", ":")).encode()
    return lines


def commit_after_exit(lines):
    """lines and, after them, a commit of the first trial's next record."""
    events = [json.loads(line) for line in lines]
    last = [e for e in events if e["kind"] == "IterationCommitted"
            and e["trial"] == events[0]["trial"]][-1]
    record = dict(last["payload"]["record"], index=last["payload"]["record"]["index"] + 1)
    extra = dict(last, seq=len(events) + 1, payload=dict(last["payload"], record=record))
    return lines + [json.dumps(extra, separators=(",", ":")).encode()]


@pytest.mark.parametrize("edit", [exit_moved_onto_exited_trial, commit_after_exit])
def test_cli_trial_event_after_its_exit_is_corrupt(workspace, edit):
    # no event of a trial may follow its exit: with no run-level marker, this
    # is what keeps such a log from reading as another run. analyze and resume
    # exit 4, and the log stays as it was
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    corrupt = b"".join(line + b"\n" for line in edit(log.read_bytes().splitlines()))
    log.write_bytes(corrupt)
    result = invoke("analyze", run_id, "--runs-dir", runs, "--out", workspace / "a")
    assert result.exit_code == 4, result.output
    assert "follows the exit of trial" in result.output
    result = invoke("resume", run_id, "--runs-dir", runs)
    assert result.exit_code == 4, result.output
    assert log.read_bytes() == corrupt


def early_exit_kind_bogus(lines):
    """lines with a trial's early exit given a kind that no schema wrote."""
    events = [json.loads(line) for line in lines]
    i = next(i for i, e in enumerate(events) if e["kind"] == "TrialExited"
             and e["payload"]["status"] in ("accepted_exit", "rejected_exit"))
    lines[i] = json.dumps(dict(events[i], kind="Bogus"), separators=(",", ":")).encode()
    return lines


def bogus_line_without_trial(lines):
    """lines and, after them, a line with no trial of a kind no schema wrote."""
    extra = {"seq": len(lines) + 1, "ts": 0.0, "trial": None, "kind": "Bogus", "payload": {}}
    return lines + [json.dumps(extra, separators=(",", ":")).encode()]


@pytest.mark.parametrize("edit", [early_exit_kind_bogus, bogus_line_without_trial])
def test_cli_kind_no_schema_wrote_is_corrupt(workspace, edit):
    # a rebuild skips only the kinds older schemas wrote: a VERDEP log with any
    # other kind exits 4 from analyze and resume, and the log stays as it was
    (workspace / "config.yaml").write_text(BASE_CONFIG.replace(
        "kind: dser", "kind: verdep\n  accept_limit: 2\n  reject_limit: 2"))
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    corrupt = b"".join(line + b"\n" for line in edit(log.read_bytes().splitlines()))
    log.write_bytes(corrupt)
    for command in (["analyze", run_id, "--runs-dir", runs, "--out", workspace / "a"],
                    ["resume", run_id, "--runs-dir", runs]):
        result = invoke(*command)
        assert result.exit_code == 4, result.output
        assert "'Bogus'" in result.output
    assert log.read_bytes() == corrupt


def test_cli_verdep_record_without_its_solution(workspace):
    # a VERDEP line that passed keeps its solution and leaves it out; one that
    # failed verification was refined, so without its solution the log is
    # corrupt: analyze and resume exit 4 and leave it as it was
    (workspace / "config.yaml").write_text(BASE_CONFIG.replace("kind: dser", "kind: verdep")
                                           .replace("max_iterations: 3", "max_iterations: 8"))
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    lines = log.read_bytes().splitlines()
    records = [json.loads(line)["payload"].get("record", {}) for line in lines]
    assert any(r.get("verdict") == 1 and "solution_text" not in r for r in records)
    i = next(i for i, r in enumerate(records) if r.get("verdict") == 0 and "failure" not in r)
    lines[i] = CORRUPT_LINE_EDITS["failed_verify_missing_text"](lines[i])
    corrupt = b"\n".join(lines) + b"\n"
    log.write_bytes(corrupt)
    for command in (["analyze", run_id, "--runs-dir", runs, "--out", workspace / "a"],
                    ["resume", run_id, "--runs-dir", runs]):
        result = invoke(*command)
        assert result.exit_code == 4, result.output
        assert "does not build" in result.output
    assert log.read_bytes() == corrupt


@pytest.mark.parametrize("edit", CORRUPT_LINE_EDITS.values(), ids=CORRUPT_LINE_EDITS.keys())
def test_cli_resume_corrupt_log(workspace, edit):
    # the resume of a cut log with a corrupt middle line exits 4 and leaves
    # the log as it was
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    lines = log.read_bytes().splitlines()[:5]
    lines[2] = edit(lines[2])
    cut = b"\n".join(lines) + b"\n"
    log.write_bytes(cut)
    result = invoke("resume", run_id, "--runs-dir", runs)
    assert result.exit_code == 4, result.output
    assert log.read_bytes() == cut


STATUS_EDITS = {name: edit for name, edit in CORRUPT_LINE_EDITS.items()
                if name.startswith("status_")}


@pytest.mark.parametrize("edit", STATUS_EDITS.values(), ids=STATUS_EDITS.keys())
def test_cli_exit_status_follows_from_records(workspace, edit):
    # a trial's status is a function of its records: an exit line that says
    # otherwise is a corrupt log, which analyze and resume refuse (exit 4) and
    # leave as it was, in the finished run and cut right after that line
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    lines = log.read_bytes().splitlines()
    i = next(i for i, line in enumerate(lines) if b'"kind":"TrialExited"' in line)
    lines[i] = edit(lines[i])
    for kept in (lines, lines[:i + 1]):
        corrupt = b"\n".join(kept) + b"\n"
        log.write_bytes(corrupt)
        for command in (["analyze", run_id, "--runs-dir", runs, "--out", workspace / "a"],
                        ["resume", run_id, "--runs-dir", runs]):
            result = invoke(*command)
            assert result.exit_code == 4, result.output
            assert "is not 'completed'" in result.output
        assert log.read_bytes() == corrupt


def test_cli_refuses_log_without_its_first_events(workspace):
    # a cut log whose first two lines are gone starts at seq 3: analyze and
    # resume exit 4, and the log, its interrupted tail too, stays as it was
    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    log = run_dir(runs, run_id) / "events.log"
    lines = log.read_bytes().splitlines(keepends=True)
    headless = b"".join(lines[2:5]) + lines[5][:10]
    log.write_bytes(headless)
    result = invoke("analyze", run_id, "--runs-dir", runs, "--out", workspace / "a")
    assert result.exit_code == 4, result.output
    result = invoke("resume", run_id, "--runs-dir", runs)
    assert result.exit_code == 4, result.output
    assert log.read_bytes() == headless


def test_cli_http_run_and_resume_close_their_connections(workspace):
    # run and resume build the HTTP client from the run's backend section and
    # close its connections when they end
    def all_closed(server):
        deadline = time.monotonic() + 5.0
        while server.closed < server.connections and time.monotonic() < deadline:
            time.sleep(0.01)
        return server.connections > 0 and server.closed == server.connections

    with StubChatServer([]) as server:
        http = f"backend:\n  endpoint: {server.endpoint}\n  model: m\n"
        (workspace / "http.yaml").write_text(BASE_CONFIG.replace(MOCK_SECTION, http).replace(
            "max_iterations: 3", "max_iterations: 3\n  max_parse_retries: 0"))
        result = invoke("run", workspace / "http.yaml")
        assert result.exit_code == 0, result.output
        assert all_closed(server)
        run_id = result.output.strip().splitlines()[-1]
        log = run_dir(workspace / "out" / "runs", run_id) / "events.log"
        full = log.read_bytes()
        log.write_bytes(full[:len(full) // 2])
        connections = server.connections
        result = invoke("resume", run_id, "--runs-dir", workspace / "out" / "runs")
        assert result.exit_code == 0, result.output
        assert server.connections > connections and all_closed(server)


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
    assert result.stdout == ""
    assert result.stderr == "error: p_ic = p_ci = 0 has no unique stationary distribution\n"


def test_simulate_absorb_singular():
    # alpha = beta = 0 never accepts, so no exit split exists
    result = invoke("simulate", "absorb", "--alpha", "0", "--beta", "0",
                    "--y-c0", "0.5", "--y-i0", "0.5")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: det(I - Q) = 0.0; no absorption possible\n"


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
    ("absorb", "--alpha", "0.5", "--beta", "0.5", "--y-c0", "0.5", "--y-i0", "0.5",
     "--accept-limit", "0"),
    *[("verdep", "--alpha", "0.3", "--beta", "0.8", "--y-c0", "0.6", "--y-i0", "0.6",
       option, "0")
      for option in ("--samples", "--max-iterations", "--accept-limit", "--reject-limit")],
], ids=["absorb_accept_limit", "samples", "max_iterations",
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
    run_id = logs[0].parent.name
    assert engine.RUNNING in {st.status for st in RunStore(runs).load_run(run_id)[1].values()}

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


# a shell's background job starts with SIGINT ignored, and a child inherits
# that; the CLI process restores Python's handler, as an interactive one has
CLI_WITH_SIGINT = ("import signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
                   "from selfevolve.cli import main; main()")


def test_cli_http_run_stops_on_sigint(workspace):
    # Ctrl-C stops a threaded run: the calls in flight finish, no other call
    # starts, the process exits at once, and a resume finishes every trial
    reply = dict(completion("\\boxed{1}"), delay_s=0.05)
    with StubChatServer([reply] * 200) as server:
        http = f"backend:\n  endpoint: {server.endpoint}\n  model: m\n"
        (workspace / "http.yaml").write_text(BASE_CONFIG.replace(MOCK_SECTION, http)
                                             .replace("max_iterations: 3", "max_iterations: 10"))
        env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).resolve().parents[1]))
        child = subprocess.Popen([sys.executable, "-c", CLI_WITH_SIGINT, "run", "http.yaml"],
                                 cwd=workspace, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30.0
            while len(server.requests) < 10 and time.monotonic() < deadline:
                time.sleep(0.002)
            signalled = time.monotonic()
            child.send_signal(signal.SIGINT)
            _, stderr = child.communicate(timeout=30)
            stopped = time.monotonic() - signalled
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 1, stderr
        assert "Aborted!" in stderr
        assert stopped < 2.0
        assert sum(arrival > signalled for arrival in server.arrivals) <= 2  # parallelism
        runs = workspace / "out" / "runs"
        [log] = runs.glob("*/events.log")
        assert log.read_bytes().endswith(b"\n")
        run_id = log.parent.name
        assert engine.RUNNING in {st.status for st in RunStore(runs).load_run(run_id)[1].values()}
        result = invoke("resume", run_id, "--runs-dir", runs)
        assert result.exit_code == 0, result.output
    states = RunStore(runs).load_run(run_id)[1]
    assert [(st.status, len(st.records)) for st in states.values()] == [("completed", 11)] * 2


# --- exit codes in a fresh process -------------------------------------------

def run_cli_process(*args, cwd=None):
    # a fresh interpreter loads a command's modules itself, as an operator's
    # does, so a lookup of its errors cannot lean on modules a test loaded
    env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "selfevolve.cli", *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_cli_exit_codes_in_a_fresh_process(workspace):
    # one error from each module of the CLI's exit table: markov, engine, store
    result = run_cli_process("simulate", "stationary", "--p-ic", "0", "--p-ci", "0")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: p_ic = p_ci = 0 has no unique stationary distribution\n")

    (workspace / "bad.yaml").write_text(BASE_CONFIG + "backend:\n  endpoint: e\n")
    result = run_cli_process("run", "bad.yaml", cwd=workspace)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: invalid config: ")
    assert "exactly one" in result.stderr

    run_id = run_cli_experiment(workspace)
    runs = workspace / "out" / "runs"
    (run_dir(runs, run_id) / "events.log").write_bytes(b"garbage\n{}\n")
    result = run_cli_process("analyze", run_id, "--runs-dir", runs, "--out", workspace / "a")
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr.startswith("error: unparseable event at line 1: ")

    result = run_cli_process("analyze", "nope", "--runs-dir", runs, "--out", workspace / "a")
    assert (result.returncode, result.stdout) == (5, "")
    assert result.stderr.startswith("error: store unavailable: no readable manifest for run nope")


def test_exit_on_error_reraises_what_the_table_does_not_name():
    with pytest.raises(RuntimeError, match="not in the table"):
        with _exit_on_error():
            raise RuntimeError("not in the table")


# --- usage errors and help ---------------------------------------------------

CHAIN = ("--alpha", "0.5", "--beta", "0.5", "--y-c0", "0.5", "--y-i0", "0.5")


@pytest.mark.parametrize("args, culprit", [
    (("simulate", "trajectory"), "trajectory"),
    (("analyze", "RUN"), "--out"),
    (("simulate", "stationary", "--p-ic", "1.5", "--p-ci", "0.1"), "Invalid value '1.5'"),
    (("simulate", "absorb", *CHAIN, "--start", "X"), "'X'"),
    (("simulate", "verdep", *CHAIN, "--samples", "abc"), "Invalid value 'abc'"),
    (("run", "missing.yaml"), "Invalid value 'missing.yaml'"),
], ids=["unknown_command", "analyze_without_out", "probability", "start", "samples", "no_config"])
def test_cli_usage_error_exits_2(tmp_path, args, culprit):
    # a usage error names what it refused, on stderr alone, without a traceback
    result = run_cli_process(*args, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert culprit in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command, names", [
    ((), ["run", "resume", "analyze", "simulate"]),
    (("run",), ["config_path"]),
    (("resume",), ["run_id", "--runs-dir", "out/runs", "--config", "--reports-dir"]),
    (("analyze",), ["run_id", "--runs-dir", "out/runs", "--out"]),
    (("simulate",), ["stationary", "absorb", "verdep"]),
    (("simulate", "stationary"), ["--p-ic", "--p-ci"]),
    (("simulate", "absorb"), [*CHAIN[::2], "--accept-limit", "--start", "S1", "S2"]),
    (("simulate", "verdep"), [*CHAIN[::2], "--accept-limit", "--reject-limit", "--start", "C",
                              "--samples", "--max-iterations", "--seed", "--csv"]),
], ids=["selfevolve", "run", "resume", "analyze", "simulate", "stationary", "absorb", "verdep"])
def test_cli_help_names_every_option(command, names):
    result = invoke(*command, "--help")
    assert (result.exit_code, result.stderr) == (0, "")
    assert [name for name in names if name not in result.stdout] == []
