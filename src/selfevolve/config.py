"""Run configuration file parsing.

A run config is a YAML document with sections:

    backend: {endpoint, model, auth_env, timeout_s, ...}   # real HTTP backend
    mock: {ground_truth, p_ic, p_ci, alpha, beta, ...}     # or a mock backend
    controller: {kind, max_iterations, accept_limit, ...}
    prompts: {solve_prompt, verify_prompt, refine_prompt}  # optional overrides
    experiment: {problems, k_trials, run_seed, parallelism, store_sync}
    output_dir: path

Exactly one of backend/mock must be present. The problems file is a YAML or
JSON list of {id, statement, answer} records. read_config reads the file into
the manifest body that engine.start_run runs, and checks it with
engine.run_inputs, which builds a stored manifest, so both pass one check.
"""

from __future__ import annotations

import json
from pathlib import Path

from .answers import normalize_answer
from .engine import ConfigInvalid, run_inputs

_SECTIONS = {"backend", "mock", "controller", "prompts", "experiment", "output_dir"}
_EXPERIMENT_KEYS = {"problems", "k_trials", "run_seed", "parallelism", "store_sync"}


def read_config(path: str | Path) -> tuple[dict, Path]:
    """(the run description of the config file at path, its output dir).

    Every error, the file's own and those of every section, is collected and
    raised as one ConfigInvalid before anything is written.
    """
    import yaml
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, yaml.YAMLError) as e:
        raise ConfigInvalid([f"cannot read config: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigInvalid(["config root must be a mapping"])
    base_dir = path.parent.resolve()
    errors: list[str] = []
    unknown = set(raw) - _SECTIONS
    if unknown:
        errors.append(f"unknown sections {sorted(unknown)}")
    if ("backend" in raw) == ("mock" in raw):
        errors.append("exactly one of 'backend' or 'mock' sections must be present")

    exp = raw.get("experiment") or {}
    if not isinstance(exp, dict):
        errors.append("experiment: must be a mapping")
        exp = {}
    if set(exp) - _EXPERIMENT_KEYS:
        errors.append(f"experiment: unknown keys {sorted(set(exp) - _EXPERIMENT_KEYS)}")
    records = []
    if "problems" not in exp:
        errors.append("experiment.problems: required")
    else:
        try:
            records = load_problems(base_dir / str(exp["problems"]))
        except ConfigInvalid as e:
            errors += e.errors

    # an absent or empty section takes its defaults; run_inputs checks every
    # section's keys and values
    description = {
        "config": {"controller": {}, "prompts": {},
                   **{section: {} if raw[section] is None else raw[section]
                      for section in ("controller", "prompts", "mock", "backend")
                      if section in raw}},
        "problems": records, "k_trials": exp.get("k_trials", 1),
        "run_seed": exp.get("run_seed", 0),
        **{key: exp[key] for key in ("parallelism", "store_sync") if key in exp}}
    try:
        run_inputs(description)
    except ConfigInvalid as e:
        errors += e.errors
    if errors:
        raise ConfigInvalid(errors)
    return description, base_dir / str(raw.get("output_dir", "out"))


def load_problems(path: str | Path) -> list[dict]:
    """The {id, statement, answer} records of a problems file, as a manifest
    holds them: each answer normalized, as run_inputs builds it."""
    import yaml  # bound before the try: its except clause names yaml.YAMLError
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
        elif path.suffix == ".json":
            records = json.loads(text)
        else:
            records = yaml.safe_load(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, yaml.YAMLError) as e:
        raise ConfigInvalid([f"{path}: cannot read problems file: {e}"]) from e
    if not isinstance(records, list) or not records:
        raise ConfigInvalid([f"{path}: problems file must be a non-empty list"])
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "statement" not in rec:
            raise ConfigInvalid([f"{path}: record {i} needs 'id' and 'statement'"])
    return [{"id": str(rec["id"]), "statement": str(rec["statement"]), "answer": None
             if rec.get("answer") is None else normalize_answer(str(rec["answer"])).canonical}
            for rec in records]
