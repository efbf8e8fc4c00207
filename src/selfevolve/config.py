"""Run configuration file parsing.

A run config is a YAML document with sections:

    backend: {endpoint, model, auth_env, timeout_s, ...}   # real HTTP backend
    mock: {ground_truth, p_ic, p_ci, alpha, beta, ...}     # or a mock backend
    controller: {kind, max_iterations, accept_limit, ...}
    prompts: {solve_prompt, verify_prompt, refine_prompt}  # optional overrides
    experiment: {problems, k_trials, run_seed, parallelism, store_sync}
    output_dir: path

Exactly one of backend/mock must be present. The problems file is a YAML or
JSON list of {id, statement, answer} records. The file is read into the run
description its manifest will hold, which engine.run_inputs builds as a
resume builds a stored manifest, so a config file and a manifest pass the
same checks.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .engine import ConfigInvalid, run_inputs

_SECTIONS = {"backend", "mock", "controller", "prompts", "experiment", "output_dir"}
_EXPERIMENT_KEYS = {"problems", "k_trials", "run_seed", "parallelism", "store_sync"}


class RunConfig:
    """A config file's run inputs, and the config section its run records.

    Every error, the file's own and those of every section, is collected and
    raised as one ConfigInvalid before anything is written.
    """

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigInvalid(["config root must be a mapping"])
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

        # an absent or empty section takes its defaults; run_inputs checks
        # every section's keys and values
        k_trials, run_seed = exp.get("k_trials", 1), exp.get("run_seed", 0)
        config = {"controller": {}, "prompts": {},
                  **{section: {} if raw[section] is None else raw[section]
                     for section in ("controller", "prompts", "mock", "backend")
                     if section in raw},
                  "k_trials": k_trials, "run_seed": run_seed}
        try:
            self.inputs = run_inputs({
                "config": config, "problems": records, "k_trials": k_trials,
                "run_seed": run_seed,
                **{key: exp[key] for key in ("parallelism", "store_sync") if key in exp}})
        except ConfigInvalid as e:
            errors += e.errors
        if errors:
            raise ConfigInvalid(errors)

        # the config a run of this file records, which resume --config compares
        self.config = dict(config, controller=dataclasses.asdict(self.inputs.controller),
                           prompts=dataclasses.asdict(self.inputs.prompts))
        self.output_dir = base_dir / str(raw.get("output_dir", "out"))

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        import yaml
        path = Path(path)
        try:
            raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        except (OSError, yaml.YAMLError) as e:
            raise ConfigInvalid([f"cannot read config: {e}"]) from e
        return cls(raw, path.parent.resolve())


def load_problems(path: str | Path) -> list[dict]:
    """The {id, statement, answer} records of a problems file, as a manifest
    holds them before run_inputs builds them."""
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
    return [{"id": str(rec["id"]), "statement": str(rec["statement"]),
             "answer": None if rec.get("answer") is None else str(rec["answer"])}
            for rec in records]
