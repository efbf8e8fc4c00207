"""Run configuration file parsing and validation.

A run config is a YAML document with sections:

    backend: {endpoint, model, auth_env, timeout_s, ...}   # real HTTP backend
    mock: {ground_truth, p_ic, p_ci, alpha, beta, ...}     # or a mock backend
    controller: {kind, max_iterations, accept_limit, ...}
    prompts: {solve_prompt, verify_prompt, refine_prompt}  # optional overrides
    experiment: {problems, k_trials, run_seed, parallelism, store_sync}
    output_dir: path

Exactly one of backend/mock must be present. The problems file is a YAML or
JSON list of {id, statement, answer} records.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .answers import normalize_answer
from .backend import BackendConfig, HttpBackend, MockBackendProvider, mock_spec_from_dict
from .engine import ControllerConfig, Problem, PromptSet, run_inputs
from .store import SYNC_MODES


class ConfigInvalid(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


_BACKEND_KEYS = {f.name for f in dataclasses.fields(BackendConfig)}
_CONTROLLER_KEYS = {f.name for f in dataclasses.fields(ControllerConfig)}
_PROMPT_KEYS = {f.name for f in dataclasses.fields(PromptSet)}
_MOCK_KEYS = {"ground_truth", "initial_correct_probability", "p_ic", "p_ci",
              "alpha", "beta", "wrong_answer_space"}
_EXPERIMENT_KEYS = {"problems", "k_trials", "run_seed", "parallelism", "store_sync"}


def _integer(value) -> int:
    """int(value), refusing a float or a bool instead of truncating it."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"must be an integer, not {value!r}")
    return int(value)


def _checked(errors: list[str], name: str, build, /, *args, **kwargs):
    """build(*args, **kwargs), recording a value error it raises under name
    in errors; None in that case."""
    try:
        return build(*args, **kwargs)
    except KeyError as e:
        errors.append(f"{name}.{e.args[0]}: required")
    except (TypeError, ValueError) as e:
        errors.append(f"{name}: {e}")
    return None


class RunConfig:
    """Validated run configuration plus factories for its pieces.

    Every error, including a value a dataclass rejects, is collected and
    raised as one ConfigInvalid before anything is written.
    """

    def __init__(self, raw: dict, base_dir: Path):
        self.raw = raw
        self.base_dir = base_dir
        errors: list[str] = []
        if not isinstance(raw, dict):
            raise ConfigInvalid(["config root must be a mapping"])

        has_backend = "backend" in raw
        has_mock = "mock" in raw
        if has_backend == has_mock:
            errors.append("exactly one of 'backend' or 'mock' sections must be present")

        # sections that are mappings with known keys only; an absent one is empty
        bodies: dict[str, dict] = {}
        for section, allowed in (("backend", _BACKEND_KEYS), ("mock", _MOCK_KEYS),
                                 ("controller", _CONTROLLER_KEYS),
                                 ("prompts", _PROMPT_KEYS),
                                 ("experiment", _EXPERIMENT_KEYS)):
            body = raw.get(section)
            if body is None:
                body = {}
            if not isinstance(body, dict):
                errors.append(f"{section}: must be a mapping")
                continue
            unknown = set(body) - allowed
            if unknown:
                errors.append(f"{section}: unknown keys {sorted(unknown)}")
                continue
            bodies[section] = body

        exp = bodies.get("experiment", {})
        if "problems" not in exp:
            errors.append("experiment.problems: required")
        else:
            problems_path = base_dir / str(exp["problems"])
            if not problems_path.exists():
                errors.append(f"experiment.problems: file not found: {problems_path}")
        self.k_trials = _checked(errors, "experiment.k_trials", _integer, exp.get("k_trials", 1))
        if self.k_trials is not None and self.k_trials < 1:
            errors.append("experiment.k_trials: must be >= 1")
        self.parallelism = _checked(errors, "experiment.parallelism", _integer,
                                    exp.get("parallelism", 8))
        if self.parallelism is not None and self.parallelism < 1:
            errors.append("experiment.parallelism: must be >= 1")
        self.run_seed = _checked(errors, "experiment.run_seed", _integer, exp.get("run_seed", 0))
        if exp.get("store_sync", "always") not in SYNC_MODES:
            errors.append(f"experiment.store_sync: must be one of {list(SYNC_MODES)}")

        # the dataclasses own their value rules; building them here turns a
        # rejected value into a collected error
        self.controller = _checked(errors, "controller", ControllerConfig,
                                   **bodies.get("controller", {}))
        if has_mock and "mock" in bodies:
            _checked(errors, "mock", mock_spec_from_dict, bodies["mock"])
        if has_backend and "backend" in bodies:
            if not bodies["backend"].get("endpoint"):
                errors.append("backend.endpoint: required")
            else:
                _checked(errors, "backend", BackendConfig, **bodies["backend"])

        if errors:
            raise ConfigInvalid(errors)

        self.prompts = PromptSet(**bodies.get("prompts", {}))
        self.store_sync = exp.get("store_sync", "always")
        self.problems_path = base_dir / str(exp["problems"])
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

    def snapshot(self) -> dict:
        """Immutable config snapshot stored in the run manifest."""
        snap = {
            "controller": dataclasses.asdict(self.controller),
            "prompts": dataclasses.asdict(self.prompts),
            "k_trials": self.k_trials,
            "run_seed": self.run_seed,
        }
        if "mock" in self.raw:
            snap["mock"] = dict(self.raw["mock"])
        else:
            snap["backend"] = dict(self.raw["backend"])
        return snap

    def build_backend(self):
        return _backend(self.snapshot())

    def load_problems(self) -> list[Problem]:
        return load_problems(self.problems_path)


def _backend(snapshot: dict):
    """The backend a config snapshot's mock or backend section describes."""
    if "mock" in snapshot:
        return MockBackendProvider(mock_spec_from_dict(snapshot["mock"]))
    return HttpBackend(BackendConfig(**snapshot["backend"]))


def build_backend_from_manifest(manifest: dict):
    """The backend a run manifest describes. A manifest whose controller,
    prompts, problems, mock or backend section cannot build raises
    ConfigInvalid, so a resume refuses the run before it appends anything."""
    errors: list[str] = []
    _checked(errors, "manifest", run_inputs, manifest)
    section = "mock" if "mock" in manifest["config"] else "backend"
    backend = _checked(errors, section, _backend, manifest["config"])
    if errors:
        raise ConfigInvalid(errors)
    return backend


def load_problems(path: str | Path) -> list[Problem]:
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
    problems = []
    seen = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "statement" not in rec:
            raise ConfigInvalid([f"{path}: record {i} needs 'id' and 'statement'"])
        pid = str(rec["id"])
        if pid in seen:
            raise ConfigInvalid([f"{path}: duplicate problem id {pid!r}"])
        seen.add(pid)
        answer = rec.get("answer")
        try:
            problems.append(Problem(
                problem_id=pid,
                statement=str(rec["statement"]),
                answer=normalize_answer(str(answer)) if answer is not None else None,
            ))
        except ValueError as e:
            raise ConfigInvalid([f"{path}: record {i}: {e}"]) from e
    return problems
