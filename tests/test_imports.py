"""The program's import paths load neither numpy nor requests, nor what only
some commands use: the HTTP client, the YAML parser, the thread pool, the XML
and email packages that `xml.sax.saxutils` would pull in, and orjson, which
the store loads only when a log is read or written.

The CLI loads a command's modules when that command runs: importing it, or
asking for help, loads no other module of the package, and a `simulate`
command adds only `markov`. Each case runs in a fresh interpreter, since the
test process has loaded every module."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from selfevolve.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = ("numpy", "requests", "http.client", "yaml", "concurrent.futures", "xml.sax",
              "urllib.request", "email")


def loaded_after(code: str) -> str:
    """The NOT_LOADED modules and orjson that a fresh interpreter holds after
    running code."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; "
            f"print(sorted(set({NOT_LOADED + ('orjson',)!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("modules", [
    ("selfevolve.cli",),
    ("selfevolve.backend", "selfevolve.engine"),  # what bench/stub.py imports
], ids=["cli", "backend_engine"])
def test_no_numpy_or_requests_on_import(modules):
    assert loaded_after("; ".join(f"import {m}" for m in modules)) == "[]"


def package_modules_after(args: list[str] | None) -> str:
    """The package's modules that a fresh interpreter holds after the CLI ran
    args, or after importing the CLI when args is None."""
    code = (f"import atexit, sys; sys.path.insert(0, {str(SRC)!r}); atexit.register(lambda: "
            "print(sorted(m for m in sys.modules if m.startswith('selfevolve')))); "
            "from selfevolve.cli import main")
    if args is not None:
        code += f"; main({args!r})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("args", [None, ["--help"], ["simulate", "--help"]],
                         ids=["import", "help", "simulate_help"])
def test_cli_loads_no_command_module_before_a_command(args):
    assert package_modules_after(args) == "['selfevolve', 'selfevolve.cli']"


@pytest.mark.parametrize("args", [
    ["stationary", "--p-ic", "0.3", "--p-ci", "0.1"],
    ["trajectory", "--p-ic", "0.3", "--p-ci", "0.1", "--steps", "5"],
    ["absorb", "--alpha", "0.3", "--beta", "0.8", "--y-c0", "0.9", "--y-i0", "0.3"],
    ["verdep", "--alpha", "0.3", "--beta", "0.8", "--y-c0", "0.9", "--y-i0", "0.3",
     "--samples", "10"],
], ids=lambda args: args[0])
def test_simulate_loads_only_markov(args):
    assert (package_modules_after(["simulate", *args])
            == "['selfevolve', 'selfevolve.cli', 'selfevolve.markov']")


def test_store_imports_no_other_package_module():
    # the store owns the manifest's hashes and engine, config and cli import
    # it, so it may import none of them
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import selfevolve.store; "
            "print(sorted(m for m in sys.modules if m.startswith('selfevolve.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "['selfevolve.store']"


def test_analyze_loads_none_of_them(tmp_path):
    (tmp_path / "problems.json").write_text(json.dumps(
        [{"id": "p0", "statement": "what is 59+1?", "answer": "60"}]))
    (tmp_path / "config.yaml").write_text(
        "mock: {ground_truth: '60', initial_correct_probability: 0.5, p_ic: 0.3, p_ci: 0.1}\n"
        "controller: {kind: dser, max_iterations: 3}\n"
        "experiment: {problems: problems.json, k_trials: 2, run_seed: 11}\n")
    result = CliRunner().invoke(main, ["run", str(tmp_path / "config.yaml")])
    assert result.exit_code == 0, result.output
    run_id = result.output.strip().splitlines()[-1]
    args = ["analyze", run_id, "--runs-dir", str(tmp_path / "out" / "runs"),
            "--out", str(tmp_path / "a")]
    code = f"from selfevolve.cli import main; main({args!r}, standalone_mode=False)"
    assert loaded_after(code) == "['orjson']"  # the log reader's, by design
    assert (tmp_path / "a" / "metrics_p0.csv").exists()
