"""The benchmark runs this source tree through a frozen API: its two
self-checks must pass, and every attribute its tracer patches must exist."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
