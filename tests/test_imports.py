"""The program's import paths load neither numpy nor requests."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("modules", [
    ("selfevolve.cli",),
    ("selfevolve.backend", "selfevolve.engine"),  # what bench/stub.py imports
], ids=["cli", "backend_engine"])
def test_no_numpy_or_requests_on_import(modules):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "".join(f"import {m}; " for m in modules)
            + "print(sorted({'numpy', 'requests'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
