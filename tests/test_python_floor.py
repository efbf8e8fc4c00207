"""Every Python file of the project parses as the oldest Python that
pyproject.toml allows, and uses no standard module or name newer than it, so
an interpreter newer than the floor does not hide what the floor refuses."""

import ast
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(n) for n in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
# standard modules, and names in older ones, added after the floor
NEWER_MODULES = {"tomllib"}
NEWER_NAMES = {"typing": {"Self", "LiteralString", "Never", "assert_never"},
               "enum": {"StrEnum"}, "asyncio": {"TaskGroup"}, "datetime": {"UTC"},
               "contextlib": {"chdir"}, "hashlib": {"file_digest"},
               "builtins": {"ExceptionGroup", "BaseExceptionGroup"}}


def floor_problems(path: Path) -> list[str]:
    """What in path the floor's interpreter would refuse."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=FLOOR)
    except SyntaxError as e:
        return [f"{path}:{e.lineno}: {e.msg}"]
    imports, names, calls, modules = [], [], [], {}  # modules: a local name -> its module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(node.lineno, alias.name) for alias in node.names]
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports.append((node.lineno, node.module))
            names += [(node.lineno, node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append((node.lineno, node.value.id, node.attr))
        elif isinstance(node, ast.Name):
            names.append((node.lineno, "builtins", node.id))
        # before 3.11, int.to_bytes needs length and byteorder, from_bytes byteorder
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_bytes", "from_bytes")
                and len(node.args) + len(node.keywords) < 2):
            calls.append((node.lineno, node.func.attr))
    problems = [f"{path}:{line}: imports {name}" for line, name in imports
                if name.split(".")[0] in NEWER_MODULES]
    problems += [f"{path}:{line}: {name}() without byteorder" for line, name in calls]
    for line, module, name in names:
        module = modules.get(module, module)
        if name in NEWER_NAMES.get(module, ()):
            problems.append(f"{path}:{line}: uses {module}.{name}")
    return problems


def test_floor_is_the_oldest_ci_job():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert min(tuple(int(n) for n in v.split(".")) for v in versions) == FLOOR


def test_sources_parse_at_the_python_floor():
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 30
    assert [problem for path in files for problem in floor_problems(path)] == []


def test_floor_refuses_newer_syntax_and_modules(tmp_path):
    path = tmp_path / "newer.py"
    path.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert "Exception groups" in floor_problems(path)[0]
    for line in ("import tomllib", "from tomllib import loads", "import tomllib as t"):
        path.write_text(line + "\n")
        assert floor_problems(path) == [f"{path}:1: imports tomllib"]
    for text, name in [
        ("from typing import Self", "typing.Self"),
        ("import typing\nx: typing.LiteralString", "typing.LiteralString"),
        ("from typing import Never", "typing.Never"),
        ("import typing as t\nt.assert_never(0)", "typing.assert_never"),
        ("from enum import StrEnum", "enum.StrEnum"),
        ("import asyncio\nasyncio.TaskGroup()", "asyncio.TaskGroup"),
        ("raise ExceptionGroup('x', [])", "builtins.ExceptionGroup"),
        ("isinstance(0, BaseExceptionGroup)", "builtins.BaseExceptionGroup"),
        ("import datetime\ndatetime.UTC", "datetime.UTC"),
        ("from contextlib import chdir", "contextlib.chdir"),
        ("import hashlib\nhashlib.file_digest", "hashlib.file_digest"),
    ]:
        path.write_text(text + "\n")  # the name is on the last line
        assert floor_problems(path) == [f"{path}:{text.count(chr(10)) + 1}: uses {name}"], text
    path.write_text("import typing\nfrom typing import Optional\ntyping.Optional\n")
    assert floor_problems(path) == []
    for text, name in [("(1).to_bytes(8)", "to_bytes"), ("n.to_bytes()", "to_bytes"),
                       ("n.to_bytes(length=8)", "to_bytes"),
                       ("int.from_bytes(b'x')", "from_bytes")]:
        path.write_text(text + "\n")
        assert floor_problems(path) == [f"{path}:1: {name}() without byteorder"], text
    path.write_text("n.to_bytes(8, 'little')\nn.to_bytes(length=8, byteorder='big')\n"
                    "int.from_bytes(b'x', 'big')\nint.from_bytes(b'x', byteorder='big')\n")
    assert floor_problems(path) == []
