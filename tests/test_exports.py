"""Every name a module exports resolves, so a deleted function cannot leave
a stale export behind, and has a caller outside the tests."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import janostab

ROOT = Path(__file__).resolve().parents[1]
METHOD_TYPES = (types.FunctionType, property, classmethod, staticmethod)

# __main__ runs the CLI when imported
MODULES = [
    m.name for m in pkgutil.iter_modules(janostab.__path__, "janostab.") if m.name != "janostab.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_modules_are_found():
    assert {"janostab.inequalities", "janostab.janowski", "janostab.cli"} <= set(MODULES)


def test_the_cli_imports_no_numpy_polynomial():
    # every benchmark worker and CLI run imports the CLI; numpy.polynomial
    # would add its import time to each, and no module of the package needs it
    code = "import sys, janostab.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(janostab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_the_readme_sketch_runs():
    # the README's one python block, as a reader would run it: a name it
    # uses that the package no longer has fails here
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(janostab.__file__)))
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "violated" in out.stdout


def _used_names() -> set:
    """Every name and attribute read in the package, the benchmark's
    workloads and the tools.  Definitions, assignments, imports and the
    strings of ``__all__`` are not reads, so they do not count."""
    files = [*(ROOT / "src" / "janostab").glob("*.py"), ROOT / "perfbench" / "workloads.py",
             *(ROOT / "tools").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    # the package exports no API that only the tests use: each name in an
    # __all__, and each public method or property of an exported class
    public = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            public.add(f"{name}.{attr}")
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                public.update(
                    f"{name}.{attr}.{member}" for member, value in vars(obj).items()
                    if not member.startswith("_") and isinstance(value, METHOD_TYPES)
                )
    used = _used_names()
    assert sorted(qual for qual in public if qual.rsplit(".", 1)[1] not in used) == []
