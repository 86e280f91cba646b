"""Every name a module exports resolves, so a deleted function cannot leave
a stale export behind."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import janostab

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
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(janostab.__file__)))
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "violated" in out.stdout
