"""Every name a module exports resolves, so a deleted function cannot leave
a stale export behind."""

import importlib
import pkgutil

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
