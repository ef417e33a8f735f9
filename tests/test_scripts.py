"""The maintenance scripts import against the current package.

Each script runs its main() only under ``__name__ == "__main__"``, so an
import executes nothing but its imports: a name a script binds that the
package no longer defines fails here, not at the next data rebuild.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
