import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import polywidth

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _names(deps):
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps]


def test_declared_dependencies_are_importable():
    deps = _project()["dependencies"]
    assert deps
    for dep, name in zip(deps, _names(deps)):
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep


def test_scipy_is_a_test_dependency_only():
    # the tests use scipy.stats as a reference; the package itself needs numpy alone
    project = _project()
    assert _names(project["dependencies"]) == ["numpy"]
    assert "scipy" in _names(project["optional-dependencies"]["test"])


def test_module_entry_point_prints_the_version():
    src = os.path.dirname(os.path.dirname(polywidth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "polywidth", "--version"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "polywidth 0.1.0\n"
