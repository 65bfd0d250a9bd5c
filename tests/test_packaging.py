import importlib.util
import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
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
