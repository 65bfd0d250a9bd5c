import importlib.util
import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_declared_dependencies_are_importable():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).replace("-", "_")
        assert importlib.util.find_spec(name) is not None, dep
