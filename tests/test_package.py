import importlib
import re
from pathlib import Path

import pytest

import davlab
from conftest import run_python


def test_public_names_are_the_objects_of_their_defining_modules():
    assert davlab.__version__ == importlib.import_module("davlab.version").__version__
    for name in set(davlab.__all__) - {"__version__"}:
        value = getattr(davlab, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("davlab."), name
        assert getattr(module, name) is value, name


def test_dir_lists_every_public_name():
    assert set(davlab.__all__) <= set(dir(davlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        davlab.no_such_name
    assert not hasattr(davlab, "no_such_name")


def test_the_readme_library_example_prints_5_5_and_true():
    """The python block of the README's Library section, run as it is written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    done = run_python("-c", re.search(r"## Library\s+```python\n(.*?)```", readme, re.S)[1])
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["5", "5", "True"]


def test_the_installed_script_takes_the_fast_exit():
    """pyproject's `davlab` script is cli.run, which ends the process with
    os._exit once the output is flushed (a regex: Python 3.10 has no tomllib)."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert re.findall(r'^davlab\s*=\s*"([^"]*)"', scripts[1], re.M) == ["davlab.cli:run"]
