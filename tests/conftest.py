import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from davlab import build, parse_descriptor

_SCHEMA = json.loads(resources.files("davlab").joinpath("schema.json").read_text())
jsonschema.Draft202012Validator.check_schema(_SCHEMA)
# JSON Schema counts 5.0 as an integer; the CLI never prints one, so a float
# there is a fault. bool stays outside integer.
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool))
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=_TYPES)(_SCHEMA)


def schema_errors(doc) -> list[str]:
    """The problems of a CLI JSON document against the shipped schema.json,
    each as 'path: message'; empty when it is valid."""
    out = []
    for error in _VALIDATOR.iter_errors(doc):
        error = jsonschema.exceptions.best_match([error])  # inside the oneOf
        out.append("/".join(map(str, error.absolute_path)) + ": " + error.message)
    return out


def run_python(*argv, timeout=30):
    """`python argv` in a fresh interpreter on this checkout's davlab, so that
    imports start from nothing, under `timeout`, so that a hang exits 124. A
    child exec'd from this process would count this process's peak RSS as its
    own; one started by `timeout` counts only timeout's small image."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(["timeout", str(timeout), sys.executable, *argv], env=env,
                          capture_output=True, text=True)


@pytest.fixture
def grp():
    """Build a group from its descriptor string. Nothing is memoized: build
    shares a group only while some caller holds it, so a group no test holds
    is built again."""
    def _build(text: str):
        return build(parse_descriptor(text))
    return _build
