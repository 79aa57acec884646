import json
from importlib import resources

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


@pytest.fixture
def grp():
    """Build a group from its descriptor string. Nothing is memoized: build
    shares a group only while some caller holds it, so a group no test holds
    is built again."""
    def _build(text: str):
        return build(parse_descriptor(text))
    return _build
