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


# Public names that no other davlab module, no davbench file and not the
# README refers to, each with the reason it stays public.
KEPT_UNREFERENCED = {
    "JenningsData": "the type jennings_data returns",
    "jennings_exponents": "a step of the Jennings chain: the e_i of each M_i / M_{i+1}",
    "loewy_polynomial": "a step of the Jennings chain: the coefficients loewy prints",
    "mseries_closed_form_check": "a paper check: the M-series against its closed form",
    "power_generators_check": "a paper check: G^(p^s) from the powers of the generators",
    "davenport_ordered_naive": "the naive oracle of D",
    "davenport_weighted_naive": "the naive oracle of D_A",
    "is_product_one": "a checker: some arrangement of a whole sequence is 1",
    "eg_lower_witness": "a computation: the E lower-bound witness from a D witness",
    "min_weight_set": "a computation: the least weight set with D_A <= k",
    "CongruenceSystem": "the type congruence_system returns",
    "WitnessSpec": "the type witness_for_theorem returns",
    "nilpotency_class": "a computation: the class c with gamma_(c+1) = 1, which info reads "
                        "off the lower central series it takes [G, G] from",
}


def test_every_public_name_is_referenced_or_kept_for_a_reason():
    """A name only tests call is a wrapper the library need not carry."""
    root = Path(__file__).resolve().parents[1]
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in (root / "src" / "davlab").glob("*.py")}
    outside = "\n".join([(root / "README.md").read_text(encoding="utf-8"),
                         *(path.read_text(encoding="utf-8")
                           for path in (root / "davbench").glob("*.py"))])
    unreferenced = set()
    for name in set(davlab.__all__) - {"__version__"}:
        word = re.compile(rf"\b{name}\b")
        own = davlab._MODULE_OF[name]
        if not (word.search(outside) or any(word.search(text) for module, text in modules.items()
                                            if module not in (own, "__init__"))):
            unreferenced.add(name)
    assert sorted(unreferenced - set(KEPT_UNREFERENCED)) == []
    assert set(KEPT_UNREFERENCED) <= set(davlab.__all__)


def test_dir_lists_every_public_name():
    assert set(davlab.__all__) <= set(dir(davlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        davlab.no_such_name
    assert not hasattr(davlab, "no_such_name")


def test_the_readme_layout_names_every_module():
    """Each module of src/davlab but __init__.py has its line in the README's
    Layout block, and the block names no other module."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"## Layout\s+```\n(.*?)```", readme, re.S)[1]
    named = re.findall(r"^  (\w+\.py) ", layout, re.M)
    modules = {path.name for path in (root / "src" / "davlab").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__.py"})


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
