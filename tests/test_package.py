"""The package's public names: each one the package bound before the catalog
and the ring became lazy still resolves, to the object its module defines."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import wreathstats

# Every name ``import wreathstats`` bound when it imported every module,
# with the module that defines it; the six modules themselves come after.
_NAMES = {
    "BudgetExceededError": "group", "ColoredInteger": "group",
    "ColoredPermutation": "group", "ParseError": "group", "StatRecord": "group",
    "compare_colored": "group", "enumerate_group": "group",
    "format_window": "group", "group_order": "group",
    "identity_element": "group", "inverse": "group", "multiply": "group",
    "parse_window": "group", "project_to_signed": "group",
    "skew_inverse": "group", "statistics": "group",
    "ColoredSequence": "encoding", "Partition": "encoding",
    "SequenceStats": "encoding", "enumerate_sequences": "encoding",
    "format_sequence": "encoding", "is_compatible": "encoding",
    "lambda_gamma": "encoding", "lambda_of": "encoding",
    "parse_partition": "encoding", "parse_sequence": "encoding",
    "partitions_in_box": "encoding", "pi_of": "encoding",
    "seq_statistics": "encoding", "sequence_from": "encoding",
    "DescentClass": "parabolic", "decompose": "parabolic",
    "quotient_set": "parabolic",
    "Biword": "biwords", "Triple": "biwords", "enumerate_biwords": "biwords",
    "from_triple": "biwords", "is_biword": "biwords", "to_triple": "biwords",
    "ExponentOverflowError": "qseries", "MultiPoly": "qseries",
    "SeriesContext": "qseries", "hat_multinomial": "qseries",
    "pochhammer": "qseries",
    "CATALOG": "identities", "VerificationReport": "identities",
    "dist_polynomial": "identities", "selftest_localization": "identities",
    "verify_identity": "identities",
}
_MODULES = ("group", "encoding", "parabolic", "biwords", "qseries", "identities")


@pytest.mark.parametrize("name", _NAMES)
def test_name_is_its_modules_object(name):
    module = importlib.import_module(f"wreathstats.{_NAMES[name]}")
    assert getattr(wreathstats, name) is getattr(module, name)


@pytest.mark.parametrize("name", _MODULES)
def test_module_is_bound(name):
    assert getattr(wreathstats, name) is importlib.import_module(f"wreathstats.{name}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wreathstats import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {*_NAMES, *_MODULES}
    assert set(wreathstats.__all__) == {*_NAMES, *_MODULES}


def test_dir_lists_every_name():
    assert {*_NAMES, *_MODULES} <= set(dir(wreathstats))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wreathstats.no_such_name
    assert not hasattr(wreathstats, "reciprocal")


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    example = example.split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    expected = re.findall(r"^print\(.*\)\s*# (.*)$", example, re.MULTILINE)
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 3
