"""Every CLI output, corrupted catalog report and grid run's polynomial sides
in the golden corpus is byte for byte what the committed digests say;
``tests/golden_cli.py`` lists the argvs, catalog calls and grid points and
regenerates them."""

import json

import pytest

from golden_cli import ARGVS, CALLS, GOLDEN, SIDES, record, record_call, record_sides

_RECORDS = json.loads(GOLDEN.read_text())
_ARGV_RECORDS = [rec for rec in _RECORDS if "argv" in rec]
_CALL_RECORDS = [rec for rec in _RECORDS if "call" in rec]
_SIDES_RECORDS = [rec for rec in _RECORDS if "sides" in rec]


def test_corpus_lists_every_argv():
    assert [rec["argv"] for rec in _ARGV_RECORDS] == ARGVS


def test_corpus_lists_every_catalog_call():
    assert [rec["call"] for rec in _CALL_RECORDS] == CALLS


def test_corpus_lists_every_grid_point():
    assert [rec["sides"] for rec in _SIDES_RECORDS] == SIDES
    assert (len(_ARGV_RECORDS) + len(_CALL_RECORDS) + len(_SIDES_RECORDS)
            == len(_RECORDS))


@pytest.mark.parametrize("want", _ARGV_RECORDS, ids=lambda rec: " ".join(rec["argv"]))
def test_output_unchanged(want):
    assert record(want["argv"]) == want, f"output changed for {want['argv']}"


@pytest.mark.parametrize("want", _CALL_RECORDS,
                         ids=lambda rec: "{} corrupt={}".format(*rec["call"]))
def test_catalog_call_unchanged(want):
    assert record_call(want["call"]) == want, f"report changed for {want['call']}"


@pytest.mark.parametrize("name", dict.fromkeys(name for name, _ in SIDES))
def test_sides_unchanged(name):
    wants = [rec for rec in _SIDES_RECORDS if rec["sides"][0] == name]
    for want in wants:
        assert record_sides(want["sides"]) == want, f"sides changed for {want['sides']}"
