"""Every CLI output and corrupted catalog report in the golden corpus is
byte for byte what the committed digests say; ``tests/golden_cli.py`` lists
the argvs and catalog calls and regenerates them."""

import json

import pytest

from golden_cli import ARGVS, CALLS, GOLDEN, record, record_call

_RECORDS = json.loads(GOLDEN.read_text())
_ARGV_RECORDS = [rec for rec in _RECORDS if "argv" in rec]
_CALL_RECORDS = [rec for rec in _RECORDS if "call" in rec]


def test_corpus_lists_every_argv():
    assert [rec["argv"] for rec in _ARGV_RECORDS] == ARGVS


def test_corpus_lists_every_catalog_call():
    assert [rec["call"] for rec in _CALL_RECORDS] == CALLS
    assert len(_ARGV_RECORDS) + len(_CALL_RECORDS) == len(_RECORDS)


@pytest.mark.parametrize("want", _ARGV_RECORDS, ids=lambda rec: " ".join(rec["argv"]))
def test_output_unchanged(want):
    assert record(want["argv"]) == want, f"output changed for {want['argv']}"


@pytest.mark.parametrize("want", _CALL_RECORDS,
                         ids=lambda rec: "{} corrupt={}".format(*rec["call"]))
def test_catalog_call_unchanged(want):
    assert record_call(want["call"]) == want, f"report changed for {want['call']}"
