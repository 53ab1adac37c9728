"""Every CLI output in the golden corpus is byte for byte what the committed
digests say; ``tests/golden_cli.py`` lists the argvs and regenerates them."""

import json

import pytest

from golden_cli import ARGVS, GOLDEN, record

_RECORDS = json.loads(GOLDEN.read_text())


def test_corpus_lists_every_argv():
    assert [rec["argv"] for rec in _RECORDS] == ARGVS


@pytest.mark.parametrize("want", _RECORDS, ids=lambda rec: " ".join(rec["argv"]))
def test_output_unchanged(want):
    assert record(want["argv"]) == want, f"output changed for {want['argv']}"
