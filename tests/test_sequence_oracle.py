"""The sequence and biword side against its generate-and-test reference:
the same biwords in the same order, the same residue for every sequence,
and the same reports from the two catalog entries built on them."""

import itertools

import pytest

from reference_sequences import (
    reference_biword_count,
    reference_bijection_stats,
    reference_enumerate_biwords,
    reference_lambda_of,
    reference_sequence_from,
)

from wreathstats import identities
from wreathstats.biwords import enumerate_biwords
from wreathstats.encoding import (
    enumerate_sequences,
    lambda_of,
    partitions_in_box,
    sequence_from,
)
from wreathstats.group import enumerate_group

# (r, n) pairs: r <= 3 and n <= 3, with caps <= 3; plus r=2, n=4 with caps 2.
_GRID = list(itertools.product((1, 2, 3), range(4))) + [(2, 4)]


def _caps(n):
    return (2,) if n == 4 else range(4)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_biwords_in_the_same_order(r, n):
    for cap_f, cap_g in itertools.product(_caps(n), repeat=2):
        got = list(enumerate_biwords(r, n, cap_f, cap_g))
        assert got == list(reference_enumerate_biwords(r, n, cap_f, cap_g)), \
            (cap_f, cap_g)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_maps(r, n):
    cap = max(_caps(n))
    for f in enumerate_sequences(r, n, max_cap=cap):
        assert lambda_of(f) == reference_lambda_of(f)
    boxes = list(partitions_in_box(n, cap))
    for gamma in enumerate_group(r, n):
        for lam in boxes:
            assert sequence_from(gamma, lam) == reference_sequence_from(gamma, lam)


def _report(monkeypatch, name, func, params):
    monkeypatch.setitem(identities.CATALOG, name,
                        (func, identities.CATALOG[name][1]))
    out = identities.verify_identity(name, **params).to_json_dict()
    out.pop("millis")
    return out


@pytest.mark.filterwarnings("ignore:bijection_stats. cap cap=0")
@pytest.mark.parametrize("r,n", _GRID)
def test_bijection_stats_reports(monkeypatch, r, n):
    for cap in _caps(n):
        params = {"r": r, "n": n, "cap": cap}
        new = _report(monkeypatch, "bijection_stats", identities._bijection_stats, params)
        old = _report(monkeypatch, "bijection_stats", reference_bijection_stats, params)
        assert new == old


@pytest.mark.parametrize("r,n", [(r, n) for r, n in _GRID if n])
def test_biword_count_reports(monkeypatch, r, n):
    for cap_f, cap_g in [(0, 0), (1, 3), (3, 1), (3, 3)] if n < 4 else [(2, 2)]:
        params = {"r": r, "n": n, "cap_f": cap_f, "cap_g": cap_g}
        new = _report(monkeypatch, "biword_count", identities._biword_count, params)
        old = _report(monkeypatch, "biword_count", reference_biword_count, params)
        assert new == old
