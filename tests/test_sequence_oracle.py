"""The sequence and biword side against its generate-and-test reference:
the same sequences and biwords in the same order, the same residue for
every sequence, the same triple for every biword, and the same reports from
the two catalog entries built on them."""

import itertools

import pytest

from reference_group import reference_is_compatible
from reference_sequences import (
    reference_biword_count,
    reference_bijection_stats,
    reference_check_triple,
    reference_composition_sequences,
    reference_distinct_permutations,
    reference_enumerate_biwords,
    reference_from_triple,
    reference_lambda_of,
    reference_sequence_from,
    reference_to_triple,
)

from wreathstats import identities
from wreathstats.biwords import (
    Triple,
    enumerate_biwords,
    from_triple,
    to_triple,
)
from wreathstats.encoding import (
    _distinct_permutations,
    enumerate_sequences,
    is_compatible,
    lambda_of,
    partitions_in_box,
    sequence_from,
)
from wreathstats.group import enumerate_group
from wreathstats.identities import _weak_compositions

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


def test_same_arrangements_in_the_same_order():
    # every multiset of size <= 7 over 4 values, handed over in both orders
    for size in range(8):
        for multiset in itertools.combinations_with_replacement(range(4), size):
            want = list(reference_distinct_permutations(multiset))
            for items in (list(multiset), list(reversed(multiset))):
                assert list(_distinct_permutations(items)) == want, items


@pytest.mark.parametrize("r,n", _GRID)
def test_same_composition_sequences_in_the_same_order(r, n):
    for parts in range(1, 5):
        for comp in _weak_compositions(n, parts):
            got = list(enumerate_sequences(r, n, composition=comp))
            assert got == list(reference_composition_sequences(r, n, comp)), comp


@pytest.mark.parametrize("r,n", _GRID)
def test_same_maps(r, n):
    cap = max(_caps(n))
    for f in enumerate_sequences(r, n, max_cap=cap):
        assert lambda_of(f) == reference_lambda_of(f)
    boxes = list(partitions_in_box(n, cap))
    for gamma in enumerate_group(r, n):
        for lam in boxes:
            assert sequence_from(gamma, lam) == reference_sequence_from(gamma, lam)
            assert is_compatible(lam, gamma) == reference_is_compatible(lam, gamma)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_triples(r, n):
    for cap_f, cap_g in itertools.product(_caps(n), repeat=2):
        for b in enumerate_biwords(r, n, cap_f, cap_g):
            t = to_triple(b)
            assert (t.gamma, t.lam, t.mu) == reference_to_triple(b), b
            assert from_triple(t) == reference_from_triple(t.gamma, t.lam, t.mu) == b


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("r,n", _GRID)
def test_same_triple_check(r, n):
    boxes = list(partitions_in_box(n, 2 if n < 4 else 1))
    for gamma in enumerate_group(r, n):
        for lam, mu in itertools.product(boxes, repeat=2):
            assert (_outcome(Triple, gamma, lam, mu)
                    == _outcome(reference_check_triple, gamma, lam, mu)), \
                (gamma, lam, mu)


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
