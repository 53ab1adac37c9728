"""The sequence and biword side against its generate-and-test reference:
the same sequences and biwords in the same order, the same residue for
every sequence, the same triple for every biword, the same count for every
column multiset, the same reports from the two catalog entries built on
them, under a faulty sort too and, for ``biword_count``, a faulty count,
and the same tallies from the sequence walks behind ``keylem`` and
``desmaj`` as from sorting every sequence.  The tuple cores behind
``bijection_stats`` and ``biword_count`` meet the same references, and
``_to_triple`` gives the same triple or error with a shared table of
bottom rows as without one."""

import itertools

import pytest

import reference_sequences
from reference_group import (
    reference_des_set,
    reference_is_compatible,
    reference_statistics,
)
from reference_sequences import (
    reference_biword_count,
    reference_bijection_stats,
    reference_check_triple,
    reference_column_realization_count,
    reference_composition_sequences,
    reference_desmaj_tally,
    reference_distinct_permutations,
    reference_enumerate_biwords,
    reference_from_triple,
    reference_keylem_tally,
    reference_lambda_of,
    reference_recursive_distinct_permutations,
    reference_sequence_from,
    reference_sorted_desmaj_tally,
    reference_sorted_keylem_tally,
    reference_to_triple,
    reference_weak_compositions,
)
from test_fault_matrix import _NOT_SKEW, _past_the_cap
from test_identities import (
    _colorblind_sort,
    _flat_sort,
    _lax_biwords,
    _one_realization,
    _patch_everywhere,
    _reversed_sort,
)

from wreathstats import identities
from wreathstats.biwords import (
    Biword,
    Triple,
    _biwords,
    _columns,
    _from_triple,
    _to_triple,
    _window,
    column_realization_count,
    enumerate_biwords,
    from_triple,
    to_triple,
)
from wreathstats.encoding import (
    ColoredSequence,
    _distinct_permutations,
    _residue,
    _sequence_from,
    _sequences,
    _sort,
    enumerate_sequences,
    is_compatible,
    lambda_of,
    partitions_in_box,
    pi_of,
    sequence_from,
)
from wreathstats.group import (
    BudgetExceededError,
    _descent_set,
    _length,
    _skew,
    enumerate_group,
    statistics,
)
from wreathstats.identities import _weak_compositions

# (r, n) pairs: r <= 3 and n <= 3, with caps <= 3; plus r=2, n=4 with caps 2.
_GRID = list(itertools.product((1, 2, 3), range(4))) + [(2, 4)]


def _caps(n):
    return (2,) if n == 4 else range(4)


# r <= 3 and n <= 4 for the tuple cores
_CORE_GRID = list(itertools.product((1, 2, 3), range(5)))


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
            assert list(reference_recursive_distinct_permutations(multiset)) == want
            for items in (list(multiset), list(reversed(multiset))):
                assert list(_distinct_permutations(items)) == want, items


def test_long_inputs_need_no_recursion():
    assert list(_distinct_permutations([0] * 5000)) == [(0,) * 5000]
    assert list(_weak_compositions(0, 5000)) == [(0,) * 5000]
    assert list(_weak_compositions(5000, 1)) == [(5000,)]


def test_same_weak_compositions_in_the_same_order():
    for n in range(7):
        for parts in range(6):
            assert (list(_weak_compositions(n, parts))
                    == list(reference_weak_compositions(n, parts))), (n, parts)


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


@pytest.mark.parametrize("r,n", _GRID)
def test_image_is_every_pair_in_the_box(r, n):
    # bijection_stats' onto check: the sequences with max <= cap reach
    # exactly the pairs whose partition's max plus des is at most cap
    for cap in _caps(n):
        image = {(pi_of(f), reference_lambda_of(f))
                 for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=True)}
        assert image == {(gamma, lam) for gamma in enumerate_group(r, n)
                         for lam in partitions_in_box(
                             n, cap - len(reference_des_set(gamma)))}, cap


@pytest.mark.filterwarnings("ignore:bijection_stats. cap cap=0")
@pytest.mark.parametrize("r,n", _GRID)
def test_bijection_stats_reports(monkeypatch, r, n):
    for cap in _caps(n):
        params = {"r": r, "n": n, "cap": cap}
        new = _report(monkeypatch, "bijection_stats", identities._bijection_stats, params)
        old = _report(monkeypatch, "bijection_stats", reference_bijection_stats, params)
        assert new == old


# Each faulty sort is patched into every package module that binds _sort
# and into the reference, which takes its window unchecked, as the entry
# does.  Where the reference's Partition raises, it names the entry's
# residue fact; a window that is no element reaches the round trip and the
# image on both sides.
@pytest.mark.filterwarnings("ignore:bijection_stats. cap cap=0")
@pytest.mark.parametrize("fault", [
    pytest.param(_reversed_sort, id="reversed_sort"),
    pytest.param(_colorblind_sort, id="colorblind_sort"),
    pytest.param(_flat_sort, id="flat_sort"),
])
@pytest.mark.parametrize("r,n", _GRID)
def test_bijection_stats_reports_under_a_fault(monkeypatch, fault, r, n):
    _patch_everywhere(monkeypatch, "_sort", fault)
    monkeypatch.setattr(reference_sequences, "_sort", fault)
    passed = []
    for cap in _caps(n):
        params = {"r": r, "n": n, "cap": cap}
        new = _report(monkeypatch, "bijection_stats", identities._bijection_stats, params)
        old = _report(monkeypatch, "bijection_stats", reference_bijection_stats, params)
        assert new == old, params
        passed.append(new["pass"])
    # a sort has two positions to misplace once n >= 2, and two colors to
    # confuse once r >= 2 as well
    assert not (r >= 2 and n >= 2 and all(passed))


@pytest.mark.parametrize("r,n", [(r, n) for r, n in _GRID if n])
def test_biword_count_reports(monkeypatch, r, n):
    for cap_f, cap_g in [(0, 0), (1, 3), (3, 1), (3, 3)] if n < 4 else [(2, 2)]:
        params = {"r": r, "n": n, "cap_f": cap_f, "cap_g": cap_g}
        new = _report(monkeypatch, "biword_count", identities._biword_count, params)
        old = _report(monkeypatch, "biword_count", reference_biword_count, params)
        assert new == old


# Each fault is patched into every package module that binds it; the
# reference sorts through pi_of, which reads encoding's _sort, and counts
# with its own formula, patched here too.  The table of sorted bottom rows
# and the unsorted column loop must name the same first failure as the
# reference, which sorts every biword and walks the column multisets in
# order.
@pytest.mark.parametrize("name,fault,reference_name", [
    pytest.param("_sort", _reversed_sort, None, id="reversed_sort"),
    pytest.param("_sort", _flat_sort, None, id="flat_sort"),
    pytest.param("column_realization_count", _one_realization,
                 "reference_column_realization_count", id="one_realization"),
])
@pytest.mark.parametrize("r,n", [(r, n) for r, n in _GRID if n])
def test_biword_count_reports_under_a_fault(monkeypatch, name, fault,
                                            reference_name, r, n):
    _patch_everywhere(monkeypatch, name, fault)
    if reference_name:
        monkeypatch.setattr(reference_sequences, reference_name, fault)
    passed = []
    for cap_f, cap_g in [(0, 0), (1, 3), (3, 1), (3, 3)] if n < 4 else [(2, 2)]:
        params = {"r": r, "n": n, "cap_f": cap_f, "cap_g": cap_g}
        new = _report(monkeypatch, "biword_count", identities._biword_count, params)
        old = _report(monkeypatch, "biword_count", reference_biword_count, params)
        assert new == old, params
        passed.append(new["pass"])
    # each fault shows at r=3 once n >= 2: a sort has two positions to
    # misplace, and a cell can hold two colored copies of one value
    assert not (r >= 3 and n >= 2 and all(passed))


def _reference_past_the_cap(*args, **kwargs):
    """reference_enumerate_biwords with ``_past_the_cap``'s fault."""
    words = list(reference_enumerate_biwords(*args, **kwargs))
    g, f = words[-1].g, words[-1].f
    words[-1] = Biword(g, ColoredSequence(f.r, (*f.values[:-1], f.values[-1] + 1),
                                          f.colors))
    return iter(words)


# A last biword moved past the value cap keeps the image's size, so where
# the image fact is the first to fail, both name the least triple in one
# set alone.
@pytest.mark.parametrize("r,n,cap_f,cap_g", [(1, 2, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0)])
def test_biword_count_names_the_same_unshared_triple(monkeypatch, r, n, cap_f, cap_g):
    _patch_everywhere(monkeypatch, "_biwords", _past_the_cap)
    monkeypatch.setattr(reference_sequences, "reference_enumerate_biwords",
                        _reference_past_the_cap)
    params = {"r": r, "n": n, "cap_f": cap_f, "cap_g": cap_g}
    new = _report(monkeypatch, "biword_count", identities._biword_count, params)
    old = _report(monkeypatch, "biword_count", reference_biword_count, params)
    assert new == old
    assert new["mismatch"]["detail"].endswith("expected, not reached")


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_same_column_realization_counts(r):
    for n, cap_f, cap_g in itertools.product(range(4), range(3), range(3)):
        for word in _biwords(r, n, cap_f, cap_g):
            key = _columns(*word)
            assert (column_realization_count(key, r)
                    == reference_column_realization_count(key, r)), key


@pytest.mark.parametrize("columns,r,count", [
    (((0, 1, 1), (0, 1, 1), (0, 1, 2)), 3, 3),
    (((0, 1, 1), (0, 1, 2), (0, 1, 3)), 4, 6),
    (((1, 2, 0), (1, 2, 1), (1, 2, 1), (1, 2, 2), (1, 2, 3)), 4, 12),
    (((0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (1, 1, 2)), 3, 4),
    (((0, 0, 0), (2, 1, 2), (2, 1, 2), (2, 1, 2)), 3, 1),
])
def test_column_realization_count_by_hand(columns, r, count):
    # three colors in one (top, value) cell, uncolored copies beside colored
    # ones, and cells that differ in their top or their value alone
    assert column_realization_count(columns, r) == count
    assert reference_column_realization_count(columns, r) == count


@pytest.mark.parametrize("r,n", _CORE_GRID)
def test_sort_is_pi_of_window(r, n):
    for cap in range(3):
        for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=False):
            gamma = pi_of(f)
            assert _sort(f.values, f.colors) == (gamma.sigma, gamma.colors), f


@pytest.mark.parametrize("r,n", _CORE_GRID)
def test_same_sequence_tuples_in_the_same_order(r, n):
    for cap, restrict in itertools.product(range(3), (True, False)):
        got = list(_sequences(r, n, max_cap=cap, restrict_n0=restrict))
        want = [(f.values, f.colors) for f in
                enumerate_sequences(r, n, max_cap=cap, restrict_n0=restrict)]
        assert got == want, (cap, restrict)
    for parts in range(1, 5):
        for comp in _weak_compositions(n, parts):
            got = list(_sequences(r, n, composition=comp))
            want = [(f.values, f.colors) for f in
                    reference_composition_sequences(r, n, comp)]
            assert got == want, comp


def test_sequence_tuples_check_lazily():
    # like enumerate_sequences, the checks and the budget run on the first next()
    for kwargs in ({"max_cap": 2, "max_elements": 8},
                   {"composition": (1, 2), "max_elements": 8},
                   {"composition": (1, 1)}, {"max_cap": -1}):
        core, public = _sequences(2, 3, **kwargs), enumerate_sequences(2, 3, **kwargs)
        with pytest.raises((BudgetExceededError, ValueError)) as core_exc:
            next(core)
        with pytest.raises((BudgetExceededError, ValueError)) as public_exc:
            next(public)
        assert type(core_exc.value) is type(public_exc.value)
        assert str(core_exc.value) == str(public_exc.value)


@pytest.mark.parametrize("r,n", _CORE_GRID)
def test_length_is_statistics_length(r, n):
    for g in enumerate_group(r, n):
        length = _length(g.sigma, g.colors)
        assert length == statistics(g).length, g
        assert length == reference_statistics(r, g.sigma, g.colors)[1], g


def _unpacked(tally, width):
    """A tally keyed ``low | high << width`` as counts of ``(low, high)``."""
    mask = (1 << width) - 1
    return {(key & mask, key >> width): count for key, count in tally.items()}


def _desmaj_tuples(r, n, tmax):
    width = identities._desmaj_width(n, tmax)
    return {window: _unpacked(counts, width) for window, counts
            in identities._desmaj_tally(None, r, n, tmax).items()}


@pytest.mark.parametrize("r,n", _CORE_GRID)
def test_same_keylem_tallies(r, n):
    width = identities._length_width(r, n)
    for parts in range(1, 5):
        for comp in _weak_compositions(n, parts):
            got = _unpacked(identities._keylem_tally(None, r, n, comp), width)
            assert got == reference_keylem_tally(None, r, n, comp), comp
            assert got == reference_sorted_keylem_tally(None, r, n, comp), comp


@pytest.mark.parametrize("r,n", _CORE_GRID)
def test_same_desmaj_tallies(r, n):
    for tmax in range(4):
        got = _desmaj_tuples(r, n, tmax)
        assert got == reference_desmaj_tally(None, r, n, tmax), tmax
        assert got == reference_sorted_desmaj_tally(None, r, n, tmax), tmax


def test_same_desmaj_tally_at_the_fixed_matrix():
    # desmaj's 65 536 sequences at r=3 n=4 tmax=5
    assert _desmaj_tuples(3, 4, 5) == reference_sorted_desmaj_tally(None, 3, 4, 5)


def _no_leaf(placed, v, c):
    raise AssertionError("a sequence was placed")


@pytest.mark.parametrize("tally,arg,kwargs", [
    (identities._keylem_tally, (1, 2), {"composition": (1, 2)}),
    (identities._desmaj_tally, 2, {"max_cap": 2}),
])
def test_walks_refuse_over_budget_before_the_first_leaf(monkeypatch, tally, arg,
                                                        kwargs):
    with pytest.raises(BudgetExceededError) as want:
        next(_sequences(2, 3, max_elements=8, **kwargs))
    monkeypatch.setattr(identities, "_insertion", _no_leaf)
    with pytest.raises(BudgetExceededError) as got:
        tally(8, 2, 3, arg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_biword_tuples_in_the_same_order(r, n):
    for cap_f, cap_g in itertools.product(_caps(n), repeat=2):
        got = list(_biwords(r, n, cap_f, cap_g))
        want = [(b.g.parts, b.f.values, b.f.colors)
                for b in enumerate_biwords(r, n, cap_f, cap_g)]
        assert got == want, (cap_f, cap_g)


def test_biword_tuples_check_lazily():
    # like enumerate_biwords, the budget is raised on the first next()
    core, public = _biwords(2, 3, 2, 2, 50), enumerate_biwords(2, 3, 2, 2, 50)
    with pytest.raises(BudgetExceededError) as core_exc:
        next(core)
    with pytest.raises(BudgetExceededError) as public_exc:
        next(public)
    assert str(core_exc.value) == str(public_exc.value)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_residue_and_sequence_tuples(r, n):
    cap = max(_caps(n))
    for f in enumerate_sequences(r, n, max_cap=cap):
        sigma, colors = _sort(f.values, f.colors)
        parts = _residue(f.values, sigma, _descent_set(sigma, colors))
        assert parts == reference_lambda_of(f).parts, f
    boxes = list(partitions_in_box(n, cap))
    for gamma in enumerate_group(r, n):
        des_set = _descent_set(gamma.sigma, gamma.colors)
        skew = _skew(gamma.sigma, gamma.colors)
        for lam in boxes:
            want = reference_sequence_from(gamma, lam)
            assert (_sequence_from(lam.parts, des_set, *skew)
                    == (want.values, want.colors)), (gamma, lam)


def _windows(r, n):
    return {(g.sigma, g.colors): _window(g.sigma, g.colors)
            for g in enumerate_group(r, n)}


def _result(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("r,n", _GRID)
def test_same_triple_tuples(r, n):
    windows = _windows(r, n)
    cap = 2 if n < 4 else 1
    for b in enumerate_biwords(r, n, cap, cap):
        gamma, lam, mu = reference_to_triple(b)
        assert (_to_triple(r, b.g.parts, b.f.values, b.f.colors, windows)
                == (gamma.sigma, gamma.colors, lam.parts, mu.parts)), b
    # every compatible pair over every element: _from_triple takes checked
    # triples only, and test_same_triple_check pins the check that refuses
    # the others
    boxes = list(partitions_in_box(n, cap))
    for gamma in enumerate_group(r, n):
        for lam, mu in itertools.product(boxes, repeat=2):
            want = _result(reference_from_triple, gamma, lam, mu)
            if isinstance(want, str):
                continue
            skew = windows[gamma.sigma, gamma.colors][2]
            got = _from_triple(lam.parts, mu.parts, skew)
            assert got == (want.g.parts, want.f.values, want.f.colors), (gamma, lam, mu)


def _every_row(r, n, cap):
    """Every top row in the box over every bottom row of values <= cap,
    colored zeros among them, so that some rows fit neither partition."""
    alphabet = list(itertools.product(range(cap + 1), range(r)))
    for lam in partitions_in_box(n, cap):
        for entries in itertools.product(alphabet, repeat=n):
            yield (lam.parts, tuple(v for v, _ in entries),
                   tuple(c for _, c in entries))


_NOT_FIT = "second partition is not compatible with the element"


# _to_triple keeps each bottom row's sort and whether its sorted values fit
# the element in a shared table; every biword's first partition must still
# be checked against its own top row, and a row that failed is never kept.
@pytest.mark.parametrize("r,n", [(r, n) for r, n in _GRID if n < 4])
def test_shared_rows_give_the_same_triples(r, n):
    windows = _windows(r, n)
    # a top row that grows at every position fits every descent set
    rising = tuple(range(1, n + 1))
    both_fail = 0
    for words in (_biwords(r, n, 2, 2), _lax_biwords(r, n, 2, 2),
                  _every_row(r, n, 1)):
        rows = {}
        for lam, values, colors in words:
            got = _result(_to_triple, r, lam, values, colors, windows, rows)
            assert got == _result(_to_triple, r, lam, values, colors, windows), \
                (lam, values, colors)
            both_fail += (got == _NOT_SKEW and _result(
                _to_triple, r, rising, values, colors, windows) == _NOT_FIT)
    # a colored zero sorts to a descent at 0 that its value cannot cross
    assert both_fail or r == 1 or n == 0
