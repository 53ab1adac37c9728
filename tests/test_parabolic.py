import itertools

import pytest

from reference_group import reference_decompose, reference_is_in_quotient

from wreathstats.group import (
    enumerate_group,
    format_window,
    group_order,
    identity_element,
    multiply,
    parse_window,
    statistics,
)
from wreathstats.parabolic import (
    DescentClass,
    decompose,
    is_in_parabolic,
    is_in_quotient,
    parabolic_set,
    quotient_set,
)


def cls_of(r, n, members):
    return DescentClass.of(r, n, members)


class TestDecompose:
    def test_uncolored_subgroup_case(self):
        gamma = parse_window("[5,2^2,4^1,3,1^1,6^2,8,7^2]", 3)
        tau, delta = decompose(gamma, cls_of(3, 8, {1, 2, 4, 5, 7}))
        assert format_window(tau) == "[4^1,2^2,5,6^2,1^1,3,7^2,8]"
        assert format_window(delta) == "[3,2,1,6,5,4,8,7]"

    def test_colored_subgroup_case(self):
        # J contains 0 and all of [1,5] except 3, so the first block keeps
        # its colors inside delta while tau's first block drops them.
        gamma = parse_window("[5,2^2,4^1,3,1^1,6^2]", 3)
        tau, delta = decompose(gamma, cls_of(3, 6, {0, 1, 2, 4, 5}))
        assert format_window(tau) == "[2,4,5,6^2,1^1,3]"
        assert format_window(delta) == "[3,1^2,2^1,6,5,4]"

    def test_already_in_quotient(self):
        cls = cls_of(3, 4, {1, 2})
        for gamma in quotient_set(cls):
            tau, delta = decompose(gamma, cls)
            assert tau == gamma
            assert delta == identity_element(3, 4)

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
    def test_contracts_hold_for_every_subset(self, r, n):
        elements = list(enumerate_group(r, n))
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)):
            cls = cls_of(r, n, members)
            for gamma in elements:
                tau, delta = decompose(gamma, cls)
                assert multiply(tau, delta) == gamma
                assert is_in_quotient(tau, cls)
                assert is_in_parabolic(delta, cls)
                sg, st, sd = statistics(gamma), statistics(tau), statistics(delta)
                assert sg.length == st.length + sd.length
                assert sg.col == st.col + sd.col

    def test_uniqueness_against_exhaustive_search(self):
        r, n = 2, 3
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)):
            cls = cls_of(r, n, members)
            quotient = list(quotient_set(cls))
            subgroup = list(parabolic_set(cls))
            assert len(quotient) * len(subgroup) == group_order(r, n)
            products = {}
            for tau in quotient:
                for delta in subgroup:
                    products[multiply(tau, delta)] = (tau, delta)
            assert len(products) == group_order(r, n)
            for gamma in enumerate_group(r, n):
                assert decompose(gamma, cls) == products[gamma]


class TestQuotientSet:
    def test_full_generator_set_leaves_identity(self):
        assert list(quotient_set(cls_of(2, 3, {0, 1, 2}))) \
            == [identity_element(2, 3)]

    def test_empty_generator_set_keeps_everything(self):
        assert list(quotient_set(cls_of(2, 2, ()))) == list(enumerate_group(2, 2))

    def test_maximal_subgroup_gives_increasing_windows(self):
        got = set(quotient_set(cls_of(2, 2, {1})))
        want = {g for g in enumerate_group(2, 2)
                if g.entry(1).key() < g.entry(2).key()}
        assert got == want
        assert len(got) == 4

    def test_subgroup_block_structure(self):
        # first block colored only when 0 is a generator
        colored = cls_of(3, 3, {0, 1})
        uncolored = cls_of(3, 3, {1})
        assert parse_window("[2^1,1^2,3]", 3) in set(parabolic_set(colored))
        assert parse_window("[2^1,1^2,3]", 3) not in set(parabolic_set(uncolored))
        assert parse_window("[2,1,3]", 3) in set(parabolic_set(uncolored))


class TestDescentClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescentClass.of(2, 3, {3})
        with pytest.raises(ValueError):
            DescentClass.of(0, 3, set())

    def test_complement_sorted(self):
        assert cls_of(2, 5, {1, 3}).complement == (0, 2, 4)

    def test_mismatched_element(self):
        with pytest.raises(ValueError):
            decompose(identity_element(2, 3), cls_of(2, 4, {1}))


@pytest.mark.parametrize("r,n", itertools.product((1, 2), range(5)))
def test_quotient_membership_matches_statistics_reference(r, n):
    classes = [cls_of(r, n, members) for size in range(n + 1)
               for members in itertools.combinations(range(n), size)]
    for gamma in enumerate_group(r, n):
        for cls in classes:
            assert is_in_quotient(gamma, cls) == reference_is_in_quotient(gamma, cls)


@pytest.mark.parametrize("r,n", itertools.product((1, 2, 3), range(5)))
def test_decompose_matches_block_by_block_reference(r, n):
    classes = [cls_of(r, n, members) for size in range(n + 1)
               for members in itertools.combinations(range(n), size)]
    for gamma in enumerate_group(r, n):
        for cls in classes:
            assert decompose(gamma, cls) == reference_decompose(gamma, cls), \
                (gamma, cls.members)
