import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_group import (
    reference_is_compatible,
    reference_lambda_of,
    reference_sequence_from,
)

from wreathstats.encoding import (
    ColoredSequence,
    Partition,
    enumerate_sequences,
    format_sequence,
    is_compatible,
    lambda_gamma,
    lambda_of,
    parse_sequence,
    partitions_in_box,
    pi_of,
    seq_statistics,
    sequence_from,
)
from wreathstats.group import (
    enumerate_group,
    format_window,
    identity_element,
    parse_window,
    skew_inverse,
    statistics,
)


def seq(text, r):
    return parse_sequence(text, r)


class TestPiOf:
    def test_worked_example(self):
        f = seq("4^2,4^1,1,3^3,6,3^1,4^2", 4)
        assert format_window(pi_of(f)) == "[3,6^1,4^3,7^2,2^1,1^2,5]"

    def test_all_zero_gives_identity(self):
        f = ColoredSequence(3, (0, 0, 0, 0), (0, 0, 0, 0))
        assert pi_of(f) == identity_element(3, 4)

    def test_plain_sort(self):
        assert format_window(pi_of(seq("2,1", 1))) == "[2,1]"

    def test_accepts_colored_zeros(self):
        f = ColoredSequence(2, (0,), (1,))
        assert not f.in_n0
        assert format_window(pi_of(f)) == "[1^1]"

    @pytest.mark.parametrize("r,n,cap", [(2, 3, 2), (3, 2, 3)])
    def test_characterization(self, r, n, cap):
        # sorted values nondecreasing; colors carried; ties resolved upward
        for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=False):
            gamma = pi_of(f)
            svals = [f.values[s - 1] for s in gamma.sigma]
            assert svals == sorted(svals)
            assert all(gamma.colors[i] == f.colors[gamma.sigma[i] - 1]
                       for i in range(n))
            keys = [gamma.entry(i).key() for i in range(1, n + 1)]
            for i in range(n - 1):
                if svals[i] == svals[i + 1]:
                    assert keys[i] < keys[i + 1]


class TestLambdaOf:
    def test_worked_example(self):
        f = seq("4^2,4^1,1,3^3,6,3^1,4^2", 4)
        assert lambda_of(f).parts == (1, 2, 2, 2, 2, 2, 4)

    def test_all_zero(self):
        f = ColoredSequence(2, (0, 0), (0, 0))
        assert lambda_of(f).parts == (0, 0)

    def test_single_colored_entry(self):
        assert lambda_of(seq("1^1", 2)).parts == (0,)

    def test_rejects_colored_zero(self):
        with pytest.raises(ValueError):
            lambda_of(ColoredSequence(2, (0,), (1,)))


class TestSequenceFrom:
    def test_worked_example_follows_definitions(self):
        # The skew inverse is [3,4^2,2^1,5^2,1^1]; descents of gamma are
        # {0,3,4}, so the running count turns (0,2,2,3,3) into (1,3,3,5,6)
        # and pushing through the skew inverse gives the sequence below.
        gamma = parse_window("[5^1,3^1,1,2^2,4^2]", 3)
        assert format_window(skew_inverse(gamma)) == "[3,4^2,2^1,5^2,1^1]"
        assert statistics(gamma).des_set == {0, 3, 4}
        f = sequence_from(gamma, Partition((0, 2, 2, 3, 3)))
        assert format_sequence(f) == "3,5^2,3^1,6^2,1^1"
        assert pi_of(f) == gamma
        assert lambda_of(f).parts == (0, 2, 2, 3, 3)

    def test_identity_and_zero_partition(self):
        f = sequence_from(identity_element(2, 3), Partition((0, 0, 0)))
        assert f == ColoredSequence(2, (0, 0, 0), (0, 0, 0))

    def test_single_letter(self):
        f = sequence_from(parse_window("[1^1]", 2), Partition((0,)))
        assert format_sequence(f) == "1^1"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_from(identity_element(2, 2), Partition((0,)))


class TestLambdaGamma:
    def test_worked_example(self):
        lam = Partition((0, 1, 1, 3, 3, 4, 5))
        gamma = parse_window("[3,6^1,4^3,7^2,2^1,1,5]", 4)
        assert format_sequence(lambda_gamma(lam, gamma)) == "1,4^1,3^3,5^2,1^1,0,3"

    def test_zeros(self):
        out = lambda_gamma(Partition((0, 0)), parse_window("[2,1]", 3))
        assert out.values == (0, 0) and out.colors == (0, 0)

    def test_colored_zero_leaves_restricted_set(self):
        out = lambda_gamma(Partition((0,)), parse_window("[1^1]", 2))
        assert out.values == (0,) and out.colors == (1,)
        assert not out.in_n0


class TestCompatibility:
    def test_worked_example(self):
        gamma = parse_window("[3,6^1,4^3,7^2,2^1,1,5]", 4)
        assert statistics(gamma).des_set == {1, 3}
        assert is_compatible(Partition((1, 3, 3, 4, 4, 4, 6)), gamma)

    def test_descent_at_zero_needs_positive_first_part(self):
        gamma = parse_window("[1^1,2]", 2)
        assert not is_compatible(Partition((0, 0)), gamma)
        assert is_compatible(Partition((1, 1)), gamma)

    def test_identity_accepts_everything(self):
        e = identity_element(3, 3)
        for lam in partitions_in_box(3, 2):
            assert is_compatible(lam, e)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_matches_sorting_back(self, r, n):
        # compatible exactly when the rebuilt sequence stays inside the
        # zero-forces-uncolored set and sorts back to gamma; a colored zero
        # can slip through the bloc sort alone (e.g. mu=(0,0), gamma=[1^1,2])
        for gamma in enumerate_group(r, n):
            skew = skew_inverse(gamma)
            for mu in partitions_in_box(n, 3):
                rebuilt = lambda_gamma(mu, skew)
                sorts_back = rebuilt.in_n0 and pi_of(rebuilt) == gamma
                assert is_compatible(mu, gamma) == sorts_back


class TestSeqStatistics:
    def test_worked_example(self):
        rec = seq_statistics(seq("4^2,4^1,1,3^3,6,3^1,4^2", 4))
        assert rec.max == 6
        assert rec.sum == 25
        assert rec.col == 9
        assert rec.inv == statistics(pi_of(seq("4^2,4^1,1,3^3,6,3^1,4^2", 4))).length

    def test_all_zero(self):
        rec = seq_statistics(ColoredSequence(3, (0, 0), (0, 0)))
        assert (rec.max, rec.sum, rec.inv, rec.col) == (0, 0, 0, 0)

    def test_single_colored_entry(self):
        rec = seq_statistics(seq("1^1", 2))
        assert (rec.max, rec.sum, rec.inv, rec.col) == (1, 1, 1, 1)


class TestEnumeration:
    def test_tiny_restricted_listing(self):
        got = [format_sequence(f)
               for f in enumerate_sequences(2, 1, max_cap=1)]
        assert got == ["0", "1", "1^1"]

    def test_uncolored_square(self):
        assert sum(1 for _ in enumerate_sequences(1, 2, max_cap=1)) == 4

    def test_composition_mode(self):
        got = [format_sequence(f)
               for f in enumerate_sequences(2, 2, composition=(1, 1))]
        assert got == ["0,1", "0,1^1", "1,0", "1^1,0"]

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_sequences(2, 2, composition=(1, 2)))

    def test_composition_partitions_plain_enumeration(self):
        # profiles with values <= 2 partition the capped restricted set
        full = set(enumerate_sequences(2, 2, max_cap=2))
        pieces = []
        for c0 in range(3):
            for c1 in range(3 - c0):
                c2 = 2 - c0 - c1
                pieces.extend(enumerate_sequences(2, 2, composition=(c0, c1, c2)))
        assert set(pieces) == full
        assert len(pieces) == len(full)


class TestRoundTrips:
    @pytest.mark.parametrize("r,n,cap", [(1, 3, 2), (2, 2, 3), (3, 2, 2)])
    def test_sequence_side(self, r, n, cap):
        for f in enumerate_sequences(r, n, max_cap=cap):
            gamma = pi_of(f)
            lam = lambda_of(f)
            assert sequence_from(gamma, lam) == f
            rec = statistics(gamma)
            assert max(f.values, default=0) == lam.max_part + rec.des
            assert sum(f.values) == lam.weight + n * rec.des - rec.maj

    @pytest.mark.parametrize("r,n,cap", [(2, 2, 2), (3, 2, 2), (1, 3, 2)])
    def test_pair_side(self, r, n, cap):
        for gamma in enumerate_group(r, n):
            for lam in partitions_in_box(n, cap):
                f = sequence_from(gamma, lam)
                assert f.in_n0
                assert pi_of(f) == gamma
                assert lambda_of(f) == lam

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_round_trip(self, data):
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 6))
        values = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        colors = [data.draw(st.integers(0, r - 1)) if v else 0 for v in values]
        f = ColoredSequence(r, tuple(values), tuple(colors))
        assert sequence_from(pi_of(f), lambda_of(f)) == f

    def test_descent_forces_strict_growth(self):
        for f in enumerate_sequences(3, 3, max_cap=2):
            gamma = pi_of(f)
            svals = [f.values[s - 1] for s in gamma.sigma]
            for i in statistics(gamma).des_set:
                if i >= 1:
                    assert svals[i - 1] < svals[i]


class TestSequenceText:
    def test_round_trip(self):
        for text in ("4^2,4^1,1,3^3,6,3^1,4^2", "0", "1^1", "0,0,0"):
            assert format_sequence(parse_sequence(text, 4)) == text

    def test_rejections(self):
        with pytest.raises(Exception):
            parse_sequence("1^0", 3)
        with pytest.raises(Exception):
            parse_sequence("1^3", 3)
        with pytest.raises(Exception):
            parse_sequence("x", 3)

    def test_empty(self):
        f = parse_sequence("", 2)
        assert f.n == 0
        assert pi_of(f) == identity_element(2, 0)
        assert lambda_of(f).parts == ()


class TestAgainstStatisticsReference:
    """The maps read descent sets in one pass; the reference reads them
    from ``statistics``."""

    @pytest.mark.parametrize("r,n", itertools.product((1, 2), range(5)))
    def test_maps_agree(self, r, n):
        for f in enumerate_sequences(r, n, max_cap=2):
            assert lambda_of(f) == reference_lambda_of(f)
        boxes = list(partitions_in_box(n, 2))
        for gamma in enumerate_group(r, n):
            for lam in boxes:
                assert sequence_from(gamma, lam) == reference_sequence_from(gamma, lam)
                assert is_compatible(lam, gamma) == reference_is_compatible(lam, gamma)


class TestConstructorRejections:
    """Every rejection of ``ColoredSequence`` and ``Partition`` with its exact
    message; with two faults, the check listed first in ``__post_init__``
    wins."""

    @pytest.mark.parametrize("r,values,colors,message", [
        (0, (1,), (0,), "r must be a positive integer"),
        (-2, (), (), "r must be a positive integer"),
        (2, (1, 2), (0,), "values and colors must have equal length"),
        (2, (), (1,), "values and colors must have equal length"),
        (2, (1, -1), (0, 0), "values must be nonnegative"),
        (2, (1, 0), (-1, 0), "color out of range"),
        (2, (1, 0), (0, 2), "color out of range"),
        (1, (3,), (1,), "color out of range"),
        # two faults each
        (0, (-1,), (5,), "r must be a positive integer"),
        (0, (1, 2), (0,), "r must be a positive integer"),
        (2, (-1, 2), (0,), "values and colors must have equal length"),
        (2, (-1,), (2,), "values must be nonnegative"),
        (2, (-1, 1), (-1, 0), "values must be nonnegative"),
        (2, (1, 1), (-1, 2), "color out of range"),
    ])
    def test_sequence_message(self, r, values, colors, message):
        with pytest.raises(ValueError) as excinfo:
            ColoredSequence(r, values, colors)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("parts,message", [
        ((-1,), "parts must be nonnegative"),
        ((0, 2, -3), "parts must be nonnegative"),
        ((2, 1), "parts must be nondecreasing"),
        ((0, 1, 1, 0), "parts must be nondecreasing"),
        # two faults each: negative and decreasing
        ((-1, -2), "parts must be nonnegative"),
        ((3, -1), "parts must be nonnegative"),
    ])
    def test_partition_message(self, parts, message):
        with pytest.raises(ValueError) as excinfo:
            Partition(parts)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("parts", [(), (0,), (0, 0, 3, 3, 7)])
    def test_partition_accepted(self, parts):
        assert Partition(parts).parts == parts

    def test_sequence_accepted(self):
        assert ColoredSequence(3, (0, 2, 2), (0, 2, 1)).n == 3
        assert ColoredSequence(1, (), ()).n == 0
