import warnings

import pytest

from reference_group import reference_dist_terms
from wreathstats import identities
from wreathstats.group import (
    BudgetExceededError,
    enumerate_group,
    group_order,
    inverse,
    skew_inverse,
    statistics,
)
from wreathstats.identities import (
    CATALOG,
    CatalogError,
    dist_polynomial,
    selftest_localization,
    verify_identity,
)
from wreathstats.qseries import MultiPoly, SeriesContext, q_int


class TestDistPolynomial:
    def test_descent_major_pair_on_two_letters(self):
        ctx = SeriesContext(("t", "q"))
        got = dist_polynomial(ctx, 1, 2, {"des": "t", "maj": "q"})
        t = MultiPoly.variable(ctx, "t")
        q = MultiPoly.variable(ctx, "q")
        assert got == 1 + t * q

    def test_signed_singleton(self):
        ctx = SeriesContext(("t", "p", "a"))
        got = dist_polynomial(ctx, 2, 1, {"des": "t", "length": "p", "col": "a"})
        assert got == 1 + MultiPoly.monomial(ctx, 1, t=1, p=1, a=1)

    def test_length_over_signed_pairs(self):
        ctx = SeriesContext(("p",))
        got = dist_polynomial(ctx, 2, 2, {"length": "p"})
        p = MultiPoly.variable(ctx, "p")
        assert got == (1 + p) ** 2 * (1 + p ** 2)

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            dist_polynomial(SeriesContext(("t",)), 2, 1, {"rank": "t"})

    def test_empty_group(self):
        ctx = SeriesContext(("t",))
        assert dist_polynomial(ctx, 3, 0, {"des": "t"}) == 1


_WALK_CTX = SeriesContext(("t", "q", "p", "a", "b", "t1", "t2", "q1", "q2"))
_DIRECT = {"des": "t", "maj": "q", "length": "p", "col": "a", "fmaj": "b"}
_WALK_PLANS = [{stat: var} for stat, var in _DIRECT.items()] + [
    _DIRECT,
    {"des": "t1", "ides": "t2", "maj": "q1", "imaj": "q2", "col": "a", "icol": "b"},
]


class TestGroupWalk:
    """The depth-first walk against the per-element loop it replaced."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_matches_per_element_loop(self, r, n):
        for stats in _WALK_PLANS:
            got = dist_polynomial(_WALK_CTX, r, n, stats).terms
            assert got == reference_dist_terms(_WALK_CTX, r, n, stats), stats
            assert sum(got.values()) == group_order(r, n)

    def test_budget_stops_before_the_walk(self, monkeypatch):
        visited = []
        monkeypatch.setattr(identities, "_walk_group",
                            lambda *args: visited.append(args))
        with pytest.raises(BudgetExceededError):
            dist_polynomial(_WALK_CTX, 3, 4, {"des": "t"},
                            max_elements=group_order(3, 4) - 1)
        assert visited == []


class TestCatalogEntries:
    def test_length_gf_closed_form(self):
        report = verify_identity("length_gf", r=2, n=2)
        assert report.passed
        ctx = SeriesContext(("p",))
        expected = (1 + MultiPoly.variable(ctx, "p")) ** 2 \
            * (1 + MultiPoly.variable(ctx, "p") ** 2)
        assert dist_polynomial(ctx, 2, 2, {"length": "p"}) == expected

    @pytest.mark.parametrize("name,params", [
        ("length_gf", dict(r=3, n=3)),
        ("ell_col", dict(r=3, n=2)),
        ("projection", dict(r=3, n=2)),
        ("desmaj", dict(r=2, n=2, tmax=3)),
        ("keylem", dict(r=2, n=3)),
        ("theorem_A", dict(r=2, n=2, tmax=3)),
        ("theorem_B", dict(r=2, n=2, t1max=2, t2max=2)),
        ("chow_gessel", dict(r=3, n=2, tmax=3)),
        ("carlitz", dict(r=1, n=1, tmax=2)),
        ("reiner", dict(r=2, nmax=2)),
        ("brenti", dict(r=2, nmax=2)),
        ("gessel_roselle", dict(r=2, ucap=2, pcap=5, qcap=5)),
        ("adin_roichman", dict(r=2, ucap=2, qcap=6)),
        ("gg1", dict(n=2, tmax=3)),
        ("gg2", dict(n=2, t1max=2, t2max=2)),
        ("bijection_stats", dict(r=2, n=2, cap=2)),
        ("biword_count", dict(r=2, n=2, cap_f=2, cap_g=2)),
    ])
    def test_entry_passes(self, name, params):
        report = verify_identity(name, **params)
        assert report.passed, report.mismatch

    def test_theorem_A_single_letter_by_hand(self):
        # two-color singleton: the t^k coefficient of the left side is
        # [k+1]_q + p*a*[k]_q, matching the hand expansion of the right side
        report = verify_identity("theorem_A", r=2, n=1, tmax=2)
        assert report.passed

    def test_unknown_identity(self):
        with pytest.raises(CatalogError):
            verify_identity("no_such_identity")

    def test_unknown_parameter(self):
        with pytest.raises(CatalogError):
            verify_identity("length_gf", r=2, n=2, tmax=3)

    @pytest.mark.parametrize("name,params,named", [
        ("keylem", dict(parts_max=-2), "parts_max=-2"),
        ("reiner", dict(nmax=-1), "nmax=-1"),
        ("carlitz", dict(r=0), "r=0"),
        ("length_gf", dict(n=-1), "n=-1"),
        ("gg1", dict(tmax=-1), "tmax=-1"),
        ("projection", dict(r=1), "projection: parameter r=1, need r >= 2"),
    ])
    def test_out_of_range_parameter(self, name, params, named):
        with pytest.raises(ValueError, match=named):
            verify_identity(name, **params)

    def test_range_checked_before_zero_cap_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r=0"):
                verify_identity("carlitz", r=0, tmax=0)

    def test_run_without_cases(self):
        with pytest.warns(UserWarning), \
                pytest.raises(ValueError, match="no case.*parts_max=0"):
            verify_identity("keylem", parts_max=0)

    def test_zero_cap_warns(self):
        with pytest.warns(UserWarning):
            verify_identity("carlitz", r=1, n=1, tmax=0)

    def test_report_shape(self):
        report = verify_identity("length_gf", r=2, n=2)
        payload = report.to_json_dict()
        assert payload["identity"] == "length_gf"
        assert payload["pass"] is True
        assert set(payload) == {"identity", "params", "pass", "millis",
                                "lhs_terms", "rhs_terms"}

    def test_catalog_defaults_are_complete(self):
        for name, (func, defaults) in CATALOG.items():
            report = verify_identity(name)
            assert report.passed, (name, report.mismatch)


class TestInverseStatistics:
    def test_skew_inverse_shares_descents_not_colors(self):
        swap_safe = True
        color_differs = False
        for gamma in enumerate_group(3, 3):
            true_inv = statistics(inverse(gamma))
            skew_inv = statistics(skew_inverse(gamma))
            swap_safe &= true_inv.des_set == skew_inv.des_set
            color_differs |= true_inv.col != skew_inv.col
        assert swap_safe
        assert color_differs


class TestCorruption:
    def test_localization_names_the_monomial(self):
        for name, ok in selftest_localization():
            assert ok, name

    def test_corrupted_side_reported(self):
        report = verify_identity("length_gf", r=2, n=2, corrupt="rhs")
        assert not report.passed
        assert report.mismatch["monomial"] == report.corrupted_monomial
        assert report.mismatch["case"]
