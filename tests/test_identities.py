import ast
import itertools
import sys
import warnings
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest

from reference_group import reference_dist_terms
import reference_identities
from reference_identities import (
    reference_adin_roichman_rhs,
    reference_brenti_rhs,
    reference_gessel_roselle_rhs,
    reference_projection,
    reference_reiner_rhs,
    reference_theorem_A_rhs,
    reference_theorem_B_rhs_term,
)
from wreathstats import biwords, group, identities, qseries
from wreathstats.biwords import Biword, Triple, _biword_text
from wreathstats.cli import main
from wreathstats.encoding import (
    ColoredSequence,
    Partition,
    _sequence_from,
    _sequences,
    partitions_in_box,
)
from wreathstats.group import (
    BudgetExceededError,
    ColoredPermutation,
    _descent_set,
    _entries_text,
    enumerate_group,
    format_window,
    group_order,
    inverse,
    order_key,
    _skew,
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
_INVERSE = {"ides": "t2", "imaj": "q2", "icol": "b", "ifmaj": "q1"}
_SIX = {"des": "t1", "ides": "t2", "maj": "q1", "imaj": "q2", "col": "a", "icol": "b"}
_FLAGS = {"fmaj": "q1", "ifmaj": "q2"}
_WALK_PLANS = [{stat: var} for stat, var in {**_DIRECT, **_INVERSE}.items()] + [
    _DIRECT, _SIX, _FLAGS]
# t and t2 capped below the largest des from n = 2 on, q1 below the largest
# maj and fmaj from n = 4 and n = 3 on
_CAPPED_WALK_CTX = SeriesContext(_WALK_CTX.variables,
                                 (1, None, None, None, None, None, 1, 4, None))


class TestGroupWalk:
    """The depth-first walk against the per-element loop it replaced."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_matches_per_element_loop(self, r, n):
        for stats in _WALK_PLANS:
            got = dist_polynomial(_WALK_CTX, r, n, stats).terms
            assert got == reference_dist_terms(_WALK_CTX, r, n, stats), stats
            assert sum(got.values()) == group_order(r, n)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", range(5))
    def test_capped_context_drops_past_the_caps(self, r, n):
        ctx = _CAPPED_WALK_CTX
        for stats in (_DIRECT, _SIX, _FLAGS):
            got = dist_polynomial(ctx, r, n, stats)
            want = MultiPoly(ctx, reference_dist_terms(ctx, r, n, stats))
            assert got.terms == want.terms, stats

    # At r = 4 the inverse color (r - c) mod r pairs 1 with 3 and keeps 2,
    # and the walk's final frame runs over 2 * 16 color pairs: every plan,
    # direct ones too.
    @pytest.mark.parametrize("n", range(5))
    def test_inverse_plans_at_four_colors(self, n):
        for stats in _WALK_PLANS:
            got = dist_polynomial(_WALK_CTX, 4, n, stats).terms
            assert got == reference_dist_terms(_WALK_CTX, 4, n, stats), stats

    def test_budget_stops_before_the_walk(self, monkeypatch):
        visited = []
        monkeypatch.setattr(identities, "_walk_group",
                            lambda *args: visited.append(args))
        with pytest.raises(BudgetExceededError):
            dist_polynomial(_WALK_CTX, 3, 4, {"des": "t"},
                            max_elements=group_order(3, 4) - 1)
        assert visited == []


def _no_item(*args):
    raise AssertionError("an item was visited before every budget was checked")


class TestBudgetsBeforeAnyWork:
    """The entries that walk sequences or biwords as well as the group check
    both budgets, the other set's first, before they visit either set."""

    @pytest.mark.parametrize("name,core,caps", [
        ("bijection_stats", "_sort", {"cap": 1}),
        ("desmaj", "_insertion", {"tmax": 1}),
        ("biword_count", "_biwords", {"cap_f": 1, "cap_g": 1}),
    ])
    def test_group_refused_before_the_first_item(self, monkeypatch, name, core,
                                                 caps):
        monkeypatch.setattr(identities, core, _no_item)
        with pytest.raises(BudgetExceededError) as info:
            verify_identity(name, r=2, n=7, max_elements=100000, **caps)
        assert str(info.value) == "group of order 645120 exceeds budget 100000"

    # 3^7 sequences and 8 * 3^7 candidate biwords, both sets over budget
    @pytest.mark.parametrize("name,caps,refusal", [
        ("bijection_stats", {"cap": 1}, "2187 sequences"),
        ("desmaj", {"tmax": 1}, "2187 sequences"),
        ("biword_count", {"cap_f": 1, "cap_g": 1}, "17496 candidate biwords"),
    ])
    def test_other_set_refused_before_the_group(self, name, caps, refusal):
        with pytest.raises(BudgetExceededError) as info:
            verify_identity(name, r=2, n=7, max_elements=1000, **caps)
        assert str(info.value) == f"{refusal} exceed budget 1000"

    def test_one_refusal_rule(self):
        """Only ``group._check_budget`` words an enumeration's refusal; the
        one other ``BudgetExceededError`` is ``verify_identity``'s term
        budget."""
        built = []
        for path in sorted(Path(group.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            funcs = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "BudgetExceededError":
                    inner = max((f for f in funcs
                                 if f.lineno <= node.lineno <= f.end_lineno),
                                key=lambda f: f.lineno)
                    built.append(f"{path.stem}.{inner.name}")
        assert sorted(built) == ["group._check_budget", "identities.verify_identity"]


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
        # parts_max counts parts, so it is no cap to warn about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no case.*parts_max=0"):
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


class TestNoDivision:
    """No catalog entry divides by a whole series: the package has no
    polynomial quotient and no general reciprocal, and the only reciprocals
    formed are the left sides' ``1 / (t; q)_k``, in a t and a base in the
    q's alone, never in u or a color or length marker."""

    @pytest.fixture(autouse=True)
    def check_reciprocals(self, monkeypatch):
        def checked(ctx, t, base, n):
            used = {t} | ({base} if isinstance(base, str) else
                          {v for exps in base.terms
                           for v, e in zip(ctx.variables, exps) if e})
            assert used <= {"t", "q", "t1", "q1", "t2", "q2"}, \
                f"a catalog path inverted a series in {sorted(used)}"
            return qseries._reciprocal_pochhammer(ctx, t, base, n)
        monkeypatch.setattr(identities, "_reciprocal_pochhammer", checked)

    @pytest.mark.parametrize("module", [qseries, identities])
    def test_no_division_tool_is_bound(self, module):
        for name in ("reciprocal", "divide_exact", "NonUnitError",
                     "InexactDivisionError"):
            assert not hasattr(module, name), (module.__name__, name)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_default(self, name):
        assert verify_identity(name).passed

    def test_keylem_beyond_the_defaults(self):
        assert verify_identity("keylem", r=3, n=4).passed


def _pack_counter(monkeypatch):
    """The list that every ``SeriesContext._pack`` call appends to."""
    calls = []
    pack = SeriesContext._pack

    def counted(ctx, exps):
        calls.append(exps)
        return pack(ctx, exps)
    monkeypatch.setattr(SeriesContext, "_pack", counted)
    return calls


class _Unsubtractable(MultiPoly):
    """A polynomial that refuses to be subtracted."""

    __slots__ = ()

    def __sub__(self, other):
        raise AssertionError("a case was subtracted")


def _unsubtractable(func):
    """Catalog entry ``func`` with both sides of every polynomial case
    rebuilt as ``_Unsubtractable``."""
    def rebuilt(x):
        poly = object.__new__(_Unsubtractable)
        poly.ctx, poly._keys = x.ctx, x._keys
        return poly

    def run(*args, **kwargs):
        for case in func(*args, **kwargs):
            if case[0] == "poly":
                case = (*case[:2], *map(rebuilt, case[2:]))
            yield case
    return run


_POLY_ENTRIES = sorted(set(CATALOG) - {"bijection_stats", "biword_count"})


class TestPackedHandover:
    """The left sides reach the compare without re-doing work: every tally
    is handed to the ring in its packed keys, not through exponent tuples
    that ``SeriesContext._pack`` checks one by one, and a case whose two
    sides are equal is never subtracted."""

    def test_walk_packs_no_term(self, monkeypatch):
        calls = _pack_counter(monkeypatch)
        assert len(dist_polynomial(_WALK_CTX, 3, 4, _SIX)) > 100
        assert len(dist_polynomial(_CAPPED_WALK_CTX, 3, 4, _FLAGS)) > 10
        assert calls == []

    # each right side packs a few constants and variables per case
    @pytest.mark.parametrize("name,params", [
        ("keylem", {"r": 3, "n": 4}),
        ("desmaj", {"r": 3, "n": 3, "tmax": 3}),
        ("projection", {"r": 4, "n": 3}),
    ])
    def test_fewer_packs_than_left_side_terms(self, monkeypatch, name, params):
        calls = _pack_counter(monkeypatch)
        report = verify_identity(name, **params)
        assert report.passed
        assert len(calls) < report.lhs_terms

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_passing_case_is_never_subtracted(self, monkeypatch, name):
        func, defaults = CATALOG[name]
        monkeypatch.setitem(CATALOG, name, (_unsubtractable(func), defaults))
        assert verify_identity(name).passed

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("name", _POLY_ENTRIES)
    def test_failing_case_reports_the_same_mismatch(self, name, side):
        report = verify_identity(name, corrupt=side)
        assert not report.passed
        assert report.mismatch == reference_identities.reference_first_mismatch(
            name, side)
        assert report.mismatch["monomial"] == report.corrupted_monomial

    def test_contexts_that_differ_still_raise(self, monkeypatch):
        # the two sides hold the same packed keys in contexts that differ
        def foreign(max_elements, r, n):
            yield ("poly", "foreign", MultiPoly.constant(SeriesContext(("p",)), 1),
                   MultiPoly.constant(SeriesContext(("q",)), 1))
        monkeypatch.setitem(CATALOG, "length_gf", (foreign, {"r": 2, "n": 2}))
        with pytest.raises(qseries.ContextMismatchError):
            verify_identity("length_gf")


class TestNoValueObject:
    """No catalog path builds a checked value object: the walks, the
    checks and the labels all run on tuples, so a faulty core's output
    that no value object would hold is reported as a failing fact."""

    @pytest.fixture(autouse=True)
    def refuse_value_objects(self, monkeypatch):
        def refuse(obj):
            raise AssertionError(f"a catalog path built a {type(obj).__name__}")
        for cls in (ColoredPermutation, Partition, ColoredSequence, Biword, Triple):
            monkeypatch.setattr(cls, "__post_init__", refuse)

    def test_no_value_object_tool_is_bound(self):
        for name in ("enumerate_group", "inverse", "statistics", "project_to_signed",
                     "partitions_in_box", "ColoredPermutation", "Partition",
                     "ColoredSequence", "Biword", "Triple"):
            assert not hasattr(identities, name), name

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_default(self, name):
        assert verify_identity(name).passed

    # biword_count's default is r=2 n=2 with both caps 2
    def test_bijection_stats_beyond_the_defaults(self):
        assert verify_identity("bijection_stats", r=3, n=3).passed


def _projection_cases(cases):
    """A projection run's facts as they are, and its polynomial cases as
    their labels and the ``to_lines()`` of both sides."""
    return [case if case[0] == "fact" else
            (case[1], case[2].to_lines(), case[3].to_lines()) for case in cases]


def _colored_zero_descent_set(sigma, colors):
    """_descent_set that drops the descent at 0 under a first color of 2
    or more: a faulty core under test, the same as the true one at r <= 2."""
    des_set = _descent_set(sigma, colors)
    return des_set - {0} if colors and colors[0] > 1 else des_set


class TestProjectionOracle:
    """``projection`` on window tuples against the per-element loop it
    replaced, on every case and on the first failing fact."""

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (3, 4), (4, 3)])
    def test_matches_per_element_loop(self, r, n):
        got = _projection_cases(identities._projection(None, r, n))
        assert got == _projection_cases(reference_projection(None, r, n))
        assert got[0] == ("fact", f"descent preservation r={r} n={n}", True, None)

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (4, 3)])
    def test_matches_under_a_faulty_descent_set(self, monkeypatch, r, n):
        for module in (group, identities, reference_identities):
            monkeypatch.setattr(module, "_descent_set", _colored_zero_descent_set)
        got = _projection_cases(identities._projection(None, r, n))
        assert got == _projection_cases(reference_projection(None, r, n))
        # the fault shows only past two colors
        assert got[0][2] == (r <= 2)


class TestCoefficientOnlyRightSides:
    """Each right side in its catalog context, which has no u, against the
    reference in a context with u; u never appears in either result, so
    their texts are the same.  ``brenti``'s context keeps its u, and both
    sides are built in it."""

    # r=1 is the right side gg1 checks.
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_theorem_A_matches_full_products(self, r):
        for n in range(5):
            for tmax in range(5):
                ctx = SeriesContext(("t", "q", "p", "a"), (tmax, None, None, None))
                with_u = SeriesContext(("t", "q", "p", "a", "u"),
                                       (tmax, None, None, None, n))
                got = identities._theorem_A_rhs(ctx, r, n, tmax)
                want = reference_theorem_A_rhs(with_u, r, n, tmax)
                assert got.to_lines() == want.to_lines(), (n, tmax)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_reiner_matches_full_products(self, r):
        for n in range(6):
            ctx = SeriesContext(("t", "p"), (n + 1, None))
            with_u = SeriesContext(("t", "p", "u"), (n + 1, None, n))
            got = identities._reiner_rhs(ctx, r, n)
            assert got.to_lines() == reference_reiner_rhs(with_u, r, n).to_lines(), n

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_brenti_matches_whole_series(self, r):
        for nmax in range(7):
            ctx = SeriesContext(("u", "t", "a"), (nmax, nmax + 1, None))
            got = identities._brenti_rhs(ctx, r, nmax)
            assert got.to_lines() == reference_brenti_rhs(ctx, r, nmax).to_lines(), nmax

    # r=1 is the right side gg2 checks; the second context is biword_count's.
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_theorem_B_terms_match_whole_reciprocals(self, r):
        for n in range(4):
            for names, caps in ((("t1", "t2", "q1", "q2", "a", "b"),
                                 (3, 3, None, None, None, None)),
                                (("q1", "q2", "a", "b"), (None,) * 4)):
                ctx = SeriesContext(names, caps)
                with_u = SeriesContext(names + ("u",), caps + (n,))
                cells = []
                for k1, k2, got in identities._theorem_B_rhs_terms(ctx, r, n, 3, 3):
                    cells.append((k1, k2))
                    want = reference_theorem_B_rhs_term(with_u, r, n, k1, k2)
                    assert got.to_lines() == want.to_lines(), (n, k1, k2)
                assert cells == list(itertools.product(range(4), repeat=2))

    # A right side for n does not depend on ucap >= n, so ucap 4 covers them all.
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_gessel_roselle_matches_factor_reciprocals(self, r):
        for pcap in range(9):
            for qcap in range(9):
                got = [case[3].to_lines() for case in
                       identities._gessel_roselle(None, r, 4, pcap, qcap)]
                want = [rhs.to_lines() for rhs in
                        reference_gessel_roselle_rhs(r, 4, pcap, qcap)]
                assert got == want, (pcap, qcap)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_adin_roichman_matches_factor_reciprocals(self, r):
        for qcap in range(9):
            got = [case[3].to_lines() for case in
                   identities._adin_roichman(None, r, 3, qcap)]
            want = [rhs.to_lines() for rhs in reference_adin_roichman_rhs(r, 3, qcap)]
            assert got == want, qcap


class TestSharedPieces:
    """Each side builds a shared piece once: one set of Gaussian rows per
    exponential sum, theorem_B's cells along a k1 row go on from the sums
    of the cell before, desmaj builds one right side per (des, maj),
    projection the signed descent sets once per fiber, and bijection_stats
    sends each sequence through the maps once."""

    def test_gaussian_rows_once_per_exponential_sum(self, monkeypatch):
        rows_built, sums_built = [], []
        rows, exponential_sum = qseries._gaussian_rows, identities._exponential_sum

        def counting_rows(*args):
            rows_built.append(args[1])
            return rows(*args)

        def counting_sum(*args):
            sums_built.append(args[1])
            return exponential_sum(*args)

        for module in (qseries, identities):
            monkeypatch.setattr(module, "_gaussian_rows", counting_rows)
        monkeypatch.setattr(identities, "_exponential_sum", counting_sum)
        for name, params in (("theorem_A", {"r": 3, "n": 3, "tmax": 3}),
                             ("reiner", {"r": 3, "nmax": 3}), ("gg1", {})):
            rows_built.clear()
            sums_built.clear()
            assert verify_identity(name, **params).passed
            assert rows_built == sums_built and sums_built, name

    def test_theorem_B_folds_each_term_once_per_row(self, monkeypatch):
        # 4 rows of 4 cells: sum_k1 (4 (k1 + 1) + 3 k1) = 58 terms, where
        # building every cell alone folds sum (k1 + 1)(k2 + 1) + k1 k2 = 136
        folded = []
        homogeneous = qseries._homogeneous

        def counting_homogeneous(ctx, terms, top, row=None):
            terms = list(terms)
            folded.append(len(terms))
            return homogeneous(ctx, terms, top, row)

        monkeypatch.setattr(identities, "_homogeneous", counting_homogeneous)
        assert verify_identity("theorem_B", r=3, n=3, t1max=3, t2max=3).passed
        assert len(folded) == 16 and sum(folded) == 58

    def test_keylem_builds_its_gaussian_rows_once(self, monkeypatch):
        # one set of rows up to n for all 56 compositions of r=3 n=4, and
        # none while no composition has two nonzero parts
        built = []
        rows = qseries._gaussian_rows
        for module in (qseries, identities):
            monkeypatch.setattr(module, "_gaussian_rows",
                                lambda ctx, n, base: built.append(n) or rows(ctx, n, base))
        assert verify_identity("keylem", r=3, n=4).passed
        assert built == [4]
        built.clear()
        assert verify_identity("keylem", r=2, n=300, parts_max=1).passed
        assert built == []

    def test_desmaj_builds_one_right_side_per_descent_pair(self):
        # the 48 windows of r=2 n=3 share 8 pairs (des, maj)
        pairs = {(len(des_set), sum(des_set))
                 for des_set in (_descent_set(*window) for window in group._windows(2, 3))}
        cases = list(identities._desmaj(None, 2, 3, 2))
        assert len(cases) == group_order(2, 3)
        assert len({id(rhs) for *_, rhs in cases}) == len(pairs) == 8

    def test_projection_reads_signed_descents_once_per_fiber(self, monkeypatch):
        # r=3 n=3: two descent sets per element, 162 of them, and two per
        # fiber (sigma, signs), 48 of them; per element alone it was 648
        read = []
        descent_set = identities._descent_set
        monkeypatch.setattr(identities, "_descent_set",
                            lambda sigma, colors: read.append(1) or descent_set(sigma, colors))
        assert verify_identity("projection", r=3, n=3).passed
        assert len(read) == 2 * 162 + 2 * 48

    def test_biword_count_sorts_each_bottom_row_once(self, monkeypatch):
        # r=2 n=3 caps 2/2: 455 biwords share the 125 bottom rows over the
        # alphabet 0, 1, 1^1, 2, 2^1; each biword still goes back through
        # _from_triple
        sorted_rows, rebuilt = [], []
        sort, from_triple = biwords._sort, identities._from_triple
        monkeypatch.setattr(biwords, "_sort", lambda values, colors:
                            sorted_rows.append(1) or sort(values, colors))
        monkeypatch.setattr(identities, "_from_triple", lambda *args:
                            rebuilt.append(1) or from_triple(*args))
        assert verify_identity("biword_count", r=2, n=3, cap_f=2, cap_g=2).passed
        assert len(sorted_rows) == 125
        assert len(rebuilt) == 455

    @pytest.mark.parametrize("core", ["_sort", "_sequence_from"])
    def test_bijection_stats_maps_each_sequence_once(self, monkeypatch, core):
        # r=2 n=3 cap=2: 125 sequences; the 48 elements times the 10
        # partitions in the box sent through both maps again made it 605
        calls = []
        true = getattr(identities, core)
        monkeypatch.setattr(identities, core,
                            lambda *args: calls.append(1) or true(*args))
        assert verify_identity("bijection_stats", r=2, n=3, cap=2).passed
        assert len(calls) == 125


class TestBijectionStats:
    def test_descent_at_zero_forces_growth(self, monkeypatch):
        # A colored zero sorts to [1^1], a descent at 0 over the value 0.
        # Its residue has the negative part -1, which the residue's
        # Partition check names.
        monkeypatch.setattr(identities, "_sequences",
                            lambda *args, **kwargs: iter([((0,), (1,))]))
        got = next(identities._bijection_stats(None, 2, 1, 0))
        assert got == ("fact", "residue of 0^1", False, "parts must be nonnegative")

    def test_sequence_side_residue_failure_is_a_fact(self, monkeypatch):
        # An identity "sort" of 1,0 has no descent to grow across, so the
        # residue 1,0 reaches its Partition check.
        monkeypatch.setattr(identities, "_sequences",
                            lambda *args, **kwargs: iter([((1, 0), (0, 0))]))
        monkeypatch.setattr(identities, "_sort", lambda values, colors:
                            (tuple(range(1, len(values) + 1)), colors))
        got = next(identities._bijection_stats(None, 1, 2, 1))
        assert got == ("fact", "residue of 1,0", False, "parts must be nondecreasing")

    def test_refused_residue_is_a_fact(self, monkeypatch):
        def refuse(f, gamma, des_set):
            raise ValueError("parts must be nonnegative")

        monkeypatch.setattr(identities, "_residue", refuse)
        facts = list(identities._bijection_stats(None, 1, 1, 0))
        assert facts[-1] == ("fact", "residue of 0", False,
                             "parts must be nonnegative")


class TestFaultyMapReportsFail:
    @pytest.fixture(autouse=True)
    def reversed_sort(self, monkeypatch):
        # the checkers sort with _sort, bound in both modules
        monkeypatch.setattr(identities, "_sort", _reversed_sort)
        monkeypatch.setattr(biwords, "_sort", _reversed_sort)

    def test_biword_triple_failure_names_the_biword(self):
        facts = list(identities._biword_count(None, 2, 2, 2, 2))
        label, detail = facts[-1][1], facts[-1][3]
        assert label.startswith("triple of Biword(")
        assert detail == "first partition is not skew-inverse compatible"

    @pytest.mark.parametrize("name", ["bijection_stats", "biword_count"])
    def test_cli_prints_fail_not_invalid_input(self, capsys, name):
        code = main(["verify", "--identity", name])
        out, err = capsys.readouterr()
        assert code == 1
        assert f"{name} " in out and " FAIL" in out
        assert "invalid input" not in out + err


def _reversed_sort(values, colors):
    """_sort with the order reversed: a faulty sort under test."""
    order = tuple(sorted(range(1, len(values) + 1),
                         key=lambda i: (values[i - 1], order_key(i, colors[i - 1])),
                         reverse=True))
    return order, tuple(colors[i - 1] for i in order)


def _colorblind_sort(values, colors):
    """_sort with ties broken by position alone, ignoring colors."""
    order = tuple(sorted(range(1, len(values) + 1), key=lambda i: (values[i - 1], i)))
    return order, tuple(colors[i - 1] for i in order)


def _reversed_insertion(placed, v, c):
    """_insertion with its two ties swapped: uncolored before the placed
    entries of its value and colored after them, the inversions counted
    from there."""
    if c:
        k = bisect_right(placed, v)
        return k, k + len(placed) + c
    k = bisect_left(placed, v)
    return k, len(placed) - k


def _colorblind_insertion(placed, v, c):
    """_insertion that places and counts a colored entry as if uncolored."""
    k = bisect_right(placed, v)
    return k, len(placed) - k


class TestFaultySortReportsFail:
    # keylem and desmaj place each position with the sequence walk's
    # _insertion instead of sorting
    @pytest.mark.parametrize("fault", [_reversed_insertion, _colorblind_insertion])
    @pytest.mark.parametrize("name", ["keylem", "desmaj"])
    def test_catalog_default_fails(self, monkeypatch, name, fault):
        monkeypatch.setattr(identities, "_insertion", fault)
        assert not verify_identity(name).passed


def _countless_sequence_from(parts, des_set, skew_sigma, skew_colors):
    """_sequence_from without the running descent count: a faulty core."""
    return tuple(parts[s - 1] for s in skew_sigma), skew_colors


def _lowered_sequence_from(parts, des_set, skew_sigma, skew_colors):
    """_sequence_from with every value one too small: a faulty core whose
    images are no colored sequences, so the failing facts must name them
    from their tuples."""
    values, colors = _sequence_from(parts, des_set, skew_sigma, skew_colors)
    return tuple(v - 1 for v in values), colors


def _short_sequences(*args, **kwargs):
    """_sequences without its last sequence: a faulty enumerator."""
    return iter(list(_sequences(*args, **kwargs))[:-1])


def _colorless_skew(sigma, colors):
    """_skew with every color dropped: a faulty core."""
    return _skew(sigma, colors)[0], (0,) * len(sigma)


def _lax_biwords(r, n, cap_f, cap_g, max_elements=None):
    """_biwords whose column rule also lets a colored copy follow an equal
    uncolored bottom entry where the top row stalls: a faulty enumerator."""
    alphabet = [(v, c) for v in range(cap_f + 1) for c in range(r) if v or not c]
    for g in partitions_in_box(n, cap_g):
        for entries in itertools.product(alphabet, repeat=n):
            columns = zip((0,) + g.parts, ((0, 0),) + entries, g.parts, entries)
            if all(top != prev_top or v == prev_v
                   or biwords._may_follow(prev_v, prev_c, v, c)
                   for prev_top, (prev_v, prev_c), top, (v, c) in columns):
                yield (g.parts, tuple(v for v, _ in entries),
                       tuple(c for _, c in entries))


def _flat_sort(values, colors):
    """_sort that puts position 1 everywhere: its window is no element."""
    return (1,) * len(values), colors


def _one_realization(columns, r):
    """column_realization_count that counts one biword for every column
    multiset, as if no cell's colored copies could permute: a faulty
    formula under test."""
    return 1


def _short_homogeneous(ctx, terms, top, row=None):
    """_homogeneous with the last term of every call skipped: a faulty core
    under test."""
    return qseries._homogeneous(ctx, list(terms)[:-1], top, row)


def _short_reciprocal_pochhammer(ctx, t, base, n):
    """_reciprocal_pochhammer with its last factor dropped: a faulty core
    under test."""
    return qseries._reciprocal_pochhammer(ctx, t, base, n - 1)


def _unnegated_inverse_colors(r, colors, inv_sigma):
    """_inverse_colors that pulls the colors back without taking ``(r - c)
    mod r``: a faulty core under test, the same as the true one at r <= 2."""
    return tuple(colors[s - 1] for s in inv_sigma)


def _one_biword(word):
    """_biwords that yields ``word`` alone: a faulty enumerator."""
    return lambda *args: iter([word])


def _capless_from_tally(ctx, tally, width):
    """_from_tally that keeps the terms past a cap, writing each field into
    the context's layout unchecked: a faulty handover under test."""
    field = (1 << width) - 1
    keys = {}
    for packed, count in tally.items():
        key = sum(((packed >> (i * width)) & field) << shift
                  for i, (shift, _) in enumerate(ctx._fields))
        keys[key] = keys.get(key, 0) + count
    return qseries._poly(ctx, keys)


def _patch_everywhere(monkeypatch, name, fault):
    """Patch ``fault`` in as ``name`` in every package module that binds it."""
    for module in [m for key, m in sys.modules.items()
                   if key.startswith("wreathstats.")]:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fault)


def _failing_entries(capsys):
    """The entries that FAIL ``verify --all`` at r=3 n=4 tmax=4 nmax=4."""
    code = main(["verify", "--all", "--r", "3", "--n", "4", "--tmax", "4",
                 "--nmax", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    return {line.split()[0] for line in lines if line.endswith(" FAIL")}


class TestFaultyCoreReportsFail:
    @pytest.mark.parametrize("module,core,fault,name", [
        (identities, "_sequence_from", _countless_sequence_from, "bijection_stats"),
        (identities, "_sequence_from", _lowered_sequence_from, "bijection_stats"),
        (identities, "_sequences", _short_sequences, "bijection_stats"),
        (biwords, "_skew", _colorless_skew, "biword_count"),
        (identities, "_biwords", _lax_biwords, "biword_count"),
        (identities, "_homogeneous", _short_homogeneous, "theorem_B"),
        (identities, "_homogeneous", _short_homogeneous, "gessel_roselle"),
        (identities, "_homogeneous", _short_homogeneous, "adin_roichman"),
        (identities, "_homogeneous", _short_homogeneous, "biword_count"),
        *[(identities, "_reciprocal_pochhammer", _short_reciprocal_pochhammer, name)
          for name in ("theorem_A", "theorem_B", "chow_gessel", "carlitz", "desmaj")],
        # rows with a negative value, which no ColoredSequence holds
        *[pytest.param(identities, "_biwords", _one_biword(word), "biword_count",
                       id=f"_biwords-{place}_negative-biword_count")
          for place, word in (("first", ((0, 0), (-1, 1), (0, 0))),
                              ("last", ((0, 0), (1, -1), (0, 0))))],
    ])
    def test_cli_prints_fail_not_invalid_input(self, monkeypatch, capsys,
                                               module, core, fault, name):
        monkeypatch.setattr(module, core, fault)
        self.assert_fail(capsys, ["--identity", name], name)

    @staticmethod
    def assert_fail(capsys, args, name):
        code = main(["verify", *args])
        out, err = capsys.readouterr()
        assert code == 1
        assert f"{name} " in out and " FAIL" in out
        assert "invalid input" not in out + err

    @pytest.mark.parametrize("args", [
        ["--identity", "theorem_B", "--r", "3", "--n", "3", "--t1max", "3", "--t2max", "3"],
        ["--identity", "adin_roichman", "--r", "3"],
    ])
    def test_inverse_colors_fault_shows_past_two_colors(self, monkeypatch, capsys, args):
        monkeypatch.setattr(identities, "_inverse_colors", _unnegated_inverse_colors)
        assert main(["verify", "--all", "--r", "2"]) == 0
        capsys.readouterr()
        self.assert_fail(capsys, args, args[1])

    # Only a walk's term past a cap shows the fault.  At the catalog
    # defaults only gessel_roselle has one: every t cap is at least the
    # largest des (reiner's and brenti's are n + 1), desmaj's max never
    # passes tmax, adin_roichman's fmaj stays within qcap at r = 2, and the
    # other entries have no cap.  Below the largest des, a kept t power
    # spills into the next field, and the products carry it on.
    @pytest.mark.parametrize("args", [
        ["--identity", "gessel_roselle"],
        ["--identity", "adin_roichman", "--r", "3"],
        ["--identity", "theorem_A", "--n", "4", "--tmax", "1"],
        ["--identity", "theorem_B", "--n", "3", "--t1max", "1", "--t2max", "1"],
    ])
    def test_capless_handover_shows_past_a_cap(self, monkeypatch, capsys, args):
        monkeypatch.setattr(identities, "_from_tally", _capless_from_tally)
        self.assert_fail(capsys, args, args[1])

    # A descent set that drops the descent at 0 FAILs only the entries that
    # take descent sets from _descent_set: desmaj's right side and both
    # bijection checks.  The group walk decides every descent, the
    # inverse's too, from the ranks of the entries it places and never
    # calls _descent_set; keylem sums lengths alone; and projection
    # compares two descent sets that lose the same descent at 0.
    def test_descent_set_without_zero(self, monkeypatch, capsys):
        true = group._descent_set
        _patch_everywhere(monkeypatch, "_descent_set",
                          lambda sigma, colors: true(sigma, colors) - {0})
        assert _failing_entries(capsys) == {"desmaj", "bijection_stats", "biword_count"}

    # An order_key that orders colored entries by increasing value FAILs
    # desmaj alone: its left side places each sequence with _insertion,
    # which reads no order_key, and its right side reads the descent sets
    # of the windows under the faulty order.  keylem's sides read no
    # order_key.  projection, bijection_stats and biword_count read one
    # order on both sides of each check.  On the group-walk entries the
    # fault moves statistics between elements but keeps their
    # distribution: reversing the colored values of a window among
    # themselves is a bijection of the group, and the faulty order on an
    # element is the true order on its image, which has the same colors
    # and the same sum of colored values, so length, des, maj and col are
    # equidistributed.  The inverse plans pass too: theorem_B at r=2 n=4
    # caps 4/4 and r=3 n=3 caps 3/3, adin_roichman at r=3 ucap=3 qcap=20.
    def test_order_key_increasing_on_colored_values(self, monkeypatch, capsys):
        _patch_everywhere(monkeypatch, "order_key",
                          lambda value, color: (0, value, -color) if color
                          else (1, value))
        assert _failing_entries(capsys) == {"desmaj"}

    def test_capless_handover_fails_the_capped_walk(self, monkeypatch):
        monkeypatch.setattr(identities, "_from_tally", _capless_from_tally)
        ctx = _CAPPED_WALK_CTX
        assert dist_polynomial(ctx, 2, 3, _DIRECT).terms \
            != MultiPoly(ctx, reference_dist_terms(ctx, 2, 3, _DIRECT)).terms


# The one biword of r=2, n=2 with both caps 0.
_ZERO_BIWORD = ("Biword(g=Partition(parts=(0, 0)), "
                "f=ColoredSequence(r=2, values=(0, 0), colors=(0, 0)))")


class TestFailureLabels:
    """The first failing fact of each checker path, fed one faulty map or
    biword, reads as the objects name it."""

    def test_round_trip_without_the_descent_count(self, monkeypatch):
        # The fault breaks only ([1^1], 0), which it sends to 0^1.  That
        # pair's true image 1^1 has max 1, so at cap 0 the pair lies outside
        # the box and the entry passes; at cap 1 the sequence 1^1 shows it.
        monkeypatch.setattr(identities, "_sequence_from", _countless_sequence_from)
        assert all(ok for _, _, ok, _ in identities._bijection_stats(None, 2, 1, 0))
        assert list(identities._bijection_stats(None, 2, 1, 1))[-1] == (
            "fact", "round trip of 1^1", False, "came back as 0^1")

    def test_growth_across_a_reversed_sort(self, monkeypatch):
        # reversed, 0,0 sorts to [2,1], whose descent at 1 lowers the
        # second part to -1
        monkeypatch.setattr(identities, "_sort", _reversed_sort)
        assert list(identities._bijection_stats(None, 1, 2, 0))[-1] == (
            "fact", "residue of 0,0", False, "parts must be nonnegative")

    @pytest.mark.parametrize("shift,fact", [
        (-1, ("fact", "residue of 0", False, "parts must be nonnegative")),
        (1, ("fact", "round trip of 0", False, "came back as 1")),
    ])
    def test_residue_other_than_the_partition(self, monkeypatch, shift, fact):
        monkeypatch.setattr(identities, "_residue", lambda values, sigma, des_set:
                            tuple(v + shift for v in values))
        assert list(identities._bijection_stats(None, 1, 1, 0))[-1] == fact

    def test_round_trip_to_no_sequence(self, monkeypatch):
        # 0 comes back lowered as -1, which no ColoredSequence holds
        monkeypatch.setattr(identities, "_sequence_from", _lowered_sequence_from)
        assert list(identities._bijection_stats(None, 1, 1, 0))[-1] == (
            "fact", "round trip of 0", False, "came back as -1")

    def test_image_short_of_a_pair(self, monkeypatch):
        # every sequence that is checked passes; the dropped one's pair is
        # missed
        monkeypatch.setattr(identities, "_sequences", _short_sequences)
        assert list(identities._bijection_stats(None, 2, 3, 2))[-1] == (
            "fact", "image is every pair in the box (r=2 n=3 cap=2)", False,
            "124 pairs reached vs 125 expected")

    @pytest.mark.parametrize("fault,detail", [
        (_reversed_sort, "first partition is not skew-inverse compatible"),
        (_flat_sort, "sigma is not a permutation of 1..n"),
    ])
    def test_triple_of_a_biword(self, monkeypatch, fault, detail):
        monkeypatch.setattr(biwords, "_sort", fault)
        facts = list(identities._biword_count(None, 2, 2, 0, 0))
        assert facts[-1] == ("fact", f"triple of {_ZERO_BIWORD}", False, detail)

    def test_triple_of_a_biword_with_unsorted_values(self, monkeypatch):
        # reversed, the values 0,1 read 1,0, which is no partition
        monkeypatch.setattr(biwords, "_sort", _reversed_sort)
        monkeypatch.setattr(identities, "_biwords",
                            lambda *args: iter([((0, 1), (0, 1), (0, 0))]))
        facts = list(identities._biword_count(None, 1, 2, 1, 1))
        assert facts[-1] == (
            "fact", "triple of Biword(g=Partition(parts=(0, 1)), "
            "f=ColoredSequence(r=1, values=(0, 1), colors=(0, 0)))", False,
            "parts must be nondecreasing")

    def test_round_trip_of_a_biword(self, monkeypatch):
        monkeypatch.setattr(identities, "_from_triple",
                            lambda lam, mu, skew: (lam, (1, 1), (0, 0)))
        facts = list(identities._biword_count(None, 2, 2, 0, 0))
        assert facts[-1] == ("fact", f"round trip of {_ZERO_BIWORD}", False, None)

    # The triples, their round trip and the image never read
    # column_realization_count, so the column facts are the only check of
    # that formula.  The faulty count is right wherever no (top, value)
    # cell holds two colored copies of different colors; the least
    # multiset that has one names the failure.
    @pytest.mark.parametrize("r,n,cap_f,cap_g,label", [
        (3, 2, 1, 1, "column multiset ((1, 1, 1), (1, 1, 2))"),
        (3, 3, 3, 3, "column multiset ((0, 0, 0), (1, 1, 1), (1, 1, 2))"),
    ])
    def test_column_multiset_without_multinomials(self, monkeypatch, r, n, cap_f,
                                                  cap_g, label):
        _patch_everywhere(monkeypatch, "column_realization_count", _one_realization)
        facts = list(identities._biword_count(None, r, n, cap_f, cap_g))
        assert facts[-1] == ("fact", label, False, "2 biwords vs multinomial 1")
        assert all(ok for _, _, ok, _ in facts[:-1])

    def test_invalid_biword(self, monkeypatch):
        # a colored copy after an equal uncolored entry where the top row
        # stalls makes no compatible triple
        monkeypatch.setattr(identities, "_biwords",
                            lambda *args: iter([((0, 0), (1, 1), (0, 1))]))
        facts = list(identities._biword_count(None, 2, 2, 1, 0))
        assert facts[-1] == (
            "fact", "triple of Biword(g=Partition(parts=(0, 0)), "
            "f=ColoredSequence(r=2, values=(1, 1), colors=(0, 1)))", False,
            "first partition is not skew-inverse compatible")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_label_text_matches_the_objects(r):
    """The labels built from tuples read as the value objects write them:
    windows for r <= 3, n <= 3, and biwords for r <= 2, n <= 2, caps <= 2."""
    for n in range(4):
        for gamma in enumerate_group(r, n):
            assert f"[{_entries_text(gamma.sigma, gamma.colors)}]" == format_window(gamma)
    for n, cap_f, cap_g in itertools.product(range(3), repeat=3) if r <= 2 else ():
        for lam, values, colors in biwords._biwords(r, n, cap_f, cap_g):
            b = Biword(g=Partition(lam), f=ColoredSequence(r, values, colors))
            assert _biword_text(r, lam, values, colors) == repr(b)


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
