"""Which fact pins each fault of the bijection checks.

Each fault is patched in under its name in every package module that binds
it, and the entry's first failing fact, the one ``verify_identity``
reports, must start with the named label and carry the named detail.  The
faults of the biword enumerator and its column rule run at three points,
since no separate pass over the rows checks them: the triple check,
injectivity and the image catch each one.
"""

import pytest

from test_identities import (
    _colorblind_sort,
    _flat_sort,
    _lax_biwords,
    _one_biword,
    _patch_everywhere,
    _reversed_sort,
)

from wreathstats import biwords, identities
from wreathstats.group import order_key

_TRUE_BIWORDS = biwords._biwords
_TRUE_RHS_TERMS = identities._theorem_B_rhs_terms


def _permissive_may_follow(prev_v, prev_c, v, c):
    """_may_follow that lets any entry follow an equal value, a colored copy
    after an uncolored one too: a faulty column rule."""
    return v == prev_v or order_key(prev_v, prev_c) < order_key(v, c)


def _negative_last_row(color):
    """_biwords whose last row's first bottom entry is -1 of ``color``: a
    faulty enumerator."""
    def fault(*args):
        rows = list(_TRUE_BIWORDS(*args))
        lam, values, colors = rows[-1]
        rows[-1] = (lam, (-1, *values[1:]), (color, *colors[1:]))
        return iter(rows)
    return fault


def _doubled_biwords(*args):
    """_biwords that yields every row twice: a faulty enumerator."""
    return iter(list(_TRUE_BIWORDS(*args)) * 2)


def _short_biwords(*args):
    """_biwords without its last row: a faulty enumerator."""
    return iter(list(_TRUE_BIWORDS(*args))[:-1])


def _past_the_cap(*args):
    """_biwords whose last row's last value is one larger, past the value
    cap where the row held the cap: a faulty enumerator whose image keeps
    its size."""
    rows = list(_TRUE_BIWORDS(*args))
    lam, values, colors = rows[-1]
    rows[-1] = (lam, (*values[:-1], values[-1] + 1), colors)
    return iter(rows)


def _one_color_cells(ctx, r, n, t1max, t2max):
    """_theorem_B_rhs_terms that builds every cell at r = 1: a faulty right
    side under test."""
    return _TRUE_RHS_TERMS(ctx, 1, n, t1max, t2max)


_ENUMERATOR_POINTS = [(2, 2, 1, 0), (2, 2, 2, 2), (3, 3, 2, 2)]
_NOT_SKEW = "first partition is not skew-inverse compatible"
_NEGATIVE = "parts must be nonnegative"


def _biword_case(key, name, fault, point, label, detail):
    r, n, cap_f, cap_g = point
    return pytest.param(
        name, fault, "biword_count", {"r": r, "n": n, "cap_f": cap_f, "cap_g": cap_g},
        label, detail, id=f"{key}-biword_count-{r}{n}{cap_f}{cap_g}")


_MATRIX = [
    *[_biword_case(key, name, fault, point, "triple of Biword(", detail)
      for key, name, fault, detail in [
          ("lax_biwords", "_biwords", _lax_biwords, _NOT_SKEW),
          ("colored_copy_after_equal", "_biwords",
           _one_biword(((0, 0), (1, 1), (0, 1))), _NOT_SKEW),
          ("colored_zero", "_biwords", _one_biword(((0,), (0,), (1,))), _NOT_SKEW),
          ("permissive_may_follow", "_may_follow", _permissive_may_follow, _NOT_SKEW),
          ("negative_last_row", "_biwords", _negative_last_row(0), _NEGATIVE),
          ("negative_colored_last_row", "_biwords", _negative_last_row(1), _NEGATIVE),
      ]
      for point in _ENUMERATOR_POINTS],
    *[_biword_case("doubled_biwords", "_biwords", _doubled_biwords, point,
                    "injectivity", "two biwords shared a triple")
      for point in _ENUMERATOR_POINTS],
    _biword_case("short_biwords", "_biwords", _short_biwords, (2, 2, 1, 0),
                  "image is every compatible triple (r=2 n=2)",
                  "2 triples reached vs 3 expected"),
    _biword_case("past_the_cap", "_biwords", _past_the_cap, (2, 2, 1, 0),
                  "image is every compatible triple (r=2 n=2)",
                  "3 triples reached vs 3 expected; "
                  "([1,2], 0,0, 1,1) expected, not reached"),
    *[_biword_case("one_color_cells", "_theorem_B_rhs_terms", _one_color_cells,
                    point, "count at caps (1,1)", detail)
      for point, detail in [((2, 2, 1, 1), "15 biwords vs coefficient 10"),
                            ((3, 3, 3, 3), "64 biwords vs coefficient 20")]],
    pytest.param("_sort", _reversed_sort, "bijection_stats",
                 {"r": 1, "n": 2, "cap": 0}, "residue of 0,0", _NEGATIVE,
                 id="reversed_sort-bijection_stats-120"),
    pytest.param("_sort", _colorblind_sort, "bijection_stats",
                 {"r": 2, "n": 2, "cap": 1}, "residue of 1,1^1",
                 "parts must be nondecreasing", id="colorblind_sort-bijection_stats-221"),
    pytest.param("_sort", _flat_sort, "bijection_stats", {"r": 1, "n": 2, "cap": 0},
                 "image is every pair in the box (r=1 n=2 cap=0)",
                 "1 pairs reached vs 1 expected; ([1,1], 0,0) reached, not expected",
                 id="flat_sort-bijection_stats-120"),
]


@pytest.mark.parametrize("name,fault,entry,params,label,detail", _MATRIX)
def test_fault_fails_at_its_fact(monkeypatch, name, fault, entry, params, label,
                                 detail):
    _patch_everywhere(monkeypatch, name, fault)
    facts = identities.CATALOG[entry][0](None, **params)
    failed = [(got, why) for _, got, ok, why in facts if not ok]
    assert failed, "the fault passed"
    got, why = failed[0]
    assert got.startswith(label) and why == detail, (got, why)
