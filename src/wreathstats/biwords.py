"""Colored biwords and their bijection with compatible-partition triples.

A biword stacks a partition over a colored sequence of the same length.
Where the top row stalls, the bottom row must grow strictly in the
colored-integer order, except that equal bottom values are allowed as long
as an uncolored entry is never followed by a colored copy of itself.  The
boundary convention prepends an uncolored zero column.

Sorting the bottom row yields a colored permutation together with two
partitions, one compatible with the skew inverse and one with the element
itself; that triple determines the biword and gives the bijection both
directions implement.

Each map has one tuple core that the public function wraps: ``_biwords``
yields ``enumerate_biwords``' rows as ``(top parts, values, colors)``,
after the budget of ``_check_biwords``, and ``_to_triple`` and
``_from_triple`` map a biword's tuples to its triple's ``(sigma, colors,
lam, mu)`` and back.  ``_to_triple`` reads each element's descent sets and
skew inverse from a table of ``_window`` entries, which ``to_triple`` fills
with the one element it needs, and may keep a second table keyed by the
bottom row.  Its entry holds what depends on the bottom row alone: the
sorted window, the sorted values, the window's skew descent set and whether
the sorted values fit the window's descent set.  So a caller that maps many
biwords sorts and checks each bottom row once, and checks each biword's top
row against the stored skew descent set.  ``_from_triple`` takes the skew
inverse's tuples alone.  Each check runs once: ``_to_triple``
checks the triple it makes, ``_from_triple`` takes a checked one, and the
value objects around their results are built ``_unchecked``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .group import (
    ColoredPermutation,
    _check_budget,
    _check_window,
    _descent_set,
    _skew,
    _unchecked,
    order_key,
)
from .encoding import (
    ColoredSequence,
    Partition,
    _check_parts,
    _fits,
    _parts_in_box,
    _push,
    _sort,
)

__all__ = [
    "Biword",
    "Triple",
    "column_multiset",
    "column_realization_count",
    "enumerate_biwords",
    "from_triple",
    "is_biword",
    "to_triple",
]


def _may_follow(prev_v, prev_c, v, c):
    """The column rule where the top row stalls: may bottom entry ``v^c``
    follow ``prev_v^prev_c``?  It must be larger as a colored integer, or an
    equal value that is not a colored copy after an uncolored entry."""
    if v != prev_v:
        return order_key(prev_v, prev_c) < order_key(v, c)
    return prev_c != 0 or c == 0


def is_biword(g, f):
    """Validity of a partition-over-sequence pair, boundary column included."""
    if g.n != f.n:
        raise ValueError("rows must have equal length")
    if not f.in_n0:
        return False
    prev_g, prev_v, prev_c = 0, 0, 0
    for gi, v, c in zip(g.parts, f.values, f.colors):
        if gi == prev_g and not _may_follow(prev_v, prev_c, v, c):
            return False
        prev_g, prev_v, prev_c = gi, v, c
    return True


@dataclass(frozen=True)
class Biword:
    g: Partition
    f: ColoredSequence

    def __post_init__(self):
        if not is_biword(self.g, self.f):
            raise ValueError("rows do not form a valid biword")

    @property
    def n(self):
        return self.g.n


@dataclass(frozen=True)
class Triple:
    gamma: object
    lam: Partition
    mu: Partition

    def __post_init__(self):
        if self.gamma.n != self.lam.n or self.gamma.n != self.mu.n:
            raise ValueError("lengths do not agree")
        des_set, skew_des_set, _ = _window(self.gamma.sigma, self.gamma.colors)
        _check_triple(self.lam.parts, skew_des_set, _fits(self.mu.parts, des_set))


def _window(sigma, colors):
    """What the triple check and the push read of the element with window
    tuples ``(sigma, colors)``: ``(des_set, skew_des_set, skew)``, its
    descent set, that of its skew inverse and the skew inverse's tuples."""
    skew = _skew(sigma, colors)
    return _descent_set(sigma, colors), _descent_set(*skew), skew


def _check_triple(lam, skew_des_set, mu_fits):
    """``Triple``'s two compatibility checks, the first partition's first:
    its parts tuple against the skew inverse's descent set, then
    ``mu_fits``, whether the second partition fits the element's descent
    set, ``_fits(mu, des_set)``, which a caller may read once per bottom
    row."""
    if not _fits(lam, skew_des_set):
        raise ValueError("first partition is not skew-inverse compatible")
    if not mu_fits:
        raise ValueError("second partition is not compatible with the element")


def to_triple(b):
    """Sort the bottom row: the element, the top row, and the sorted values.
    The tuples come from the core ``_to_triple``, which has checked them."""
    r = b.f.r
    sigma, colors, _, mu = _to_triple(r, b.g.parts, b.f.values, b.f.colors, {})
    return _unchecked(Triple, _unchecked(ColoredPermutation, r, sigma, colors),
                      b.g, _unchecked(Partition, mu))


def _to_triple(r, lam, values, colors, windows, rows=None):
    """``to_triple`` on a biword's tuples: ``(sigma, colors, lam, mu)``.

    ``windows`` maps each element's window tuples to its ``_window``, and
    a window missing from it is added once checked.  ``rows`` maps each
    bottom row ``(values, colors)`` to ``(window, mu, skew_des_set,
    mu_fits)``: its sorted window, its sorted values, the window's skew
    descent set and whether the sorted values fit the window's descent
    set.  A row missing from it is sorted, checked and added; without it
    the call sorts.  A sorted window that is no element raises
    ``ColoredPermutation``'s error, sorted values that are no partition
    ``Partition``'s, and an incompatible pair ``Triple``'s, the first
    partition checked first, against each biword's own top row.  ``_sort``
    reads the bottom row alone, so a row that failed would fail again and
    is never stored.
    """
    if rows is None:
        rows = {}
    row = rows.get((values, colors))
    if row is None:
        window = _sort(values, colors)
        if window not in windows:
            _check_window(r, *window)
            windows[window] = _window(*window)
        mu = _check_parts(tuple([values[s - 1] for s in window[0]]))
        des_set, skew_des_set, _ = windows[window]
        row = rows[values, colors] = (window, mu, skew_des_set,
                                      _fits(mu, des_set))
    window, mu, skew_des_set, mu_fits = row
    _check_triple(lam, skew_des_set, mu_fits)
    return (*window, lam, mu)


def from_triple(t):
    """Rebuild the biword: top row is the first partition, bottom row is the
    second partition pushed through the skew inverse with colors riding along.
    The tuples come from the core ``_from_triple``; ``t`` was checked when
    it was built, and a compatible pair's rows form a biword."""
    _, values, colors = _from_triple(t.lam.parts, t.mu.parts,
                                     _skew(t.gamma.sigma, t.gamma.colors))
    return _unchecked(Biword, t.lam, _unchecked(ColoredSequence, t.gamma.r,
                                                values, colors))


def _from_triple(lam, mu, skew):
    """``from_triple`` on a checked triple's tuples: the biword's ``(lam,
    values, colors)``, given the element's skew inverse as the ``(sigma,
    colors)`` tuples of ``_skew``."""
    return (lam, *_push(mu, *skew))


def enumerate_biwords(r, n, cap_f, cap_g, max_elements=None):
    """Yield every valid biword within the value caps, exactly once.

    Under each top row the bottom rows are built column by column, starting
    after the boundary column: a new column takes every entry where the top
    row rises and, where it stalls, only the entries the column rule lets
    follow the previous one, so no invalid row is ever formed.  Zero values
    are uncolored.  Deterministic order: lexicographic in the top row, then
    in the bottom row entries.  The rows come from the tuple core
    ``_biwords``, which runs ``_check_biwords`` on the first ``next()``.
    """
    for lam, values, colors in _biwords(r, n, cap_f, cap_g, max_elements):
        yield Biword(g=Partition(lam), f=ColoredSequence(r, values, colors))


def _biwords(r, n, cap_f, cap_g, max_elements=None):
    """``enumerate_biwords`` as ``(top parts, values, colors)`` tuples, same
    order, from the alphabet of ``_check_biwords``, run on the first ``next()``."""
    alphabet = _check_biwords(r, n, cap_f, cap_g, max_elements)
    after = {entry: [e for e in alphabet if _may_follow(*entry, *e)]
             for entry in alphabet}
    for lam in _parts_in_box(n, cap_g):
        # (values, colors, last entry) of each bottom row built so far
        rows = [((), (), (0, 0))]
        prev = 0
        for top in lam:
            rows = [(values + (v,), colors + (c,), (v, c))
                    for values, colors, last in rows
                    for v, c in (after[last] if top == prev else alphabet)]
            prev = top
        for values, colors, _ in rows:
            yield lam, values, colors


def _check_biwords(r, n, cap_f, cap_g, max_elements):
    """The budget of ``_biwords``, top rows times every bottom row; returns
    the bottom row's ``(value, color)`` alphabet, zero uncolored, in order."""
    _check_budget(max_elements, "{} candidate biwords exceed",
                  lambda: math.comb(cap_g + n, n) * (1 + cap_f * r) ** n)
    return [(v, c) for v in range(cap_f + 1) for c in range(r)
            if not (v == 0 and c > 0)]


def _biword_text(r, lam, values, colors):
    """``repr(Biword(...))`` of a biword's tuples, which may form none."""
    return (f"Biword(g=Partition(parts={lam!r}), f=ColoredSequence(r={r!r}, "
            f"values={values!r}, colors={colors!r}))")


def column_multiset(b):
    """Canonical multiset of (top, value, color) columns."""
    return _columns(b.g.parts, b.f.values, b.f.colors)


def _columns(lam, values, colors):
    """``column_multiset`` on a biword's tuples."""
    return tuple(sorted(zip(lam, values, colors)))


def column_realization_count(columns, r):
    """Number of biwords realizing a column multiset.

    For each (top, value) cell, the colored copies may permute their colors
    freely, giving a multinomial factor; everything else is forced.  The
    columns come sorted, as ``column_multiset`` gives them, so each cell's
    colored copies are adjacent and grouped by color: the multinomial grows
    by ``m / k`` as the m-th colored copy of the cell joins a run of ``k``
    copies of its color, and each partial product is whole.
    """
    count = 1
    cell = color = None
    for g, v, c in columns:
        if not 0 < c < r:
            continue
        if (g, v) != cell:
            cell, color, m = (g, v), None, 0
        m += 1
        k = k + 1 if c == color else 1
        color = c
        count = count * m // k
    return count
