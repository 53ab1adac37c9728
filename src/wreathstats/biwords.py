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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .group import BudgetExceededError, _descent_set, _skew, order_key
from .encoding import (
    ColoredSequence,
    Partition,
    _fits,
    _push,
    multinomial,
    partitions_in_box,
    pi_of,
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
        sigma, colors = self.gamma.sigma, self.gamma.colors
        if not _fits(self.lam.parts, _descent_set(*_skew(sigma, colors))):
            raise ValueError("first partition is not skew-inverse compatible")
        if not _fits(self.mu.parts, _descent_set(sigma, colors)):
            raise ValueError("second partition is not compatible with the element")


def to_triple(b):
    """Sort the bottom row: the element, the top row, and the sorted values."""
    gamma = pi_of(b.f)
    mu = Partition(tuple(b.f.values[s - 1] for s in gamma.sigma))
    return Triple(gamma=gamma, lam=b.g, mu=mu)


def from_triple(t):
    """Rebuild the biword: top row is the first partition, bottom row is the
    second partition pushed through the skew inverse with colors riding along."""
    gamma = t.gamma
    f = _push(t.mu, gamma.r, *_skew(gamma.sigma, gamma.colors))
    return Biword(g=t.lam, f=f)


def enumerate_biwords(r, n, cap_f, cap_g, max_elements=None):
    """Yield every valid biword within the value caps, exactly once.

    Under each top row the bottom rows are built column by column, starting
    after the boundary column: a new column takes every entry where the top
    row rises and, where it stalls, only the entries the column rule lets
    follow the previous one, so no invalid row is ever formed.  Zero values
    are uncolored.  Deterministic order: lexicographic in the top row, then
    in the bottom row entries.  The budget bounds the candidate count, the
    top rows times every bottom row, before any is built.
    """
    if max_elements is not None:
        tops = math.comb(cap_g + n, n)
        bottoms = (1 + cap_f * r) ** n
        if tops * bottoms > max_elements:
            raise BudgetExceededError(
                f"{tops * bottoms} candidate biwords exceed budget {max_elements}")
    alphabet = [(v, c) for v in range(cap_f + 1) for c in range(r)
                if not (v == 0 and c > 0)]
    after = {entry: [e for e in alphabet if _may_follow(*entry, *e)]
             for entry in alphabet}
    for g in partitions_in_box(n, cap_g):
        # (values, colors, last entry) of each bottom row built so far
        rows = [((), (), (0, 0))]
        prev = 0
        for top in g.parts:
            rows = [(values + (v,), colors + (c,), (v, c))
                    for values, colors, last in rows
                    for v, c in (after[last] if top == prev else alphabet)]
            prev = top
        for values, colors, _ in rows:
            yield Biword(g=g, f=ColoredSequence(r, values, colors))


def column_multiset(b):
    """Canonical multiset of (top, value, color) columns."""
    return tuple(sorted(zip(b.g.parts, b.f.values, b.f.colors)))


def column_realization_count(columns, r):
    """Number of biwords realizing a column multiset.

    For each (top, value) cell, the colored copies may permute their colors
    freely, giving a multinomial factor; everything else is forced.
    """
    colored = {}
    for g, v, c in columns:
        if c:
            colored.setdefault((g, v), []).append(c)
    count = 1
    for _, cs in colored.items():
        per_color = [cs.count(h) for h in range(1, r)]
        count *= multinomial(per_color)
    return count
