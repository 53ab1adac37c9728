"""Encoding colored sequences as (colored permutation, partition) pairs.

A colored sequence is an n-tuple of colored nonnegative integers.  Sorting
its positions by value, ties broken by the colored-integer order on the
positions themselves, produces a colored permutation; subtracting the
running descent count from the sorted values leaves a partition.  The two
maps are mutually inverse, which is what the round-trip tests pin down.

Each map has one tuple core that the public function wraps, for callers
that read only the tuples and need no checked value object: ``_sort`` gives
``pi_of``'s window as ``(sigma, colors)`` tuples, ``_residue`` the parts of
``lambda_of``, ``_sequence_from`` the ``(values, colors)`` of
``sequence_from`` and ``_sequences`` those of ``enumerate_sequences``'
sequences, after the checks and budget of ``_check_sequences``.
``_check_parts`` is the check of ``Partition`` on tuples, and
``_parts_in_box`` gives the parts of ``partitions_in_box``.
``format_sequence`` writes its entries with ``group._entries_text``, which
takes tuples, so a failing check can name values no ``ColoredSequence``
holds.

``_sort`` sorts one sequence from nothing.  It serves ``pi_of``,
``lambda_of``, ``seq_statistics`` and the bijection checks, where the sort
is the map under test: ``bijection_stats`` sorts once per sequence and the
triple maps once per bottom row.
The catalog's sums over many sequences (``keylem`` and ``desmaj``) instead
walk the sequences position by position, and ``_insertion`` places each new
position in the sorted window from a count of the values already placed.

Partitions are kept in nondecreasing order throughout.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .group import (
    ColoredPermutation,
    ParseError,
    _check_budget,
    _descent_set,
    _entries_text,
    _length,
    _parse_entries,
    _skew,
    order_key,
)

__all__ = [
    "ColoredSequence",
    "Partition",
    "SequenceStats",
    "enumerate_sequences",
    "format_sequence",
    "is_compatible",
    "lambda_gamma",
    "lambda_of",
    "parse_partition",
    "parse_sequence",
    "partitions_in_box",
    "pi_of",
    "seq_statistics",
    "sequence_from",
]


@dataclass(frozen=True)
class Partition:
    """Nondecreasing tuple of nonnegative integers of a fixed length."""

    parts: tuple

    def __post_init__(self):
        _check_parts(self.parts)

    @property
    def n(self):
        return len(self.parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def max_part(self):
        return max(self.parts, default=0)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def _check_parts(parts):
    """``Partition``'s checks on a tuple of parts, which it returns."""
    if parts and min(parts) < 0:
        raise ValueError("parts must be nonnegative")
    if sorted(parts) != list(parts):
        raise ValueError("parts must be nondecreasing")
    return parts


@dataclass(frozen=True)
class ColoredSequence:
    """An n-tuple of colored nonnegative integers."""

    r: int
    values: tuple
    colors: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if len(self.values) != len(self.colors):
            raise ValueError("values and colors must have equal length")
        if self.values and min(self.values) < 0:
            raise ValueError("values must be nonnegative")
        if self.colors and (min(self.colors) < 0 or max(self.colors) >= self.r):
            raise ValueError("color out of range")

    @property
    def n(self):
        return len(self.values)

    @property
    def in_n0(self):
        """True when every zero value is uncolored (recomputed, never stored)."""
        return all(c == 0 for v, c in zip(self.values, self.colors) if v == 0)

    def __str__(self):
        return format_sequence(self)


def pi_of(f):
    """The colored permutation obtained by stably sorting a colored sequence.

    Positions are ordered by their value; positions holding equal values are
    arranged increasingly as colored integers.  Accepts any colored
    sequence, including those with colored zeros.  The window comes from
    the tuple core ``_sort``.
    """
    return ColoredPermutation(f.r, *_sort(f.values, f.colors))


def _sort(values, colors):
    """``pi_of``'s window on a sequence's tuples, as ``(sigma, colors)``:
    sigma lists the positions 1..n in sorted order and each position keeps
    its color."""
    order = tuple(sorted(range(1, len(values) + 1),
                         key=lambda i: (values[i - 1], order_key(i, colors[i - 1]))))
    return order, tuple(colors[i - 1] for i in order)


def _insertion(placed, v, c):
    """Where the next position of a sequence enters its sorted window, and
    what it adds to the window's length, as ``(k, step)``.

    The positions are placed in increasing order, and ``placed`` holds the
    values of those already placed, nondecreasing, as the window holds them.
    The new position i, of value ``v`` and color ``c``, is the largest
    colored integer so far when uncolored and the smallest when colored, so:

    - uncolored, it goes after every placed entry of value <= v, and adds
      the ``above`` placed entries of value > v, which follow it, as
      inversions;
    - colored, it goes before every placed entry of value >= v, and adds the
      ``below`` placed entries of value < v, which precede it, as
      inversions, plus its color weight ``i + c - 1``.

    Entries already placed keep their order, so the length of the window is
    the sum of the steps.  ``placed`` is not changed.
    """
    if c:
        below = bisect_left(placed, v)
        return below, below + len(placed) + c
    k = bisect_right(placed, v)
    return k, len(placed) - k


def lambda_of(f):
    """The residual partition of a colored sequence.

    Sorted values minus the running descent count of the sorted
    permutation.  Requires every zero value to be uncolored, otherwise the
    first part could go negative.  The parts come from the tuple core
    ``_residue``.
    """
    if not f.in_n0:
        raise ValueError("sequence has a colored zero entry")
    sigma, colors = _sort(f.values, f.colors)
    return Partition(_residue(f.values, sigma, _descent_set(sigma, colors)))


def _residue(values, sigma, des_set):
    """``lambda_of``'s parts, unchecked, given the sequence's values, the
    positions ``sigma`` of its sorted window and that window's descent
    set."""
    parts = []
    count = 0
    for i, s in enumerate(sigma):
        if i in des_set:
            count += 1
        parts.append(values[s - 1] - count)
    return tuple(parts)


def sequence_from(gamma, lam):
    """Inverse of the ``(pi_of, lambda_of)`` pair.

    Adds the running descent count back onto the partition and permutes the
    result through the skew inverse, colors riding along.  The tuples come
    from the core ``_sequence_from``.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    sigma, colors = gamma.sigma, gamma.colors
    return ColoredSequence(gamma.r, *_sequence_from(
        lam.parts, _descent_set(sigma, colors), *_skew(sigma, colors)))


def _sequence_from(parts, des_set, skew_sigma, skew_colors):
    """``sequence_from`` as ``(values, colors)`` tuples, given the parts of
    the partition, gamma's descent set and the tuples of its skew inverse,
    for callers that reuse them across many partitions; the parts must be
    as many as gamma's letters, which is not checked here."""
    mu = []
    count = 0
    for i, part in enumerate(parts):
        if i in des_set:
            count += 1
        mu.append(part + count)
    return _push(mu, skew_sigma, skew_colors)


def lambda_gamma(lam, gamma):
    """The colored sequence ``(lam[sigma(1)]^{c_1}, ..., lam[sigma(n)]^{c_n})``.

    May produce colored zeros, so the result is not always in the
    zero-forces-uncolored subset.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    return ColoredSequence(gamma.r, *_push(lam.parts, gamma.sigma, gamma.colors))


def _push(parts, sigma, colors):
    """``lambda_gamma`` as ``(values, colors)`` tuples, lengths already
    checked."""
    return tuple([parts[s - 1] for s in sigma]), colors


def is_compatible(lam, gamma):
    """True when the partition grows strictly across every descent of gamma.

    Position 0 compares against an implicit zero part, so a descent at 0
    forces a strictly positive first part.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    return _fits(lam.parts, _descent_set(gamma.sigma, gamma.colors))


def _fits(parts, des_set):
    """``is_compatible`` on a tuple of parts and the element's descent set,
    for callers that test many partitions against one element."""
    padded = (0,) + parts
    for i in des_set:
        if padded[i] >= padded[i + 1]:
            return False
    return True


@dataclass(frozen=True)
class SequenceStats:
    max: int
    sum: int
    inv: int
    col: int


def seq_statistics(f):
    """Maximum, sum, and the length/color weight of the sorted permutation."""
    values, colors = f.values, f.colors
    return SequenceStats(max=max(values, default=0), sum=sum(values),
                         inv=_length(*_sort(values, colors)), col=sum(colors))


def _distinct_permutations(items):
    """Distinct orderings of a multiset, in lexicographic order.

    Knuth's Algorithm L (TAOCP 7.2.1.2): from the sorted items, each next
    ordering swaps the last ascent's left entry with the rightmost larger
    entry and reverses the suffix after it.  No recursion, so any length.
    """
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def multinomial(counts):
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def enumerate_sequences(r, n, max_cap=None, restrict_n0=True, composition=None,
                        max_elements=None):
    """Yield colored sequences, each exactly once, in lexicographic order.

    Plain mode lists every sequence with values up to ``max_cap``; with
    ``restrict_n0`` zero values carry only color 0.  Composition mode lists
    the sequences whose value-multiplicity profile equals ``composition``
    (entry j gives the multiplicity of value j); zeros are uncolored there
    by definition of the profile's domain.  The tuples come from the core
    ``_sequences``, whose checks run when the first sequence is asked for.
    """
    for values, colors in _sequences(r, n, max_cap, restrict_n0, composition,
                                     max_elements):
        yield ColoredSequence(r, values, colors)


def _sequences(r, n, max_cap=None, restrict_n0=True, composition=None,
               max_elements=None):
    """``enumerate_sequences`` as ``(values, colors)`` tuples, same order,
    same checks and budget."""
    letters = _check_sequences(r, n, max_cap, restrict_n0, composition,
                               max_elements)
    if composition is not None:
        for arrangement in _distinct_permutations(letters):
            # zeros stay uncolored; every other value takes each color
            palettes = [range(r) if v else (0,) for v in arrangement]
            for colors in itertools.product(*palettes):
                yield arrangement, colors
        return
    for entries in itertools.product(letters, repeat=n):
        # zip splits the (value, color) pairs; the empty sequence has none
        values, colors = zip(*entries) if n else ((), ())
        yield values, colors


def _check_sequences(r, n, max_cap=None, restrict_n0=True, composition=None,
                     max_elements=None):
    """The checks and ``group._check_budget`` of ``_sequences``, for it and
    for the walks over the same sequences; raises before any is built.

    Returns the letters the sequences are made of: in composition mode the
    composition's values, nondecreasing, one per position; otherwise the
    ``(value, color)`` alphabet of every entry, in lexicographic order.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if composition is not None:
        composition = tuple(composition)
        if any(c < 0 for c in composition):
            raise ValueError("composition parts must be nonnegative")
        if sum(composition) != n:
            raise ValueError(f"composition must sum to {n}")
        colored_positions = n - (composition[0] if composition else 0)
        _check_budget(max_elements, "{} sequences exceed",
                      lambda: multinomial(composition) * r ** colored_positions)
        return [j for j, mult in enumerate(composition) for _ in range(mult)]
    if max_cap is None or max_cap < 0:
        raise ValueError("plain enumeration needs a nonnegative max_cap")
    alphabet = [(v, c) for v in range(max_cap + 1) for c in range(r)
                if not (v == 0 and c > 0 and restrict_n0)]
    _check_budget(max_elements, "{} sequences exceed", lambda: len(alphabet) ** n)
    return alphabet


def partitions_in_box(n, cap):
    """All nondecreasing n-tuples with parts in [0, cap], lexicographically.
    The parts come from the tuple core ``_parts_in_box``."""
    for parts in _parts_in_box(n, cap):
        yield Partition(parts)


def _parts_in_box(n, cap):
    """``partitions_in_box`` as parts tuples, same order."""
    return itertools.combinations_with_replacement(range(cap + 1), n)


# -- sequence text ----------------------------------------------------------


def parse_sequence(text, r):
    """Parse ``4^2,4^1,1,3^3,6,3^1,4^2`` style text into a colored sequence."""
    if r < 1:
        raise ParseError("r must be a positive integer")
    entries = _parse_entries(text, r, "sequence")
    return ColoredSequence(r, tuple(v for v, _ in entries),
                           tuple(c for _, c in entries))


def format_sequence(f):
    return _entries_text(f.values, f.colors)


def parse_partition(text):
    try:
        parts = tuple(int("".join(x.split())) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ParseError(f"bad partition text {text!r}") from None
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
