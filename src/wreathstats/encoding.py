"""Encoding colored sequences as (colored permutation, partition) pairs.

A colored sequence is an n-tuple of colored nonnegative integers.  Sorting
its positions by value, ties broken by the colored-integer order on the
positions themselves, produces a colored permutation; subtracting the
running descent count from the sorted values leaves a partition.  The two
maps are mutually inverse, which is what the round-trip tests pin down.

Partitions are kept in nondecreasing order throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .group import (
    BudgetExceededError,
    ColoredPermutation,
    ParseError,
    _descent_set,
    _parse_entries,
    order_key,
    skew_inverse,
    statistics,
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
        if self.parts and min(self.parts) < 0:
            raise ValueError("parts must be nonnegative")
        if sorted(self.parts) != list(self.parts):
            raise ValueError("parts must be nondecreasing")

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
    sequence, including those with colored zeros.
    """
    values, colors = f.values, f.colors
    order = sorted(range(1, f.n + 1),
                   key=lambda i: (values[i - 1], order_key(i, colors[i - 1])))
    return ColoredPermutation(f.r, tuple(order),
                              tuple(colors[i - 1] for i in order))


def lambda_of(f):
    """The residual partition of a colored sequence.

    Sorted values minus the running descent count of the sorted
    permutation.  Requires every zero value to be uncolored, otherwise the
    first part could go negative.
    """
    if not f.in_n0:
        raise ValueError("sequence has a colored zero entry")
    gamma = pi_of(f)
    return _residue(f, gamma, _descent_set(gamma.sigma, gamma.colors))


def _residue(f, gamma, des_set):
    """``lambda_of(f)`` given ``gamma = pi_of(f)`` and its descent set, for
    callers that already hold both."""
    values = f.values
    parts = []
    count = 0
    for i, s in enumerate(gamma.sigma):
        if i in des_set:
            count += 1
        parts.append(values[s - 1] - count)
    return Partition(tuple(parts))


def sequence_from(gamma, lam):
    """Inverse of the ``(pi_of, lambda_of)`` pair.

    Adds the running descent count back onto the partition and permutes the
    result through the skew inverse, colors riding along.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    des_set = _descent_set(gamma.sigma, gamma.colors)
    mu = []
    count = 0
    for i in range(gamma.n):
        if i in des_set:
            count += 1
        mu.append(lam.parts[i] + count)
    return lambda_gamma(Partition(tuple(mu)), skew_inverse(gamma))


def lambda_gamma(lam, gamma):
    """The colored sequence ``(lam[sigma(1)]^{c_1}, ..., lam[sigma(n)]^{c_n})``.

    May produce colored zeros, so the result is not always in the
    zero-forces-uncolored subset.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    return ColoredSequence(gamma.r,
                           tuple(lam.parts[s - 1] for s in gamma.sigma),
                           gamma.colors)


def is_compatible(lam, gamma):
    """True when the partition grows strictly across every descent of gamma.

    Position 0 compares against an implicit zero part, so a descent at 0
    forces a strictly positive first part.
    """
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    des_set = _descent_set(gamma.sigma, gamma.colors)
    padded = (0,) + lam.parts
    return all(padded[i] < padded[i + 1] for i in des_set)


@dataclass(frozen=True)
class SequenceStats:
    max: int
    sum: int
    inv: int
    col: int


def seq_statistics(f):
    """Maximum, sum, and the length/color weight of the sorted permutation."""
    rec = statistics(pi_of(f))
    return SequenceStats(max=max(f.values, default=0), sum=sum(f.values),
                         inv=rec.length, col=rec.col)


def _distinct_permutations(items):
    """Distinct orderings of a multiset, in lexicographic order."""
    pool = sorted(items)
    n = len(pool)
    counts = {}
    for x in pool:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    current = []

    def rec():
        if len(current) == n:
            yield tuple(current)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                current.append(k)
                yield from rec()
                current.pop()
                counts[k] += 1

    yield from rec()


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
    by definition of the profile's domain.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if composition is not None:
        composition = tuple(composition)
        if any(c < 0 for c in composition):
            raise ValueError("composition parts must be nonnegative")
        if sum(composition) != n:
            raise ValueError(f"composition must sum to {n}")
        values = [j for j, mult in enumerate(composition) for _ in range(mult)]
        colored_positions = n - (composition[0] if composition else 0)
        if max_elements is not None:
            total = multinomial(composition) * r ** colored_positions
            if total > max_elements:
                raise BudgetExceededError(
                    f"{total} sequences exceed budget {max_elements}")
        for arrangement in _distinct_permutations(values):
            live = [i for i, v in enumerate(arrangement) if v]
            for combo in itertools.product(range(r), repeat=len(live)):
                colors = [0] * n
                for i, c in zip(live, combo):
                    colors[i] = c
                yield ColoredSequence(r, arrangement, tuple(colors))
        return
    if max_cap is None or max_cap < 0:
        raise ValueError("plain enumeration needs a nonnegative max_cap")
    alphabet = [(v, c) for v in range(max_cap + 1) for c in range(r)
                if not (v == 0 and c > 0 and restrict_n0)]
    if max_elements is not None and len(alphabet) ** n > max_elements:
        raise BudgetExceededError(
            f"{len(alphabet) ** n} sequences exceed budget {max_elements}")
    for entries in itertools.product(alphabet, repeat=n):
        yield ColoredSequence(r, tuple(v for v, _ in entries),
                              tuple(c for _, c in entries))


def partitions_in_box(n, cap):
    """All nondecreasing n-tuples with parts in [0, cap], lexicographically."""
    for parts in itertools.combinations_with_replacement(range(cap + 1), n):
        yield Partition(parts)


# -- sequence text ----------------------------------------------------------


def parse_sequence(text, r):
    """Parse ``4^2,4^1,1,3^3,6,3^1,4^2`` style text into a colored sequence."""
    if r < 1:
        raise ParseError("r must be a positive integer")
    entries = _parse_entries(text, r, "sequence")
    return ColoredSequence(r, tuple(v for v, _ in entries),
                           tuple(c for _, c in entries))


def format_sequence(f):
    return ",".join(f"{v}^{c}" if c else str(v)
                    for v, c in zip(f.values, f.colors))


def parse_partition(text):
    try:
        parts = tuple(int("".join(x.split())) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ParseError(f"bad partition text {text!r}") from None
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
