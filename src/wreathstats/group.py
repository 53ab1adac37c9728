"""Colored permutations and their statistics.

An r-colored permutation on n letters is a permutation sigma of {1, ..., n}
together with a color c_i in [0, r-1] attached to each window position.
Window notation writes position i as ``sigma(i)^{c_i}`` and omits zero
colors, e.g. ``[4^1,3,2^4,1^2]``.  For r = 1 this is the symmetric group
and for r = 2 the group of signed permutations.

All types here are immutable values and all operations are pure functions,
so everything is safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

__all__ = [
    "BudgetExceededError",
    "ColoredInteger",
    "ColoredPermutation",
    "ParseError",
    "StatRecord",
    "compare_colored",
    "enumerate_group",
    "format_window",
    "group_order",
    "identity_element",
    "inverse",
    "multiply",
    "order_key",
    "parse_window",
    "project_to_signed",
    "skew_inverse",
    "statistics",
]


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured element budget."""


class ParseError(ValueError):
    """Malformed window, sequence, or partition text."""


def order_key(value, color):
    """Sort key realizing the total order on colored integers.

    Every colored entry (color > 0) is smaller than 0 and than every
    uncolored positive entry.  Among colored entries a larger value is
    smaller, ties broken by the larger color being smaller; uncolored
    entries are ordered by value.
    """
    if color:
        return (0, -value, -color)
    return (1, value)


_ZERO_KEY = order_key(0, 0)


@dataclass(frozen=True)
class ColoredInteger:
    """A nonnegative integer carrying a color; the window-notation alphabet."""

    value: int
    color: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be nonnegative")
        if self.color < 0:
            raise ValueError("color must be nonnegative")
        if self.value == 0 and self.color != 0:
            raise ValueError("value 0 forces color 0")

    def key(self):
        return order_key(self.value, self.color)


def compare_colored(a, b, r):
    """Compare two colored integers; returns -1, 0 or 1.

    Colors must lie in [0, r-1]; values may be arbitrary naturals.
    """
    for x in (a, b):
        if not 0 <= x.color < r:
            raise ValueError(f"color {x.color} out of range for r={r}")
    ka, kb = a.key(), b.key()
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class ColoredPermutation:
    """Element of the group of r-colored permutations on n letters."""

    r: int
    sigma: tuple
    colors: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        n = len(self.sigma)
        if len(self.colors) != n:
            raise ValueError("sigma and colors must have equal length")
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError("sigma is not a permutation of 1..n")
        if self.colors and (min(self.colors) < 0 or max(self.colors) >= self.r):
            raise ValueError("color out of range")

    @property
    def n(self):
        return len(self.sigma)

    def entry(self, i):
        """Window entry at 1-based position i as a ColoredInteger."""
        return ColoredInteger(self.sigma[i - 1], self.colors[i - 1])

    def window(self):
        return format_window(self)

    def __str__(self):
        return self.window()

    def __mul__(self, other):
        return multiply(self, other)


def identity_element(r, n):
    return ColoredPermutation(r, tuple(range(1, n + 1)), (0,) * n)


def group_order(r, n):
    return math.factorial(n) * r ** n


def multiply(alpha, beta):
    """Group product; ``beta`` acts first.

    The colors of the left factor are looked up through the right factor's
    permutation, which is the indexing that makes the parabolic
    factorization compose back to the original element.
    """
    if alpha.r != beta.r or alpha.n != beta.n:
        raise ValueError("operands must share r and n")
    r = alpha.r
    sigma = tuple(alpha.sigma[s - 1] for s in beta.sigma)
    colors = tuple((cb + alpha.colors[s - 1]) % r
                   for s, cb in zip(beta.sigma, beta.colors))
    return ColoredPermutation(r, sigma, colors)


def _inverse_sigma(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv)


def _inverse_colors(r, colors, inv_sigma):
    """Colors of the inverse: position i gets ``r - c`` (mod r) pulled back."""
    return tuple((r - colors[s - 1]) % r for s in inv_sigma)


def inverse(gamma):
    """Group inverse of ``gamma``."""
    inv_sigma = _inverse_sigma(gamma.sigma)
    return ColoredPermutation(gamma.r, inv_sigma,
                              _inverse_colors(gamma.r, gamma.colors, inv_sigma))


def skew_inverse(gamma):
    """Inverse permutation carrying the original, un-negated colors."""
    inv_sigma = _inverse_sigma(gamma.sigma)
    colors = tuple(gamma.colors[s - 1] for s in inv_sigma)
    return ColoredPermutation(gamma.r, inv_sigma, colors)


@dataclass(frozen=True)
class StatRecord:
    """All the one-element statistics, computed together."""

    inv: int
    length: int
    des_set: frozenset
    des: int
    maj: int
    fmaj: int
    col: int
    col_vector: tuple


def raw_statistics(r, sigma, colors):
    """Statistics tuple ``(inv, length, des_set, des, maj, fmaj, col)``.

    O(n^2) in the window length.  ``statistics`` wraps it in a StatRecord;
    ``dist_polynomial`` calls it only for the statistics of the inverse at
    each element of its walk, and ``identities._keylem`` for the length
    and color weight of each sequence's sorted permutation.
    """
    n = len(sigma)
    keys = [order_key(sigma[i], colors[i]) for i in range(n)]
    inv = 0
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            if ki > keys[j]:
                inv += 1
    length = inv + sum(sigma[i] + colors[i] - 1 for i in range(n) if colors[i])
    des_set = []
    prev = _ZERO_KEY
    for i in range(n):
        if prev > keys[i]:
            des_set.append(i)
        prev = keys[i]
    des = len(des_set)
    maj = sum(des_set)
    col = sum(colors)
    return inv, length, tuple(des_set), des, maj, r * maj + col, col


def _descent_set(sigma, colors):
    """Descent positions of a window, in one pass over adjacent entries.

    Position i in [0, n-1] is a descent when the entry before it (the
    implicit 0 for i = 0) is larger as a colored integer.  Equal to
    ``statistics(gamma).des_set`` without its O(n^2) inversion count.
    """
    out = []
    prev = _ZERO_KEY
    for i, (value, color) in enumerate(zip(sigma, colors)):
        key = order_key(value, color)
        if prev > key:
            out.append(i)
        prev = key
    return frozenset(out)


def statistics(gamma):
    inv, length, des_set, des, maj, fmaj, col = raw_statistics(
        gamma.r, gamma.sigma, gamma.colors)
    return StatRecord(inv=inv, length=length, des_set=frozenset(des_set),
                      des=des, maj=maj, fmaj=fmaj, col=col,
                      col_vector=gamma.colors)


def project_to_signed(gamma):
    """Forget colors down to the two-color group: 0 stays 0, anything else becomes 1."""
    if gamma.r < 2:
        raise ValueError("projection needs at least two colors")
    return ColoredPermutation(2, gamma.sigma,
                              tuple(1 if c else 0 for c in gamma.colors))


def enumerate_group(r, n, max_elements=None):
    """Yield every element of the r-colored group on n letters exactly once.

    Deterministic order: lexicographic by sigma, then by color vector.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if max_elements is not None and group_order(r, n) > max_elements:
        raise BudgetExceededError(
            f"group of order {group_order(r, n)} exceeds budget {max_elements}")
    for sigma in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(r), repeat=n):
            yield ColoredPermutation(r, sigma, colors)


# -- window-notation text --------------------------------------------------

_ENTRY_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _parse_entries(text, r, what):
    entries = []
    if text.strip():
        for raw in text.split(","):
            item = "".join(raw.split())
            m = _ENTRY_RE.match(item)
            if not m:
                raise ParseError(f"bad {what} entry {raw.strip()!r}")
            value = int(m.group(1))
            color = int(m.group(2)) if m.group(2) is not None else 0
            if m.group(2) is not None and color == 0:
                raise ParseError(f"color 0 must be omitted, got {raw.strip()!r}")
            if color >= r:
                raise ParseError(f"color {color} out of range for r={r}")
            entries.append((value, color))
    return entries


def parse_window(text, r):
    """Parse window notation like ``[4^1,3,2^4,1^2]`` into a group element."""
    if r < 1:
        raise ParseError("r must be a positive integer")
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("window notation must be enclosed in brackets")
    entries = _parse_entries(body[1:-1], r, "window")
    values = [v for v, _ in entries]
    if len(set(values)) != len(values):
        raise ParseError("repeated absolute value in window")
    try:
        return ColoredPermutation(r, tuple(values), tuple(c for _, c in entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_window(gamma):
    inner = ",".join(f"{v}^{c}" if c else str(v)
                     for v, c in zip(gamma.sigma, gamma.colors))
    return f"[{inner}]"
