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
import operator
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


class CatalogError(ValueError):
    """A name the catalog does not have: an unknown identity, or a parameter
    the chosen entry does not take."""


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
        _check_window(self.r, self.sigma, self.colors)

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


def _check_window(r, sigma, colors):
    """``ColoredPermutation``'s checks on window tuples."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    n = len(sigma)
    if len(colors) != n:
        raise ValueError("sigma and colors must have equal length")
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma is not a permutation of 1..n")
    if colors and (min(colors) < 0 or max(colors) >= r):
        raise ValueError("color out of range")


def _unchecked(cls, *values):
    """``cls(*values)`` for a frozen dataclass without its ``__post_init__``,
    for values a core has already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


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


def _skew(sigma, colors):
    """The skew inverse as ``(sigma, colors)`` tuples, for callers that only
    read them: position sigma(i) holds i with the color c_i."""
    inv_sigma = _inverse_sigma(sigma)
    return inv_sigma, tuple(colors[s - 1] for s in inv_sigma)


def skew_inverse(gamma):
    """Inverse permutation carrying the original, un-negated colors."""
    return ColoredPermutation(gamma.r, *_skew(gamma.sigma, gamma.colors))


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


def _descent_set(sigma, colors):
    """Descent positions of a window, in one pass over adjacent entries.

    Position i in [0, n-1] is a descent when the entry before it (the
    implicit 0 for i = 0) is larger as a colored integer.  This is the
    ``des_set`` of ``statistics``, for callers that need only the descents.
    """
    out = []
    prev = _ZERO_KEY
    for i, (value, color) in enumerate(zip(sigma, colors)):
        key = order_key(value, color)
        if prev > key:
            out.append(i)
        prev = key
    return frozenset(out)


def _inversions(sigma, colors):
    """Pairs of window positions whose entries are out of order as colored
    integers; O(n^2) in the window length."""
    keys = list(map(order_key, sigma, colors))
    return sum(itertools.starmap(operator.gt, itertools.combinations(keys, 2)))


def _color_weight(sigma, colors):
    """What the colors add to the length: ``v + c - 1`` for each entry
    ``v^c`` with ``c > 0``."""
    return sum(v + c - 1 for v, c in zip(sigma, colors) if c)


def _length(sigma, colors):
    """The length of the element with window tuples ``(sigma, colors)``,
    ``_inversions`` plus ``_color_weight``: the length of ``statistics``,
    for callers that hold only the tuples."""
    return _inversions(sigma, colors) + _color_weight(sigma, colors)


def statistics(gamma):
    """The StatRecord of ``gamma``, whose fields are those of the tuple core
    ``_statistics``; O(n^2) in the window length."""
    # Positional, in field order: keyword arguments would make the record
    # cost about half as much again.
    return StatRecord(*_statistics(gamma.r, gamma.sigma, gamma.colors))


def _statistics(r, sigma, colors):
    """``statistics`` of the r-colored element with window tuples ``(sigma,
    colors)``, as a tuple in ``StatRecord`` field order.

    The length is ``_length``'s sum of two tuple cores, taken apart here
    because the record also keeps the inversions; the descents come from
    ``_descent_set``.
    """
    inv = _inversions(sigma, colors)
    des_set = _descent_set(sigma, colors)
    maj = sum(des_set)
    col = sum(colors)
    return (inv, inv + _color_weight(sigma, colors),
            des_set, len(des_set), maj, r * maj + col, col, colors)


def project_to_signed(gamma):
    """Forget colors down to the two-color group: 0 stays 0, anything else becomes 1."""
    if gamma.r < 2:
        raise ValueError("projection needs at least two colors")
    return ColoredPermutation(2, gamma.sigma,
                              tuple(1 if c else 0 for c in gamma.colors))


# The budgets a verification and the CLI run with unless given others: group
# elements (or sequences, or biwords) enumerated, and polynomial terms.
DEFAULT_MAX_ELEMENTS = 10 ** 7
DEFAULT_MAX_TERMS = 10 ** 6


def _check_budget(max_elements, refusal, count):
    """The one budget check of every enumeration: refuse ``count()`` items
    over ``max_elements``, with the count put into the format string
    ``refusal``; no count is taken when the budget is None."""
    if max_elements is not None:
        total = count()
        if total > max_elements:
            try:
                text = str(total)
            except ValueError:  # past Python's int-to-str digit limit
                text = f"2^{total.bit_length() - 1} or more"
            raise BudgetExceededError(f"{refusal.format(text)} budget {max_elements}")


def _check_group_budget(r, n, max_elements):
    """Refuse a walk of the whole group when its order exceeds the budget."""
    _check_budget(max_elements, "group of order {} exceeds", lambda: group_order(r, n))


def enumerate_group(r, n, max_elements=None):
    """Yield every element of the r-colored group on n letters exactly once.

    Deterministic order: lexicographic by sigma, then by color vector.  The
    windows come from the tuple core ``_windows``, which makes only valid
    ones, so each element is built ``_unchecked``.
    """
    for sigma, colors in _windows(r, n, max_elements):
        yield _unchecked(ColoredPermutation, r, sigma, colors)


def _windows(r, n, max_elements=None):
    """``enumerate_group`` as ``(sigma, colors)`` tuples, same order and checks."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    _check_group_budget(r, n, max_elements)
    for sigma in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(r), repeat=n):
            yield sigma, colors


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
    return f"[{_entries_text(gamma.sigma, gamma.colors)}]"


def _entries_text(values, colors):
    """Window or sequence entries as text, ``v^c`` or ``v`` when uncolored,
    for ``format_window`` (in brackets), ``format_sequence`` and labels
    built from tuples that no value object need hold."""
    return ",".join(f"{v}^{c}" if c else str(v) for v, c in zip(values, colors))
