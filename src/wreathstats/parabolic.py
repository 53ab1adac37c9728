"""Parabolic subgroups, quotients, and the block factorization.

A subset J of the generator positions [0, n-1] cuts the window into blocks
at the complementary positions.  Every element factors uniquely as
``tau * delta`` where tau (the quotient representative) has descents only
at the complementary positions and delta is the cofactor ``tau^-1 * gamma``;
length and color weight are additive across the factorization.

delta lies in the parabolic subgroup, whose shape ``is_in_parabolic`` tests:
every block maps onto itself, and colors stay only in the first block and
only when 0 is in J, where delta's first block is the order- and
color-preserving reduction of gamma's (absolute values replaced by their
in-block ranks, colors left in place).
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import (
    ColoredPermutation,
    _descent_set,
    enumerate_group,
    inverse,
    multiply,
    order_key,
)

__all__ = [
    "DescentClass",
    "decompose",
    "is_in_parabolic",
    "is_in_quotient",
    "parabolic_set",
    "quotient_set",
]


@dataclass(frozen=True)
class DescentClass:
    """A generator subset J of [0, n-1] for the r-colored group on n letters."""

    r: int
    n: int
    members: frozenset

    def __post_init__(self):
        if self.r < 1 or self.n < 0:
            raise ValueError("need r >= 1 and n >= 0")
        if any(not 0 <= j < self.n for j in self.members):
            raise ValueError("J must be a subset of [0, n-1]")

    @classmethod
    def of(cls, r, n, members):
        return cls(r, n, frozenset(members))

    @property
    def complement(self):
        """The allowed descent positions d_1 < ... < d_k."""
        return tuple(sorted(set(range(self.n)) - self.members))

    @property
    def first_block_colored(self):
        return 0 in self.members

    def blocks(self):
        """Half-open 0-based position ranges [start, stop) cut by the complement."""
        cuts = sorted({0, self.n, *(d for d in self.complement if d)})
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def _check(gamma, cls):
    if gamma.r != cls.r or gamma.n != cls.n:
        raise ValueError("element and descent class must share r and n")


def decompose(gamma, cls):
    """Unique factorization ``gamma = tau * delta`` along a descent class.

    tau carries each block rearranged increasingly (first block by absolute
    value, colors dropped, when the subgroup is colored there); delta is
    the cofactor ``tau^-1 * gamma``, which ``is_in_parabolic`` accepts.
    """
    _check(gamma, cls)
    tau_sigma = [0] * cls.n
    tau_colors = [0] * cls.n
    for bi, (start, stop) in enumerate(cls.blocks()):
        if bi == 0 and cls.first_block_colored:
            tau_sigma[start:stop] = sorted(gamma.sigma[start:stop])
        else:
            block = sorted(zip(gamma.sigma[start:stop], gamma.colors[start:stop]),
                           key=lambda entry: order_key(*entry))
            tau_sigma[start:stop], tau_colors[start:stop] = zip(*block)
    tau = ColoredPermutation(gamma.r, tuple(tau_sigma), tuple(tau_colors))
    return tau, multiply(inverse(tau), gamma)


def is_in_quotient(gamma, cls):
    """Membership in the quotient: descents confined to the complement of J."""
    _check(gamma, cls)
    return _descent_set(gamma.sigma, gamma.colors) <= set(cls.complement)


def is_in_parabolic(gamma, cls):
    """Structural membership test for the parabolic subgroup.

    Each block must map onto itself; colors vanish outside the first block,
    and in the first block only when 0 is in J.
    """
    _check(gamma, cls)
    for bi, (start, stop) in enumerate(cls.blocks()):
        for i in range(start, stop):
            if not start < gamma.sigma[i] <= stop:
                return False
            if gamma.colors[i] and not (bi == 0 and cls.first_block_colored):
                return False
    return True


def quotient_set(cls, max_elements=None):
    """Yield the quotient representatives, in group enumeration order."""
    for gamma in enumerate_group(cls.r, cls.n, max_elements):
        if is_in_quotient(gamma, cls):
            yield gamma


def parabolic_set(cls, max_elements=None):
    """Yield the parabolic subgroup's elements, in group enumeration order."""
    for gamma in enumerate_group(cls.r, cls.n, max_elements):
        if is_in_parabolic(gamma, cls):
            yield gamma
