"""Exact distributions of the permutation statistics.

Descent counts follow the classical triangle recurrence and inversion
counts the product of uniform blocks (Knuth, TAOCP vol. 3, 5.1.1), both
in arbitrary-precision integer arithmetic so the counts are exact for
every n up to the caps.  Every row of either recurrence is a palindrome,
so each step computes the first half only, with C-level ``map`` and
``accumulate`` loops over Python ints, and mirrors it.  Arbitrary
integer matrices are counted over S_n by :func:`_sn.exact_sums`.
:func:`standardize` shifts each atom and forms each probability by one
correctly rounded int/int division, with no Fraction arithmetic per atom.

Counts index the exact statistic value: counts[k] is the number of
permutations with value min_value + k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

from . import _sn
from .perm_core import AntisymmetricMatrix

EULERIAN_CAP = 200
MAHONIAN_CAP = 150


@dataclass(frozen=True)
class IntegerDistribution:
    """A distribution over integers with exact big-integer counts."""

    n: int
    min_value: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.total:
            raise ValueError("counts must sum to total")

    def support(self):
        """Yield (value, count) for every nonzero count, ascending."""
        for k, c in enumerate(self.counts):
            if c:
                yield self.min_value + k, c


@dataclass(frozen=True)
class StandardizedDistribution:
    """Atoms and probabilities of (value - mean) / stddev."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]
    mean_used: float
    stddev_used: float

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ValueError("atoms must be strictly increasing")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")


def _palindrome(half: list[int], size: int) -> list[int]:
    """The palindromic row of length ``size`` whose first len(half) entries,
    at least half of the row, are ``half``."""
    return half + half[: size - len(half)][::-1]


def eulerian_distribution(n: int, cap: int = EULERIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of descents.

    Row m of the triangle is A(m, k) = (k + 1) A(m-1, k) + (m - k) A(m-1, k-1)
    for k = 0..m-1; it is a palindrome, so only its first half is computed,
    as C-level maps over the old row, and then mirrored.

    >>> eulerian_distribution(3).counts
    (1, 4, 1)
    >>> eulerian_distribution(4).counts
    (1, 11, 11, 1)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap}")
    row = [1]
    for m in range(2, n + 1):
        h = (m + 1) // 2  # h <= m - 1 = len(row)
        # entries k < h: (k + 1) row[k] + (m - k) row[k - 1], with row[-1] read as 0
        half = list(map(add, map(mul, range(1, h + 1), row), map(mul, range(m, m - h, -1), [0] + row)))
        row = _palindrome(half, m)
    return IntegerDistribution(n=n, min_value=0, counts=tuple(row), total=math.factorial(n))


def mahonian_distribution(n: int, cap: int = MAHONIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of inversions.

    Step i multiplies the generating function by [i]_q = 1 + q + ... +
    q^(i-1), the law of an independent uniform block {0..i-1}, so with P
    the prefix sums of the old row the new row is P[k] - P[k - i].  Every
    row is a palindrome, so each step takes the prefix sums of the first
    half only (``accumulate``), their differences at lag i (``map`` of
    ``operator.sub``) and mirrors the half: C-level loops over Python ints.

    >>> mahonian_distribution(3).counts
    (1, 2, 2, 1)
    >>> mahonian_distribution(4).counts
    (1, 3, 5, 6, 5, 3, 1)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap}")
    counts = [1]
    for i in range(2, n + 1):
        size = len(counts) + i - 1
        # the half (size + 1) // 2 is at most len(counts), since len(counts) >= i - 1
        prefix = list(accumulate(counts[: (size + 1) // 2]))
        counts = _palindrome(prefix[:i] + list(map(sub, prefix[i:], prefix)), size)
    return IntegerDistribution(n=n, min_value=0, counts=tuple(counts), total=math.factorial(n))


def generic_distribution(m: AntisymmetricMatrix, limit: int | None = None) -> IntegerDistribution:
    """Exact counts of the statistic over S_n for an integer matrix."""
    if m.cleared[1] != 1:
        raise ValueError("exact counting requires integer matrix entries")
    _, sums = _sn.exact_sums(m, limit, _sn.ExactSums())
    tally = sums.level_count
    lo, hi = min(tally), max(tally)
    counts = tuple(tally.get(v, 0) for v in range(lo, hi + 1))
    return IntegerDistribution(n=m.n, min_value=lo, counts=counts, total=math.factorial(m.n))


def exact_moments(d: IntegerDistribution) -> tuple[Fraction, Fraction]:
    """Mean and variance of the distribution, exactly."""
    s1 = sum(v * c for v, c in d.support())
    s2 = sum(v * v * c for v, c in d.support())
    mean = Fraction(s1, d.total)
    return mean, Fraction(s2, d.total) - mean * mean


def standardize(d: IntegerDistribution, mean: Fraction, stddev: float) -> StandardizedDistribution:
    """Shift and scale the support; probabilities are correctly rounded.

    Atoms with zero count are dropped.  With mean = p/q, each atom is
    (v q - p) / q rounded once to the nearest float, then divided by
    ``stddev``, and each probability is count/total rounded once: Python's
    int/int true division is correctly rounded, so these are the floats
    of float(v - mean) / stddev and float(Fraction(count, total)), with no
    Fraction arithmetic or gcd per atom.
    """
    if stddev <= 0:
        raise ValueError("stddev must be positive")
    p, q, total = mean.numerator, mean.denominator, d.total
    atoms = []
    probs = []
    for v, c in d.support():
        atoms.append((v * q - p) / q / stddev)
        probs.append(c / total)
    return StandardizedDistribution(
        atoms=tuple(atoms),
        probs=tuple(probs),
        mean_used=float(mean),
        stddev_used=stddev,
    )


def dist_to_json_dict(d: IntegerDistribution) -> dict:
    return {
        "n": d.n,
        "min_value": d.min_value,
        "counts": [str(c) for c in d.counts],
    }
