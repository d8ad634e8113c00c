"""Exact distributions of the permutation statistics.

Descent counts follow the classical triangle recurrence and inversion
counts the product of uniform blocks, both in arbitrary-precision
integer arithmetic so the counts are exact for every n up to the caps.
Arbitrary integer matrices are counted over S_n by :func:`_sn.exact_sums`.

Counts index the exact statistic value: counts[k] is the number of
permutations with value min_value + k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def eulerian_distribution(n: int, cap: int = EULERIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of descents.

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
        # entry m-1 of the new row reduces to the last entry of the old one
        row = [
            (k + 1) * row[k] + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(len(row))
        ] + [row[-1]]
    return IntegerDistribution(n=n, min_value=0, counts=tuple(row), total=math.factorial(n))


def mahonian_distribution(n: int, cap: int = MAHONIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of inversions.

    Each position contributes an independent uniform block {0..i-1};
    the convolution runs with a sliding window so every step costs one
    addition and one subtraction per support point.

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
        old = counts
        counts = []
        window = 0
        for k in range(len(old) + i - 1):
            if k < len(old):
                window += old[k]
            if k - i >= 0:
                window -= old[k - i]
            counts.append(window)
    return IntegerDistribution(n=n, min_value=0, counts=tuple(counts), total=math.factorial(n))


def generic_distribution(m: AntisymmetricMatrix, limit: int | None = None) -> IntegerDistribution:
    """Exact counts of the statistic over S_n for an integer matrix."""
    if any(e.denominator != 1 for row in m.entries for e in row):
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

    Atoms with zero count are dropped.  Each probability is the exact
    rational count/total rounded once to the nearest float.
    """
    if stddev <= 0:
        raise ValueError("stddev must be positive")
    atoms = []
    probs = []
    for v, c in d.support():
        atoms.append(float(v - mean) / stddev)
        probs.append(float(Fraction(c, d.total)))
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
