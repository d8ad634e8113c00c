"""Distance to the normal law and convergence-rate tables.

The Kolmogorov distance between a discrete standardized law and the
standard normal is attained at an atom, either just after the jump or
just before it, because both CDFs are monotone between atoms.  That
closed form drives the rate tables: standardize the exact n-point law
with its analytic mean and standard deviation and report d_k and
d_k * sqrt(n).  A table checks its whole n-list first, then runs the
statistic's recurrence once, to the largest n, and measures each listed
n as the pass reaches it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact_dist import (
    EULERIAN_CAP,
    MAHONIAN_CAP,
    StandardizedDistribution,
    check_size,
    eulerian_rows,
    laws,
    mahonian_rows,
    standardize,
    sums_to_one,
)
from .perm_core import StatisticKind


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    erfc is evaluated by the platform libm with error well under 1 ulp,
    so the absolute error here stays below 1e-16 for all finite x; the
    erfc form avoids the catastrophic cancellation of 1 - Phi(-x) in
    the left tail.

    >>> normal_cdf(0.0)
    0.5
    >>> normal_cdf(1.0)
    0.8413447460685429
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def kolmogorov_distance(d: StandardizedDistribution) -> float:
    """sup_x |F(x) - Phi(x)| for the step CDF F of the atoms.

    Between consecutive atoms F is flat and Phi increases, so the
    supremum is attained at an atom: compare F(w) - Phi(w) at the top
    of each jump and Phi(w) - F(w-) at the bottom, Phi by normal_cdf's floats.
    """
    if not (sums_to_one(d.probs) and all(map(math.isfinite, d.atoms))):
        raise ValueError(f"need finite atoms and probabilities summing to 1 (sum {math.fsum(d.probs)!r})")
    erfc, root2 = math.erfc, math.sqrt(2.0)
    best = below = 0.0
    for w, p in zip(d.atoms, d.probs):
        phi_w = 0.5 * erfc(-w / root2)
        gap = phi_w - below
        if gap > best:
            best = gap
        below += p
        gap = below - phi_w
        if gap > best:
            best = gap
    return best


class RateRow(NamedTuple):
    n: int
    statistic: StatisticKind
    d_k: float
    scaled: float


_LAWS = {
    StatisticKind.DESCENTS: (eulerian_rows, EULERIAN_CAP),
    StatisticKind.INVERSIONS: (mahonian_rows, MAHONIAN_CAP),
}


def _check_n(statistic: StatisticKind, n: int) -> None:
    if statistic not in _LAWS:
        raise ValueError("rate tables exist only for the built-in statistics")
    if n == 1:
        # one permutation; the descents sd sqrt((n + 1) / 12) holds only from n = 2
        raise ValueError(f"{statistic.value} is constant at n = 1; the rate table needs n >= 2")
    check_size(n, _LAWS[statistic][1])


def _mean_sd(statistic: StatisticKind, n: int) -> tuple[Fraction, float]:
    if statistic == StatisticKind.DESCENTS:
        return Fraction(n - 1, 2), math.sqrt((n + 1) / 12.0)
    return Fraction(n * (n - 1), 4), math.sqrt(n * (n - 1) * (2 * n + 5) / 72.0)


def rate_table(statistic: StatisticKind, n_list) -> list[RateRow]:
    """One row per n, in list order with repeats kept: exact law, analytic
    standardization, d_k, d_k * sqrt(n).

    Every n is checked, in list order, before any law is computed; the laws
    then come from one pass of the recurrence to the largest n.
    """
    n_list = list(n_list)
    for n in n_list:
        _check_n(statistic, n)
    if not n_list:
        return []
    rows, _ = _LAWS[statistic]
    table = {}
    for dist in laws(rows(), set(n_list)):
        n = dist.n
        d_k = kolmogorov_distance(standardize(dist, *_mean_sd(statistic, n)))
        table[n] = RateRow(n=n, statistic=statistic, d_k=d_k, scaled=d_k * math.sqrt(n))
    return [table[n] for n in n_list]
