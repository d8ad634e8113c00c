"""Distance to the normal law and convergence-rate tables.

The Kolmogorov distance between a discrete standardized law and the
standard normal is attained at an atom, either just after the jump or
just before it, because both CDFs are monotone between atoms.  That
closed form drives the rate tables: standardize the exact n-point law
with its analytic mean and standard deviation (the closed-form Var X of
``perm_core.BUILTINS``) and report d_k and d_k * sqrt(n).  A table
checks its whole n-list first, then runs the statistic's recurrence
(``exact_dist.RECURRENCES``) once, to the largest n, and measures each
listed n as the pass reaches it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact_dist import RECURRENCES, StandardizedDistribution, check_size, laws, standardize
from .perm_core import BUILTINS, StatisticKind


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
    The law's atoms are finite and its probabilities sum to 1, as
    ``StandardizedDistribution`` admits no other.
    """
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


def rate_table(statistic: StatisticKind | str, n_list) -> list[RateRow]:
    """One row per n, in list order with repeats kept: exact law, analytic
    standardization, d_k, d_k * sqrt(n).

    A custom statistic is refused before the list is read.  Every n is
    checked, in list order, before any law is computed; the laws then come
    from one pass of the recurrence to the largest n.
    """
    statistic = StatisticKind(statistic)
    recurrence = RECURRENCES.get(statistic)
    if recurrence is None:
        raise ValueError("rate tables exist only for the built-in statistics")
    n_list = list(n_list)
    for n in n_list:
        if n == 1:
            # one permutation: Var X is 0 for both built-ins, so there is no spread to standardize
            raise ValueError(f"{statistic.value} is constant at n = 1; the rate table needs n >= 2")
        check_size(n, recurrence.cap)
    if not n_list:
        return []
    table = {}
    for dist in laws(recurrence.rows(), set(n_list)):
        # X = 2 count - max has mean 0, so the count's mean is max / 2 and its sd sqrt(Var X / 4)
        n, mean = dist.n, Fraction(len(dist.counts) - 1, 2)
        d_k = kolmogorov_distance(standardize(dist, mean, math.sqrt(float(BUILTINS[statistic].variance(n) / 4))))
        table[n] = RateRow(n=n, statistic=statistic, d_k=d_k, scaled=d_k * math.sqrt(n))
    return [table[n] for n in n_list]
