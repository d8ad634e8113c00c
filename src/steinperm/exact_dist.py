"""Exact distributions of the permutation statistics.

Descent counts follow the classical triangle recurrence and inversion
counts the product of uniform blocks (Knuth, TAOCP vol. 3, 5.1.1), both
in arbitrary-precision integer arithmetic so the counts are exact for
every n up to the caps.  Every row of either recurrence is a palindrome,
so only the first half of each row is carried: a step extends it by the
few mirrored entries it reads and computes the new half with C-level
``map`` and ``accumulate`` loops over Python ints.  One generator per
statistic (:func:`eulerian_rows`, :func:`mahonian_rows`) yields the half
row of every n in turn, so a table over many n runs the recurrence once,
to the largest; :func:`eulerian_distribution` and
:func:`mahonian_distribution` run it to one n; :data:`RECURRENCES` holds
each built-in's generator, cap, law function and the recurrence
(:func:`descent_sums`, :func:`inversion_sums`) that gives the sums behind
its exact bounds, the level sets of X among them, off which ``ExactSums``
reads X's moments (Var X is ``perm_core.BUILTINS``'s closed form).
:func:`brute_force_moments` reads them off :func:`_sn.exact_sums`, any
matrix's sums over S_n.  :func:`standardize` shifts each atom and forms
each probability by one correctly rounded int/int division, one per
mirrored pair of counts (and of atoms, for a law centred on its mean),
with no Fraction per atom; :func:`sums_to_one` checks the sum.

Counts index the exact statistic value: counts[k] is the number of
permutations with value min_value + k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, lt, mul, neg, sub, truediv
from typing import Callable, Iterator, NamedTuple

from . import _sn
from .perm_core import AntisymmetricMatrix, ExactSums, Frozen, StatisticKind

EULERIAN_CAP = 200
MAHONIAN_CAP = 150


class IntegerDistribution(Frozen):
    """A distribution over integers with exact big-integer counts."""

    _fields = ("n", "min_value", "counts", "total")

    def __init__(self, n: int, min_value: int, counts: tuple[int, ...], total: int) -> None:
        if min(counts, default=0) < 0 or sum(counts) != total:
            raise ValueError("counts must be nonnegative and sum to total")
        self._set(n, min_value, counts, total)

    def support(self):
        """Yield (value, count) for every nonzero count, ascending."""
        for k, c in enumerate(self.counts):
            if c:
                yield self.min_value + k, c


class StandardizedDistribution(Frozen):
    """Atoms and probabilities of (value - mean) / stddev."""

    _fields = ("atoms", "probs", "mean_used", "stddev_used")

    def __init__(
        self, atoms: tuple[float, ...], probs: tuple[float, ...], mean_used: float, stddev_used: float
    ) -> None:
        if len(atoms) != len(probs) or min(probs, default=0.0) < 0.0 or not sums_to_one(probs):
            raise ValueError("there must be one nonnegative probability per atom, summing to 1")
        # lt is False on NaN, and every atom lies between the first and the last
        if not (all(map(lt, atoms, atoms[1:])) and math.isfinite(atoms[0]) and math.isfinite(atoms[-1])):
            raise ValueError("atoms must be finite and strictly increasing")
        if not 0.0 < stddev_used < math.inf:
            raise ValueError("stddev must be finite and positive")
        self._set(atoms, probs, mean_used, stddev_used)


def sums_to_one(probs: tuple[float, ...]) -> bool:
    """abs(math.fsum(probs) - 1.0) <= 1e-12 in linear time, NaN refused.

    fsum's partials grow with the exponent span of its input.  Here S, the
    sum of the m sums of blocks of b = isqrt(N) + 1 terms, decides unless a
    term is negative, S is not finite or S is near T = 1e-12.  Proof, with
    u = 2**-53, g(j) = j u / (1 - j u), k = b + m, k u < 1e-2: a j-term float
    ``sum`` is within g(j - 1) times the sum of |terms| of the exact sum s
    (Higham, Accuracy and Stability, 4.2; the bound of Python 3.12's
    compensated ``sum`` is smaller), so with no negative term |S - s| <=
    g(k) s; fsum's F = s rounded has |F - s| <= u s; so |F - S| < e / 1.5
    for e = 2 (k + 1) u S.  Let D = |S - 1.0|; answer D <= T if |D - T| > e.
    If D <= 1/4, then e < 1/4, S - 1.0 and F - 1.0 are exact (Sterbenz) and
    |F - 1| is within e / 1.5 of D, on D's side of T.  Else |F - 1| > D / 4.
    """
    n = len(probs)
    b = math.isqrt(n) + 1
    s = sum([sum(probs[i : i + b]) for i in range(0, n, b)])
    k, d = b - (-n // b), abs(s - 1.0)  # k = b + m, m = ceil(n / b) blocks
    if min(probs, default=0.0) >= 0.0 and math.isfinite(s) and abs(d - 1e-12) > (k + 1) * 2.0**-52 * s:
        return d <= 1e-12
    return abs(math.fsum(probs) - 1.0) <= 1e-12


def _palindrome(half: list[int], size: int, upto: int | None = None) -> list[int]:
    """Entries 0..upto-1 (upto >= len(half); all by default) of the palindrome
    of length ``size`` whose first len(half) entries, half or more, are ``half``."""
    return half + half[size - (upto or size) : size - len(half)][::-1]


def check_size(n: int, cap: int) -> None:
    """Refuse an n the recurrences do not run to: below 1 or above ``cap``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap}")


def laws(rows: Iterator[tuple[list[int], int]], ns: set[int]) -> Iterator[IntegerDistribution]:
    """The law on S_n of every n in ``ns``, ascending, from one pass of
    ``rows`` (:func:`eulerian_rows` or :func:`mahonian_rows`) to max(ns)."""
    for n, (half, size) in zip(range(1, max(ns) + 1), rows):
        if n in ns:
            yield IntegerDistribution(n=n, min_value=0, counts=tuple(_palindrome(half, size)), total=math.factorial(n))


def eulerian_rows() -> Iterator[tuple[list[int], int]]:
    """The first half of row n of the Eulerian triangle, with the row's
    length n, for n = 1, 2, ...; each row is computed when it is asked for.

    Row m of the triangle is A(m, k) = (k + 1) A(m-1, k) + (m - k) A(m-1, k-1)
    for k = 0..m-1; it is a palindrome, so only its first half is carried,
    by C-level maps over the old half (plus one mirrored entry for odd m).
    """
    half, m = [1], 1
    while True:
        yield half, m
        m += 1
        h = (m + 1) // 2
        row = _palindrome(half, m - 1, h)  # entries 0..h-1 of the old row
        # entries k < h: (k + 1) row[k] + (m - k) row[k - 1], with row[-1] read as 0
        half = list(map(add, map(mul, range(1, h + 1), row), map(mul, range(m, m - h, -1), [0] + row)))


def mahonian_rows() -> Iterator[tuple[list[int], int]]:
    """The first half of the inversion counts of S_n, with the row's length
    n(n - 1)/2 + 1, for n = 1, 2, ...; each row is computed when it is asked for.

    Step i multiplies the generating function by [i]_q = 1 + q + ... +
    q^(i-1), the law of an independent uniform block {0..i-1}, so with P
    the prefix sums of the old row the new row is P[k] - P[k - i].  Every
    row is a palindrome, so only its first half is carried: each step adds
    the about i/2 mirrored entries the new half reads, then takes prefix
    sums (``accumulate``) and differences at lag i (``map`` of
    ``operator.sub``), C-level loops over Python ints.
    """
    half, size, i = [1], 1, 1
    while True:
        yield half, size
        i += 1
        # the new half (size + i) // 2 is at most size, since size >= i - 1
        half = list(accumulate(_palindrome(half, size, (size + i) // 2)))
        half[i:] = map(sub, half[i:], half)  # made in full before the slice is replaced
        size += i - 1


def eulerian_distribution(n: int, cap: int = EULERIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of descents, row n of
    :func:`eulerian_rows`.

    >>> eulerian_distribution(3).counts
    (1, 4, 1)
    >>> eulerian_distribution(4).counts
    (1, 11, 11, 1)
    """
    check_size(n, cap)
    return next(laws(eulerian_rows(), {n}))


def mahonian_distribution(n: int, cap: int = MAHONIAN_CAP) -> IntegerDistribution:
    """Counts of permutations of n by number of inversions, row n of
    :func:`mahonian_rows`.

    >>> mahonian_distribution(3).counts
    (1, 2, 2, 1)
    >>> mahonian_distribution(4).counts
    (1, 3, 5, 6, 5, 3, 1)
    """
    check_size(n, cap)
    return next(laws(mahonian_rows(), {n}))


def descent_sums(n: int) -> ExactSums:
    """The :class:`ExactSums` of the descents matrix over S_n, by the
    peak and descent insertion of Carlitz and Scoville (1974).

    X and every inner_i are functions of the word w = p^-1 read with
    w_0 = w_(n+1) = 0: X = 2 des(w) - (n - 1), and the value v has
    inner = [w_(v-1) > w_v] - [w_(v+1) > w_v], zero exactly at the k peaks
    and the k - 1 valleys of 0 w 0.  So q = 4 (n + 1 - 2k) and, as
    |inner| <= 1, sum_abs_d3 = 2 sum_q and max_inner = 1 from n = 2.

    Insert the maximum m into one of the m gaps of a word of length m - 1
    with d descents and k peaks, where it is a peak.  Counting the first
    gap as an ascent and the last as a descent, there are m - 1 - d ascent
    gaps, k of them just before a peak, and d + 1 descent gaps, k of them
    just after a peak.  An ascent gap before a peak gives (d + 1, k),
    another ascent gap (d + 1, k + 1), a descent gap after a peak (d, k)
    and another descent gap (d, k + 1).  So with f[d][k] the words of
    length m - 1, the words of length m number

        g[d][k] = k (f[d][k] + f[d-1][k]) + (d + 2 - k) f[d][k-1]
                  + (m - d + 1 - k) f[d-1][k-1].
    """
    table = [[0, 1]]  # f[d][k] at m = 1: the word 1 has one peak
    for m in range(2, n + 1):
        width = len(table[0]) + 1
        zero = [0] * width
        rows = [zero] + [row + [0] for row in table] + [zero]  # f[d - 1] is rows[d]
        table = [
            [0] + [k * (a[k] + b[k]) + (d + 2 - k) * a[k - 1] + (m - d + 1 - k) * b[k - 1] for k in range(1, width)]
            for d, (b, a) in enumerate(zip(rows, rows[1:]))
        ]
    sums = ExactSums()
    for d, row in enumerate(table):
        x = 2 * d - (n - 1)
        for k, c in enumerate(row):
            if c:
                q = 4 * (n + 1 - 2 * k)
                sums.level_count[x] += c
                sums.level_q[x] += c * q
                sums.sum_q2 += c * q * q
    sums.sum_abs_d3 = 2 * sums.sum_q
    sums.max_inner = min(n - 1, 1)
    return sums


def inversion_sums(n: int) -> ExactSums:
    """The :class:`ExactSums` of the inversions matrix over S_n, from the
    Lehmer code (Knuth, TAOCP vol. 3, 5.1.1).

    The position with r later values has inner = Y_r = 2 c_r - r, c_r the
    number of smaller values among them, and the digits c_0..c_(n-1) are
    independent and uniform on {0..r}.  So X = 2 sum_r c_r - n(n - 1)/2 and
    q = 4 sum_r Y_r^2.  A dynamic program over the digits, with state
    k = sum c, carries N[k], the digit strings with that sum, and Q[k],
    the sum of their partial q.  Digit r takes c = k' - y from state y,
    adding 4 (A - 2y)^2 with A = 2k' - r, so over the window y = k' - r..k'

        N'[k'] = sum N[y],  Q'[k'] = sum Q[y] + 4 (A^2 S0 - 4A S1 + 4 S2),

    S_j = sum N[y] y^j, each window a difference of prefix sums.  The rest
    follows from the digits' independence, with E Y_r^2 = r(r + 2)/3 and
    E Y_r^4 = r(r + 2)(3r^2 + 6r - 4)/15: E q^2 = 16 (sum_r Var Y_r^2 +
    (sum_r E Y_r^2)^2), sum_abs_d3 = 8 n! sum_r E|Y_r|^3 and max_inner
    = n - 1.
    """
    counts, qs = [1], [0]  # the digit c_0 = 0
    for r in range(1, n):
        top = len(counts)
        p0, pq = [0, *accumulate(counts)], [0, *accumulate(qs)]
        first = list(map(mul, counts, range(top)))
        p1, p2 = [0, *accumulate(first)], [0, *accumulate(map(mul, first, range(top)))]
        counts, qs = [], []
        for k in range(top + r):
            lo, hi, a = max(k - r, 0), min(k + 1, top), 2 * k - r
            s0, s1, s2 = p0[hi] - p0[lo], p1[hi] - p1[lo], p2[hi] - p2[lo]
            counts.append(s0)
            qs.append(pq[hi] - pq[lo] + 4 * (a * a * s0 - 4 * a * s1 + 4 * s2))
    sums = ExactSums()
    half = n * (n - 1) // 2
    sums.level_count.update(dict(zip(range(-half, half + 1, 2), counts)))
    sums.level_q.update(dict(zip(range(-half, half + 1, 2), qs)))
    nfact = math.factorial(n)
    second = [Fraction(r * (r + 2), 3) for r in range(n)]
    var_sq = sum(Fraction(r * (r + 2) * (3 * r * r + 6 * r - 4), 15) - m * m for r, m in enumerate(second))
    sums.sum_q2 = int(16 * nfact * (var_sq + sum(second) ** 2))
    # r + 1 divides n!, so each E|Y_r|^3 n! is an integer
    sums.sum_abs_d3 = 8 * sum(nfact // (r + 1) * sum(abs(2 * c - r) ** 3 for c in range(r + 1)) for r in range(n))
    sums.max_inner = n - 1
    return sums


class Recurrence(NamedTuple):
    """A built-in X = 2 count - max: its laws' generator, its cap, the name of its law function
    (looked up on this module when it runs, so that a wrapper put there sees it) and the
    :class:`ExactSums` of its matrix, on L = 1, for an n."""

    rows: Callable[[], Iterator[tuple[list[int], int]]]
    cap: int
    distribution: str
    sums: Callable[[int], ExactSums]


RECURRENCES = {
    StatisticKind.DESCENTS: Recurrence(eulerian_rows, EULERIAN_CAP, "eulerian_distribution", descent_sums),
    StatisticKind.INVERSIONS: Recurrence(mahonian_rows, MAHONIAN_CAP, "mahonian_distribution", inversion_sums),
}


def generic_distribution(m: AntisymmetricMatrix, limit: int | None = None) -> IntegerDistribution:
    """Exact counts of the statistic over S_n for an integer matrix."""
    if m.scale != 1:
        raise ValueError("exact counting requires integer matrix entries")
    tally = _sn.exact_sums(m, limit).level_count
    lo, hi = min(tally), max(tally)
    counts = tuple(tally.get(v, 0) for v in range(lo, hi + 1))
    return IntegerDistribution(n=m.n, min_value=lo, counts=counts, total=math.factorial(m.n))


def exact_moments(d: IntegerDistribution) -> tuple[Fraction, Fraction]:
    """Mean and variance of the distribution, exactly."""
    s1 = sum(v * c for v, c in d.support())
    s2 = sum(v * v * c for v, c in d.support())
    mean = Fraction(s1, d.total)
    return mean, Fraction(s2, d.total) - mean * mean


def brute_force_moments(m: AntisymmetricMatrix, limit: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of X over all of S_n, from :func:`_sn.exact_sums`.

    >>> brute_force_moments(AntisymmetricMatrix.from_rows([[0, 1], [-1, 0]]))
    (Fraction(0, 1), Fraction(1, 1))
    """
    sums, scale = _sn.exact_sums(m, limit), m.scale
    nfact = math.factorial(m.n)
    mean = Fraction(sums.sum_x, nfact * scale)
    return mean, Fraction(sums.sum_x2, nfact * scale * scale) - mean * mean


def standardize(d: IntegerDistribution, mean: Fraction, stddev: float) -> StandardizedDistribution:
    """Shift and scale the support; probabilities are correctly rounded.

    Atoms with zero count are dropped.  With mean = p/q, each atom is
    (v q - p) / q rounded once to the nearest float, then divided by
    ``stddev``, and each probability is count/total rounded once (once per
    mirrored pair of counts of a palindromic law, as every built-in law is):
    Python's int/int true division is correctly rounded, so these are the
    floats of float(v - mean) / stddev and float(Fraction(count, total)).
    A palindromic law centred on the mean, as every built-in law is with
    its analytic mean, has its second half of atoms negated from the first:
    the mirror of v has numerator exactly -(v q - p), and both divisions
    round the same on either sign.
    """
    if not 0.0 < stddev < math.inf:
        raise ValueError("stddev must be finite and positive")
    p, q, total, counts, lo = mean.numerator, mean.denominator, d.total, d.counts, d.min_value
    size = len(counts)
    k = size // 2 if counts == counts[::-1] else 0
    half = list(map(truediv, counts[: size - k], repeat(total)))
    j = k if 2 * p == (2 * lo + size - 1) * q else 0  # the mirrored atoms
    shifted = map(sub, map(mul, range(lo, lo + size - j), repeat(q)), repeat(p))
    first = list(map(truediv, map(truediv, shifted, repeat(q)), repeat(stddev)))
    return StandardizedDistribution(
        atoms=tuple(compress(first + list(map(neg, first[:j][::-1])), counts)),
        probs=tuple(compress(half + half[:k][::-1], counts)),
        mean_used=float(mean),
        stddev_used=stddev,
    )
