"""The move-random-to-end chain and its exchangeable pair.

One step of the chain picks a position I uniformly from 1..n and moves
the value sitting there to the end of the word.  Starting from a uniform
permutation pi this yields a pair (X(pi), X(pi')) whose normalized form
(W, W') is exchangeable, with the exact linear regression property
E[W' | pi] = (1 - 2/n) W.

Everything except sampling is exact rational arithmetic.  Samples come
in integer blocks from ``_sn.draw``, the kernel of ``bounds --mode mc``:
the moved values, then sub-tiles of the drawn permutations' keys and
suffix sums ``inner``, in value order and the narrowest integer type
that holds them.  :func:`pair_samples` reads each sub-tile's X, X' and
moved position into Python ints, which ``sample`` prints as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import _sn
from ._sn import np
from .perm_core import Permutation, StatisticSpec, descents_matrix


class PairSample(NamedTuple):
    """One draw of the exchangeable pair, on both the X and W scales."""

    x: Fraction
    x_prime: Fraction
    w: float
    w_prime: float
    position: int


def move_to_end(p: Permutation, i: int) -> Permutation:
    """Move the value in position i (1-indexed) to the last position.

    >>> move_to_end(Permutation((6, 4, 1, 5, 3, 2, 7)), 3).image
    (6, 4, 5, 3, 2, 7, 1)
    >>> move_to_end(Permutation((1, 2, 3)), 1).image
    (2, 3, 1)
    """
    n = p.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    img = p.image
    return Permutation(img[: i - 1] + img[i:] + (img[i - 1],))


def x_delta(spec: StatisticSpec, p: Permutation, i: int) -> Fraction:
    """Change in the statistic when position i is moved to the end.

    Moving p(i) past every later value flips the orientation of exactly
    the pairs (i, j) with j > i, so the change is -2 times the suffix
    row sum at position i.

    >>> from .perm_core import descents_spec, inversions_spec
    >>> x_delta(inversions_spec(7), Permutation((6, 4, 1, 5, 3, 2, 7)), 3)
    Fraction(8, 1)
    >>> x_delta(descents_spec(7), Permutation((6, 4, 1, 5, 3, 2, 7)), 3)
    Fraction(2, 1)
    """
    n = p.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    if spec.n != n:
        raise ValueError(f"statistic is for n={spec.n}, permutation has n={n}")
    row = spec.matrix.rows[p.image[i - 1] - 1]
    return Fraction(-2 * sum(row[v - 1] for v in p.image[i:]), spec.matrix.scale)


def pair_samples(pick: np.ndarray, tiles: Iterator[tuple[int, np.ndarray, np.ndarray]]) -> Iterator[tuple]:
    """Per sub-tile (start, keys, inner) of a block (pick, tiles) of
    ``_sn.draw`` on L * M, the Python-int lists (X, X', position): row t
    moves V = ``pick[start + t]``, at position 1 + #{u : k_u < k_V + [u < V]},
    X = sum_v inner[v] and X' = X - 2 inner[V], summed in int64.  Past
    :func:`_sn.checked_x_bound`, X, X' and X's partial sums are signed sums over
    distinct pairs u < v, below 2^63 in size, as is 2 inner[V] by the row bound."""
    for start, keys, inner in tiles:
        h, n = inner.shape
        v = pick[start : start + h, None]
        x = inner.sum(axis=1, dtype=np.int64)
        x_prime = x - 2 * inner[np.arange(h), v[:, 0]].astype(np.int64)
        # a value u < V is before V when k_u <= k_V, that is k_u < k_V + 1
        key = np.take_along_axis(keys, v, axis=1) + (np.arange(n, dtype=v.dtype) < v)
        yield x.tolist(), x_prime.tolist(), (np.sum(keys < key, axis=1) + 1).tolist()


def sample_pair(spec: StatisticSpec, rng: np.random.Generator) -> PairSample:
    """Draw pi uniform on S_n and one chain step from it: one row of
    ``_sn.draw``, fully determined by the generator state."""
    sigma, scale = math.sqrt(spec.variance), spec.matrix.scale
    (a,), (b,), (i,) = next(pair_samples(*_sn.draw(_sn.InnerKernel(_sn.checked_x_bound(spec.matrix)), 1, rng)))
    return PairSample(Fraction(a, scale), Fraction(b, scale), a / scale / sigma, b / scale / sigma, i)


def unit_step_check(n: int, limit: int | None = None) -> bool:
    """Exhaustively confirm a chain step changes des(pi^-1) by at most 1.

    That is |X' - X| <= 2 for the descent statistic, i.e. every suffix
    sum of ``descents_matrix(n)`` along every permutation is -1, 0 or 1:
    the largest |inner| over S_n, from :func:`_sn.exact_sums`, is at most 1.

    >>> unit_step_check(5)
    True
    """
    return _sn.exact_sums(descents_matrix(n), limit).max_inner <= 1
