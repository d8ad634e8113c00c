"""Internal chunked enumeration of S_n as integer arrays.

Permutations are materialized in lexicographic order as rows of numpy
arrays holding 0-indexed values, a few hundred thousand at a time, so
that exhaustive sweeps up to n = 10 (3.6M permutations) stay fast while
all aggregates remain exact integers.

Rational matrices are cleared to integers first: with L the lcm of all
entry denominators, every statistic computed from the integer matrix is
the exact value scaled by L.

Every exact enumeration goes through :func:`sweep`, which refuses an
oversized n or oversized entries before it returns.
"""

from __future__ import annotations

import math
from itertools import islice, permutations
from typing import Iterator

import numpy as np

from .perm_core import AntisymmetricMatrix, check_enum_limit

CHUNK = 150_000

_TOO_LARGE = "matrix entries too large for exact vectorized enumeration"


def integer_matrix(m: AntisymmetricMatrix) -> tuple[np.ndarray, int]:
    """(L * M) as an int64 array together with the denominator lcm L."""
    scale = 1
    for row in m.entries:
        for e in row:
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
    rows = [[int(e.numerator * (scale // e.denominator)) for e in row] for row in m.entries]
    # such entries would fail checked_chunk_size; refuse them before int64 overflows
    if any(abs(e) >= 1 << 62 for row in rows for e in row):
        raise ValueError(_TOO_LARGE)
    return np.array(rows, dtype=np.int64).reshape(m.n, m.n), scale


def checked_chunk_size(n: int, mint: np.ndarray) -> int:
    """Chunk size small enough that int64 per-chunk aggregates cannot overflow.

    The largest per-permutation aggregate handled anywhere is
    (sum_i delta_i^2)^2 <= (4n * (n * K)^2)^2 with K = max |entry| and
    delta_i = 2 * inner_i.
    """
    k = int(np.abs(mint).max()) if mint.size else 0
    per_perm = max(n * (2 * n * k) ** 3, (4 * n * (n * k) ** 2) ** 2, 1)
    cap = (1 << 62) // per_perm
    if cap < 1:
        raise ValueError(_TOO_LARGE)
    return min(CHUNK, cap)


def sweep(
    m: AntisymmetricMatrix, limit: int | None = None
) -> tuple[np.ndarray, int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """(L * M, L, chunks of (perms, inner)) for one lexicographic sweep of S_n.

    The enumeration limit and the overflow guard both run before this
    returns, so a refused sweep allocates nothing.
    """
    n = check_enum_limit(m.n, limit)
    mint, scale = integer_matrix(m)
    size = checked_chunk_size(n, mint)
    return mint, scale, inner_sum_chunks(n, mint, size)


def chunks(n: int, chunk_size: int = CHUNK) -> Iterator[np.ndarray]:
    """Yield (m, n) int64 arrays of 0-indexed permutations, lex order."""
    it = permutations(range(n))
    while True:
        block = list(islice(it, chunk_size))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def inner_sums(perms: np.ndarray, mint: np.ndarray) -> np.ndarray:
    """inner[t, i] = sum_{j > i} M[p_t(i)][p_t(j)] for each row p_t.

    This is the suffix row sum behind every statistic here: the total
    X equals inner.sum(axis=1) and a move of position i changes X by
    -2 * inner[t, i].
    """
    m, n = perms.shape
    inner = np.zeros((m, n), dtype=np.int64)
    for i in range(n - 1):
        rows = mint[perms[:, i]]
        inner[:, i] = np.take_along_axis(rows, perms[:, i + 1 :], axis=1).sum(axis=1)
    return inner


def inner_sum_chunks(
    n: int, mint: np.ndarray, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for perms in chunks(n, chunk_size):
        yield perms, inner_sums(perms, mint)


def descent_counts(perms: np.ndarray) -> np.ndarray:
    return (perms[:, :-1] > perms[:, 1:]).sum(axis=1)


def moved(perms: np.ndarray, i: int) -> np.ndarray:
    """Each row with the entry at 0-indexed position i sent to the end."""
    return np.concatenate([perms[:, :i], perms[:, i + 1 :], perms[:, i : i + 1]], axis=1)
