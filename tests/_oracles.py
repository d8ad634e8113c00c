"""Independent numerical oracles used only by the tests.

These deliberately avoid the code paths they check: the normal CDF
oracle is a Taylor series in 60-digit arithmetic rather than erfc, the
distance oracle is a brute scan rather than the closed form, the
suffix sums are gathered position by position rather than read from a
table, a running remainder or the keys, the Monte Carlo draw keys one
whole block rather than cache-sized sub-tiles, orders it by a stable
argsort and places V by the inverse permutation, the exact laws are the
full-row recurrences and Fraction standardization that the half-row
versions replaced, X of every moved and relabeled row is recomputed on a copy
of the rows rather than read from the original rows' seen sets, and the
conditional moments of one chain step average the scalar Fraction
``chain.x_delta`` over the n positions rather than read the integer
suffix sums, Var(E^W (W' - W)^2) adds the level sets up one
``Fraction`` at a time rather than as one integer sum over the lcm of
their counts, and a sweep chunk's level sets and (X, X') pairs are
tallied by sorting (``np.unique``) rather than by counting, or in two
separate passes that each sum X and key the pairs by (X, X') in int64
rather than in one pass that shares X and keys them by (X, inner).
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from steinperm import _sn, perm_core
from steinperm.analysis import normal_cdf
from steinperm.chain import x_delta


def phi_taylor(x: float) -> float:
    """Standard normal CDF by the odd-double-factorial Taylor series.

    Phi(x) = 1/2 + exp(-x^2/2)/sqrt(2 pi) * sum_k x^(2k+1) / (2k+1)!!,
    summed in 60-digit precision until terms fall below 1e-50.
    """
    with mp.workdps(60):
        xm = mp.mpf(x)
        term = xm
        total = term
        k = 0
        while abs(term) > mp.mpf(10) ** -50 * (abs(total) + 1):
            k += 1
            term = term * xm * xm / (2 * k + 1)
            total += term
        val = mp.mpf(1) / 2 + mp.e ** (-xm * xm / 2) / mp.sqrt(2 * mp.pi) * total
        return float(val)


def kolmogorov_scan(atoms, probs) -> float:
    """Brute-force sup |F - Phi|: every atom, every left limit, and a
    10^4-point grid across and beyond the support."""
    atoms = np.asarray(atoms, dtype=float)
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    best = 0.0
    prev = 0.0
    for w, f in zip(atoms, cdf):
        phi_w = normal_cdf(float(w))
        best = max(best, abs(f - phi_w), abs(phi_w - prev))
        prev = f
    grid = np.linspace(float(atoms[0]) - 1.0, float(atoms[-1]) + 1.0, 10_001)
    idx = np.searchsorted(atoms, grid, side="right")
    f_grid = np.concatenate([[0.0], cdf])[idx]
    for x, f in zip(grid, f_grid):
        best = max(best, abs(f - normal_cdf(float(x))))
    return best


def inner_sums_gather(perms: np.ndarray, mint: np.ndarray) -> np.ndarray:
    """inner[t, i] = sum_{j > i} M[p_t(i)][p_t(j)], one gather of the
    later values' entries per position."""
    m, n = perms.shape
    inner = np.zeros((m, n), dtype=np.int64)
    for i in range(n - 1):
        rows = mint[perms[:, i]]
        inner[:, i] = np.take_along_axis(rows, perms[:, i + 1 :], axis=1).sum(axis=1)
    return inner


def value_order(perms: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """``inner`` of rows of permutations moved from position order to
    value order: out[t, perms[t, i]] = inner[t, i]."""
    out = np.empty_like(inner)
    np.put_along_axis(out, perms, inner, axis=1)
    return out


def keyed_gather(keys: np.ndarray, mint: np.ndarray) -> np.ndarray:
    """The suffix sums, in value order and int64, of the permutations that
    ``keys`` define: each row's values by increasing key, ties broken by
    value index (a stable argsort), gathered position by position."""
    perms = np.argsort(keys, axis=1, kind="stable")
    return value_order(perms, inner_sums_gather(perms, mint))


def draw_whole_tile(mint: np.ndarray, m: int, rng: np.random.Generator):
    """(perms, pick, pos, inner) for m draws of (pi, V) from ``rng``, in the
    order the Monte Carlo draw takes them: the moved values first, then the
    keys of the whole block in one ``rng.random`` call rather than by
    cache-sized sub-tiles: the draw's integer keys times 2^-53, in the same
    order.  The permutations are a stable argsort of the keys, ``pos``
    is V's place in them and every suffix sum is the per-position gather,
    in int64 and value order."""
    n = mint.shape[0]
    pick = rng.integers(0, n, size=m, dtype=np.min_scalar_type(n - 1))
    keys = rng.random((m, n))
    perms = np.argsort(keys, axis=1, kind="stable")
    pos = np.argsort(perms, axis=1)[np.arange(m), pick]
    return perms, pick, pos, keyed_gather(keys, mint)


def whole_tile_draw(mint: np.ndarray):
    """A stand-in for ``_sn.draw`` on the matrix whose L * M is ``mint``:
    :func:`draw_whole_tile` in the (pick, tiles) form of ``_sn.draw``, one
    sub-tile of all m rows, whose keys are each value's position in the
    oracle's permutation, so that a consumer ranking V by its keys finds
    the oracle's ``pos``."""

    def draw(kernel, m: int, rng: np.random.Generator):
        perms, pick, _, inner = draw_whole_tile(mint, m, rng)
        return pick, iter([(0, np.argsort(perms, axis=1), inner)])

    return draw


def descent_counts(perms: np.ndarray) -> np.ndarray:
    """Number of positions i with p(i) > p(i + 1), for each row."""
    return (perms[:, :-1] > perms[:, 1:]).sum(axis=1)


def eulerian_full_rows(n: int) -> tuple[int, ...]:
    """Descent counts of S_n, every entry of every triangle row computed."""
    row = [1]
    for m in range(2, n + 1):
        # entry m-1 of the new row reduces to the last entry of the old one
        row = [
            (k + 1) * row[k] + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(len(row))
        ] + [row[-1]]
    return tuple(row)


def mahonian_sliding_window(n: int) -> tuple[int, ...]:
    """Inversion counts of S_n, convolving with each uniform block
    {0..i-1} by a window sum kept entry by entry."""
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
    return tuple(counts)


def standardize_fraction(min_value: int, counts, mean: Fraction, stddev: float):
    """(atoms, probs) of (value - mean) / stddev over the nonzero counts,
    each atom shifted and each probability formed as an exact Fraction."""
    total = sum(counts)
    atoms, probs = [], []
    for k, c in enumerate(counts):
        if c:
            atoms.append(float(min_value + k - mean) / stddev)
            probs.append(float(Fraction(c, total)))
    return tuple(atoms), tuple(probs)


def relabel(table: np.ndarray, perms: np.ndarray, i: int) -> np.ndarray:
    """Rows of 0-indexed permutations mapped by lambda_map at 0-indexed
    position i, with ``table`` an ``exchangeability.relabel_table``."""
    suffix = perms[:, i:]
    mask = (1 << suffix).sum(axis=1)
    out = perms.copy()
    out[:, i:] = table[mask[:, None], suffix[:, :1], suffix]
    return out


def row_copy_x(perms: np.ndarray, suffix: np.ndarray, table: np.ndarray | None = None):
    """(moved, relabeled, relabeled then moved): X[t, i] of row t moved at
    position i, of row t relabeled at i by ``table`` and of that row moved
    at i, each row set copied with ``_sn.moved`` or :func:`relabel` and its
    X recomputed as the row sum of ``_sn.table_inner``; the last two are
    None without a table."""
    def x_of(rows):
        return _sn.table_inner(rows, suffix).sum(axis=1)

    n = perms.shape[1]
    moved = np.stack([x_of(_sn.moved(perms, i)) for i in range(n)], axis=1)
    if table is None:
        return moved, None, None
    lams = [relabel(table, perms, i) for i in range(n)]
    relabeled = np.stack([x_of(lam) for lam in lams], axis=1)
    then_moved = np.stack([x_of(_sn.moved(lam, i)) for i, lam in enumerate(lams)], axis=1)
    return moved, relabeled, then_moved


def conditional_drift(spec, p) -> Fraction:
    """E[X' - X | pi] over the uniform choice of position; averaging
    x_delta over i telescopes to -(2/n) X(pi), the linear regression
    property of the pair."""
    return sum((x_delta(spec, p, i) for i in range(1, p.n + 1)), Fraction(0)) / p.n


def cond_exp_sq(spec, p) -> Fraction:
    """E[(X' - X)^2 | pi], (4/n) times the sum of squared suffix sums."""
    return sum((x_delta(spec, p, i) ** 2 for i in range(1, p.n + 1)), Fraction(0)) / p.n


def level_set_variance(sums, spec, scale: int) -> Fraction:
    """Var(E^W (W' - W)^2) from ``_sn.ExactSums`` over S_n on the matrix
    cleared by ``scale``: the mean of c_pi = q_pi / (n scale^2 Var X) on
    each level set of X, squared and weighted by the level's count, one
    level at a time."""
    n = spec.n
    nfact = math.factorial(n)
    denom = n * scale**2 * spec.variance
    mean_c = Fraction(sums.sum_q, nfact) / denom
    level_sq = Fraction(0)
    for v, c in sums.level_count.items():
        mean_here = Fraction(sums.level_q[v], c) / denom
        level_sq += c * mean_here * mean_here
    return level_sq / nfact - mean_c * mean_c


def exact_sums_fields(sums) -> tuple:
    """Every field of an ``ExactSums``, for comparing two of them."""
    return (
        sums.sum_x, sums.sum_x2, sums.sum_q, sums.sum_q2, sums.sum_abs_d3, sums.max_inner,
        dict(sums.level_count), dict(sums.level_q),
    )


def exact_sums_by_sort(inner: np.ndarray) -> perm_core.ExactSums:
    """The ``ExactSums`` of one sweep chunk's int64 ``inner``: the level sets
    of X tallied by ``np.unique`` and the sum of q^2 taken over a list of
    Python ints."""
    sums = perm_core.ExactSums()
    x = inner.sum(axis=1)
    a = np.abs(inner)
    q = 4 * (inner * inner).sum(axis=1)
    sums.sum_q2 = sum((q * q).tolist())
    sums.sum_abs_d3 = 8 * int((a * a * a).sum())
    sums.max_inner = int(a.max())
    vals, where, cnt = np.unique(x, return_inverse=True, return_counts=True)
    qsum = np.zeros(len(vals), dtype=np.int64)
    np.add.at(qsum, where, q)
    sums.level_count.update(dict(zip(vals.tolist(), cnt.tolist())))
    sums.level_q.update(dict(zip(vals.tolist(), qsum.tolist())))
    return sums


def pair_counts_by_sort(inner: np.ndarray) -> dict[tuple[int, int], int]:
    """The counts of the integer pairs (X, X') of one sweep chunk's int64
    ``inner``, one pair per row and position, tallied by ``np.unique`` on
    the pairs as rows."""
    x = inner.sum(axis=1)
    pairs = np.stack([np.repeat(x, inner.shape[1]), (x[:, None] - 2 * inner).ravel()], axis=1)
    found, cnt = np.unique(pairs, axis=0, return_counts=True)
    return {(a, b): c for (a, b), c in zip(found.tolist(), cnt.tolist())}


def add_separately(inner: np.ndarray, sums: perm_core.ExactSums, raw: dict) -> None:
    """Add one sweep chunk's int64 ``inner`` to ``sums`` and to the integer
    pair counts ``raw`` in two separate tallies, each summing X itself: the
    bound sums with the squares and cubes held as int64 arrays, and the pairs
    keyed by (X - lo) span + (X' - lo) in int64, lo and span the least value
    and the range of X and X' in the chunk."""
    x = inner.sum(axis=1)
    a = np.abs(inner)
    q = 4 * (inner * inner).sum(axis=1)
    q2 = q * q
    block = ((1 << 63) - 1) // max(int(q2.max()), 1)
    sums.sum_q2 += sum(int(q2[start : start + block].sum()) for start in range(0, len(q2), block))
    sums.sum_abs_d3 += 8 * int((a * a * a).sum())
    sums.max_inner = max(sums.max_inner, int(a.max()))
    vals, cnt, qsum = (t.tolist() for t in _sn.tally(x, q))
    sums.level_count.update(dict(zip(vals, cnt)))
    sums.level_q.update(dict(zip(vals, qsum)))
    x = inner.sum(axis=1)
    x_prime = x[:, None] - 2 * inner
    lo = int(min(x.min(), x_prime.min()))
    span = int(max(x.max(), x_prime.max())) - lo + 1
    keys = ((x - lo) * span)[:, None] + (x_prime - lo)
    found, cnt = (t.tolist() for t in _sn.tally(keys.ravel()))
    for k, c in zip(found, cnt):
        a, b = divmod(k, span)
        raw[(a + lo, b + lo)] = raw.get((a + lo, b + lo), 0) + c
