"""Internal chunked enumeration of S_n as integer arrays.

Permutations are materialized in lexicographic order as rows of numpy
arrays holding 0-indexed values, a few hundred thousand at a time, so
that exhaustive sweeps up to n = 10 (3.6M permutations) stay fast while
all aggregates remain exact integers.

A lexicographic block is a run of (n - k)-prefixes, each followed by
the k values it leaves in every order of S_k, k the largest with k! no
more than the chunk size: S_k is built once, in k array steps
(:func:`lex_permutations`), and every block is the prefixes, from
``itertools.permutations``, times ``remaining[S_k]``, both in
lexicographic order.

The suffix sums inner[t, i] = sum_{j > i} M[p_t(i)][p_t(j)] depend only
on p_t(i) and the set of values at or before position i, so sweeps read
them from an n x 2^n table of partial row sums (:func:`suffix_table`),
n gathers per row.  Rows too wide for such a table, the Monte Carlo
draws, are keyed instead: one key per value, a uniform integer below
2^53, the permutation listing the values by increasing key with ties
broken by value index, drawn in sub-tiles of rows small enough to stay
in cache (:func:`draw`).
Each sub-tile goes through :func:`inner_sums`, which takes the keys and
gives inner in value order, by one of two kernels, set up once per
matrix (:class:`InnerKernel`).  A value-space kernel
(:func:`diagonal_sums`) reads "u + d after u" off the keys directly,
n - d cell updates per nonzero diagonal d of M and no permutation at
all, a constant diagonal in one step over the sub-tile's cells as one
flat run, and :func:`banded_offsets` picks it when ``DIAGONAL_CELL_COST``
sum(n - d) <= n^2: descents and other banded matrices take it.
Inversions and other dense matrices sort the keys (:func:`ordered`, in
a buffer the sub-tiles share) and run a remainder of row sums along the
order (:func:`remainder_sums`), n^2 cell updates per row.  Every value
``inner`` holds is a sum of distinct entries of one row, so the largest
absolute row sum bounds it.  :func:`row_bound` refuses that bound from
2^62 on, and ``inner`` comes out in the narrowest signed type that
holds it (``InnerKernel.dtype``: int8 for descents, int16 for inversions
at n = 200), the banded kernel's type throughout.  The dense kernel runs
in the narrowest unsigned type that holds the widest row, where that is
narrower (:func:`residue_type`: uint8 for inversions at n = 200), on
residues from which each value is recovered exactly.  A draw keeps no
block of ``inner``: each sub-tile goes straight to its consumer in that
type, which callers widen before integer arithmetic.

Every kernel reads L * M in integers, L the lcm of all entry
denominators, in the form the matrix stores it: a custom matrix's rows
or a built-in's window, whose diagonals are constants, so a banded
built-in's draws build no n x n array.  Every statistic computed from it
is the exact value scaled by L, which stays on the matrix, as ``m.scale``.

The same observation lets :func:`exact_sums`, behind exact
``bounds --matrix``, ``dist --matrix`` and the enumerated moments, skip
the n! rows: a sum over S_n of terms in inner_i factors through the 2^n
prefix sets, taken in popcount layers, with the running statistic as a
second coordinate (:func:`prefix_set_sums`).  Every ordering of a set
gives the statistic within it the same residue mod 2g, g the gcd of the
entries of L * M, so each set keeps only the values of its own class: a
layer is 2g times narrower than the statistic's range.  Each layer is
built from the one before in one array step per member slot: slot j
removes the j-th smallest member of every set of the new layer at once,
which names its predecessor, so the whole program is n(n + 1)/2 steps.
It falls back to the sweep when that state would be too wide or its sums
could leave int64.

Every exact enumeration goes through :func:`sweep` or
:func:`exact_sums`, which refuse an oversized n, and entries for which
an int64 sum over a chunk of ``CHUNK`` rows could overflow
(:func:`perm_core.check_int64_entries`), before they return or allocate;
every Monte Carlo draw goes through :func:`draws`, which refuses
oversized entries and yields (pick, tiles) blocks: the moved values and
their sub-tiles of keys and ``inner``.  The table also gives X of a swept
row moved, relabeled and relabeled then moved (:func:`moved_x`), each
array in the narrowest signed type its bound allows
(:func:`moved_x_types`): keys below n 2^n in int16 up to n = 11 and
int32 beyond, the table's entries in the type of the largest of them,
and the sums in the type of B, the sum over the values of their largest
absolute table entry, int8 for both built-ins up to n = 13.  A sweep's
level sets and pair counts are tallied by distribution counting over the
chunk's range of values (:func:`tally`).

numpy is loaded on the first array operation, not on import (see
``steinperm.lazy_module``, which also defers this module and the others
behind the commands); the other modules bind ``np`` from here, so the
recurrences, ``--help`` and every refusal of input run without it.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, islice, permutations
from typing import Iterator

from . import lazy_module, perm_core
from .perm_core import AntisymmetricMatrix, check_enum_limit, check_int64_entries

np = lazy_module("numpy")
_TOO_LARGE = perm_core.TOO_LARGE

CHUNK = 150_000
DRAW_BLOCK = 1 << 16
ROW_BLOCK_CELLS = 1 << 15  # uint64 keys (256 KiB) of one draw sub-tile
KEY_BITS = 53  # a draw's keys are below 2^KEY_BITS, as rng.random's k of k 2^-53
# One diagonal_sums cell on a constant diagonal, stepped flat, costs 2.3-3.6
# int8 remainder_sums cells: on the ten constant diagonals d = 1..10, 0.70
# against 0.28 ns per cell at n = 50 and 0.58 against 0.16 ns at n = 200,
# and at the threshold (d = 1..14 at n = 50, 1..58 at n = 200) the two
# kernels took 0.42 against 0.48 ms and 1.30 against 1.29 ms per sub-tile
# (numpy 2.4, 2-core x86-64 VM).  A diagonal that varies, stepped row by
# row, costs 6-8 cells: at the threshold, 1.6-2.7 times the remainder.
DIAGONAL_CELL_COST = 4
PREFIX_DP_CELLS = 1 << 22  # (prefix set, X value) slots of one prefix_set_sums layer


def row_bound(m: AntisymmetricMatrix) -> int:
    """The largest absolute row sum of L * M (L = ``m.scale``), refused from 2^62 on, so
    that every partial row sum, every ``inner`` of the sweeps and the draws, fits in int64."""
    bound = max(m.row_sums[1], default=0)
    if bound >= 1 << 62:
        raise ValueError(_TOO_LARGE)
    return bound


def integer_matrix(m: AntisymmetricMatrix, dtype: np.dtype | str = "int64") -> np.ndarray:
    """L * M as an array of ``dtype``, int64 for the sweeps and ``InnerKernel.dtype``
    for the draws, after the :func:`row_bound` guard.  A built-in's array is
    one strided copy of its window.  An n x n array that cannot be allocated,
    the dense Monte Carlo kernel's at n = 100000, is refused as input too
    large, with its shape and size in bytes."""
    n = m.n
    row_bound(m)
    try:
        out = np.empty((n, n), dtype=dtype)
    except MemoryError:
        size = n * n * np.dtype(dtype).itemsize
        raise ValueError(f"cannot allocate the {(n, n)} {np.dtype(dtype)} matrix of {size} bytes") from None
    if m.window is None:
        out[:] = m.rows
    else:
        window = np.array(m.window, dtype=dtype)
        step = window.itemsize  # row i starts at slot n - i, one slot before row i - 1
        out[:] = np.ndarray((n, n), dtype, buffer=window, offset=step * n, strides=(-step, step))
    return out


def checked_x_bound(m: AntisymmetricMatrix) -> AntisymmetricMatrix:
    """``m``, refused if sum_{i<j} |L M_ij|, the bound on |X| of ``chain.pair_samples``, reaches 2^63."""
    if sum(m.row_sums[1]) >= 1 << 64:  # twice the sum over i < j
        raise ValueError(_TOO_LARGE)
    return m


def sweep(
    m: AntisymmetricMatrix, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """(L * M, its :func:`suffix_table`, chunks of (perms, inner)) for one
    lexicographic sweep of S_n; L is ``m.scale``.

    The enumeration limit and the overflow guards all run first, on
    Python ints, so a refused sweep allocates nothing and loads no numpy.
    """
    n = check_enum_limit(m.n, limit)
    check_int64_entries(n, m.rows)
    mint = integer_matrix(m)
    table = suffix_table(mint)
    return mint, table, inner_sum_chunks(n, table)


class ExactSums(perm_core.ExactSums):
    """The :class:`perm_core.ExactSums` a full sweep fills when each chunk's
    ``inner`` goes to :meth:`add`."""

    def add(self, inner: np.ndarray, x: np.ndarray | None = None) -> None:
        """Add one chunk of a sweep, its int64 ``inner`` and its X (the row
        sums of ``inner`` if None), to the sums.  X, q, each q^2 and every
        partial sum over the chunk are int64, by the bounds of
        :func:`perm_core.check_int64_entries`, and taken by einsum, which holds
        no squares or cubes.  The sum of q^2 is taken in int64 blocks of at
        most (2^63 - 1) // max q^2 rows, each block sum added as a Python int.
        The level sets are tallied by :func:`tally`."""
        x = np.einsum("ij->i", inner) if x is None else x
        q = 4 * np.einsum("ij,ij->i", inner, inner)
        q2 = q * q
        block = ((1 << 63) - 1) // max(int(q2.max()), 1)
        self.sum_q2 += sum(int(q2[start : start + block].sum()) for start in range(0, len(q2), block))
        a = np.abs(inner)
        self.sum_abs_d3 += 8 * int(np.einsum("ij,ij,ij->", a, a, a))
        self.max_inner = max(self.max_inner, int(a.max()))
        vals, cnt, qsum = (t.tolist() for t in tally(x, q))
        self.level_count.update(dict(zip(vals, cnt)))
        self.level_q.update(dict(zip(vals, qsum)))


def tally(values: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(the distinct integer ``values`` ascending, how often each occurs) and,
    with int64 ``weights``, the sum of the weights at each, as arrays; each sum
    must fit int64, as each level's sum of q over a chunk of a sweep does
    (:func:`perm_core.check_int64_entries`).

    Distribution counting (``np.bincount`` and ``np.add.at``) over the
    values less their least, where their range is no longer than
    ``values``, so that the count array is no larger than the values;
    ``np.unique`` otherwise."""
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= len(values):
        where = values - lo
        counts = np.bincount(where, minlength=span)
        found = np.flatnonzero(counts)
        out = [found + lo, counts[found]]
    else:
        distinct, where, counts = np.unique(values, return_inverse=True, return_counts=True)
        found, span = slice(None), len(distinct)
        out = [distinct, counts]
    if weights is not None:
        sums = np.zeros(span, dtype=np.int64)
        np.add.at(sums, where, weights)
        out.append(sums[found])
    return tuple(out)


def exact_sums(m: AntisymmetricMatrix, limit: int | None) -> ExactSums:
    """The :class:`ExactSums` a full sweep of S_n fills, on L * M, L = ``m.scale``.

    The sweep's guards run first.  :func:`prefix_set_sums` then does the
    work when no layer has more than ``PREFIX_DP_CELLS`` slots,
    C(n, n // 2) (2 ceil(B / 2g) + 1) with B the sum of |L M_ij| over i < j
    and 2g the :func:`residue_stride`, and n! q_max < 2^62, q_max a bound
    on q_pi, so that its int64 counts and sums of q fit; else the sweep.
    """
    n = check_enum_limit(m.n, limit)
    check_int64_entries(n, m.rows)
    sums = ExactSums()
    # |inner| at value v is at most v's absolute row sum, and |X| at most
    # the sum of |L M_ij| over i < j, half the sum of all absolute rows
    row_abs = m.row_sums[1]
    bound = sum(row_abs) // 2
    q_max = 4 * sum(a * a for a in row_abs)
    stride = residue_stride(m.rows)
    if (
        math.comb(n, n // 2) * (2 * -(-bound // stride) + 1) <= PREFIX_DP_CELLS
        and math.factorial(n) * max(q_max, 1) < 1 << 62
    ):
        prefix_set_sums(m, stride, sums)
    else:
        for _, inner in sweep(m, limit)[2]:
            sums.add(inner)
    return sums


def residue_stride(rows) -> int:
    """2g, g the gcd of the entries of ``rows`` of L * M (1 if all are 0): the
    modulus of the statistic's one residue within a prefix set (:func:`prefix_set_sums`)."""
    return 2 * (math.gcd(*chain.from_iterable(rows)) or 1)


def prefix_set_sums(m: AntisymmetricMatrix, stride: int, sums: ExactSums) -> None:
    """Add to ``sums`` the sums over S_n of L * M, by a dynamic program over prefix sets.

    A state is (S, y): S the set of values placed first and y the
    statistic within S, the sum of M[w][u] over w placed before u, both in
    S.  Appending v moves y by sum_{w in S} M[w][v] = -inside[v, S] and
    contributes inner = R_v - inside[v, S], R_v the row sum of v, both
    functions of (S, v) alone.  Layer k holds, for each k-set S and each
    y, the number of orderings of S with that y and the sum of their
    partial q = 4 sum inner^2; on the one set of the last layer y is X,
    and the layer holds the level sets.  n! times the largest q_pi must be
    below 2^62, so that every int64 count and sum of q in the layers fits.

    A layer holds each set's y on its residue class only.  With ``stride``
    2g the :func:`residue_stride`, g the gcd of the entries, every ordering
    of S has y = r(S) mod 2g, r(S) the sum of M[w][u] over the pairs
    w < u in S reduced mod 2g, since -a = a mod 2g whenever g divides a.
    With b_k the largest sum of |M_wu| over the pairs inside a k-set and
    c_k the least multiple of 2g at or above b_k, y is stored at
    j = (y - r(S) + c_k)/2g, so a layer is (c_k + b_k)/2g + 1 slots wide,
    not 2 b_k + 1.  Appending v to S moves j by
    (r(S) - inside[v, S] - r(S | v))/2g + (c_{k+1} - c_k)/2g, an integer.

    Layer k + 1 is built target by target, one array step per member
    slot: a (k + 1)-set T has the k + 1 predecessors T - {v}, one for each
    member v, so slot j takes the j-th smallest member of every target at
    once, gathers each predecessor's row shifted by its step in j, adds
    t = 4 inner^2 times its counts into its q half, and adds it into the
    targets' rows, which are in layer order.  That is n(n + 1)/2 array
    steps in all, each on vectors of the layer's length; a slot's gather
    is freed before the next, and the source layer's padded copy before
    the next layer.

    The other sums need no y.  A step (S, v) is taken by |S|! (n - |S| - 1)!
    permutations, so sum |2 inner|^3 is a weighted sum over the steps, and
    so is the part sum t^2 of sum q_pi^2 = sum_pi (sum of its steps' t)^2.
    The cross part 2 sum_{i < j} t_i t_j is, at the later step (S, v), t
    times the sum over orderings of S of their partial q, which layer |S|
    holds, times the (n - |S| - 1)! orderings after v.  Per set S, the
    sums over v outside S of t, t^2 and 4 |inner|^3 fit int64 for entries
    that :func:`perm_core.check_int64_entries` accepts (at most
    4n^3 K^2 <= 2^31, 16n^5 K^4 <= 2^62 and 4n^4 K^3 <= 2^45.5, K the largest
    |entry|, as there n^3 K^2 <= 2^29); their products and layer sums are
    taken in Python ints.  The largest |inner| is the largest
    |inside[v, U]|: each set U without v is the complement of some
    S | {v}, and M[v][v] = 0.
    """
    n = m.n
    # every |inside| is at most the largest absolute row sum: the tables
    # are kept in the narrowest type that holds that, int8 for descents
    rows = integer_matrix(m, signed_type(row_bound(m)))
    inside = subset_sums(rows)
    absolute = subset_sums(np.abs(rows))
    rowsum = np.array(m.row_sums[0], dtype=np.int64)
    size = np.zeros(1 << n, dtype=np.int8)  # popcount
    lowest = np.zeros(1 << n, dtype=np.intp)  # the smallest member, 0 for the empty set
    within = np.zeros(1 << n, dtype=np.int64)  # the sum of |M_wu| over the pairs inside
    residue = np.zeros(1 << n, dtype=np.int64)  # r(S), the residue mod 2g of every ordering's y
    for u in range(n):
        # the masks with top bit u are those below 2^u with u added
        top = slice(1 << u, 2 << u)
        size[top] = size[: 1 << u] + 1
        lowest[top] = lowest[: 1 << u]
        lowest[1 << u] = u
        within[top] = within[: 1 << u] + absolute[u, : 1 << u]
        residue[top] = (residue[: 1 << u] - inside[u, : 1 << u]) % stride
    del absolute
    # per set S, over the values v outside S: sum t, sum t^2 and sum 4 |inner|^3
    per_set = np.zeros((3, 1 << n), dtype=np.int64)
    for v in range(n):
        # the sets without v are the first half of each run of 2^(v + 1) masks
        inner = np.subtract(rowsum[v], inside[v].reshape(-1, 2, 1 << v)[:, 0], dtype=np.int64)
        t = 4 * inner * inner
        per_set.reshape(3, -1, 2, 1 << v)[:, :, 0] += [t, t * t, t * np.abs(inner)]
    t_sum, t_sq, cube = per_set
    # the masks by popcount, each layer in increasing order
    layers = np.split(np.argsort(size, kind="stable"), np.cumsum([math.comb(n, k) for k in range(n)]))
    bounds = [int(within[layer].max()) for layer in layers]
    base = [-(-b // stride) for b in bounds]  # c_k / 2g
    rank = np.empty(1 << n, dtype=np.int64)
    for layer in layers:
        rank[layer] = np.arange(len(layer))
    pad = max(int(inside.max()), -int(inside.min()))
    # e = (inside[v, S] + r(S | v) - r(S))/2g of a step (S, v) has |e| <= reach,
    # as |inside[v, S] + r(S | v) - r(S)| < pad + 2g
    reach = (pad + stride - 1) // stride
    # f[0, row, j] counts orderings and f[1, row, j] sums their q
    f = np.zeros((2, 1, 1), dtype=np.int64)
    f[0, 0, 0] = 1
    for k in range(n):
        source, target = layers[k], layers[k + 1]
        width = base[k + 1] + bounds[k + 1] // stride + 1
        orderings, after = math.factorial(k), math.factorial(n - k - 1)
        q = f[1].sum(axis=1)
        sums.sum_q2 += after * (
            orderings * sum(t_sq[source].tolist()) + 2 * sum(map(operator.mul, t_sum[source].tolist(), q.tolist()))
        )
        sums.sum_abs_d3 += 2 * orderings * after * sum(cube[source].tolist())
        # f padded so that windows[:, row, reach + e][:, :, j] is the source
        # slot of target slot j for a step of that e, which moves j by
        # (c_{k+1} - c_k)/2g - e; zero where that is out of range
        offset = base[k + 1] - base[k] + reach
        padded = np.zeros((2, len(source), width + 2 * reach), dtype=np.int64)
        padded[:, :, offset : offset + f.shape[2]] = f
        del f
        windows = np.lib.stride_tricks.as_strided(
            padded, (2, len(source), 2 * reach + 1, width), padded.strides + padded.strides[2:], writeable=False
        )
        f = np.zeros((2, len(target), width), dtype=np.int64)
        left = target.copy()  # the members of each target not yet taken
        shift = residue[target] + reach * stride
        for _ in range(k + 1):
            v = lowest[left]
            bit = 1 << v
            left ^= bit
            pred = target ^ bit
            step = inside[v, pred].astype(np.int64)
            moved = windows[:, rank[pred], (step + shift - residue[pred]) // stride]
            f += moved
            counts = moved[0]
            counts *= (4 * (rowsum[v] - step) ** 2)[:, None]  # t of the step (S, v)
            f[1] += counts
            del moved, counts
        del padded, windows
    sums.max_inner = max(sums.max_inner, pad)
    count, qsum = f[:, 0]
    js = np.flatnonzero(count)
    xs = (stride * js + int(residue[-1]) - stride * base[n]).tolist()
    sums.level_count.update(dict(zip(xs, count[js].tolist())))
    sums.level_q.update(dict(zip(xs, qsum[js].tolist())))


def draws(
    m: AntisymmetricMatrix, trials: int, seed: int
) -> Iterator[tuple[np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray]]]]:
    """The blocks of :func:`draw` for ``trials`` draws of (pi, V) on L * M,
    L = ``m.scale``: block b holds at most ``DRAW_BLOCK`` draws from the
    b-th child of ``SeedSequence(seed)``.  The overflow guard and the
    :class:`InnerKernel` set-up run once, before this returns."""
    kernel = InnerKernel(m)
    root = np.random.SeedSequence(seed)  # spawn(1) k times gives the children of spawn(k)
    return (
        draw(kernel, min(DRAW_BLOCK, trials - start), np.random.Generator(np.random.PCG64(*root.spawn(1))))
        for start in range(0, trials, DRAW_BLOCK)
    )


def tile_height(n: int) -> int:
    """Rows of n values in one sub-tile of ``ROW_BLOCK_CELLS`` cells."""
    return max(1, ROW_BLOCK_CELLS // n)


def draw(
    kernel: InnerKernel, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """(pick, tiles) for m draws of a uniform permutation and a uniform
    moved value: ``pick`` holds the moved values V, and ``tiles`` yields,
    for each sub-tile of :func:`tile_height` rows from row ``start`` on,
    ``(start, keys, inner)`` with ``inner = inner_sums(keys, kernel)`` in
    value order.

    The block's moved values are drawn first, on this call, in the
    narrowest unsigned type that holds n - 1.  Then each sub-tile draws
    its keys, one per value, as ``tiles`` reaches it: the top
    ``KEY_BITS`` = 53 bits k of a raw 64-bit draw, the k of the k 2^-53
    that ``rng.random`` makes of the same draw, so the keys have its order
    and its stream.  Row t's permutation lists the values by increasing
    key, ties broken by value index, so V's 0-indexed position is the
    number of keys of its row below k_V + [u < V].  The sub-tiles' keys
    are, in order, those of one whole-block ``rng.random((m, n))`` times
    2^53.  Every sub-tile's ``inner`` is a view of one buffer in
    ``kernel.dtype``, which the next sub-tile overwrites: a consumer reads
    it, and its keys, before it asks for the next.  The keys are a new
    C-contiguous uint64 array each sub-tile, which the consumer may
    overwrite once it has read them.

    A uniform position I and a uniform value V independent of pi give the
    same law of (pi, I): I = pi^-1(V) is uniform and independent of pi.

    The law of the drawn order is within total variation C(n, 2) 2^-53 of
    uniform.  The keys k are uniform on 0..2^53 - 1, independently for
    every value.  Let T be the event that two keys of a row tie; by the
    union bound over the C(n, 2) pairs, each tying with probability
    2^-53, P(T) <= C(n, 2) 2^-53.  Off T the order is the
    order of distinct exchangeable keys, so each of the n! orders has the
    same probability P(T^c) / n!.  For any set A of permutations,
    P(order in A) - |A| / n! = P(order in A, T) - P(T) |A| / n!, a
    difference of two numbers in [0, P(T)], so at most P(T) in absolute
    value.
    """
    n = kernel.n
    pick = rng.integers(0, n, size=m, dtype=np.min_scalar_type(n - 1))

    def tiles() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        height = tile_height(n)
        inner = np.empty((min(height, m), n), dtype=kernel.dtype)
        for start in range(0, m, height):
            h = min(height, m - start)
            keys = rng.bit_generator.random_raw(h * n).reshape(h, n)
            keys >>= 64 - KEY_BITS
            rows = inner[:h]
            inner_sums(keys, kernel, rows)
            yield start, keys, rows

    return pick, tiles()


def chunks(n: int, chunk_size: int = CHUNK) -> Iterator[np.ndarray]:
    """Yield (m, n) int64 arrays of 0-indexed permutations, lex order.

    No block holds more than ``chunk_size`` rows.  S_k comes from
    :func:`lex_permutations` once, and the (n - k)-prefixes a block at a
    time from ``itertools.permutations``, both in lexicographic order; with
    k = n the one block is S_n itself.
    """
    k = n
    while math.factorial(k) > chunk_size:
        k -= 1
    kfact = math.factorial(k)
    tail = lex_permutations(k)
    if k == n:
        yield tail
        return
    prefixes = permutations(range(n), n - k)
    # fewer than k + 1 prefixes per block, since (k + 1)! > chunk_size
    while heads := list(islice(prefixes, chunk_size // kfact)):
        g = len(heads)
        block = np.empty((g, kfact, n), dtype=np.int64)
        head = np.array(heads, dtype=np.int64)
        block[:, :, : n - k] = head[:, None, :]
        left = np.ones((g, n), dtype=bool)
        left[np.arange(g)[:, None], head] = False
        # the values each prefix leaves, ascending, in every order of S_k
        block[:, :, n - k :] = np.nonzero(left)[1].reshape(g, k).take(tail, axis=1)
        yield block.reshape(g * kfact, n)
        del block  # freed, once its consumer lets go, before the next block is made


def lex_permutations(k: int) -> np.ndarray:
    """S_k as a (k!, k) int64 array in lexicographic order, built from S_0 by
    k array steps: S_j lists each first value f = 0..j-1 in turn, followed by
    S_{j-1} in order with every value at or above f raised by one."""
    perms = np.zeros((1, 0), dtype=np.int64)
    for j in range(1, k + 1):
        rows = len(perms)
        out = np.empty((j, rows, j), dtype=np.int64)
        out[:, :, 0] = np.arange(j)[:, None]
        rest = out[:, :, 1:]
        rest[:] = perms
        rest += rest >= np.arange(j)[:, None, None]
        perms = out.reshape(j * rows, j)
    return perms


def signed_type(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds -bound..bound."""
    return next(np.dtype(f"int{bits}") for bits in (8, 16, 32, 64) if bound < 1 << (bits - 1))


def subset_sums(mint: np.ndarray) -> np.ndarray:
    """inside[v, mask] = sum of M[v][u] over the values u in the bitmask ``mask``."""
    n = mint.shape[0]
    inside = np.zeros((n, 1 << n), dtype=mint.dtype)
    for u in range(n):
        # the masks with top bit u are those below 2^u with u added
        np.add(inside[:, : 1 << u], mint[:, u : u + 1], out=inside[:, 1 << u : 2 << u])
    return inside


def suffix_table(mint: np.ndarray) -> np.ndarray:
    """table[v, seen] = sum of M[v][u] over the values u outside the bitmask ``seen``.

    With ``seen`` the values at or before position i of a permutation p,
    table[p(i), seen] is the suffix sum inner[i]; see :func:`table_inner`.
    """
    # the complement of mask is 2^n - 1 - mask
    return np.ascontiguousarray(subset_sums(mint)[:, ::-1])


def table_inner(perms: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`inner_sums` of rows of 0-indexed permutations, read from
    ``table = suffix_table(mint)``."""
    seen = np.left_shift(1, perms)
    np.cumsum(seen, axis=1, out=seen)
    # the flat index of table[p(i), seen] is p(i) * 2^n + seen
    seen |= perms << perms.shape[1]
    return np.take(table, seen)


class InnerKernel:
    """The per-matrix set-up of :func:`inner_sums` on the matrix ``m``,
    made once and shared by every block of rows: ``fill(keys, out)``, the
    kernel that :func:`banded_offsets` picks bound to the arrays it reads,
    for sub-tiles of at most ``height`` = :func:`tile_height` rows, and
    ``dtype``, the narrowest signed integer type that holds the
    :func:`row_bound` (int8 for descents, int16 for inversions at n = 200),
    the type of ``inner``.

    Those arrays are built straight from ``m``: its rows, or a built-in's
    window, whose diagonal d is the constant window[n + d], and its
    ``row_sums``.  The banded kernel's are in ``dtype``, a constant
    diagonal as one scalar and ``below`` tiled over ``height`` rows.  The
    dense kernel's rows and running remainder are in :func:`residue_type`
    where that is narrower than ``dtype`` (uint8 for inversions at
    n = 200), else in ``dtype``; it keeps one (``height``, n) uint64 buffer
    for the codes of :func:`ordered`.  No value the kernels compute
    overflows: each is a sum of distinct entries of one row of L * M,
    each taken 0 or 1 times, at most that row's absolute sum in absolute
    value, which ``dtype`` holds (see :func:`remainder_sums` for the
    residues)."""

    def __init__(self, m: AntisymmetricMatrix) -> None:
        self.n = n = m.n
        self.height = height = tile_height(n)
        bound = row_bound(m)
        self.dtype = dtype = signed_type(bound)
        rows = None if m.window is not None else integer_matrix(m, dtype)
        offsets = banded_offsets(m, rows)
        if offsets is None:
            rows = integer_matrix(m, dtype) if rows is None else rows
            sums, absolute = m.row_sums
            start, low = sums, None
            residue = residue_type(bound)
            if residue.itemsize < dtype.itemsize:
                # row v's entries sum to pos_v - neg_v, their absolute values to pos_v + neg_v
                start = [(a + s) // 2 for s, a in zip(sums, absolute)]
                low = np.array([(a - s) // 2 for s, a in zip(sums, absolute)], dtype)
                rows = rows.astype(residue)
            codes = np.empty((height, n), dtype=np.uint64)
            self.fill = functools.partial(
                remainder_sums, rows=rows, start=np.array(start, rows.dtype), low=low, codes=codes
            )
        else:
            diagonals = []
            below = np.zeros(n, dtype=dtype)  # sum_{u < w} M[w][u], as M[u + d][u] = -M[u][u + d]
            for d in offsets:
                diagonal = np.full(n - d, m.window[n + d], dtype) if rows is None else np.diagonal(rows, d).copy()
                below[d:] -= diagonal
                constant = (diagonal == diagonal[0]).all()
                diagonals.append((d, diagonal[0] if constant else diagonal))
            self.fill = functools.partial(diagonal_sums, below=np.tile(below, height), diagonals=diagonals)


def inner_sums(keys: np.ndarray, kernel: InnerKernel, out: np.ndarray | None = None) -> np.ndarray:
    """inner[t, v] = sum of M[v][u] over the values u after v in row t,
    with ``kernel = InnerKernel(m)``, written to ``out``, a C-contiguous
    (rows, n) array (int64 if None).

    Row t orders the values by increasing key ``keys[t, v]``, an integer
    below 2^``KEY_BITS``, ties broken by value index; a permutation p has
    the keys sigma = p^-1, its positions.  inner is in value order:
    inner[t, p_t(i)] is the suffix row sum at position i, the sum behind
    every statistic here: the total X equals inner.sum(axis=1), and moving
    value v to the end changes X by -2 * inner[t, v].

    Two exact kernels compute it, chosen by :func:`banded_offsets`: the
    value-space :func:`diagonal_sums`, one step per nonzero diagonal of M,
    when ``DIAGONAL_CELL_COST`` times its cells per row is at most the
    n^2 of the running remainder :func:`remainder_sums`, which takes
    every other matrix.  Descents and other banded matrices take the
    first, inversions and other dense matrices the second.  Both give the
    same integers, and every value either holds is a sum of distinct
    entries of one row, each taken 0 or 1 times, which ``kernel.dtype``
    holds (see :class:`InnerKernel`).  A kernel call takes at most
    ``kernel.height`` rows, so that its (rows, n) work arrays stay in
    cache: :func:`draw` passes sub-tiles of that height, and longer
    ``keys`` are taken that many rows at a time.
    """
    if out is None:
        out = np.empty(keys.shape, dtype=np.int64)
    for start in range(0, len(keys), kernel.height):
        stop = start + kernel.height
        kernel.fill(keys[start:stop], out[start:stop])
    return out


def banded_offsets(m: AntisymmetricMatrix, rows: np.ndarray | None) -> list[int] | None:
    """The offsets d > 0 of the diagonals M[u, u + d] with a nonzero entry,
    or None when the sum of their lengths n - d, times
    ``DIAGONAL_CELL_COST``, exceeds n^2.  A built-in's are read off its
    ``window``, where M[u, u + d] = window[n + d], and ``rows`` is None;
    any other matrix's off ``rows``, its L * M as an array."""
    n = m.n
    if m.window is None:
        offsets = [d for d in range(1, n) if np.diagonal(rows, d).any()]
    else:
        offsets = [d for d, entry in enumerate(m.window[n + 1 : 2 * n], 1) if entry]
    return offsets if DIAGONAL_CELL_COST * sum(n - d for d in offsets) <= n * n else None


def ordered(keys: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
    """The permutations that ``keys``, integers below 2^``KEY_BITS``,
    define: row t lists the values by increasing key, ties broken by value
    index; made in ``codes``, a uint64 buffer of at least as many rows, if
    given.

    Such a key leaves the low 64 - ``KEY_BITS`` bits of a uint64 free; with
    the value's index put there, a row's codes are distinct and ascending
    in exactly that order, so one sort of the codes, which need not be
    stable, gives the order, ties included.  Rows too wide for the index
    to fit take a stable argsort, about 4.5 times the time of the code
    sort on the (163, 200) sub-tiles of inversions at n = 200."""
    m, n = keys.shape
    bits = (n - 1).bit_length()
    if bits > 64 - KEY_BITS:
        return keys.argsort(axis=1, kind="stable")
    codes = np.left_shift(keys, bits, out=None if codes is None else codes[:m], dtype=np.uint64, casting="unsafe")
    codes |= np.arange(n, dtype=np.uint64)
    codes.sort(axis=1)
    codes &= (1 << bits) - 1
    return codes.view(np.int64)


def residue_type(bound: int) -> np.dtype:
    """The narrowest unsigned integer type that holds 0..bound: the type of
    the dense kernel's residues for a widest absolute row sum ``bound``."""
    return next(np.dtype(f"uint{bits}") for bits in (8, 16, 32, 64) if bound < 1 << bits)


def remainder_sums(
    keys: np.ndarray, out: np.ndarray, rows: np.ndarray, start: np.ndarray, low: np.ndarray | None, codes: np.ndarray
) -> None:
    """:func:`inner_sums` by a running remainder along the :func:`ordered`
    rows, made in the buffer ``codes``: n^2 cell updates per row, with
    ``rows`` the rows of M.

    The rows carry rest[t, u]: ``start[u]`` less the sum of M[u][w] over
    the values w passed so far, by adding row p_t(i), which is -column
    p_t(i), at each position i.  Read at v = p_t(i), after that step,
    rest[t, v] has passed the values before v and v itself, whose
    M[v][v] is 0, so it is ``start[v]`` less v's row sum plus
    inner[t, v]: inner[t, v] itself when ``start`` holds the row sums.
    Every inner[t, v] is a sum of distinct entries of row v, each taken
    0 or 1 times, so it lies in [-neg_v, pos_v], neg_v and pos_v the sums
    of the absolute values of row v's negative and of its positive
    entries; pos_v - neg_v is v's row sum and pos_v + neg_v its absolute
    row sum.

    With ``low`` None, ``start`` holds the row sums, and ``rows``,
    ``start`` and rest are in ``InnerKernel.dtype``, which holds every
    absolute row sum, so no value leaves it.  Otherwise they are in the
    narrowest unsigned type of b bits that holds the widest absolute row
    sum (:func:`residue_type`), narrower than ``InnerKernel.dtype``:
    ``rows`` holds M mod 2^b, ``start`` the pos_v and ``low`` the neg_v.
    Unsigned addition is exact mod 2^b, so rest[t, v] read at v is
    pos_v - (pos_v - neg_v) + inner[t, v] = inner[t, v] + neg_v mod 2^b.
    As inner[t, v] + neg_v lies in [0, pos_v + neg_v] and
    pos_v + neg_v < 2^b, it is that residue itself, and subtracting
    ``low`` in ``out``'s type gives inner.
    """
    m, n = keys.shape
    rest = np.tile(start, (m, 1))
    found = out if low is None else np.empty_like(rest)
    # cell (t, p_t(i)) of rest and of the C-contiguous found is flat[t] + p_t(i) of these views
    flat, rest_cells, found_cells = np.arange(0, m * n, n), rest.reshape(-1), found.reshape(-1)
    for p in ordered(keys, codes).T:
        rest += rows.take(p, axis=0)
        where = flat + p
        found_cells[where] = rest_cells[where]
    if low is not None:
        np.subtract(found, low, out=out)


def diagonal_sums(
    keys: np.ndarray,
    out: np.ndarray,
    below: np.ndarray,
    diagonals: list[tuple[int, np.ndarray]],
) -> None:
    """:func:`inner_sums` in value space, read from the keys, sum(n - d)
    cell updates per row over the pairs (d, M[u][u + d] for u = 0..n-d-1)
    in ``diagonals``, whose offsets d hold every nonzero entry of M above
    the main diagonal, a diagonal whose entries are all equal given as one
    scalar; ``below``, tiled over at least as many rows as ``keys``, is
    sum_{u < w} M[w][u] at each value w.

    inner at value w is sum_u M[w][u] [u after w].  Each row of ``out``
    starts at ``below``; each diagonal d then takes
    term = [u + d after u] M[u][u + d], where u + d comes after u when
    k_{u+d} >= k_u (a tie puts the lower index u first), and adds it to
    inner at u and at u + d, where it turns M[u + d][u] = -M[u][u + d]
    into [u after u + d] M[u + d][u].  A constant diagonal takes that step
    once over all rows as one flat run of cells, cell u of row t being
    cell tn + u: it compares the keys of cells i + d and i, zeroes the
    comparison at the d cells of each row whose i + d is in the next row,
    and adds it times the scalar at i and at i + d.  A diagonal that
    varies takes the step row by row.  ``below``, the diagonals and term
    are in ``InnerKernel.dtype``: term holds single entries, and at every
    step inner at w is a sum of distinct entries of row w, each taken 0
    or 1 times, so each is bounded by an absolute row sum, which that
    type holds.
    """
    m, n = keys.shape
    size = m * n
    cells, key_cells = out.reshape(-1), keys.reshape(-1)
    cells[:] = below[:size]
    after = np.empty(size, dtype=bool)
    for d, diagonal in diagonals:
        if diagonal.ndim:
            term = (keys[:, d:] >= keys[:, :-d]) * diagonal
            out[:, :-d] += term
            out[:, d:] += term
        else:
            np.greater_equal(key_cells[d:], key_cells[:-d], out=after[: size - d])
            after.reshape(m, n)[:, n - d :] = False
            term = np.multiply(after[: size - d].view(np.int8), diagonal)  # 0 or 1, read without a cast
            cells[:-d] += term
            cells[d:] += term


def inner_sum_chunks(n: int, table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(perms, inner) for each chunk of the sweep, from ``table = suffix_table(mint)``, held by none once yielded."""
    yield from map(lambda perms: (perms, table_inner(perms, table)), chunks(n))


def moved(perms: np.ndarray, i: int) -> np.ndarray:
    """Each row with the entry at 0-indexed position i sent to the end."""
    return np.concatenate([perms[:, :i], perms[:, i + 1 :], perms[:, i : i + 1]], axis=1)


def moved_x_types(suffix: np.ndarray) -> tuple[np.dtype, np.dtype, np.dtype]:
    """(keys, ``suffix`` entries, sums): the types :func:`moved_x` holds its
    arrays in on the n x 2^n ``suffix`` table, each from the bound given there."""
    n = suffix.shape[0]
    top = np.abs(suffix).max(axis=1, initial=0)
    return signed_type((n << n) - 1), signed_type(int(top.max(initial=0))), signed_type(int(top.sum()))


@functools.cache
def triangle(n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Cells j >= i of an n x n square by diagonal, d = j - i = 0..n-1, each
    diagonal in increasing i: (i, j), read-only, and where each diagonal starts."""
    i, j = np.triu_indices(n)
    order = np.argsort(j - i, kind="stable")  # i-major, so each diagonal keeps increasing i
    i, j = i[order], j[order]
    starts = [d * n - d * (d - 1) // 2 for d in range(n + 1)]
    return np.broadcast_to(i, i.shape), np.broadcast_to(j, j.shape), starts


def moved_x(perms: np.ndarray, inner: np.ndarray, suffix: np.ndarray, table: np.ndarray | None = None):
    """For each sub-tile of rows of a swept chunk, (inner, moved, relabeled,
    relabeled then moved): X[t, i] of row t moved at position i, of it relabeled
    at i by ``table`` (``exchangeability.relabel_table``) and of that moved at
    i, no row copied; the last two are None without a table.

    A row has a key v << n | seen on each cell (i, j) of :func:`triangle`, v its
    value at j and seen the values at or before j; one sub-tile's seen masks and
    prefix sums before[i] = sum_{j < i} inner[j] serve all three rows, which keep
    p's values and seen sets before i.  From i on, the moved row drops p(i) from
    every seen set and puts it last with all seen; the relabeled row holds
    lambda(j) = table[S_i, p(i), p(j)], S_i the values at positions >= i, and has
    seen the values before i and lambda(i..j), a running sum as lambda is
    one-to-one.  Each such term is a fresh ``suffix`` lookup, none read off
    X' = X - 2 inner[i] or X(lambda) = X'.  The cells run by diagonal, so that
    the running sums and the sums over j take one array step per diagonal.

    Every array is held in the narrowest signed type its bound allows, as
    :func:`moved_x_types` picks them.  The keys, and the seen masks they
    are built of, are below n 2^n: int16 up to n = 11, int32 beyond.
    ``table`` holds values below n, read in the type of n - 1: int8.
    ``suffix`` is read in the type of its largest absolute entry, at most
    the :func:`row_bound`: int8 for the built-ins up to n = 128.  Each
    prefix sum, partial sum over j and X is a sum of ``suffix`` entries at
    distinct values v, as each row and each lambda is one-to-one, so its
    absolute value is at most B, the sum over v of the largest
    |suffix[v, seen]|, and it is held in the type of B: int8 for both
    built-ins up to n = 13 (B = n for descents, 120 for inversions at
    n = 13).  The three X arrays come out in that type, ``inner`` as given."""
    n = perms.shape[1]
    i, j, starts = triangle(n)
    ktype, stype, xtype = moved_x_types(suffix)
    look = suffix.astype(stype)
    if table is not None:
        table = table.astype(signed_type(n - 1))
    full = (1 << n) - 1

    def total(keys, before, moved=False):  # before + the suffix terms of cells (i, i..n-1)
        if moved:  # the value of cell (i, i) drops out of every later seen set, and comes last
            keys = keys ^ (1 << (keys[: n] >> n))[i]
            keys[:n] |= full
        terms = np.take(look, keys)
        out = before + terms[:n]
        for d in range(1, n):
            out[: n - d] += terms[starts[d] : starts[d + 1]]
        return out.T

    # a call per sub-tile frees its arrays before the next, and triangle is made once per n:
    # without either, verify at n = 10 fragmented the heap, 100-113 MB RSS, not 94-97 MB
    def tile(p, inn):
        p = p.astype(ktype)
        bits = np.left_shift(1, p, dtype=ktype)
        seen = np.cumsum(bits, axis=0, dtype=ktype)
        before = np.zeros(p.shape, dtype=xtype)
        np.cumsum(inn.T[:-1], axis=0, dtype=xtype, out=before[1:])
        relabeled = relabeled_moved = None
        if table is not None:
            prior = seen - bits
            lam = table.take(((((full ^ prior).astype(np.intp) * n + p) * n)[i] + p[j])).astype(ktype)
            lam_seen = np.left_shift(1, lam, dtype=ktype)
            lam_seen[:n] += prior
            for d in range(1, n):  # cell (i, i + d) adds the seen set of cell (i, i + d - 1)
                lam_seen[starts[d] : starts[d + 1]] += lam_seen[starts[d - 1] : starts[d] - 1]
            keys = lam << n | lam_seen
            relabeled, relabeled_moved = total(keys, before), total(keys, before, moved=True)
        return inn, total((p << n | seen)[j], before, moved=True), relabeled, relabeled_moved

    height = tile_height(len(i))
    for start in range(0, len(perms), height):
        yield tile(perms[start : start + height].T, inner[start : start + height])
