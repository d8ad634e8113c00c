import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinperm import (
    AntisymmetricMatrix,
    custom_spec,
    descents_matrix,
    descents_spec,
    generic_distribution,
    ingredients_exact,
    ingredients_mc,
    inversions_matrix,
    inversions_spec,
    random_antisymmetric_matrix,
    spec_for,
    zero_matrix,
)
from steinperm import _sn, exchangeability, perm_core, stein_bounds
from steinperm.chain import pair_samples
from steinperm.exact_dist import eulerian_distribution, mahonian_distribution
from steinperm.perm_core import EnumerationLimitError

from conftest import BUILTIN_SIZES, builtin_rows, random_matrices
from _oracles import (
    add_separately, draw_whole_tile, exact_sums_by_sort, exact_sums_fields, inner_sums_gather, keyed_gather, pair_counts_by_sort,
    relabel, row_copy_x, value_order,
)


class TestSweep:
    def test_rows_and_inner_sums(self):
        m = inversions_matrix(5)
        mint, _, sweep = _sn.sweep(m)
        assert m.scale == 1
        rows = []
        for perms, inner in sweep:
            assert np.array_equal(inner, inner_sums_gather(perms, mint))
            rows += perms.tolist()
        assert rows == [list(p) for p in permutations(range(5))]

    def test_rational_scale(self):
        m = AntisymmetricMatrix.from_rows([["0", "1/2", "1/3"], ["-1/2", "0", "1"], ["-1/3", "-1", "0"]])
        mint, *_ = _sn.sweep(m)
        assert m.scale == 6
        assert mint.tolist() == [[0, 3, 2], [-3, 0, 6], [-2, -6, 0]]

    # a lazy guard would raise only on the first next(); these raise on the call
    def test_limit_checked_before_return(self):
        with pytest.raises(EnumerationLimitError):
            _sn.sweep(descents_matrix(11))
        *_, sweep = _sn.sweep(descents_matrix(4), limit=4)
        assert sum(len(perms) for perms, _ in sweep) == math.factorial(4)

    @pytest.mark.parametrize("entry", ["9000000000000", "1/9000000000000", str(1 << 70)])
    def test_large_entries_refused_before_return(self, entry):
        neg = entry[1:] if entry.startswith("-") else "-" + entry
        m = AntisymmetricMatrix.from_rows([["0", entry, "1"], [neg, "0", "1"], ["-1", "-1", "0"]])
        with pytest.raises(ValueError, match="too large"):
            _sn.sweep(m)


def _largest_guarded_entry(n):
    """The largest K for which the sweep's overflow guard accepts entries of size K."""
    def accepted(k):
        try:
            perm_core.check_int64_entries(n, np.array([[k]], dtype=np.int64))
        except ValueError:
            return False
        return True

    lo, hi = 1, 2
    while accepted(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return lo


def _near_limit_matrix(n):
    # negative upper entries within 2 of the largest size the guard accepts,
    # the first one at it
    k = _largest_guarded_entry(n)
    rng = np.random.default_rng(11)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = k - (int(rng.integers(0, 3)) if j > 1 else 0)
            rows[i][j], rows[j][i] = str(-e), str(e)
    return AntisymmetricMatrix.from_rows(rows)


class TestChunks:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("size", [1, 5, 6, 7, 23, 24, 25, 150_000])
    def test_lex_order_and_block_size(self, n, size):
        blocks = list(_sn.chunks(n, size))
        assert all(b.dtype == np.int64 and 0 < len(b) <= size for b in blocks)
        rows = np.concatenate(blocks)
        assert rows.tolist() == [list(p) for p in permutations(range(n))]

    def test_sweep_frees_a_chunk_before_making_the_next(self, monkeypatch):
        # verify at n = 10 peaks with one chunk's arrays, not two: a chunk
        # that its consumer has let go of is freed before the next is made
        refs, alive = [], []

        def prefixes(*args):  # the next block's prefixes are taken first
            alive.append([ref() is not None for ref in refs])
            return islice(*args)

        monkeypatch.setattr(_sn, "islice", prefixes)
        *_, sweep = _sn.sweep(inversions_matrix(9))
        perms, inner = next(sweep)
        refs += [weakref.ref(perms.base), weakref.ref(inner)]
        del perms, inner
        next(sweep)
        assert alive == [[], [False, False]]

    @pytest.mark.parametrize("k", range(9))
    def test_array_built_s_k_in_lex_order(self, k):
        perms = _sn.lex_permutations(k)
        assert perms.dtype == np.int64 and perms.shape == (math.factorial(k), k)
        assert perms.tolist() == [list(p) for p in permutations(range(k))]


class TestSuffixTable:
    """table_inner, the sweep's kernel, against the per-position gather."""

    N = 6

    @pytest.fixture(params=["descents", "inversions", "rational", "near-limit"])
    def matrix(self, request):
        return _kernel_matrix(request.param, self.N)

    def test_random_moved_and_relabeled_rows(self, matrix):
        n = self.N
        mint, table, _ = _sn.sweep(matrix)
        assert table.shape == (n, 1 << n)
        rng = np.random.default_rng(5)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (500, 1)), axis=1)
        relabeling = exchangeability.relabel_table(descents_spec(n))
        batches = [perms]
        for i in range(n):
            batches.append(_sn.moved(perms, i))
            batches.append(relabel(relabeling, perms, i))
        for rows in batches:
            assert np.array_equal(_sn.table_inner(rows, table), inner_sums_gather(rows, mint))

    def test_sweep_inner_is_the_gather(self, matrix):
        mint, _, sweep = _sn.sweep(matrix)
        total = 0
        for perms, inner in sweep:
            assert np.array_equal(inner, inner_sums_gather(perms, mint))
            total += len(perms)
        assert total == math.factorial(self.N)

    def test_near_limit_is_at_the_limit(self):
        mint = _sn.integer_matrix(_near_limit_matrix(self.N))
        k = _largest_guarded_entry(self.N)
        assert mint[0, 1] == -k and np.abs(mint).max() == k
        with pytest.raises(ValueError, match="too large"):
            perm_core.check_int64_entries(self.N, np.array([[k + 1]], dtype=np.int64))


def _random_rational_matrix(n, seed):
    rng = np.random.default_rng(seed)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            rows[i][j], rows[j][i] = str(e), str(-e)
    return AntisymmetricMatrix.from_rows(rows)


class TestMovedAndRelabeledX:
    """moved_x, read from the rows' seen sets in sub-tiles, gives the X arrays
    of the row-copy oracle: every row moved at every position, and with a
    relabeling table relabeled there, and relabeled then moved.  Each
    built-in matrix also meets the other built-in's relabeling table, and a
    suffix table with one entry altered, where the identities the kernel
    serves fail."""

    @staticmethod
    def rows(n):
        if n <= 7:
            return np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
        rng = np.random.default_rng(n)
        return rng.permuted(np.tile(np.arange(n, dtype=np.int64), (2000, 1)), axis=1)

    @staticmethod
    def matrix(kind, n):
        if kind == "integer":
            return random_matrices(n, count=1)[0]
        if kind == "rational":
            return _random_rational_matrix(n, seed=n)
        return _kernel_matrix(kind, n)

    @staticmethod
    def joined_tiles(perms, inner, suffix, table=None):
        """moved_x's (moved, relabeled, relabeled then moved), its sub-tiles joined."""
        inn, *xs = zip(*_sn.moved_x(perms, inner, suffix, table))
        assert np.array_equal(np.concatenate(inn), inner)
        return [None if x[0] is None else np.concatenate(x) for x in xs]

    def assert_row_copies(self, perms, suffix, table):
        inner = _sn.table_inner(perms, suffix)
        moved, relabeled, then_moved = row_copy_x(perms, suffix, table)
        xm, x, x_moved = self.joined_tiles(perms, inner, suffix)
        assert xm.shape == perms.shape and np.array_equal(xm, moved)
        assert x is None and x_moved is None
        xm, x, x_moved = self.joined_tiles(perms, inner, suffix, table)
        assert np.array_equal(xm, moved)
        assert np.array_equal(x, relabeled) and np.array_equal(x_moved, then_moved)
        return xm, x, x_moved

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["descents", "inversions", "integer", "rational", "near-limit"])
    def test_equals_row_copies(self, kind, n):
        mint = _sn.integer_matrix(self.matrix(kind, n))
        suffix = _sn.suffix_table(mint)
        perms = self.rows(n)
        for spec in (descents_spec(n), inversions_spec(n)):
            self.assert_row_copies(perms, suffix, exchangeability.relabel_table(spec))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_own_table_swaps_pair_values(self, make, n):
        spec = make(n)
        mint = _sn.integer_matrix(spec.matrix)
        suffix = _sn.suffix_table(mint)
        perms = self.rows(n)
        inner = _sn.table_inner(perms, suffix)
        xm, xl, xlm = self.assert_row_copies(perms, suffix, exchangeability.relabel_table(spec))
        x = inner.sum(axis=1)[:, None]
        assert np.array_equal(xm, x - 2 * inner)
        assert np.array_equal(xl, xm) and bool((xlm == x).all())

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_altered_suffix_entry(self, n):
        mint = _sn.integer_matrix(inversions_matrix(n))
        suffix = _sn.suffix_table(mint)
        perms = self.rows(n)
        table = exchangeability.relabel_table(inversions_spec(n))
        clean = self.assert_row_copies(perms, suffix, table)
        rng = np.random.default_rng(n)
        for _ in range(4):
            v = int(rng.integers(n))
            seen = int(rng.integers(1 << n)) | 1 << v
            altered = suffix.copy()
            altered[v, seen] += 1
            # every (value, seen set) pair is met by some moved and some relabeled row
            for got, want in zip(self.assert_row_copies(perms, altered, table), clean):
                assert not np.array_equal(got, want)

    # the suffix entries' type at its int8 and int16 edges: the largest
    # absolute entry of the suffix table is the largest absolute row sum
    @pytest.mark.parametrize("bound, dtype", [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)])
    @pytest.mark.parametrize("form", ["dense", "banded"])
    def test_suffix_type_edges(self, bound, dtype, form):
        n = 7
        suffix = _sn.suffix_table(_sn.integer_matrix(_dtype_edge_matrix(n, bound, form)))
        assert int(np.abs(suffix).max()) == bound
        assert _sn.moved_x_types(suffix)[1] == dtype
        self.assert_row_copies(self.rows(n), suffix, exchangeability.relabel_table(inversions_spec(n)))

    # the sums' type at its edges: with M[0][1] = a <= b = M[1][2] and no
    # other entry, the largest |suffix[v, seen]| is a, b and b for v = 0, 1, 2
    @pytest.mark.parametrize("a, b, dtype", [
        (1, 63, np.int8), (2, 63, np.int16), (1, 16383, np.int16), (2, 16383, np.int32),
    ])
    def test_sum_type_edges(self, a, b, dtype):
        n = 7
        suffix = _sn.suffix_table(_sn.integer_matrix(_antisymmetric_matrix(n, {(0, 1): a, (1, 2): b})))
        assert int(np.abs(suffix).max(axis=1).sum()) == a + 2 * b
        assert _sn.moved_x_types(suffix)[2] == dtype
        for table in (exchangeability.relabel_table(descents_spec(n)), exchangeability.relabel_table(inversions_spec(n))):
            xs = self.assert_row_copies(self.rows(n), suffix, table)
            assert all(x.dtype == dtype for x in xs)
            assert max(int(np.abs(x).max()) for x in xs) == a + b

    # the keys' type at its edge, n 2^n - 1 = 22527 at n = 11 and 49151 at n = 12
    @pytest.mark.parametrize("n, dtype", [(11, np.int16), (12, np.int32)])
    def test_key_type_edge(self, n, dtype):
        suffix = _sn.suffix_table(_sn.integer_matrix(inversions_matrix(n)))
        assert _sn.moved_x_types(suffix)[0] == dtype
        perms = np.random.default_rng(n).permuted(np.tile(np.arange(n, dtype=np.int64), (300, 1)), axis=1)
        for make in (descents_spec, inversions_spec):
            self.assert_row_copies(perms, suffix, exchangeability.relabel_table(make(n)))

    # the built-ins' sums in int8 up to n = 13: B = n for descents, and for
    # inversions the sum over v of max(v, n - 1 - v), 120 at n = 13 and 140 at n = 14
    @pytest.mark.parametrize("n", range(1, 15))
    def test_builtin_sum_types(self, n):
        for make, dtype in ((descents_matrix, np.int8), (inversions_matrix, np.int8 if n <= 13 else np.int16)):
            suffix = _sn.suffix_table(_sn.integer_matrix(make(n)))
            assert _sn.moved_x_types(suffix)[1:] == (np.int8, dtype)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["descents", "inversions"]),
        scale=st.integers(1, 12),
    )
    def test_random_rows_and_matrices(self, n, seed, kind, scale):
        rng = np.random.default_rng(seed)
        m = random_antisymmetric_matrix(n, rng)
        m = AntisymmetricMatrix.from_rows([[e / scale for e in row] for row in m.entries])
        mint = _sn.integer_matrix(m)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (50, 1)), axis=1)
        table = exchangeability.relabel_table(descents_spec(n) if kind == "descents" else inversions_spec(n))
        self.assert_row_copies(perms, _sn.suffix_table(mint), table)


class TestChunkSize:
    """check_int64_entries refuses entries whose q_pi^2, or a sum a chunk of
    CHUNK rows keeps in int64, could leave int64; every chunk is a CHUNK-bounded block."""

    def test_near_limit_sweeps_in_one_chunk(self):
        n = 8
        *_, sweep = _sn.sweep(_near_limit_matrix(n))
        assert [len(perms) for perms, _ in sweep] == [math.factorial(n)]

    def test_near_limit_sweeps_in_full_chunks(self):
        # three prefixes of 8! rows each, as 4 * 8! > CHUNK
        *_, sweep = _sn.sweep(_near_limit_matrix(9))
        assert [len(perms) for perms, _ in sweep] == [3 * math.factorial(8)] * 3

    @pytest.mark.parametrize("n", [6, 8, 9])
    def test_near_limit_sums_in_python_ints(self, n):
        m = _near_limit_matrix(n)
        mint = _sn.integer_matrix(m)
        inner = inner_sums_gather(np.array(list(permutations(range(n))), dtype=np.int64), mint)
        inner = inner.astype(object)
        x = inner.sum(axis=1)
        q = 4 * (inner * inner).sum(axis=1)
        level_count, level_q = Counter(), Counter()
        for v, qv in zip(x.tolist(), q.tolist()):
            level_count[v] += 1
            level_q[v] += qv
        want = (
            x.sum(), (x * x).sum(), q.sum(), (q * q).sum(), 8 * (abs(inner) ** 3).sum(), abs(inner).max(),
            dict(level_count), dict(level_q),
        )
        assert (q * q).sum() > 1 << 63  # one int64 sum over all of S_n would wrap
        got = _swept(m)
        assert exact_sums_fields(got) == want

    @pytest.mark.parametrize("n", range(2, 41))
    def test_one_term_decides(self, n):
        # at the largest accepted K, n (2nK)^3 <= (4n (nK)^2)^2, so that term
        # never refuses alone, and a CHUNK-row chunk keeps its level sums of q
        # and its sum of |inner|^3 in int64
        k = _largest_guarded_entry(n)
        assert n * (2 * n * k) ** 3 <= (4 * n * (n * k) ** 2) ** 2 <= 1 << 62
        assert _sn.CHUNK * max(4 * n**3 * k**2, n**4 * k**3) <= 1 << 62


def _row_sum_limit_matrix(n):
    # negative upper entries; row 0 has absolute sum 2^62 - 1, the largest
    # integer_matrix accepts, and the other rows small entries besides
    limit = (1 << 62) - 1
    rng = np.random.default_rng(13)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = (limit // (n - 1) + (limit % (n - 1) if j == 1 else 0)) if i == 0 else int(rng.integers(0, 4))
            rows[i][j], rows[j][i] = str(-e), str(e)
    return AntisymmetricMatrix.from_rows(rows)


def _far_band_matrix(n):
    """An n x n integer matrix whose nonzero entries are the diagonals
    d = n // 2..n - 1, each entry 1 to 4 in absolute value and varying
    along its diagonal, positive on odd d and negative on even d."""
    u = np.arange(n, dtype=np.int16)[:, None]
    d = np.arange(n, dtype=np.int16) - u
    upper = np.where(d >= n // 2, ((7 * u + 3 * d) % 4 + 1) * (d % 2 * 2 - 1), 0).astype(np.int8)
    return AntisymmetricMatrix(tuple(map(tuple, (upper - upper.T).tolist())), 1)


def _banded_matrix(n):
    # random integer entries, some zero, on the two diagonals above the main one
    rng = np.random.default_rng(19)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(i + 3, n)):
            e = int(rng.integers(-5, 6))
            rows[i][j], rows[j][i] = str(e), str(-e)
    return AntisymmetricMatrix.from_rows(rows)


def _corner_matrix(n):
    # the only nonzero diagonal is d = n - 1: M[0][n - 1] = 3 = -M[n - 1][0]
    rows = [["0"] * n for _ in range(n)]
    if n > 1:
        rows[0][n - 1], rows[n - 1][0] = "3", "-3"
    return AntisymmetricMatrix.from_rows(rows)


def _antisymmetric_matrix(n, upper):
    """The n x n antisymmetric matrix with the strictly upper entries
    ``upper[(i, j)]``, every other entry above the diagonal zero."""
    rows = [["0"] * n for _ in range(n)]
    for (i, j), e in upper.items():
        rows[i][j], rows[j][i] = str(e), str(-e)
    return AntisymmetricMatrix.from_rows(rows)


def _dtype_edge_matrix(n, bound, form):
    """An n x n integer matrix whose largest absolute row sum is ``bound``:
    row 0 sums to +bound and row n - 1 to -bound, each over entries of one
    sign, and every other entry above the diagonal (``dense``, but for
    M[0][n - 1] = 0) or on the diagonals d = 1 and 2 (``banded``) is +-1."""
    rng = np.random.default_rng(bound + n)
    reach = n - 2 if form == "dense" else 2
    upper = {(i, j): int(rng.choice([-1, 1])) for i in range(n) for j in range(i + 1, min(i + reach + 1, n))}
    upper.pop((0, n - 1), None)  # in neither row 0's nor row n - 1's share
    # row 0 holds M[0][j] and row n - 1 holds -M[i][n - 1]
    for cells in ([(0, j) for j in range(1, reach + 1)], [(i, n - 1) for i in range(n - 1 - reach, n - 1)]):
        share, extra = divmod(bound, len(cells))
        for k, cell in enumerate(cells):
            upper[cell] = share + (k < extra)
    return _antisymmetric_matrix(n, upper)


def _kernel_matrix(kind, n):
    return {
        "descents": lambda: descents_matrix(n),
        "inversions": lambda: inversions_matrix(n),
        "banded": lambda: _banded_matrix(n),
        "corner": lambda: _corner_matrix(n),
        "zero": lambda: zero_matrix(n),
        "rational": lambda: AntisymmetricMatrix.from_rows(
            [[str(Fraction(j - i, 2 + (i + j) % 3)) for j in range(n)] for i in range(n)]
        ),
        "near-limit": lambda: _near_limit_matrix(n),
        "row-sum-limit": lambda: _row_sum_limit_matrix(n),
    }[kind]()


def _nonzero_offsets(mint):
    rows, cols = np.nonzero(np.triu(mint, 1))
    return sorted(set((cols - rows).tolist()))


class TestInnerSums:
    """inner_sums and both of its kernels, the running remainder and the
    value-space diagonal steps, against the per-position gather, for row
    counts around the sub-tile height, into int64 and into the kernel's
    narrow dtype."""

    KINDS = ["descents", "inversions", "banded", "corner", "zero", "rational", "row-sum-limit"]

    @staticmethod
    def _kernels(matrix):
        """The InnerKernel that banded_offsets picks, then one forced to
        each kernel: the remainder, and the diagonals over every offset
        with a nonzero entry."""
        kernels = [_sn.InnerKernel(matrix)]
        for offsets in (None, _nonzero_offsets(_sn.integer_matrix(matrix))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_sn, "banded_offsets", lambda m, rows, offsets=offsets: offsets)
                kernels.append(_sn.InnerKernel(matrix))
        return kernels

    @classmethod
    def _check(cls, matrix, rows):
        # keys as the draw makes them, and a permutation's positions
        mint = _sn.integer_matrix(matrix)
        n = matrix.n
        rng = np.random.default_rng(rows)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (rows, 1)), axis=1)
        drawn = rng.bit_generator.random_raw((rows, n)) >> (64 - _sn.KEY_BITS)
        cases = [
            (drawn, keyed_gather(drawn, mint)),
            (np.argsort(perms, axis=1), value_order(perms, inner_sums_gather(perms, mint))),
        ]
        for keys, want in cases:
            for kernel in cls._kernels(matrix):
                inner = _sn.inner_sums(keys, kernel)
                assert inner.dtype == np.int64 and inner.shape == (rows, n)
                assert np.array_equal(inner, want)
                narrow = np.empty((rows, n), dtype=kernel.dtype)
                assert _sn.inner_sums(keys, kernel, narrow) is narrow
                assert np.array_equal(narrow, want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("offset", ["0", "1", "B-1", "B", "B+1", "2B+3"])
    def test_row_counts_around_the_block_height(self, kind, n, offset):
        b = _sn.ROW_BLOCK_CELLS // n
        rows = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}[offset]
        self._check(_kernel_matrix(kind, n), rows)

    @pytest.mark.parametrize("kind, n, offsets", [
        ("descents", 50, [1]),
        ("descents", 200, [1]),
        ("banded", 7, [1, 2]),
        ("corner", 7, [6]),
        ("zero", 7, []),
        ("inversions", 7, None),
        ("inversions", 200, None),
        ("rational", 7, None),
        ("row-sum-limit", 7, None),
    ])
    def test_selection(self, kind, n, offsets, monkeypatch):
        matrix = _kernel_matrix(kind, n)
        assert _sn.banded_offsets(matrix, _sn.integer_matrix(matrix)) == offsets
        ran = []
        for name in ("remainder_sums", "diagonal_sums"):
            kernel = getattr(_sn, name)
            monkeypatch.setattr(
                _sn, name, lambda *args, name=name, kernel=kernel, **kw: ran.append(name) or kernel(*args, **kw)
            )
        _sn.inner_sums(np.tile(np.arange(n, dtype=np.int64), (3, 1)), _sn.InnerKernel(matrix))
        assert ran == ["remainder_sums" if offsets is None else "diagonal_sums"]

    def test_row_sum_limit_is_at_the_limit(self):
        mint = _sn.integer_matrix(_row_sum_limit_matrix(7))
        assert int(np.abs(mint).sum(axis=1).max()) == (1 << 62) - 1
        assert int(mint[0].sum()) == -((1 << 62) - 1)

    @pytest.mark.parametrize("kind", ["descents", "inversions", "banded", "rational", "row-sum-limit"])
    def test_ingredients_mc_equal_with_the_gather(self, kind, monkeypatch):
        spec = custom_spec(_kernel_matrix(kind, 9))
        want = ingredients_mc(spec, 3000, 17)

        mint = _sn.integer_matrix(spec.matrix)

        def gather(keys, kernel, out):
            out[:] = keyed_gather(keys, mint)

        monkeypatch.setattr(_sn, "inner_sums", gather)
        assert ingredients_mc(spec, 3000, 17) == want

    @pytest.mark.parametrize("bound, dtype", [
        (0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
        ((1 << 31) - 1, np.int32), (1 << 31, np.int64), ((1 << 62) - 1, np.int64),
    ])
    def test_narrowest_dtype_holds_the_largest_row_sum(self, bound, dtype):
        # row 0 has absolute sum ``bound``, split over two entries of
        # opposite sign; the other rows stay below it
        a = bound // 2
        matrix = _antisymmetric_matrix(3, {(0, 1): a, (0, 2): a - bound})
        assert int(np.abs(_sn.integer_matrix(matrix)).sum(axis=1).max()) == bound
        assert _sn.InnerKernel(matrix).dtype == dtype

    @pytest.mark.parametrize("kind, n, dtype", [
        ("descents", 200, np.int8), ("inversions", 200, np.int16), ("inversions", 128, np.int8),
        ("inversions", 129, np.int16), ("row-sum-limit", 7, np.int64),
    ])
    def test_builtin_dtypes(self, kind, n, dtype):
        assert _sn.InnerKernel(_kernel_matrix(kind, n)).dtype == dtype

    EDGES = [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)]
    # the type of the dense kernel's rows, running remainder and start and
    # low at each edge: the residue type, as wide as the kernel's dtype at
    # 127 and 32767 and narrower at 128 and 32768
    RESIDUES = {127: np.uint8, 128: np.uint8, 32767: np.uint16, 32768: np.uint16}

    @pytest.mark.parametrize("bound, dtype", EDGES)
    @pytest.mark.parametrize("form", ["dense", "banded"])
    def test_bound_arrays_in_the_kernel_dtype(self, bound, dtype, form):
        for kernel in self._kernels(_dtype_edge_matrix(7, bound, form)):
            assert kernel.dtype == dtype
            kw = kernel.fill.keywords
            if "rows" in kw:
                residue = self.RESIDUES[bound]
                assert kw["rows"].dtype == kw["start"].dtype == kw["low"].dtype == residue
                assert kw["codes"].dtype == np.uint64 and kw["codes"].shape == (kernel.height, 7)
            else:
                assert kw["below"].dtype == kw["weights"].dtype == dtype
                assert kw["below"].shape == (kernel.height * 7,)
                assert kw["weights"].shape == (len(kw["offsets"]), 7)

    @pytest.mark.parametrize("bound, residue", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32),
        ((1 << 32) - 1, np.uint32), (1 << 32, np.uint64), ((1 << 62) - 1, np.uint64),
    ])
    def test_residue_type(self, bound, residue):
        assert _sn.residue_type(bound) == residue

    @staticmethod
    def _stored(rows):
        """The type of the array that holds the dense kernel's ``rows``: the
        kernel's dtype where the residue type is as wide, the rows read
        through a view of it, else the residue type, into which they were
        copied."""
        return (rows if rows.base is None else rows.base).dtype

    # rows: the type that stores the residues, the kernel's own where as wide
    @pytest.mark.parametrize("n, dtype, rows", [
        (128, np.int8, np.int8), (129, np.int16, np.uint8), (200, np.int16, np.uint8), (256, np.int16, np.uint8),
        (257, np.int16, np.int16),
    ])
    def test_inversions_on_residues(self, n, dtype, rows):
        # the widest absolute row sum of inversions is n - 1
        kernel = _sn.InnerKernel(inversions_matrix(n))
        residues = kernel.fill.keywords["rows"]
        assert kernel.dtype == dtype and residues.dtype == _sn.residue_type(n - 1)
        assert self._stored(residues) == rows

    def test_weight_layout(self):
        # diagonal d as a length-n row: M[u][u + d] up to n - d, then zeros
        for matrix in (descents_matrix(50), AntisymmetricMatrix.from_rows(builtin_rows("descents", 50)),
                       _banded_matrix(9), _corner_matrix(7)):
            n, mint = matrix.n, _sn.integer_matrix(matrix)
            kw = _sn.InnerKernel(matrix).fill.keywords
            assert kw["offsets"] == _nonzero_offsets(mint)
            assert kw["weights"].shape == (len(kw["offsets"]), n)
            for d, weight in zip(kw["offsets"], kw["weights"]):
                assert np.array_equal(weight[: n - d], np.diagonal(mint, d)) and not weight[n - d :].any()

    # the widest rows that 8-, 16- and 32-bit residues hold, the first that
    # 8 and 32 bits do not, and the widest the draws accept, 2^62 - 1, whose
    # uint64 residues leave integers unless subtracted in out's type, against
    # the int64 gather, in sub-tiles of 1 row, of 7 and of all 62; rows is
    # the type that stores the residues
    @pytest.mark.parametrize("bound, dtype, rows", [
        (255, np.int16, np.uint8), (256, np.int16, np.int16), (65535, np.int32, np.uint16),
        ((1 << 32) - 1, np.int64, np.uint32), (1 << 32, np.int64, np.int64), ((1 << 62) - 1, np.int64, np.int64),
    ])
    @pytest.mark.parametrize("form", ["dense", "banded"])
    @pytest.mark.parametrize("height", [1, 7, 62])
    def test_residue_widths_equal_the_int64_oracle(self, bound, dtype, rows, form, height, monkeypatch):
        n = 40
        monkeypatch.setattr(_sn, "ROW_BLOCK_CELLS", height * n)
        matrix = _dtype_edge_matrix(n, bound, form)
        mint = _sn.integer_matrix(matrix)
        shuffled = np.random.default_rng(bound).permuted(np.tile(np.arange(n), (60, 1)), axis=1)
        perms = np.concatenate([[np.arange(n), np.arange(n)[::-1]], shuffled])
        want = inner_sums_gather(perms, mint)
        assert want.max() == bound and want.min() == -bound
        want = value_order(perms, want)
        positions = np.argsort(perms, axis=1)
        for kernel in self._kernels(matrix):
            assert kernel.dtype == dtype and kernel.height == height
            if "rows" in kernel.fill.keywords:
                residues = kernel.fill.keywords["rows"]
                assert residues.dtype == _sn.residue_type(bound) and self._stored(residues) == rows
            for keys in (positions, (1 << _sn.KEY_BITS) - n + positions.astype(np.uint64)):
                assert np.array_equal(_sn.inner_sums(keys, kernel), want)
                narrow = _sn.inner_sums(keys, kernel, np.empty(keys.shape, dtype=dtype))
                assert np.array_equal(narrow, want)

    # all of S_7 against the sweep's table, and wider rows against the
    # per-position gather; each set holds a row that puts value 0 first,
    # whose inner is +bound, and one that puts value n - 1 first, -bound
    @pytest.mark.parametrize("bound", [bound for bound, _ in EDGES])
    @pytest.mark.parametrize("form", ["dense", "banded"])
    @pytest.mark.parametrize("n", [7, 40])
    def test_kernels_at_the_dtype_edges_equal_the_int64_oracle(self, bound, form, n):
        matrix = _dtype_edge_matrix(n, bound, form)
        mint = _sn.integer_matrix(matrix)
        assert int(np.abs(mint).sum(axis=1).max()) == bound
        assert (_sn.banded_offsets(matrix, mint) is None) == (form == "dense")
        if n <= 10:
            perms = np.concatenate(list(_sn.chunks(n)))
            want = _sn.table_inner(perms, _sn.suffix_table(mint))
        else:
            shuffled = np.random.default_rng(bound).permuted(np.tile(np.arange(n), (60, 1)), axis=1)
            perms = np.concatenate([[np.arange(n), np.arange(n)[::-1]], shuffled])
            want = inner_sums_gather(perms, mint)
        assert want.dtype == np.int64 and want.max() == bound and want.min() == -bound
        # each row keyed by its positions, and by the top keys in the same order
        want = value_order(perms, want)
        positions = np.argsort(perms, axis=1)
        for keys in (positions, (1 << _sn.KEY_BITS) - n + positions.astype(np.uint64)):
            for kernel in self._kernels(matrix):
                assert np.array_equal(_sn.inner_sums(keys, kernel), want)
                narrow = _sn.inner_sums(keys, kernel, np.empty(keys.shape, dtype=kernel.dtype))
                assert np.array_equal(narrow, want)


class TestBuiltinWindow:
    """integer_matrix, banded_offsets, InnerKernel and checked_x_bound on a
    built-in read its window and its row summary, never its rows, and give
    what the defining rows give."""

    @pytest.mark.parametrize("kind", ["descents", "inversions"])
    def test_against_the_rows(self, kind):
        for n in BUILTIN_SIZES:
            m = spec_for(kind, n).matrix
            mint = _sn.integer_matrix(m)
            assert _sn.checked_x_bound(m) is m
            kernel = _sn.InnerKernel(m)
            assert "rows" not in vars(m)
            want = np.array(builtin_rows(kind, n), dtype=np.int64).reshape(n, n)
            assert m.scale == 1 and mint.dtype == np.int64 and mint.flags.c_contiguous and mint.flags.writeable
            assert np.array_equal(mint, want)
            # the per-diagonal loop over the array, the offsets of every nonzero entry
            rows_matrix = AntisymmetricMatrix.from_rows(builtin_rows(kind, n))
            offsets = _sn.banded_offsets(rows_matrix, want)
            assert _sn.banded_offsets(m, None) == offsets
            assert offsets == (_nonzero_offsets(want) if kind == "descents" or n < 3 else None)
            rows_kernel = _sn.InnerKernel(rows_matrix)
            assert kernel.dtype == rows_kernel.dtype
            assert kernel.fill.func is rows_kernel.fill.func

    # at each n, the kernel banded_offsets picks and each kernel forced
    @pytest.mark.parametrize("kind", ["descents", "inversions"])
    def test_same_draws_as_the_rows(self, kind):
        def drawn(kernel):  # one block of 300 draws: two sub-tiles at n = 200
            pick, tiles = _sn.draw(kernel, 300, np.random.default_rng(7))
            return pick, [(start, keys.copy(), inner.copy()) for start, keys, inner in tiles]

        for n in [*range(1, 61), 200]:
            kernels = TestInnerSums._kernels(spec_for(kind, n).matrix)
            rows_kernels = TestInnerSums._kernels(AntisymmetricMatrix.from_rows(builtin_rows(kind, n)))
            for kernel, rows_kernel in zip(kernels, rows_kernels, strict=True):
                assert kernel.fill.func is rows_kernel.fill.func
                pick, tiles = drawn(kernel)
                want_pick, want_tiles = drawn(rows_kernel)
                assert np.array_equal(pick, want_pick) and len(tiles) == len(want_tiles) == (2 if n == 200 else 1)
                for (start, keys, inner), (want_start, want_keys, want_inner) in zip(tiles, want_tiles):
                    assert start == want_start and np.array_equal(keys, want_keys)
                    assert np.array_equal(inner, want_inner) and inner.dtype == want_inner.dtype

    # the kernel holds no n x n array for descents and only its int16 rows
    # for inversions; an int64 array of L * M alone takes 72 MB at n = 3000.
    # A custom banded matrix on its far diagonals d = 1500..2999 holds its
    # int16 rows and D n = 1500 * 3000 int16 weights, where the diagonals
    # have only sum(n - d) = 1500 * 1501 / 2 cells.
    @pytest.mark.parametrize("kind, limit", [
        ("descents", 1 << 20), ("inversions", 2 * 3000**2 + (1 << 20)),
        ("far-band", 2 * 3000**2 + 2 * 1500 * 3000 + (1 << 20)),
    ])
    def test_memory_of_the_kernel_set_up(self, kind, limit):
        _sn.InnerKernel(spec_for("descents" if kind == "far-band" else kind, 5).matrix)  # numpy's first-use allocations
        m = _far_band_matrix(3000) if kind == "far-band" else spec_for(kind, 3000).matrix
        tracemalloc.start()
        try:
            kernel = _sn.InnerKernel(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind == "far-band":
            assert kernel.dtype == np.int16 and kernel.fill.keywords["weights"].shape == (1500, 3000)
        assert peak < limit


class TestRowSumGuard:
    """row_bound, the guard of integer_matrix and of the Monte Carlo kernel
    set-up, refuses a matrix whose partial row sums could leave int64."""

    @staticmethod
    def _matrix(a, b):
        return AntisymmetricMatrix.from_rows([["0", str(a), str(b)], [str(-a), "0", "1"], [str(-b), "-1", "0"]])

    def test_row_sum_at_2_62_refused(self):
        m = self._matrix(1 << 61, 1 << 61)
        with pytest.raises(ValueError, match="too large"):
            _sn.integer_matrix(m)
        with pytest.raises(ValueError, match="too large"):
            ingredients_mc(custom_spec(m), 10, 1)

    # at 2^63 signed_type finds no type, so the guard must run before it
    @pytest.mark.parametrize("half", [61, 62])
    def test_kernel_set_up_refuses_before_the_dtype(self, half):
        m = self._matrix(1 << half, 1 << half)
        for set_up in (_sn.InnerKernel, lambda m: _sn.draws(m, 10, 1)):
            with pytest.raises(ValueError, match="too large"):
                set_up(m)

    def test_row_sum_below_2_62_accepted(self):
        mint = _sn.integer_matrix(self._matrix(1 << 61, (1 << 61) - 1))
        assert int(mint[0].sum()) == (1 << 62) - 1


class TestDraws:
    """draws, the Monte Carlo kernel behind bounds --mode mc and sample,
    against the whole-tile draw of the oracle on each spawned child stream."""

    @staticmethod
    def _check(m, trials, seed):
        blocks = _sn.draws(m, trials, seed)
        mint, scale = _sn.integer_matrix(m), m.scale
        n = m.n
        dtype = _sn.InnerKernel(m).dtype
        small = np.min_scalar_type(n - 1)
        height = _sn.tile_height(n)
        sizes = []
        children = np.random.SeedSequence(seed).spawn(-(-trials // _sn.DRAW_BLOCK))
        for (pick, tiles), child in zip(blocks, children, strict=True):
            rows = len(pick)
            sizes.append(rows)
            perms, want_pick, want_pos, want = draw_whole_tile(mint, rows, np.random.Generator(np.random.PCG64(child)))
            assert np.array_equal(np.sort(perms, axis=1), np.tile(np.arange(n), (rows, 1)))
            kept = []
            xs, _, positions = _pairs(pick, _copied(tiles, kept))
            assert [start for start, _, _ in kept] == list(range(0, rows, height))
            for start, keys, inner in kept:
                h = min(height, rows - start)
                assert inner.shape == keys.shape == (h, n) and inner.dtype == dtype
                assert np.array_equal(inner, want[start : start + h])
                assert np.array_equal(np.argsort(keys, axis=1, kind="stable"), perms[start : start + h])
            inner = np.concatenate([inner for _, _, inner in kept])
            pos = np.array(positions) - 1
            assert pick.dtype == small and pos.shape == (rows,)
            assert all(isinstance(v, int) for v in xs + positions)
            assert xs == want.sum(axis=1).tolist()
            assert pick.max() < n and pos.max() < n
            assert np.array_equal(pick, want_pick)
            assert np.array_equal(pos, want_pos)
            assert np.array_equal(perms[np.arange(rows), pos], pick)
            assert np.array_equal(inner, want)
            assert np.array_equal(np.take_along_axis(inner, perms, axis=1), inner_sums_gather(perms, mint))
        assert sum(sizes) == trials and all(s <= _sn.DRAW_BLOCK for s in sizes)
        return scale, sizes

    @pytest.mark.parametrize("trials", [0, 1, 1 << 16, (1 << 17) + 5])
    def test_blocks(self, trials):
        scale, sizes = self._check(inversions_matrix(4), trials, 3)
        assert scale == 1
        assert len(sizes) == -(-trials // _sn.DRAW_BLOCK)

    def test_block_streams_are_the_spawned_children(self):
        _, sizes = self._check(descents_matrix(5), 2 * _sn.DRAW_BLOCK + 7, 12)
        assert sizes == [1 << 16, 1 << 16, 7]

    # sub-tiles of 1, 3 and 7 rows of n = 4 in blocks of 50, 50 and 7
    # rows, through both kernels: 3 and 7 do not divide 50
    @pytest.mark.parametrize("height", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["inversions", "descents", "banded", "rational"])
    def test_sub_tile_edges(self, height, kind, monkeypatch):
        monkeypatch.setattr(_sn, "ROW_BLOCK_CELLS", 4 * height + 3)
        monkeypatch.setattr(_sn, "DRAW_BLOCK", 50)
        assert _sn.tile_height(4) == height
        _, sizes = self._check(_kernel_matrix(kind, 4), 107, height)
        assert sizes == [50, 50, 7]

    def test_large_entries_refused_before_return(self):
        m = AntisymmetricMatrix.from_rows([["0", str(1 << 62), "1"], [str(-(1 << 62)), "0", "1"], ["-1", "-1", "0"]])
        with pytest.raises(ValueError, match="too large"):
            _sn.draws(m, 10, 1)

    def test_one_inner_buffer(self):
        # every sub-tile's inner is a view of one buffer of one sub-tile's
        # rows, and its keys are its own, which ingredients_mc overwrites
        (_, tiles), = _sn.draws(inversions_matrix(30), 5000, 1)
        views, keys = zip(*((inner, k) for _, k, inner in tiles))
        assert len(views) == -(-5000 // _sn.tile_height(30))
        assert views[0].base is not None and views[0].base.shape == (_sn.tile_height(30), 30)
        assert all(v.base is views[0].base for v in views)
        assert all(k.dtype == np.uint64 and k.flags.c_contiguous for k in keys)
        assert not any(np.shares_memory(a, b) for a, b in zip(keys, keys[1:]))

    def test_memory_of_one_full_block(self):
        # ingredients_mc on one full block of n = 50 rows keeps the narrow
        # inner, per-draw float vectors and cache-sized sub-tiles: about
        # 6 MiB traced, where four (65536, 50) int64 or float64 arrays
        # held at once took 52 MiB
        spec = descents_spec(50)
        ingredients_mc(spec, 100, 1)  # numpy's own first-use allocations
        tracemalloc.start()
        try:
            ingredients_mc(spec, 1 << 16, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_memory_of_one_full_inversions_block_at_n_200(self):
        # ingredients_mc reduces each int16 sub-tile as it is drawn, so no
        # (65536, 200) block is kept: about 4.6 MiB traced, where keeping
        # that block took 27 MiB
        spec = inversions_spec(200)
        ingredients_mc(spec, 100, 1)  # numpy's own first-use allocations
        tracemalloc.start()
        try:
            ingredients_mc(spec, 1 << 16, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _copied(tiles, kept):
    """``tiles`` of ``_sn.draw`` passed through, each sub-tile's
    (start, keys, inner) kept with a copy of its reused ``inner``."""
    for start, keys, inner in tiles:
        kept.append((start, keys, inner.copy()))
        yield start, keys, inner


def _pairs(pick, tiles):
    """:func:`pair_samples` of one block (pick, tiles), its sub-tiles' lists
    joined: (X, X', position) of every row."""
    cols = ([], [], [])
    for tile in pair_samples(pick, tiles):
        for col, part in zip(cols, tile):
            col.extend(part)
    return cols


class _TiedKeys:
    """A generator whose keys tie: each raw 64-bit draw is c 2^62 for
    c = floor(3 u), u a uniform of a seeded numpy generator, so every row
    of 4 or more values has a tie.  ``random`` makes (draw >> 11) 2^-53
    of the same draws, as numpy does; ``integers`` is the numpy
    generator's, and ``bit_generator.random_raw`` gives the raw draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.integers = self._rng.integers
        self.bit_generator = self
        self.drawn = []

    def random_raw(self, size=None):
        raw = np.floor(3 * self._rng.random(size)).astype(np.uint64) << np.uint64(62)
        self.drawn.append(raw)
        return raw

    def random(self, size=None):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53


class TestTiedKeys:
    """Draws whose keys tie: inner is the int64 gather, and the position
    that pair_samples ranks from the keys is V's place, of the order the
    keys define with ties broken by value index, for the kernel
    banded_offsets picks and for each kernel forced."""

    @pytest.mark.parametrize("kind", ["descents", "inversions", "banded", "corner", "rational"])
    @pytest.mark.parametrize("n", [2, 7])
    def test_index_order(self, kind, n, monkeypatch):
        monkeypatch.setattr(_sn, "ROW_BLOCK_CELLS", 13 * n)  # sub-tiles of 13 rows
        matrix = _kernel_matrix(kind, n)
        mint = _sn.integer_matrix(matrix)
        stub = _TiedKeys(n)
        perms, want_pick, want_pos, want = draw_whole_tile(mint, 400, stub)
        ranked = np.take_along_axis(stub.drawn[0], perms, axis=1)
        tie = ranked[:, 1:] == ranked[:, :-1]
        assert tie.any(axis=1).all() if n == 7 else 0 < tie.any(axis=1).sum() < 400
        assert (perms[:, 1:][tie] > perms[:, :-1][tie]).all()  # the lower index first
        for kernel in TestInnerSums._kernels(matrix):
            pick, tiles = _sn.draw(kernel, 400, _TiedKeys(n))
            kept = []
            xs, xps, positions = _pairs(pick, _copied(tiles, kept))
            inner = np.concatenate([inner for _, _, inner in kept])
            pos = np.array(positions) - 1
            assert len(kept) == -(-400 // 13)
            assert np.array_equal(pick, want_pick)
            assert np.array_equal(inner, want)
            assert np.array_equal(pos, want_pos)
            assert np.array_equal(perms[np.arange(400), pos], pick)
            assert positions == (want_pos + 1).tolist()
            x = want.sum(axis=1)
            assert [b - a for a, b in zip(xs, xps)] == (-2 * want[np.arange(400), pick]).tolist()
            assert xs == x.tolist()

    @pytest.mark.parametrize("kind", ["inversions", "banded"])
    def test_kernels_on_tied_keys(self, kind):
        # keys with one tie in some rows only, each broken by value index
        matrix = _kernel_matrix(kind, 6)
        mint = _sn.integer_matrix(matrix)
        keys = np.random.default_rng(2).integers(0, 1 << _sn.KEY_BITS, (50, 6), dtype=np.uint64)
        keys[::7, 4] = keys[::7, 1]
        for tile in (keys[1:7], keys):
            for kernel in TestInnerSums._kernels(matrix):
                assert np.array_equal(_sn.inner_sums(tile, kernel), keyed_gather(tile, mint))

    @pytest.mark.parametrize("n", [2, 3, 2047, 2048, 2049])
    def test_ordered_at_the_width_of_the_codes(self, n):
        # keys at the bottom, the middle and the top of the range below
        # 2^53, so most rows tie and a code too wide for 64 bits would lose
        # the top bit: up to n = 2048 the value index fills the low 11 bits
        # of each code, and wider rows take the stable argsort
        top = 1 << _sn.KEY_BITS
        spread = np.array([0, 1, top >> 1, (top >> 1) + 1, top - 2, top - 1], dtype=np.uint64)
        keys = np.random.default_rng(n).choice(spread, (5, n))
        keys[0] = top - 1
        order = _sn.ordered(keys)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, axis=1, kind="stable"))


def _swept(m):
    """The oracle: ``ExactSums.add`` over every chunk of the sweep."""
    *_, sweep = _sn.sweep(m)
    sums = _sn.ExactSums()
    for _, inner in sweep:
        sums.add(inner)
    return sums


_ENTRIES = {
    "integer": st.integers(-6, 6).map(Fraction),
    "rational": st.fractions(-8, 8, max_denominator=6),
    "negative": st.integers(-60, 0).map(Fraction),
}


@st.composite
def _small_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(entry)
            rows[i][j], rows[j][i] = str(e), str(-e)
    return AntisymmetricMatrix.from_rows(rows)


def _rational_matrix(n):
    # upper entries p/q, |p| <= 5, q in {1, 2, 3, 4, 6}: L = 12, as the benchmark's custom matrices
    rng = np.random.default_rng(9)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = Fraction(int(rng.integers(-5, 6)), int(rng.choice([1, 2, 3, 4, 6])))
            rows[i][j], rows[j][i] = str(e), str(-e)
    return AntisymmetricMatrix.from_rows(rows)


def _pair_matrix(n, entry):
    # one nonzero pair, M[0][1] = entry: X = +-entry, q_pi = 4 entry^2
    rows = [["0"] * n for _ in range(n)]
    rows[0][1], rows[1][0] = str(entry), str(-entry)
    return AntisymmetricMatrix.from_rows(rows)


def _drawn_matrix(n, values, seed, zero_row=None):
    """Upper entries drawn from ``values``, row and column ``zero_row`` all zero."""
    rng = np.random.default_rng(seed)
    return _antisymmetric_matrix(n, {
        (i, j): values[int(rng.integers(len(values)))]
        for i in range(n) for j in range(i + 1, n) if zero_row not in (i, j)
    })


def _layer_bounds(mint):
    """b_k, the largest sum of |L M_wu| over the pairs inside a k-set, by brute force."""
    n = mint.shape[0]
    a = np.abs(mint).tolist()
    within = [0] * (1 << n)
    for s in range(1, 1 << n):
        u = s.bit_length() - 1
        within[s] = within[s ^ (1 << u)] + sum(a[u][w] for w in range(u) if s >> w & 1)
    return [max(w for s, w in enumerate(within) if s.bit_count() == k) for k in range(n + 1)]


class TestTallies:
    """ExactSums.add and PairDistribution.add, which tally each sweep chunk
    by counting over its offset range of values, against the sort-based
    tallies, chunk by chunk; each gives the branches it took."""

    @staticmethod
    def _check(m, monkeypatch):
        *_, sweep = _sn.sweep(m)
        branches = set()
        for _, inner in sweep:
            want_sums, want_pairs = exact_sums_by_sort(inner), pair_counts_by_sort(inner)
            calls = []
            for name in ("bincount", "unique"):
                real = getattr(np, name)
                monkeypatch.setattr(np, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
            sums, pairs = _sn.ExactSums(), exchangeability.PairDistribution({}, m.scale)
            sums.add(inner)
            pairs.add(inner)
            monkeypatch.undo()
            branches.add(tuple(calls))
            assert exact_sums_fields(sums) == exact_sums_fields(want_sums)
            assert pairs.raw == want_pairs
        return branches

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("make", [descents_matrix, inversions_matrix])
    def test_builtins(self, make, n, monkeypatch):
        # from n = 5 on, X spans fewer values than S_n has rows, and the pairs
        # (X, X') fewer than S_n x {1..n} has: for inversions at n = 5, 21^2 < 600
        branches = self._check(make(n), monkeypatch)
        if n >= 5:
            assert branches == {("bincount", "bincount")}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_integer_and_rational_matrices(self, n, monkeypatch):
        for m in (*random_matrices(n, count=2), _random_rational_matrix(n, seed=n)):
            self._check(m, monkeypatch)

    def test_wide_rational_matrix_takes_unique(self, monkeypatch):
        # denominators 7, 11 and 13 (L = 1001) at n = 5: X spans far more
        # values than the 120 rows, and (X, X') more than their 600 pairs
        n = 5
        dens = [7, 11, 13]
        upper = {
            (i, j): Fraction((-1) ** (i + j) * (i + 2 * j), dens[(i + j) % 3]) for i in range(n) for j in range(i + 1, n)
        }
        m = _antisymmetric_matrix(n, upper)
        assert m.scale == 1001
        assert self._check(m, monkeypatch) == {("unique", "unique")}


class TestOnePassTally:
    """verify's one tally pass per sweep chunk, X summed once and shared by
    ExactSums.add and PairDistribution.add, against the two separate tallies
    that each summed X and keyed the pairs by (X, X') in int64."""

    @staticmethod
    def _check(m):
        *_, sweep = _sn.sweep(m)
        sums, pairs = _sn.ExactSums(), exchangeability.PairDistribution({}, m.scale)
        alone, want_sums, want_raw = _sn.ExactSums(), perm_core.ExactSums(), {}
        chunks = 0
        for _, inner in sweep:
            x = np.einsum("ij->i", inner)
            sums.add(inner, x)
            pairs.add(inner, x)
            alone.add(inner)  # X summed by the tally itself
            add_separately(inner, want_sums, want_raw)
            chunks += 1
        assert exact_sums_fields(sums) == exact_sums_fields(want_sums) == exact_sums_fields(alone)
        assert pairs.raw == want_raw
        assert pairs.total == m.n * math.factorial(m.n)
        return chunks

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("make", [descents_matrix, inversions_matrix])
    def test_builtins(self, make, n):
        assert self._check(make(n)) == 1

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_random_integer_and_rational_matrices(self, n):
        for m in (*random_matrices(n, count=2), _random_rational_matrix(n, seed=n), _rational_matrix(n)):
            self._check(m)

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_near_limit_matrix(self, n):
        # the int64 guard's largest entries: the widest keys the pairs can take
        self._check(_near_limit_matrix(n))

    @pytest.mark.parametrize("m", [descents_matrix(9), inversions_matrix(9), _rational_matrix(9)],
                             ids=["descents", "inversions", "rational"])
    def test_three_chunks_at_n_9(self, m):
        # 9! rows in three chunks of 120 960, each tallied on its own range
        assert _sn.CHUNK // math.factorial(8) * math.factorial(8) == 120_960
        assert self._check(m) == 3


class TestExactSums:
    """exact_sums, the prefix-set dynamic program behind exact bounds and
    dist --matrix, against ExactSums.add over the sweep."""

    @settings(max_examples=60, deadline=None)
    @given(m=_small_matrices())
    @example(m=_near_limit_matrix(6))  # the overflow guard's largest entries, on the DP side
    # the strategy stops at n = 8; the exact-bounds benchmark runs these at n = 9
    @example(m=descents_matrix(9))
    @example(m=inversions_matrix(9))
    @example(m=_rational_matrix(9))
    # the layers hold y on its class mod 2g, g the gcd of L M: g = 2, g = 3,
    # g = 1 from scaled entries 3, -2, 4, -6, 5, 1 (L = 6), a row of zeros,
    # n = 1 (no pair) and n = 2 (g = 4, y = +-4, both 4 mod 8)
    @example(m=_drawn_matrix(7, [-6, -4, -2, 2, 4, 6], 31))
    @example(m=_drawn_matrix(7, [-9, -6, -3, 0, 3, 9], 37))
    @example(m=_drawn_matrix(7, [Fraction(e) for e in ("1/2", "-1/3", "2/3", "-1", "5/6", "1/6")], 41))
    @example(m=_drawn_matrix(7, [-3, -1, 2, 4], 43, zero_row=3))
    @example(m=zero_matrix(1))
    @example(m=_pair_matrix(2, 4))
    def test_equals_the_sweep(self, m):
        want = _swept(m)
        dp = _sn.ExactSums()
        _sn.prefix_set_sums(m, _sn.residue_stride(m.rows), dp)
        assert exact_sums_fields(dp) == exact_sums_fields(want)
        assert exact_sums_fields(_sn.exact_sums(m, None)) == exact_sums_fields(want)

    @pytest.mark.parametrize("kind", ["descents", "inversions", "rational", "near-limit"])
    def test_no_rows_swept(self, kind, monkeypatch):
        def no_chunks(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(_sn, "chunks", no_chunks)
        # np.bitwise_count is numpy >= 2.0 only, and numpy 1.24 is supported
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        _sn.exact_sums(_kernel_matrix(kind, 6), None)

    def test_memory_of_the_residue_layers(self):
        # n = 12, entries in -12..12 (g = 1): the largest layer step holds the
        # padded source layer, the target layer and one slot's gather, each
        # (2, sets, width) int64, width c_k/2g + b_k // 2g + 1 with
        # c_k = 2g ceil(b_k / 2g), plus 1 MiB for the 2^n-long tables.  At
        # the full width 2 b_k + 1 the same three blocks alone take twice that.
        m = _drawn_matrix(12, list(range(-12, 13)), 12)
        mint = _sn.integer_matrix(m)
        n, b = 12, _layer_bounds(mint)
        stride = 2 * math.gcd(*mint.ravel().tolist())
        pad = int(np.abs(mint).sum(axis=1).max())

        def step_bytes(width, spread):
            return max(
                16 * (math.comb(n, k) * (width(k + 1) + spread) + 2 * math.comb(n, k + 1) * width(k + 1))
                for k in range(n)
            )

        bound = step_bytes(lambda k: -(-b[k] // stride) + b[k] // stride + 1, 2 * -(-pad // stride)) + (1 << 20)
        assert step_bytes(lambda k: 2 * b[k] + 1, 2 * pad) > bound
        _sn.prefix_set_sums(m, stride, _sn.ExactSums())  # numpy's own first-use allocations
        tracemalloc.start()
        try:
            _sn.prefix_set_sums(m, stride, _sn.ExactSums())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_row_sum_limit_refused_like_the_sweep(self):
        m = _row_sum_limit_matrix(5)
        with pytest.raises(ValueError, match="too large"):
            _sn.sweep(m)
        with pytest.raises(ValueError, match="too large"):
            _sn.exact_sums(m, None)

    def test_limit_checked_first(self):
        with pytest.raises(EnumerationLimitError):
            _sn.exact_sums(descents_matrix(11), None)
        with pytest.raises(EnumerationLimitError):
            _sn.exact_sums(descents_matrix(5), 4)

    @staticmethod
    def _wide_matrix():
        # entries +-600 at n = 9: B = 36 * 600 and g = 600, so no layer has
        # more than C(9, 4) (2 ceil(B / 1200) + 1) = 126 * 37 slots, where
        # the full width 2B + 1 would take 126 * 43201 > PREFIX_DP_CELLS
        rng = np.random.default_rng(8)
        n = 9
        rows = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                e = 600 * int(rng.choice([-1, 1]))
                rows[i][j], rows[j][i] = str(e), str(-e)
        return AntisymmetricMatrix.from_rows(rows)

    def test_wide_matrix_takes_the_program(self, monkeypatch):
        m = self._wide_matrix()
        want = _swept(m)

        def no_chunks(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(_sn, "chunks", no_chunks)
        assert 126 * 37 <= _sn.PREFIX_DP_CELLS < 126 * 43201
        assert exact_sums_fields(_sn.exact_sums(m, None)) == exact_sums_fields(want)
        assert len(want.level_count) == 19
        spec = custom_spec(m)
        assert ingredients_exact(spec) == stein_bounds.exact_ingredients(want, spec)
        # the count is exact: a cap of the layers' 126 * 37 slots still admits it
        monkeypatch.setattr(_sn, "PREFIX_DP_CELLS", 126 * 37)
        assert exact_sums_fields(_sn.exact_sums(m, None)) == exact_sums_fields(want)

    def test_wide_matrix_takes_the_sweep(self, monkeypatch):
        # a cap one below the layers' 126 * 37 slots sends the same matrix to the sweep
        m = self._wide_matrix()
        want = _swept(m)
        rows_swept = []
        original = _sn.chunks

        def counting_chunks(*args, **kwargs):
            for block in original(*args, **kwargs):
                rows_swept.append(len(block))
                yield block

        monkeypatch.setattr(_sn, "chunks", counting_chunks)
        monkeypatch.setattr(_sn, "PREFIX_DP_CELLS", 126 * 37 - 1)
        spec = custom_spec(m)
        assert ingredients_exact(spec) == stein_bounds.exact_ingredients(want, spec)
        dist = generic_distribution(m)
        assert dict(dist.support()) == dict(want.level_count)
        assert sum(rows_swept) == 2 * math.factorial(m.n)

    @pytest.mark.parametrize(
        "matrix, law, n",
        [(inversions_matrix, mahonian_distribution, 15), (descents_matrix, eulerian_distribution, 17)],
        ids=["inversions-15", "descents-17"],
    )
    def test_reach_against_the_recurrences(self, matrix, law, n, monkeypatch):
        # X = 2k - K, k the inversions or descents and K their largest value
        def no_chunks(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(_sn, "chunks", no_chunks)
        m = matrix(n)
        sums = _sn.exact_sums(m, n)
        counts = law(n).counts
        pairs = len(counts) - 1
        assert m.scale == 1
        assert dict(sums.level_count) == {2 * k - pairs: c for k, c in enumerate(counts)}
        assert sums.sum_x == 0
        assert sums.sum_q == 4 * math.factorial(n) * custom_spec(m).variance

    def test_q_guard_at_n_18(self, monkeypatch):
        # C(18, 9) (2B + 1) fits PREFIX_DP_CELLS for B <= 42, but with
        # M[0][1] = 10 the per-level sums of q could reach 18! * 800 > 2^62
        n, f = 18, math.factorial(18)
        sums = _sn.exact_sums(_pair_matrix(n, 9), n)
        assert dict(sums.level_count) == {-9: f // 2, 9: f // 2}
        assert sums.sum_q == 324 * f and sums.sum_q2 == 324**2 * f
        assert sums.sum_abs_d3 == 8 * 9**3 * f and sums.max_inner == 9

        def sweep_instead(*args, **kwargs):
            raise LookupError("sweep")

        monkeypatch.setattr(_sn, "chunks", sweep_instead)
        with pytest.raises(LookupError, match="sweep"):
            _sn.exact_sums(_pair_matrix(n, 10), n)
