"""Exchangeability of the pair (W, W') via value-relabeling bijections.

The pair is exchangeable whenever, on every subset S of remaining
values, a bijection Theta of S exists that flips the drift contribution
of each value (condition 1) and admits companion bijections Phi_i that
leave the matrix invariant on S minus a point (condition 2).  This
module builds the known Theta/Phi families for the two built-in
statistics, checks the two conditions for arbitrary matrices (one
subset at a time, or on every subset at once from a relabeling table),
and verifies exchangeability itself by exact enumeration, as the swap
symmetry of the integer counts of (L * X, L * X') in a PairDistribution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _sn
from ._sn import np
from .perm_core import (
    AntisymmetricMatrix,
    Permutation,
    StatisticKind,
    StatisticSpec,
)


def _sorted_set(s, n: int | None = None) -> tuple[int, ...]:
    out = tuple(sorted(s))
    if len(set(out)) != len(out):
        raise ValueError("set elements must be distinct")
    outside = [v for v in out if n is not None and not 1 <= v <= n]
    if outside:
        raise ValueError(f"set element {outside[0]} out of range 1..{n}")
    return out


def _runs(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Maximal runs of consecutive integers, on the ascending order."""
    runs: list[tuple[int, ...]] = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[k - 1] + 1:
            runs.append(values[start:k])
            start = k
    return runs


def theta(spec: StatisticSpec, s) -> dict[int, int]:
    """The value-flip bijection on S for a built-in statistic.

    Descents reverse each maximal run of consecutive integers;
    inversions reverse the whole set.

    >>> from .perm_core import descents_spec, inversions_spec
    >>> theta(descents_spec(7), {1, 2, 3, 5, 7})
    {1: 3, 2: 2, 3: 1, 5: 5, 7: 7}
    >>> theta(inversions_spec(7), {1, 2, 3, 5, 7})
    {1: 7, 2: 5, 3: 3, 5: 2, 7: 1}
    """
    values = _sorted_set(s, spec.n)
    if spec.kind == StatisticKind.DESCENTS:
        return {v: run[0] + run[-1] - v for run in _runs(values) for v in run}
    if spec.kind == StatisticKind.INVERSIONS:
        return dict(zip(values, reversed(values)))
    raise ValueError("no general value-flip recipe for a custom matrix; supply your own")


def phi(s, i: int, theta_i: int) -> dict[int, int]:
    """The order-preserving bijection S - {i} -> S - {theta_i}.

    >>> phi({1, 2, 3, 5, 7}, 1, 3)
    {2: 1, 3: 2, 5: 5, 7: 7}
    """
    values = _sorted_set(s)
    if i not in values:
        raise ValueError(f"{i} is not in the set")
    if theta_i not in values:
        raise ValueError(f"{theta_i} is not in the set")
    dom = [v for v in values if v != i]
    cod = [v for v in values if v != theta_i]
    return dict(zip(dom, cod))


def _phi_descents(values: tuple[int, ...], i: int) -> dict[int, int]:
    """Companion bijection for the run-reversal flip: translate the two
    pieces of i's run past each other, leave everything else in place.

    The order-preserving pairing does not keep the descent matrix
    invariant once a run has length 4 or more, so the within-run map
    must preserve consecutiveness instead of order.
    """
    mapping: dict[int, int] = {}
    for run in _runs(values):
        if i in run:
            r, s_end = run[0], run[-1]
            for v in run:
                if v < i:
                    mapping[v] = v + (s_end - i + 1)
                elif v > i:
                    mapping[v] = v - (i - r + 1)
        else:
            for v in run:
                mapping[v] = v
    return mapping


def builtin_phi(spec: StatisticSpec, s, i: int) -> dict[int, int]:
    """The matrix-preserving companion bijection for a built-in statistic."""
    values = _sorted_set(s, spec.n)
    if i not in values:
        raise ValueError(f"{i} is not in the set")
    if spec.kind == StatisticKind.DESCENTS:
        return _phi_descents(values, i)
    if spec.kind == StatisticKind.INVERSIONS:
        return phi(values, i, theta(spec, values)[i])
    raise ValueError("no general companion bijection for a custom matrix; supply your own")


def check_conditions(
    m: AntisymmetricMatrix,
    s,
    th: dict[int, int],
    phis=None,
) -> bool:
    """Whether (Theta, Phi) certify exchangeability on this subset.

    Condition 1: a - b, the row sum of M over S as M is antisymmetric,
    flips sign along Theta at every point.
    Condition 2: each Phi_i maps S - {i} to S - {Theta(i)} leaving the
    matrix entries invariant.  ``phis`` maps each i to its bijection;
    by default the order-preserving pairing is tried.  A Theta that is
    no bijection of S is refused; a Phi_i that is none fails.  This is
    the scalar Fraction reference for :func:`flip_conditions`, the array
    check over all subsets that ``verify`` runs.

    >>> from .perm_core import descents_matrix
    >>> check_conditions(descents_matrix(2), {1, 2}, {1: 1, 2: 2})
    False
    """
    values = list(_sorted_set(s, m.n))
    if sorted(th) != values or sorted(th.values()) != values:
        raise ValueError("the bijection must map the set onto itself")
    rows = m.rows
    row_sum = {i: sum(rows[i - 1][j - 1] for j in values) for i in values}
    if any(row_sum[i] != -row_sum[th[i]] for i in values):
        return False
    for i in values:
        f = phis(i) if phis is not None else phi(values, i, th[i])
        dom = [v for v in values if v != i]
        cod = [v for v in values if v != th[i]]
        if sorted(f) != dom or sorted(f.values()) != cod:
            return False
        for j in dom:
            for k in dom:
                if rows[j - 1][k - 1] != rows[f[j] - 1][f[k] - 1]:
                    return False
    return True


def lambda_map(spec: StatisticSpec, p: Permutation, i: int) -> Permutation:
    """Relabel values at and after position i by Theta and Phi.

    The prefix is untouched, position i gets Theta of its value, and
    every later position gets Phi of its value; the image stays in the
    same prefix coset.

    >>> from .perm_core import descents_spec, inversions_spec
    >>> lambda_map(descents_spec(7), Permutation((6, 4, 1, 5, 3, 2, 7)), 3).image
    (6, 4, 3, 5, 2, 1, 7)
    >>> lambda_map(inversions_spec(7), Permutation((6, 4, 1, 5, 3, 2, 7)), 3).image
    (6, 4, 7, 3, 2, 1, 5)
    """
    n = p.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    remaining = set(range(1, n + 1)) - set(p.image[: i - 1])
    v = p.image[i - 1]
    th = theta(spec, remaining)
    f = builtin_phi(spec, remaining, v)
    out = list(p.image)
    out[i - 1] = th[v]
    for j in range(i, n):
        out[j] = f[p.image[j]]
    return Permutation(tuple(out))


def _member_bits(n: int) -> np.ndarray:
    """bits[mask, v]: whether the 0-indexed value v is in the bitmask."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def relabel_table(spec: StatisticSpec) -> np.ndarray:
    """:func:`lambda_map` for a built-in statistic as a lookup table.

    On 0-indexed values: when the values from position i on form the
    set with bitmask ``mask`` and position i holds v, a value u there
    becomes ``table[mask, v, u]``, Theta(v) for u = v and Phi(u) else;
    entries with u or v outside the mask are 0.  Built for all masks at
    once from the member ranks (inversions) or run bounds (descents).
    """
    n = spec.n
    bits = _member_bits(n)
    u = np.arange(n)
    if spec.kind == StatisticKind.INVERSIONS:
        # rank[mask, u]: members below u; select[mask, r]: the member of rank r
        rank = np.cumsum(bits, axis=1) - bits
        select = np.zeros_like(rank)
        rows, members = np.nonzero(bits)
        select[rows, rank[rows, members]] = members
        # Theta reverses the ranks; Phi sends u of rank r in S - {v} to the member of rank r in S - {Theta(v)}
        th = np.take_along_axis(select, bits.sum(axis=1, keepdims=True) - 1 - rank, axis=1)
        other = (np.arange(1 << n)[:, None] ^ 1 << th) * n  # the row of S - {Theta(v)}; -1 off the members wraps
        table = select.take(other[:, :, None] + rank[:, None, :] - (u > u[:, None]))
    elif spec.kind == StatisticKind.DESCENTS:
        # lo and hi bound the run of consecutive members through each value
        masks = np.arange(1 << n)[:, None]
        lo = np.maximum.accumulate(np.where((masks & ~(masks << 1)) >> u & 1, u, 0), axis=1)
        hi = np.minimum.accumulate(np.where((masks & ~(masks >> 1)) >> u & 1, u, n)[:, ::-1], axis=1)[:, ::-1]
        # Theta reverses v's run; Phi swaps its pieces below and above v
        turned = lo[:, :, None] + (u - u[:, None] - (u > u[:, None])) % (hi - lo + 1)[:, :, None]
        table = np.where(lo[:, None, :] == lo[:, :, None], turned, u)
        th = lo + hi - u
    else:
        raise ValueError("no general value-flip recipe for a custom matrix; supply your own")
    table[:, u, u] = th
    inside = bits[:, :, None] & bits[:, None, :]
    return np.where(inside, table, 0).astype(np.int64, copy=False)


def flip_conditions(mint: np.ndarray, suffix: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`check_conditions` on every value subset at once, one verdict per mask.

    ``mint`` is the integer matrix L * M (L > 0), ``suffix`` its
    ``_sn.suffix_table`` and ``table`` a :func:`relabel_table`: Theta_S(v) =
    ``table[S, v, v]`` and Phi_v the rest of row ``table[S, v]``.  As M is
    antisymmetric, a_v - b_v is the row sum of M over S, so condition 1
    reads inside[v, S] == -inside[Theta_S(v), S].  Condition 2 asks Phi_v
    to map S - {v} onto S - {Theta_S(v)} and keep every entry of M between
    its points.  A Theta that is no bijection of S fails its mask.
    The checks run on f[u, S, v] = table[S, v, u], reducing along u first.
    """
    n = mint.shape[0]
    bits = _member_bits(n)
    masks = np.arange(1 << n)
    values = np.arange(n)
    # an entry outside [0, n) reads as n, a bit no mask holds, so a bijection
    # check fails it; a Theta of n reads inside at n - 1 for condition 1
    f = np.where((table >= 0) & (table < n), table, n).transpose(2, 0, 1).copy()
    th = f[values, :, values].T
    inside = suffix[:, ::-1].T  # inside[S, v] = sum of M[v][u] over u in S
    ok_v = inside == -inside[masks[:, None], np.minimum(th, n - 1)]
    # Phi_v on S - {v}: onto S - {Theta(v)}, keeping every entry of M
    dom = bits.T[:, :, None] & bits & (values[:, None, None] != values)
    ok_v &= np.bitwise_or.reduce(np.where(dom, 1 << f, 0)) == (masks[:, None] & ~(1 << th))
    # same[a, j, b, k]: whether M[a][b] == M[j][k], true where a or b is n;
    # g = a n + j reads a = n off S - {v}, so only pairs inside it can fail
    same = np.ones((n + 1, n, n + 1, n), dtype=bool)
    same[:n, :, :n] = mint[:, None, :, None] == mint[:, None, :]
    g = np.where(dom, f * n, n * n) + values[:, None, None]
    ok_v &= same.take(g[:, None] * ((n + 1) * n) + g).all(axis=(0, 1))
    return np.all(ok_v | ~bits, axis=1) & (np.bitwise_or.reduce(np.where(bits, 1 << th, 0), axis=1) == masks)


class PairDistribution(NamedTuple):
    """Exact joint counts of (X, X') over S_n x {1..n}: ``raw`` counts the
    integer pairs (L * X, L * X'), fed one sweep chunk at a time by
    :meth:`add`, and ``scale`` is L; ``counts`` keys them by (X, X')."""

    raw: dict[tuple[int, int], int]
    scale: int

    @property
    def counts(self) -> dict[tuple[Fraction, Fraction], int]:
        return {(Fraction(a, self.scale), Fraction(b, self.scale)): c for (a, b), c in self.raw.items()}

    @property
    def total(self) -> int:
        return sum(self.raw.values())

    def add(self, inner: np.ndarray, x: np.ndarray | None = None) -> None:
        """Add the pairs of one chunk of a sweep, its int64 ``inner`` and its X
        (the row sums of ``inner`` if None), X' = X - 2 inner: one key (X - lo)
        span + inner - low per pair, lo and low the least X and inner and span
        the range of inner, tallied by ``_sn.tally``.  Keys are below 2 n^3 K^2
        <= 2^30 (K the largest |entry|, ``perm_core.check_int64_entries``), and
        made in the narrowest type that holds the largest, as are their terms."""
        x = np.einsum("ij->i", inner) if x is None else x
        lo, low = int(x.min()), int(inner.min())
        span = int(inner.max()) - low + 1
        start = (x - lo) * span - low
        keys = np.add(inner, start[:, None], dtype=_sn.signed_type(int(start.max()) + span), casting="unsafe")
        found, cnt = _sn.tally(keys.ravel())
        xs, at = np.divmod(found, span, dtype=np.int64)
        xs += lo
        for pair, c in zip(zip(xs.tolist(), (xs - 2 * (at + low)).tolist()), cnt.tolist()):
            self.raw[pair] = self.raw.get(pair, 0) + c

    def probability(self, x: Fraction, x_prime: Fraction) -> Fraction:
        key = (Fraction(x) * self.scale, Fraction(x_prime) * self.scale)
        return Fraction(self.raw.get(key, 0), self.total)

    def swap_symmetric(self) -> bool:
        """Whether (X, X') and (X', X) have the same law."""
        return all(self.raw.get((b, a), 0) == c for (a, b), c in self.raw.items())


def joint_distribution(m: AntisymmetricMatrix, n: int, limit: int | None = None) -> PairDistribution:
    """Enumerate S_n x {1..n} and tally the unnormalized pair values."""
    if m.n != n:
        raise ValueError(f"matrix is {m.n}x{m.n}, expected {n}x{n}")
    *_, sweep = _sn.sweep(m, limit)
    dist = PairDistribution({}, m.scale)
    for _, inner in sweep:
        dist.add(inner)
    return dist


def is_exchangeable(m: AntisymmetricMatrix, n: int, limit: int | None = None) -> bool:
    """Exact swap-symmetry of the joint (X, X') counts."""
    return joint_distribution(m, n, limit).swap_symmetric()
