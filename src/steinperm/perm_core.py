"""Permutations of {1..n} and the antisymmetric-matrix statistic family.

An antisymmetric rational matrix M attaches to every permutation p of
{1..n} the statistic

    X(p) = sum over position pairs i < j of M[p(i)][p(j)],

which has mean zero under the uniform distribution on the symmetric
group.  Two built-in matrices turn X into an affine image of a classical
statistic of the inverse permutation:

* ``descents_matrix(n)``:   X(p) = 2 * descent_count(inverse(p)) - (n - 1)
* ``inversions_matrix(n)``: X(p) = 2 * inversion_count(inverse(p)) - n(n-1)/2

A matrix is stored once, as L * M in Python ints together with L, the lcm
of its reduced entry denominators; :data:`BUILTINS` gives each built-in's
matrix builder and closed-form Var X.  This module imports no other module
of the package.  Everything in it is exact.  Statistics and variances are
``fractions.Fraction`` values; floats appear only in downstream modules.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

DEFAULT_ENUM_LIMIT = 10
TOO_LARGE = "matrix entries too large for exact int64 arithmetic"

_ENTRY_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class EnumerationLimitError(ValueError):
    """Raised when a full S_n enumeration is requested beyond the limit."""


class MatrixFormatError(ValueError):
    """Raised for malformed or non-antisymmetric matrix input."""


class Frozen:
    """Fields set once, by ``__init__`` through :meth:`_set`, and read-only
    after, with the equality, hash and repr of a frozen dataclass over
    ``_fields``.  A cached_property writes its value to ``vars(self)``."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        vars(self).update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(Frozen):
    """A permutation of {1..n} in one-line notation.

    ``image[k]`` is the value at position k+1; positions and values are
    both 1-indexed in the public interface.

    >>> p = Permutation((6, 4, 1, 5, 3, 2, 7))
    >>> p(3), p.n
    (1, 7)
    """

    _fields = ("image",)

    def __init__(self, image: tuple[int, ...]) -> None:
        n = len(image)
        try:
            ints = tuple(map(operator.index, image))
        except TypeError:
            ints = ()
        if sorted(ints) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image!r}")
        self._set(ints)

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, position: int) -> int:
        if not 1 <= position <= self.n:
            raise ValueError(f"position {position} out of range 1..{self.n}")
        return self.image[position - 1]


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse(Permutation((6, 4, 1, 5, 3, 2, 7))).image
    (3, 6, 5, 2, 4, 1, 7)
    """
    out = [0] * p.n
    for pos, val in enumerate(p.image, start=1):
        out[val - 1] = pos
    return Permutation(tuple(out))


def descent_count(p: Permutation) -> int:
    """Number of positions i with p(i) > p(i+1).

    >>> descent_count(Permutation((3, 6, 5, 2, 4, 1, 7)))
    3
    """
    img = p.image
    return sum(1 for i in range(p.n - 1) if img[i] > img[i + 1])


def inversion_count(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j).

    >>> inversion_count(Permutation((3, 6, 5, 2, 4, 1, 7)))
    11
    """
    img = p.image
    n = p.n
    return sum(1 for i in range(n) for j in range(i + 1, n) if img[i] > img[j])


class AntisymmetricMatrix(Frozen):
    """A rational matrix with M[j][i] = -M[i][j] (hence zero diagonal).

    Stored once: ``rows`` is L * M as tuples of Python ints and ``scale``
    is L, the lcm of the reduced entry denominators, so equal matrices
    have equal fields.  Indexed 1..n through :meth:`entry`.  Construct
    through :meth:`from_rows` (validating, from Fractions, ints or
    strings) or one of the module-level builders, which produce valid
    integer rows with L = 1 by construction.

    A built-in is kept as its Toeplitz ``window`` of 2n + 1 ints, with
    M[i][i + d] = window[n + d], and builds ``rows`` only when they are
    first read: by the scalar Fraction paths, :attr:`entries`, equality,
    hash and repr.  ``window`` is None for every other matrix.
    """

    _fields = ("rows", "scale")

    def __init__(
        self, rows: tuple[tuple[int, ...], ...] | None, scale: int, window: tuple[int, ...] | None = None
    ) -> None:
        vars(self).update(n=len(rows) if window is None else len(window) // 2, scale=scale, window=window)
        if window is None:
            vars(self)["rows"] = rows

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row i (0-indexed) of a built-in is the slice window[n - i : 2n - i]."""
        n, window = self.n, self.window
        return tuple(window[n - i : 2 * n - i] for i in range(n))

    def _values(self) -> tuple:
        return self.rows, self.scale

    @cached_property
    def row_sums(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(sum, absolute sum) of each row of L * M, summed over ``rows``,
        or for a built-in the differences of prefix sums over its window."""
        if self.window is None:
            return tuple(map(sum, self.rows)), tuple(sum(map(abs, row)) for row in self.rows)
        n, window = self.n, self.window
        out = []
        for w in (window, map(abs, window)):  # row i is window[n - i : 2n - i]
            prefix = tuple(accumulate(w, initial=0))
            out.append(tuple(map(operator.sub, prefix[2 * n : n : -1], prefix[n:0:-1])))
        return tuple(out)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i - 1][j - 1], self.scale)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """M as rows of Fractions, built on each read."""
        return tuple(tuple(Fraction(e, self.scale) for e in row) for row in self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "AntisymmetricMatrix":
        n = len(rows)
        conv = []
        for row in rows:
            if len(row) != n:
                raise MatrixFormatError(f"matrix is not square: {n} rows, a row of length {len(row)}")
            conv.append([Fraction(e) for e in row])
        scale = math.lcm(*(e.denominator for row in conv for e in row))
        ints = tuple(tuple(e.numerator * (scale // e.denominator) for e in row) for row in conv)
        for i in range(n):
            for j in range(i, n):
                if ints[i][j] != -ints[j][i]:
                    raise MatrixFormatError(
                        f"matrix is not antisymmetric at (i, j) = ({i + 1}, {j + 1}): "
                        f"entry {conv[i][j]} vs {conv[j][i]}"
                    )
        return cls(ints, scale)


def zero_matrix(n: int) -> AntisymmetricMatrix:
    return AntisymmetricMatrix(((0,) * n,) * n, 1)


def descents_matrix(n: int) -> AntisymmetricMatrix:
    """M[i][i+1] = -1 and M[i+1][i] = +1, zero elsewhere."""
    # window[n - 1] = 1 and window[n + 1] = -1, all 2n + 1 slots from n = 0 on
    return AntisymmetricMatrix(None, 1, ((0,) * n + (1, 0, -1) + (0,) * n)[1:-1])


def inversions_matrix(n: int) -> AntisymmetricMatrix:
    """M[i][j] = -1 for i < j and +1 for i > j."""
    return AntisymmetricMatrix(None, 1, (1,) * n + (0,) + (-1,) * n)


class StatisticKind(str, Enum):
    DESCENTS = "descents"
    INVERSIONS = "inversions"
    CUSTOM = "custom"


class Builtin(NamedTuple):
    """A built-in statistic: the builder of its matrix and its closed-form Var X, for an n."""

    matrix: Callable[[int], AntisymmetricMatrix]
    variance: Callable[[int], Fraction]


# Var X = 4 Var count: Var des = (n + 1)/12 from n = 2 (0 at n = 1); inv is a sum of uniforms on {0..i-1}
BUILTINS = {
    StatisticKind.DESCENTS: Builtin(descents_matrix, lambda n: Fraction(n + 1, 3) if n > 1 else Fraction(0)),
    StatisticKind.INVERSIONS: Builtin(inversions_matrix, lambda n: Fraction(n * (n - 1) * (2 * n + 5), 18)),
}


class StatisticSpec(Frozen):
    """A statistic X(p) = sum_{i<j} M[p(i)][p(j)] given by its matrix.

    A built-in kind's matrix holds its window, from which it builds its
    rows when a path that reads them, such as :func:`x_stat`, first asks.
    """

    _fields = ("kind", "matrix")

    def __init__(self, kind: StatisticKind, matrix: AntisymmetricMatrix) -> None:
        self._set(kind, matrix)

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def variance(self) -> Fraction:
        """Exact Var(X), computed once: a built-in's closed form from
        :data:`BUILTINS`, else :func:`variance_formula`; zero leaves W undefined.

        >>> descents_spec(7).variance
        Fraction(8, 3)
        """
        builtin = BUILTINS.get(self.kind)
        var = variance_formula(self.matrix).variance if builtin is None else builtin.variance(self.n)
        if var <= 0:
            raise ValueError("statistic has zero variance; W is undefined")
        return var


def descents_spec(n: int) -> StatisticSpec:
    return spec_for(StatisticKind.DESCENTS, n)


def inversions_spec(n: int) -> StatisticSpec:
    return spec_for(StatisticKind.INVERSIONS, n)


def custom_spec(matrix: AntisymmetricMatrix) -> StatisticSpec:
    return StatisticSpec(StatisticKind.CUSTOM, matrix)


def spec_for(kind: StatisticKind | str, n: int) -> StatisticSpec:
    kind = StatisticKind(kind)
    if kind not in BUILTINS:
        raise ValueError("a custom statistic needs an explicit matrix")
    return StatisticSpec(kind, BUILTINS[kind].matrix(n))


def x_stat(spec: StatisticSpec, p: Permutation) -> Fraction:
    """X(p) = sum over position pairs i < j of M[p(i)][p(j)].

    >>> x_stat(descents_spec(7), Permutation((6, 4, 1, 5, 3, 2, 7)))
    Fraction(0, 1)
    """
    if p.n != spec.n:
        raise ValueError(f"permutation size {p.n} does not match matrix size {spec.n}")
    rows = spec.matrix.rows
    img = p.image
    total = 0
    for i, u in enumerate(img):
        row = rows[u - 1]
        total += sum(row[v - 1] for v in img[i + 1 :])
    return Fraction(total, spec.matrix.scale)


class VarianceBreakdown(NamedTuple):
    """Var(X) = (sum_sq + row_balance) / 3 split into its two pieces.

    ``a[i]`` is the upper row sum A_i = sum_{j>i} M[i][j], ``b[i]`` the
    column sum B_i = sum_{h<i} M[h][i]; row_balance = sum_i (A_i - B_i)^2
    and sum_sq = sum_{i<j} M[i][j]^2.
    """

    sum_sq: Fraction
    row_balance: Fraction
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    variance: Fraction


def variance_formula(m: AntisymmetricMatrix) -> VarianceBreakdown:
    """Exact Var(X) under the uniform distribution, from the matrix alone.

    >>> variance_formula(descents_matrix(7)).variance
    Fraction(8, 3)
    >>> variance_formula(inversions_matrix(3)).variance
    Fraction(11, 3)
    """
    rows, scale = m.rows, m.scale
    # A_i - B_i is the row sum (antisymmetry); each pair i < j is squared twice
    row_sums = m.row_sums[0]
    a = [sum(row[i + 1 :]) for i, row in enumerate(rows)]
    half_sq = sum(e * e for row in rows for e in row) // 2
    balance = sum(r * r for r in row_sums)
    return VarianceBreakdown(
        Fraction(half_sq, scale**2),
        Fraction(balance, scale**2),
        tuple(Fraction(ai, scale) for ai in a),
        tuple(Fraction(ai - r, scale) for ai, r in zip(a, row_sums)),
        Fraction(half_sq + balance, 3 * scale**2),
    )


class ExactSums:
    """Exact integer sums over S_n x {1..n}, on the scaled integer matrix L * M.

    With inner_i = sum_{j > i} L M[p(i)][p(j)], the suffix sum at position
    i: X = sum_i inner_i, the step moving position i to the end has
    X' - X = -2 inner_i, and q_pi = sum_i (X' - X)^2.  The level sets of X
    are kept sparse as counts (``level_count``) and sums of q_pi
    (``level_q``) by value, and the read-only ``sum_x``, ``sum_x2`` and
    ``sum_q``, the sums of X, X^2 and q_pi over S_n, are read off them.
    ``sum_q2`` sums q_pi^2 over S_n, ``sum_abs_d3`` sums |X' - X|^3 over
    S_n x {1..n} and ``max_inner`` is the largest |inner_i|.
    ``_sn.ExactSums`` fills them from a sweep and ``exact_dist.RECURRENCES``
    from the built-ins' recurrences.
    """

    def __init__(self) -> None:
        self.sum_q2 = self.sum_abs_d3 = self.max_inner = 0
        self.level_count: Counter[int] = Counter()
        self.level_q: Counter[int] = Counter()

    @property
    def sum_x(self) -> int:
        return sum(x * c for x, c in self.level_count.items())

    @property
    def sum_x2(self) -> int:
        return sum(x * x * c for x, c in self.level_count.items())

    @property
    def sum_q(self) -> int:
        return sum(self.level_q.values())


def check_int64_entries(n: int, rows) -> int:
    """K = max |entry| of ``rows``, L * M of an n x n matrix as an array or
    as rows of Python ints, refused where (4n (nK)^2)^2 exceeds 2^62, so
    that the exact sweep's int64 sums cannot overflow.

    Every suffix sum is a partial row sum, |inner_i| <= (n - 1) K < nK, so
    per row q_pi = 4 sum_i inner_i^2 <= 4n^3 K^2 <= 2^31 and q_pi^2 <= 2^62.
    Accepted entries have n^3 K^2 <= 2^29, so nK <= 2^14.5 and
    sum_i |inner_i|^3 <= n^4 K^3 <= 2^43.5.  A chunk of ``_sn.CHUNK`` =
    150 000 < 2^17.2 rows then keeps each level's sum of q below 2^48.2 and
    its sum of |inner|^3 at most CHUNK n^4 K^3 < 2^60.7, both in int64."""
    k = max((abs(int(e)) for row in rows for e in row), default=0)
    if (4 * n * (n * k) ** 2) ** 2 > 1 << 62:
        raise ValueError(TOO_LARGE)
    return k


def check_enum_limit(n: int, limit: int | None = None) -> int:
    lim = DEFAULT_ENUM_LIMIT if limit is None else limit
    if n > lim:
        raise EnumerationLimitError(
            f"full enumeration of S_{n} exceeds the limit {lim}; "
            "raise the limit explicitly to proceed"
        )
    return n


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _ENTRY_RE.match(text):
        raise MatrixFormatError(f"not an integer or p/q rational literal: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(_int_literal(num), _int_literal(den or "1"))


def _int_literal(text: str) -> int:
    """int(text) of a decimal literal, refused by name past Python's int-string limit."""
    try:
        return int(text)
    except ValueError:  # the only failure left for a literal the pattern or json accepted
        raise MatrixFormatError(
            f"entry literal has a {len(text.lstrip('+-'))}-digit integer, over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for int-string conversion"
        ) from None


def matrix_to_json_dict(m: AntisymmetricMatrix) -> dict:
    return {
        "n": m.n,
        "entries": [[str(e) for e in row] for row in m.entries],
    }


def matrix_from_json_dict(data: dict) -> AntisymmetricMatrix:
    """Parse {"n": int, "entries": [["p or p/q", ...], ...]} with validation.

    Non-antisymmetric input is rejected with the first offending (i, j).
    """
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise MatrixFormatError('matrix JSON needs keys "n" and "entries"')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFormatError(f'"entries" must be a list of {n} rows')
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"each row must be a list of {n} entry strings")
        rows.append([parse_rational(str(e)) for e in row])
    return AntisymmetricMatrix.from_rows(rows)


def load_matrix_file(path: str) -> AntisymmetricMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_int_literal)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter for arrays nested too deeply
            raise MatrixFormatError(f"invalid JSON in {path}: {exc}") from exc
    return matrix_from_json_dict(data)


def random_antisymmetric_matrix(n: int, rng, max_abs: int = 3) -> AntisymmetricMatrix:
    """Random integer antisymmetric matrix with entries in [-max_abs, max_abs].

    ``rng`` is a numpy Generator; only the upper triangle is drawn.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = int(rng.integers(-max_abs, max_abs + 1))
            rows[i][j] = v
            rows[j][i] = -v
    return AntisymmetricMatrix(tuple(map(tuple, rows)), 1)
