import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import eulerian_full_rows, exact_sums_fields, mahonian_sliding_window, standardize_fraction
from steinperm import (
    IntegerDistribution,
    Permutation,
    StandardizedDistribution,
    descent_count,
    descents_matrix,
    eulerian_distribution,
    exact_moments,
    generic_distribution,
    inversion_count,
    inversions_matrix,
    mahonian_distribution,
    standardize,
    zero_matrix,
)
from steinperm.cli import main
from steinperm.exact_dist import (
    EULERIAN_CAP,
    MAHONIAN_CAP,
    RECURRENCES,
    eulerian_rows,
    laws,
    mahonian_rows,
    sums_to_one,
)
from steinperm.perm_core import (
    BUILTINS,
    AntisymmetricMatrix,
    EnumerationLimitError,
    StatisticKind,
    spec_for,
    variance_formula,
)


class TestEulerian:
    def test_small_rows(self):
        assert eulerian_distribution(1).counts == (1,)
        assert eulerian_distribution(3).counts == (1, 4, 1)
        assert eulerian_distribution(4).counts == (1, 11, 11, 1)

    def test_matches_enumeration(self):
        for n in range(1, 8):
            hist = [0] * max(n, 1)
            for image in permutations(range(1, n + 1)):
                hist[descent_count(Permutation(image))] += 1
            while len(hist) > 1 and hist[-1] == 0:
                hist.pop()
            assert eulerian_distribution(n).counts == tuple(hist)

    def test_total_and_symmetry(self):
        for n in (2, 10, 60, 200):
            d = eulerian_distribution(n)
            assert d.total == math.factorial(n)
            assert d.counts == d.counts[::-1]

    def test_cap(self):
        with pytest.raises(ValueError):
            eulerian_distribution(201)
        with pytest.raises(ValueError):
            eulerian_distribution(6, cap=5)
        assert eulerian_distribution(6, cap=6).total == 720

    def test_n_at_least_one(self):
        with pytest.raises(ValueError):
            eulerian_distribution(0)


class TestMahonian:
    def test_small_rows(self):
        assert mahonian_distribution(1).counts == (1,)
        assert mahonian_distribution(3).counts == (1, 2, 2, 1)
        assert mahonian_distribution(4).counts == (1, 3, 5, 6, 5, 3, 1)

    def test_matches_enumeration(self):
        for n in range(1, 8):
            hist = [0] * (n * (n - 1) // 2 + 1)
            for image in permutations(range(1, n + 1)):
                hist[inversion_count(Permutation(image))] += 1
            assert mahonian_distribution(n).counts == tuple(hist)

    def test_total_and_symmetry(self):
        for n in (2, 10, 40, 150):
            d = mahonian_distribution(n)
            assert d.total == math.factorial(n)
            assert d.counts == d.counts[::-1]
            assert len(d.counts) == n * (n - 1) // 2 + 1

    def test_cap(self):
        with pytest.raises(ValueError):
            mahonian_distribution(151)
        with pytest.raises(ValueError):
            mahonian_distribution(9, cap=8)


class TestGenericDistribution:
    def test_descents_matrix(self):
        d = generic_distribution(descents_matrix(3))
        assert d.min_value == -2
        assert dict(d.support()) == {-2: 1, 0: 4, 2: 1}

    def test_inversions_matrix(self):
        d = generic_distribution(inversions_matrix(3))
        assert dict(d.support()) == {-3: 1, -1: 2, 1: 2, 3: 1}

    def test_zero_matrix(self):
        d = generic_distribution(zero_matrix(3))
        assert dict(d.support()) == {0: 6}

    def test_rejects_rational_entries(self):
        m = AntisymmetricMatrix.from_rows([["0", "1/2"], ["-1/2", "0"]])
        with pytest.raises(ValueError, match="requires integer matrix entries"):
            generic_distribution(m)
        # entries that reduce to integers are integers
        m = AntisymmetricMatrix.from_rows([["0", "4/2", "0"], ["-2", "0", "3/3"], ["0", "-1", "0"]])
        assert dict(generic_distribution(m).support()) == {-3: 1, -1: 2, 1: 2, 3: 1}

    def test_limit(self):
        with pytest.raises(EnumerationLimitError):
            generic_distribution(descents_matrix(11))
        assert generic_distribution(descents_matrix(4), limit=4).total == 24

    def test_agrees_with_recurrences_via_affine_map(self):
        # X = 2*Des(inverse) - (n-1); inverse is a bijection of S_n, so the
        # X counts are the descent counts re-indexed
        for n in (3, 4, 5, 6):
            gen = dict(generic_distribution(descents_matrix(n)).support())
            eul = eulerian_distribution(n)
            assert gen == {2 * k - (n - 1): c for k, c in eul.support()}
            gen = dict(generic_distribution(inversions_matrix(n)).support())
            mah = mahonian_distribution(n)
            assert gen == {2 * k - n * (n - 1) // 2: c for k, c in mah.support()}


class TestMoments:
    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_closed_form_moments(self, n):
        mean, var = exact_moments(eulerian_distribution(n))
        assert mean == Fraction(n - 1, 2)
        assert var == Fraction(n + 1, 12)
        mean, var = exact_moments(mahonian_distribution(n))
        assert mean == Fraction(n * (n - 1), 4)
        assert var == Fraction(n * (n - 1) * (2 * n + 5), 72)

    @pytest.mark.parametrize("kind", [StatisticKind.DESCENTS, StatisticKind.INVERSIONS])
    def test_table_variance_is_the_matrix_formula_and_the_law(self, kind):
        # X = 2 count - max, so Var X is 4 Var count; at n = 1 both are constant
        recurrence, builtin = RECURRENCES[kind], BUILTINS[kind]
        ns = [*range(1, 61), recurrence.cap]
        dists = list(laws(recurrence.rows(), set(ns)))
        assert [dist.n for dist in dists] == ns
        for dist in dists:
            var_x = builtin.variance(dist.n)
            assert var_x == variance_formula(spec_for(kind, dist.n).matrix).variance
            assert var_x == 4 * exact_moments(dist)[1]
        assert builtin.variance(1) == 0 and builtin.variance(2) > 0


class TestStandardize:
    def test_eulerian_3(self):
        s = standardize(eulerian_distribution(3), Fraction(1), math.sqrt(1 / 3))
        root3 = math.sqrt(3)
        assert s.atoms == pytest.approx((-root3, 0.0, root3), abs=1e-15)
        assert s.probs == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-16)
        assert s.mean_used == 1.0

    def test_single_atom_at_mean(self):
        d = generic_distribution(zero_matrix(3))
        s = standardize(d, Fraction(0), 1.0)
        assert s.atoms == (0.0,)
        assert s.probs == (1.0,)

    def test_mahonian_4_symmetric_atoms(self):
        sd = math.sqrt(13 / 6)
        s = standardize(mahonian_distribution(4), Fraction(3), sd)
        assert len(s.atoms) == 7
        assert s.atoms == pytest.approx(tuple(-a for a in reversed(s.atoms)), abs=1e-15)

    def test_drops_zero_count_atoms(self):
        d = generic_distribution(inversions_matrix(3))  # gaps at even values
        s = standardize(d, Fraction(0), 1.0)
        assert s.atoms == (-3.0, -1.0, 1.0, 3.0)

    def test_zero_stddev_rejected(self):
        with pytest.raises(ValueError):
            standardize(eulerian_distribution(3), Fraction(1), 0.0)

    def test_probs_sum_to_one_to_full_precision(self):
        for n in (10, 50):
            s = standardize(
                mahonian_distribution(n),
                Fraction(n * (n - 1), 4),
                math.sqrt(n * (n - 1) * (2 * n + 5) / 72),
            )
            assert abs(math.fsum(s.probs) - 1.0) < 1e-14


ORACLE_NS = list(range(1, 61))


def _closed_form_law(kind, n):
    """(law, mean, sd) of descents or inversions of S_n, as rate tables use them."""
    if kind == "descents":
        return eulerian_distribution(n), Fraction(n - 1, 2), math.sqrt((n + 1) / 12.0)
    return mahonian_distribution(n), Fraction(n * (n - 1), 4), math.sqrt(n * (n - 1) * (2 * n + 5) / 72.0)


class TestOracles:
    """The half-row recurrences and the Fraction-free standardize against
    the full-row loops and Fraction arithmetic they replaced."""

    @pytest.mark.parametrize("n", ORACLE_NS + [EULERIAN_CAP])
    def test_eulerian_counts(self, n):
        assert eulerian_distribution(n).counts == eulerian_full_rows(n)

    @pytest.mark.parametrize("n", ORACLE_NS + [MAHONIAN_CAP])
    def test_mahonian_counts(self, n):
        assert mahonian_distribution(n).counts == mahonian_sliding_window(n)

    @pytest.mark.parametrize(
        "kind, n",
        [("descents", n) for n in ORACLE_NS + [EULERIAN_CAP]]
        # inversions of S_1 have sd 0, which standardize refuses
        + [("inversions", n) for n in ORACLE_NS[1:] + [MAHONIAN_CAP]],
    )
    def test_standardized_builtins_float_equal(self, kind, n):
        law, mean, sd = _closed_form_law(kind, n)
        s = standardize(law, mean, sd)
        atoms, probs = standardize_fraction(law.min_value, law.counts, mean, sd)
        assert s.atoms == atoms
        assert s.probs == probs

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 1200) | st.integers(0, 3), min_size=1, max_size=30).filter(any),
        st.integers(-10**6, 10**6),
        st.integers(-10**9, 10**9),
        st.integers(1, 12),
        st.floats(1e-3, 1e6),
    )
    def test_random_means_and_large_totals(self, counts, min_value, p, q, sd):
        d = IntegerDistribution(n=1, min_value=min_value, counts=tuple(counts), total=sum(counts))
        mean = Fraction(p, q)
        s = standardize(d, mean, sd)
        assert (s.atoms, s.probs) == standardize_fraction(min_value, counts, mean, sd)


def _per_atom_hex(d, mean, sd):
    """The atoms of standardize's docstring, one by one, as float.hex."""
    p, q = mean.numerator, mean.denominator
    return [((v * q - p) / q / sd).hex() for v, c in enumerate(d.counts, d.min_value) if c]


class TestMirroredAtoms:
    """standardize negates the first half of the atoms of a palindrome
    centred on its mean; every atom is still the per-atom formula's float,
    bit for bit."""

    @pytest.mark.parametrize(
        "kind, n",
        [(kind, n) for kind in ("descents", "inversions") for n in range(2, 61)]
        + [("descents", EULERIAN_CAP), ("inversions", MAHONIAN_CAP)],
    )
    def test_builtins(self, kind, n):
        law, mean, sd = _closed_form_law(kind, n)
        assert [a.hex() for a in standardize(law, mean, sd).atoms] == _per_atom_hex(law, mean, sd)

    @pytest.mark.parametrize("matrix", [descents_matrix, inversions_matrix])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matrix_laws_about_zero(self, matrix, n):
        # reversing the word negates X: symmetric about 0, negative min_value
        law = generic_distribution(matrix(n))
        assert law.min_value < 0
        assert [a.hex() for a in standardize(law, Fraction(0), 1.7).atoms] == _per_atom_hex(law, Fraction(0), 1.7)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 200) | st.integers(0, 3), min_size=1, max_size=20).filter(any),
        st.booleans(),
        st.integers(-10**6, 10**6),
        st.integers(-2, 2),
        st.floats(1e-3, 1e6),
    )
    def test_palindromes(self, half, odd, min_value, off, sd):
        # centred (off = 0) and off-centre means of even and odd palindromes
        counts = tuple(half + half[::-1][odd:])
        d = IntegerDistribution(n=1, min_value=min_value, counts=counts, total=sum(counts))
        mean = Fraction(2 * min_value + len(counts) - 1 + off, 2)
        assert [a.hex() for a in standardize(d, mean, sd).atoms] == _per_atom_hex(d, mean, sd)


class TestRows:
    """One pass of a row generator gives every listed law, and stops at the largest."""

    @pytest.mark.parametrize("rows, law", [
        (eulerian_rows, eulerian_distribution), (mahonian_rows, mahonian_distribution)])
    def test_laws_of_one_pass(self, rows, law):
        pulled = []

        def counted():
            for row in rows():
                pulled.append(row)
                yield row

        ns = {17, 1, 2, 9}
        assert list(laws(counted(), ns)) == [law(n) for n in sorted(ns)]
        assert len(pulled) == 17

    @pytest.mark.parametrize("rows, full_rows", [
        (eulerian_rows, eulerian_full_rows), (mahonian_rows, mahonian_sliding_window)])
    def test_every_row_is_the_first_half(self, rows, full_rows):
        for n, (half, size) in zip(range(1, 41), rows()):
            counts = full_rows(n)
            assert (half, size) == (list(counts[: (size + 1) // 2]), len(counts))


class TestBuiltinSums:
    """The built-ins' recurrences give, in Python ints, every sum the
    prefix-set program gives over S_n, and exact bounds read them."""

    # n = 2..12 and the largest n the prefix-set program reaches
    @pytest.mark.parametrize("kind, n", [
        *((kind, n) for kind in (StatisticKind.DESCENTS, StatisticKind.INVERSIONS) for n in range(2, 13)),
        (StatisticKind.DESCENTS, 18), (StatisticKind.INVERSIONS, 16)])
    def test_equal_the_prefix_set_program(self, kind, n):
        from steinperm import _sn

        got = RECURRENCES[kind].sums(n)
        want = _sn.exact_sums(spec_for(kind, n).matrix, n)
        assert exact_sums_fields(got) == exact_sums_fields(want)
        assert 0 not in got.level_count.values()

    def test_descents_var_cond_pi_closed_form(self):
        # 128/(5 n^2 (n + 1)) from n = 4; not at n = 2 and 3
        from steinperm import stein_bounds

        for n in range(2, 61):
            spec = spec_for(StatisticKind.DESCENTS, n)
            ing = stein_bounds.exact_ingredients(RECURRENCES[StatisticKind.DESCENTS].sums(n), spec)
            assert (ing.var_cond_pi_w == Fraction(128, 5 * n * n * (n + 1))) == (n >= 4), n

    @pytest.mark.parametrize("kind", [StatisticKind.DESCENTS, StatisticKind.INVERSIONS])
    def test_exact_bounds_run_no_array_work(self, kind, monkeypatch):
        from steinperm import _sn, stein_bounds

        def unused(*args):
            raise AssertionError("the prefix-set program ran")

        monkeypatch.setattr(_sn, "exact_sums", unused)
        assert stein_bounds.ingredients_exact(spec_for(kind, 7)).n == 7
        with pytest.raises(EnumerationLimitError):
            stein_bounds.ingredients_exact(spec_for(kind, 11))
        assert stein_bounds.ingredients_exact(spec_for(kind, 11), 11).n == 11


def _rational_matrix(n):
    return AntisymmetricMatrix.from_rows([[str(Fraction(j - i, 2 + (i + j) % 3)) for j in range(n)] for i in range(n)])


def _swept_sums(n):
    from steinperm import _sn

    sums = _sn.ExactSums()
    for _, inner in _sn.sweep(_rational_matrix(n))[2]:
        sums.add(inner)
    return sums


def _prefix_set_sums(n):
    from steinperm import _sn

    sums, m = _sn.ExactSums(), _rational_matrix(n)
    _sn.prefix_set_sums(m, _sn.residue_stride(m.rows), sums)
    return sums


class TestLevelSetFillers:
    """Every filler of ``ExactSums`` fills the level sets of X, off which
    the moments of X are read: the sweep's ``add`` and the prefix-set
    program on a rational matrix, and the built-ins' recurrences."""

    FILLERS = {
        "sweep": _swept_sums,
        "prefix-sets": _prefix_set_sums,
        "descents": RECURRENCES[StatisticKind.DESCENTS].sums,
        "inversions": RECURRENCES[StatisticKind.INVERSIONS].sums,
    }

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("filler", sorted(FILLERS))
    def test_levels_cover_s_n(self, filler, n):
        sums = self.FILLERS[filler](n)
        assert sum(sums.level_count.values()) == math.factorial(n)
        assert 0 not in sums.level_count.values()
        assert sums.sum_x == 0  # reversing pi maps X to -X

    @pytest.mark.parametrize("name", ["sum_x", "sum_x2", "sum_q"])
    def test_moments_are_read_only(self, name):
        sums = RECURRENCES[StatisticKind.DESCENTS].sums(4)
        with pytest.raises(AttributeError):
            setattr(sums, name, 0)


class TestDistributionType:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            IntegerDistribution(n=2, min_value=0, counts=(1, -1), total=0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            IntegerDistribution(n=2, min_value=0, counts=(1, 1), total=3)

    def test_support_skips_zeros(self):
        d = IntegerDistribution(n=2, min_value=-1, counts=(1, 0, 1), total=2)
        assert list(d.support()) == [(-1, 1), (1, 1)]

    def test_standardized_validation(self):
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(1.0, 1.0), probs=(0.5, 0.5), mean_used=0, stddev_used=1)
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(0.0, 1.0), probs=(0.5, 0.4), mean_used=0, stddev_used=1)

    def test_rejects_nan_probability(self):
        # abs(nan - 1.0) > 1e-12 is False, so the fsum test let this law by
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(0.0,), probs=(math.nan,), mean_used=0, stddev_used=1)

    @pytest.mark.parametrize("atoms", [(math.nan,), (0.0, math.nan, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf)])
    def test_rejects_nan_and_infinite_atoms(self, atoms):
        # NaN compares False either way, so it passed the strictly-increasing check
        probs = (1.0,) if len(atoms) == 1 else (0.25, 0.5, 0.25)
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=atoms, probs=probs, mean_used=0, stddev_used=1)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(0.0, 1.0), probs=(1.5, -0.5), mean_used=0, stddev_used=1)

    @pytest.mark.parametrize("sd", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_stddev(self, sd):
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(0.0,), probs=(1.0,), mean_used=0, stddev_used=sd)

    def test_standardize_rejects_nan_stddev(self):
        # stddev <= 0 is False for NaN, and every atom came out NaN
        with pytest.raises(ValueError):
            standardize(eulerian_distribution(3), Fraction(1), math.nan)

    def test_rejects_one_probability_per_atom_mismatch(self):
        with pytest.raises(ValueError):
            StandardizedDistribution(atoms=(0.0, 1.0), probs=(1.0,), mean_used=0, stddev_used=1)


def _accepts(check, probs) -> bool:
    """check(probs), with an error fsum raises (mixed infinities, overflow) read as a rejection."""
    try:
        return check(probs)
    except (ValueError, OverflowError):
        return False


def _fsum_check(probs) -> bool:
    """The test sums_to_one replaces."""
    return abs(math.fsum(probs) - 1.0) <= 1e-12


def _exact(x: float) -> int:
    """x as an integer multiple of 2**-1074, the smallest subnormal."""
    num, den = x.as_integer_ratio()
    return num * ((1 << 1074) // den)


@st.composite
def _near_threshold(draw):
    """Up to 20 000 probabilities spanning 1e-300 to 1, plus one term that
    puts their exact sum a few ulps either side of 1 - 1e-12, 1 or 1 + 1e-12."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.integers(0, 20_000) | st.sampled_from([11_176, 20_000]))
    weights = [rnd.random() * 10.0 ** -rnd.randrange(301) for _ in range(size)]
    total = math.fsum(weights) or 1.0
    share = draw(st.floats(0.05, 0.95))
    probs = [w / total * share for w in weights]
    target = draw(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12])) + draw(st.integers(-4, 4)) * 2.0**-52
    last = float(Fraction(target) - Fraction(sum(map(_exact, probs)), 1 << 1074))
    probs.insert(rnd.randrange(len(probs) + 1), last)
    return probs


class TestSumsToOne:
    """The linear-time check against the fsum test it replaced: the same
    answer on every finite list."""

    @settings(max_examples=60, deadline=None)
    @given(_near_threshold())
    def test_near_the_threshold(self, probs):
        assert _accepts(sums_to_one, probs) == _accepts(_fsum_check, probs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1.0, 1.0), max_size=60))
    def test_any_finite_list(self, probs):
        assert _accepts(sums_to_one, probs) == _accepts(_fsum_check, probs)

    def test_the_disagreeing_sums_exist(self):
        # the float sum and fsum round to opposite sides of 1 + 1e-12 and of
        # 1 - 1e-12, so the fsum fallback is what decides these two lists
        for probs, verdict in (([0.5, 0.5, 9.99777955395075e-13, 1.6653345369377348e-16], True),
                               ([0.7499999999989997, 0.25, 8.326672684688674e-17, 1.942890293094024e-16], False)):
            assert _fsum_check(probs) is verdict
            assert (abs(sum(probs) - 1.0) <= 1e-12) is not verdict
            assert sums_to_one(probs) is verdict

    @pytest.mark.parametrize("probs", [[math.inf], [-math.inf, 1.0], [0.5, math.inf, 0.5], [math.nan], [0.5, math.nan, 0.5]])
    def test_infinite_and_nan_rejected(self, probs):
        assert sums_to_one(probs) is False

    def test_mixed_infinities_raise_as_fsum_does(self):
        with pytest.raises(ValueError):
            sums_to_one([math.inf, 1.0, -math.inf])

    def test_empty_and_exact(self):
        assert sums_to_one([]) is False
        assert sums_to_one([1.0]) is True
        assert sums_to_one([0.25] * 4) is True


class TestJson:
    def test_counts_are_decimal_strings(self, capsys):
        assert main(["dist", "--stat", "descents", "--n", "30"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all(isinstance(c, str) for c in obj["counts"])
        assert obj["n"] == 30 and obj["min_value"] == 0
        assert tuple(map(int, obj["counts"])) == eulerian_distribution(30).counts
