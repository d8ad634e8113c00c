import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from _oracles import cond_exp_sq, conditional_drift
from conftest import random_matrices
from steinperm import (
    AntisymmetricMatrix,
    Permutation,
    _sn,
    custom_spec,
    descents_matrix,
    descents_spec,
    identity,
    inversions_matrix,
    inversions_spec,
    move_to_end,
    sample_pair,
    unit_step_check,
    variance_formula,
    x_delta,
    x_stat,
    zero_matrix,
)
from steinperm.chain import pair_samples
from steinperm.perm_core import EnumerationLimitError

WORKED = Permutation((6, 4, 1, 5, 3, 2, 7))


def all_perms(n):
    return (Permutation(img) for img in permutations(range(1, n + 1)))


class TestMoveToEnd:
    def test_worked_example(self):
        assert move_to_end(WORKED, 3).image == (6, 4, 5, 3, 2, 7, 1)

    def test_last_position_fixed_point(self):
        for p in all_perms(4):
            assert move_to_end(p, 4) == p

    def test_first_position(self):
        assert move_to_end(Permutation((1, 2, 3)), 1).image == (2, 3, 1)

    @pytest.mark.parametrize("i", [0, 8, -1])
    def test_out_of_range(self, i):
        with pytest.raises(ValueError):
            move_to_end(WORKED, i)

    def test_equals_cycle_composition(self):
        # the step is composition with the cycle i -> i+1 -> ... -> n -> i
        n = 5
        for p in all_perms(n):
            for i in range(1, n + 1):
                cyc = {j: j for j in range(1, n + 1)}
                for j in range(i, n):
                    cyc[j] = j + 1
                cyc[n] = i
                moved = move_to_end(p, i)
                assert all(moved(j) == p(cyc[j]) for j in range(1, n + 1))


class TestXDelta:
    def test_worked_values(self):
        assert x_delta(inversions_spec(7), WORKED, 3) == 8
        assert x_delta(descents_spec(7), WORKED, 3) == 2

    def test_last_position_zero(self):
        for spec in (descents_spec(4), inversions_spec(4)):
            for p in all_perms(4):
                assert x_delta(spec, p, 4) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            x_delta(descents_spec(7), WORKED, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            x_delta(descents_spec(6), WORKED, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_statistic_difference_everywhere(self, n):
        specs = [descents_spec(n), inversions_spec(n)]
        specs += [custom_spec(m) for m in random_matrices(n, count=2)]
        for spec in specs:
            for p in all_perms(n):
                x = x_stat(spec, p)
                for i in range(1, n + 1):
                    assert x_delta(spec, p, i) == x_stat(spec, move_to_end(p, i)) - x

    def test_step_bounds(self):
        n = 6
        dspec, ispec = descents_spec(n), inversions_spec(n)
        for p in all_perms(n):
            for i in range(1, n + 1):
                assert abs(x_delta(dspec, p, i)) <= 2
                assert abs(x_delta(ispec, p, i)) <= 2 * (n - 1)


class TestConditionalMoments:
    def test_drift_worked_values(self):
        assert conditional_drift(inversions_spec(7), WORKED) == Fraction(-2, 7)
        assert conditional_drift(descents_spec(7), WORKED) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_drift_is_linear_regression(self, n):
        specs = [descents_spec(n), inversions_spec(n), custom_spec(random_matrices(n, count=1)[0])]
        for spec in specs:
            for p in all_perms(n):
                assert conditional_drift(spec, p) == Fraction(-2, n) * x_stat(spec, p)

    def test_cond_exp_sq_worked_values(self):
        assert cond_exp_sq(descents_spec(7), identity(7)) == Fraction(24, 7)
        assert cond_exp_sq(inversions_spec(3), Permutation((1, 2, 3))) == Fraction(20, 3)

    def test_cond_exp_sq_zero_matrix(self):
        assert cond_exp_sq(custom_spec(zero_matrix(4)), identity(4)) == 0

    def test_cond_exp_sq_is_mean_of_squares(self):
        n = 4
        for spec in (descents_spec(n), inversions_spec(n)):
            for p in all_perms(n):
                direct = sum(x_delta(spec, p, i) ** 2 for i in range(1, n + 1))
                assert cond_exp_sq(spec, p) == Fraction(direct, n)


class TestSamplePair:
    def test_deterministic_given_seed(self):
        spec = descents_spec(7)
        a = sample_pair(spec, np.random.Generator(np.random.PCG64(99)))
        b = sample_pair(spec, np.random.Generator(np.random.PCG64(99)))
        assert a == b

    def test_fields_consistent(self):
        spec = inversions_spec(6)
        sigma = math.sqrt(variance_formula(spec.matrix).variance)
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            s = sample_pair(spec, rng)
            assert 1 <= s.position <= 6
            assert s.w == float(s.x) / sigma
            assert s.w_prime == float(s.x_prime) / sigma

    def test_descent_increments_are_0_or_2(self):
        spec = descents_spec(7)
        deltas = set()
        rng = np.random.Generator(np.random.PCG64(1234))
        for _ in range(200):
            s = sample_pair(spec, rng)
            deltas.add(abs(s.x_prime - s.x))
        assert deltas <= {0, 2}
        assert 2 in deltas

    def test_variance_computed_once_per_spec(self, monkeypatch):
        from steinperm import perm_core
        from steinperm.perm_core import StatisticKind

        # a built-in reads its closed form from the table, a custom matrix runs variance_formula
        calls = []
        original = perm_core.variance_formula
        monkeypatch.setattr(perm_core, "variance_formula", lambda m: calls.append(m) or original(m))
        builtin = perm_core.BUILTINS[StatisticKind.INVERSIONS]
        monkeypatch.setitem(perm_core.BUILTINS, StatisticKind.INVERSIONS,
                            builtin._replace(variance=lambda n: calls.append(n) or builtin.variance(n)))
        rng = np.random.Generator(np.random.PCG64(8))
        for spec in (inversions_spec(6), custom_spec(inversions_matrix(6))):
            for _ in range(20):
                sample_pair(spec, rng)
        assert calls == [6, inversions_matrix(6)]

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_pair(custom_spec(zero_matrix(5)), np.random.Generator(np.random.PCG64(0)))

    def test_no_fraction_oracle_calls(self, monkeypatch):
        from steinperm import chain, perm_core

        def refuse(*args):
            raise AssertionError("per-draw Fraction evaluation")

        monkeypatch.setattr(perm_core, "x_stat", refuse)
        monkeypatch.setattr(chain, "x_delta", refuse)
        spec = inversions_spec(6)
        rng = np.random.Generator(np.random.PCG64(8))
        samples = [sample_pair(spec, rng) for _ in range(20)]
        assert all(abs(s.x_prime - s.x) <= 2 * (spec.n - 1) for s in samples)


class TestUnitStep:
    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_descent_count_changes_by_at_most_one(self, n):
        assert unit_step_check(n) is True

    def test_limit(self):
        with pytest.raises(EnumerationLimitError):
            unit_step_check(12)


class TestPairLaw:
    """The sampled (position, X, X') of the Monte Carlo draws at n = 5, a
    fixed-seed chi-square test against the exact tally over S_5 x
    positions: descents take the diagonal kernel, inversions and the
    2-descent matrix (M[u][u + k] = -1 for k = 1, 2) the remainder, and
    every position comes from the keys' ranks."""

    N = 5
    TRIALS = 60_000

    @staticmethod
    def _matrix(kind, n):
        if kind == "two-descents":
            rows = [["0"] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, min(u + 3, n)):
                    rows[u][v], rows[v][u] = "-1", "1"
            return AntisymmetricMatrix.from_rows(rows)
        return {"descents": descents_matrix, "inversions": inversions_matrix}[kind](n)

    @pytest.mark.parametrize("kind, banded", [("descents", True), ("inversions", False), ("two-descents", False)])
    def test_chi_square_against_the_exact_tally(self, kind, banded):
        stats = pytest.importorskip("scipy.stats")
        n = self.N
        matrix = self._matrix(kind, n)
        mint = _sn.integer_matrix(matrix)
        assert (_sn.banded_offsets(matrix, mint) is not None) == banded
        perms = np.concatenate(list(_sn.chunks(n)))
        inner = _sn.table_inner(perms, _sn.suffix_table(mint))
        x = inner.sum(axis=1)
        exact = Counter()
        for i in range(n):
            exact.update(zip([i + 1] * len(x), x.tolist(), (x - 2 * inner[:, i]).tolist()))
        assert sum(exact.values()) == math.factorial(n) * n
        blocks = _sn.draws(matrix, self.TRIALS, 2024)
        seen = Counter(
            (i, a, b) for block in blocks for xs, xps, pos in pair_samples(*block) for a, b, i in zip(xs, xps, pos)
        )
        assert set(seen) <= set(exact)
        cells = sorted(exact)
        observed = [seen[c] for c in cells]
        expected = [self.TRIALS * exact[c] / (math.factorial(n) * n) for c in cells]
        assert min(expected) >= 5
        assert stats.chisquare(observed, expected).pvalue > 1e-3
