import json
import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from _oracles import cond_exp_sq, level_set_variance
from conftest import BUILTIN_SIZES, builtin_rows, random_matrices
from steinperm import (
    BoundIngredients,
    Permutation,
    a_max,
    bound_report,
    custom_spec,
    descents_spec,
    ingredients_exact,
    ingredients_mc,
    inversions_spec,
    random_antisymmetric_matrix,
    rr_bound,
    scaling_table,
    spec_for,
    stein_original_bound,
    variance_formula,
    zero_matrix,
)
from steinperm import _sn, stein_bounds
from steinperm.perm_core import EnumerationLimitError
from steinperm.cli import main


def _degenerate_ingredients(**overrides):
    base = dict(
        n=4,
        lam=Fraction(1, 2),
        a_max=0.0,
        e_diff_sq=1.0,
        e_abs_diff_cubed=0.0,
        var_cond_pi=0.0,
        var_cond_w=0.0,
        mode="exact",
    )
    base.update(overrides)
    return BoundIngredients(**base)


class TestAMax:
    def test_descents_analytic(self):
        sigma = math.sqrt(8 / 3)
        assert a_max(descents_spec(7)) == pytest.approx(2 / sigma, rel=1e-15)

    def test_inversions_analytic(self):
        sigma = math.sqrt(float(variance_formula(inversions_spec(7).matrix).variance))
        assert a_max(inversions_spec(7)) == pytest.approx(12 / sigma, rel=1e-15)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            a_max(custom_spec(zero_matrix(4)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_exact_descents_equals_analytic(self, n):
        spec = descents_spec(n)
        assert ingredients_exact(spec).a_max == a_max(spec)

    def test_exact_never_exceeds_analytic(self):
        for m in random_matrices(6, count=4):
            if variance_formula(m).variance == 0:
                continue
            spec = custom_spec(m)
            assert ingredients_exact(spec).a_max <= a_max(spec) + 1e-15

    @pytest.mark.parametrize("kind", ["descents", "inversions"])
    def test_builtins_equal_the_rows_formula(self, kind):
        # 2 max(sum |row| + |sum row|) / 2 / sigma over the defining rows,
        # while the spec builds none; n = 1 has zero variance
        for n in BUILTIN_SIZES[1:]:
            spec = spec_for(kind, n)
            worst = max(sum(map(abs, row)) + abs(sum(row)) for row in builtin_rows(kind, n))
            assert a_max(spec) == 2 * float(Fraction(worst, 2)) / math.sqrt(spec.variance)
            assert "rows" not in vars(spec.matrix)

    def test_builtin_at_3000_builds_no_rows(self):
        a_max(spec_for("inversions", 5))  # the modules and tables it reads, loaded
        tracemalloc.start()
        try:
            spec = spec_for("inversions", 3000)
            value = a_max(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 3000 rows of 3000 ints would take 72 MB
        assert peak < 1 << 20 and "rows" not in vars(spec.matrix)
        assert value == 2 * 2999 / math.sqrt(spec.variance)

    def test_exact_requires_small_n(self):
        with pytest.raises(EnumerationLimitError):
            ingredients_exact(descents_spec(12)).a_max


class TestIngredientsExact:
    def test_second_moment_is_4_over_n(self):
        for n in (3, 5, 8):
            for spec in (descents_spec(n), inversions_spec(n)):
                ing = ingredients_exact(spec)
                assert ing.e_diff_sq_w == Fraction(4, n)
                assert ing.lam == Fraction(2, n)

    def test_unnormalized_second_moment(self):
        # E[(X'-X)^2] = (4/n) Var(X)
        for n in (4, 6):
            spec = inversions_spec(n)
            ing = ingredients_exact(spec)
            assert ing.e_diff_sq_x == Fraction(4, n) * variance_formula(spec.matrix).variance

    def test_conditional_variance_order(self):
        for n in (4, 5, 6):
            for spec in (descents_spec(n), inversions_spec(n)):
                ing = ingredients_exact(spec)
                assert ing.var_cond_w_w <= ing.var_cond_pi_w

    def test_third_moment_jensen_floor(self):
        ing = ingredients_exact(inversions_spec(5))
        assert ing.e_abs_diff_cubed >= (4 / 5) ** 1.5

    def test_var_cond_pi_against_direct_rational_sweep(self):
        n = 5
        for spec in (descents_spec(n), inversions_spec(n)):
            var = variance_formula(spec.matrix).variance
            values = [
                cond_exp_sq(spec, Permutation(img)) / var
                for img in permutations(range(1, n + 1))
            ]
            mean = sum(values) / len(values)
            second = sum(v * v for v in values) / len(values)
            ing = ingredients_exact(spec)
            assert ing.var_cond_pi_w == second - mean * mean
            assert ing.e_diff_sq_w == mean

    def test_var_cond_w_against_direct_level_sets(self):
        from steinperm import x_stat

        n = 5
        spec = descents_spec(n)
        var = variance_formula(spec.matrix).variance
        levels: dict[Fraction, list[Fraction]] = {}
        for img in permutations(range(1, n + 1)):
            p = Permutation(img)
            levels.setdefault(x_stat(spec, p), []).append(cond_exp_sq(spec, p) / var)
        total = sum(len(v) for v in levels.values())
        mean = sum(sum(v) for v in levels.values()) / total
        second = sum(len(v) * (sum(v) / len(v)) ** 2 for v in levels.values()) / total
        ing = ingredients_exact(spec)
        assert ing.var_cond_w_w == second - mean * mean

    def test_var_cond_w_against_the_per_level_fractions(self):
        rng = np.random.default_rng(21)
        spec = custom_spec(random_antisymmetric_matrix(9, rng, max_abs=20))
        sums, scale = _sn.exact_sums(spec.matrix, None), spec.matrix.scale
        assert len(sums.level_count) >= 200
        ing = stein_bounds.exact_ingredients(sums, spec)
        assert ing.var_cond_w_w == level_set_variance(sums, spec, scale)

    def test_random_matrices_also_satisfy_identities(self):
        for m in random_matrices(5, count=3):
            if variance_formula(m).variance == 0:
                continue
            ing = ingredients_exact(custom_spec(m))
            assert ing.e_diff_sq_w == Fraction(4, 5)
            assert ing.var_cond_w_w <= ing.var_cond_pi_w

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            ingredients_exact(custom_spec(zero_matrix(4)))

    def test_limit(self):
        with pytest.raises(EnumerationLimitError):
            ingredients_exact(descents_spec(11))


class TestIngredientsMC:
    def test_deterministic(self):
        spec = descents_spec(12)
        a = ingredients_mc(spec, trials=40_000, seed=7)
        b = ingredients_mc(spec, trials=40_000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        spec = descents_spec(12)
        a = ingredients_mc(spec, trials=10_000, seed=7)
        b = ingredients_mc(spec, trials=10_000, seed=8)
        assert a.e_diff_sq != b.e_diff_sq

    def test_estimates_near_exact_targets(self):
        spec = descents_spec(6)
        exact = ingredients_exact(spec)
        mc = ingredients_mc(spec, trials=200_000, seed=31)
        assert abs(mc.e_diff_sq - 4 / 6) <= 5 * mc.stderr_e_diff_sq
        assert abs(mc.e_abs_diff_cubed - exact.e_abs_diff_cubed) <= 5 * mc.stderr_e_abs_diff_cubed
        assert abs(mc.var_cond_pi - exact.var_cond_pi) <= 5 * mc.stderr_var_cond_pi

    def test_block_boundary_consistency(self):
        # estimates are partition-independent only through the seed tree:
        # crossing the block boundary must still be reproducible
        spec = inversions_spec(9)
        a = ingredients_mc(spec, trials=(1 << 16) + 17, seed=3)
        b = ingredients_mc(spec, trials=(1 << 16) + 17, seed=3)
        assert a == b

    def test_surrogate_fields(self):
        mc = ingredients_mc(descents_spec(8), trials=5_000, seed=1)
        assert mc.var_cond_w is None
        assert mc.mode == "mc"
        assert mc.trials == 5_000 and mc.seed == 1
        assert mc.stderr_e_diff_sq > 0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            ingredients_mc(descents_spec(5), trials=1, seed=0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            ingredients_mc(custom_spec(zero_matrix(4)), trials=10, seed=0)


class TestBounds:
    def test_degenerate_is_zero(self):
        ing = _degenerate_ingredients()
        assert rr_bound(ing) == 0.0
        assert stein_original_bound(ing) == 0.0

    def test_rr_formula(self):
        ing = _degenerate_ingredients(a_max=0.5, var_cond_w=0.04)
        lam = 0.5
        expected = 12 / lam * 0.2 + 48 * 0.5**3 / lam + 8 * 0.5**2 / math.sqrt(lam)
        assert rr_bound(ing) == pytest.approx(expected, rel=1e-15)

    def test_stein_formula(self):
        ing = _degenerate_ingredients(var_cond_w=0.09, e_abs_diff_cubed=0.5)
        lam = 0.5
        expected = 2 * math.sqrt(0.09) / (2 * lam) + (2 * math.pi) ** -0.25 * math.sqrt(0.5 / lam)
        assert stein_original_bound(ing) == pytest.approx(expected, rel=1e-15)

    def test_surrogate_dominates_exact(self):
        for n in (5, 6, 7, 8):
            for spec in (descents_spec(n), inversions_spec(n)):
                ing = ingredients_exact(spec)
                masked = ing._replace(var_cond_w=None, var_cond_w_w=None)
                assert rr_bound(masked) >= rr_bound(ing)
                assert stein_original_bound(masked) >= stein_original_bound(ing)

    def test_stein_second_term_jensen_floor(self):
        n = 8
        ing = ingredients_exact(descents_spec(n))
        second = (2 * math.pi) ** -0.25 * math.sqrt(ing.e_abs_diff_cubed * n / 2)
        floor = (2 * math.pi) ** -0.25 * math.sqrt((n / 2) * (4 / n) ** 1.5)
        assert second >= floor
        assert stein_original_bound(ing) >= second

    def test_report_scalings(self):
        ing = ingredients_exact(descents_spec(6))
        rep = bound_report(ing)
        assert rep.rr_bound == rr_bound(ing)
        assert rep.stein_bound == stein_original_bound(ing)
        assert rep.rr_scaled == rep.rr_bound * math.sqrt(6)
        assert rep.stein_scaled == rep.stein_bound * 6**0.25
        assert rep.surrogate_used is False
        mc = ingredients_mc(descents_spec(6), trials=1_000, seed=0)
        assert bound_report(mc).surrogate_used is True

    def test_bounds_nonnegative(self):
        for spec in (descents_spec(5), inversions_spec(5)):
            rep = bound_report(ingredients_exact(spec))
            assert rep.rr_bound >= 0 and rep.stein_bound >= 0


class TestScalingTable:
    def test_empty(self):
        assert scaling_table("descents", []) == []

    def test_exact_rows(self):
        rows = scaling_table("descents", [4, 5, 6])
        assert [r.n for r in rows] == [4, 5, 6]
        for r in rows:
            assert r.rr_scaled == pytest.approx(r.rr_bound * math.sqrt(r.n), rel=1e-15)
            assert r.stein_scaled == pytest.approx(r.stein_bound * r.n**0.25, rel=1e-15)
            assert r.var_cond_pi_n3 == pytest.approx(r.var_cond_pi * r.n**3, rel=1e-15)
            assert r.mode == "exact"

    def test_mc_requires_trials_and_seed(self):
        with pytest.raises(ValueError):
            scaling_table("descents", [12], mode="mc")

    def test_mc_rows(self):
        rows = scaling_table("inversions", [12], mode="mc", trials=5_000, seed=11)
        assert rows[0].mode == "mc" and rows[0].n == 12

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            scaling_table("descents", [4], mode="guess")


class TestJson:
    """The ingredients and report as ``bounds`` prints them."""

    @staticmethod
    def _bounds(capsys, *argv):
        assert main(["bounds", "--stat", "descents", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_exact_dict(self, capsys):
        obj = self._bounds(capsys, "--n", "8")["ingredients"]
        assert obj["lambda"] == "1/4"
        assert obj["mode"] == "exact"
        assert obj["exact"]["e_diff_sq_w"] == "1/2"

    def test_mc_dict(self, capsys):
        obj = self._bounds(capsys, "--n", "8", "--mode", "mc", "--trials", "100", "--seed", "5")["ingredients"]
        assert obj["mode"] == "mc"
        assert obj["trials"] == 100 and obj["seed"] == 5
        assert set(obj["stderr"]) == {"e_diff_sq", "e_abs_diff_cubed", "var_cond_pi"}

    def test_report_dict(self, capsys):
        rep = bound_report(ingredients_exact(descents_spec(5)))
        obj = self._bounds(capsys, "--n", "5")["report"]
        assert set(obj) == {"rr_bound", "stein_bound", "rr_scaled", "stein_scaled", "surrogate_used"}
        assert obj["rr_bound"] == rep.rr_bound
        assert obj["surrogate_used"] is False
