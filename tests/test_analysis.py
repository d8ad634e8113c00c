import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import kolmogorov_scan, phi_taylor
from steinperm import (
    RateRow,
    StandardizedDistribution,
    StatisticKind,
    eulerian_distribution,
    kolmogorov_distance,
    mahonian_distribution,
    normal_cdf,
    rate_table,
    standardize,
)
from steinperm.cli import main


def _standard_law(kind: StatisticKind, n: int):
    if kind is StatisticKind.DESCENTS:
        return standardize(eulerian_distribution(n), Fraction(n - 1, 2), math.sqrt((n + 1) / 12))
    return standardize(
        mahonian_distribution(n),
        Fraction(n * (n - 1), 4),
        math.sqrt(n * (n - 1) * (2 * n + 5) / 72),
    )


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_reference_point(self):
        assert normal_cdf(1.0) == 0.8413447460685429

    def test_against_taylor_oracle(self):
        for x in np.linspace(-8, 8, 201):
            assert abs(normal_cdf(float(x)) - phi_taylor(float(x))) <= 1e-14

    @given(st.floats(-30, 30))
    def test_symmetry(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15

    def test_monotone_on_dense_grid(self):
        grid = np.linspace(-10, 10, 100_000)
        vals = [normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            normal_cdf(bad)


class TestKolmogorovDistance:
    def test_point_mass_at_zero(self):
        d = StandardizedDistribution(atoms=(0.0,), probs=(1.0,), mean_used=0.0, stddev_used=1.0)
        assert kolmogorov_distance(d) == 0.5

    def test_two_symmetric_atoms(self):
        d = StandardizedDistribution(
            atoms=(-1.0, 1.0), probs=(0.5, 0.5), mean_used=0.0, stddev_used=1.0
        )
        assert kolmogorov_distance(d) == pytest.approx(normal_cdf(1.0) - 0.5, abs=1e-16)

    def test_standardized_eulerian_3(self):
        d = _standard_law(StatisticKind.DESCENTS, 3)
        val = kolmogorov_distance(d)
        assert 0 < val < 0.5
        # largest gap is at the foot of the central jump: Phi(0) - F(-sqrt(3)-)
        assert val == pytest.approx(0.5 - 1 / 6, abs=1e-15)

    def test_matches_scan_oracle(self):
        for kind in StatisticKind.DESCENTS, StatisticKind.INVERSIONS:
            for n in (3, 5, 8, 12):
                d = _standard_law(kind, n)
                assert kolmogorov_distance(d) == pytest.approx(
                    kolmogorov_scan(d.atoms, d.probs), abs=1e-12
                )


def _per_n_row(kind, n):
    """The rate row of n from its own law, one recurrence run to n."""
    d_k = kolmogorov_distance(_standard_law(kind, n))
    return RateRow(n=n, statistic=kind, d_k=d_k, scaled=d_k * math.sqrt(n))


class TestRateTable:
    def test_empty(self):
        assert rate_table(StatisticKind.DESCENTS, []) == []

    def test_single_row_against_oracle(self):
        rows = rate_table(StatisticKind.DESCENTS, [3])
        d = _standard_law(StatisticKind.DESCENTS, 3)
        assert rows[0].d_k == pytest.approx(kolmogorov_scan(d.atoms, d.probs), abs=1e-12)
        assert rows[0].scaled == rows[0].d_k * math.sqrt(3)

    def test_rows_carry_descriptors(self):
        rows = rate_table(StatisticKind.INVERSIONS, [4, 6])
        assert [r.n for r in rows] == [4, 6]
        assert all(r.statistic is StatisticKind.INVERSIONS for r in rows)
        assert all(0 <= r.d_k <= 1 for r in rows)

    def test_custom_kind_refused(self):
        with pytest.raises(ValueError):
            rate_table(StatisticKind.CUSTOM, [3])

    def test_str_statistic_taken_as_its_kind(self):
        [row] = rate_table("descents", [3])
        assert row.statistic is StatisticKind.DESCENTS and row == rate_table(StatisticKind.DESCENTS, [3])[0]
        with pytest.raises(ValueError, match="^descents is constant at n = 1; the rate table needs n >= 2$"):
            rate_table("descents", [1])

    @pytest.mark.parametrize("statistic, error", [
        ("custom", "rate tables exist only for the built-in statistics"),
        (StatisticKind.CUSTOM, "rate tables exist only for the built-in statistics"),
        ("bogus", "'bogus' is not a valid StatisticKind"),
    ], ids=["custom-str", "custom-kind", "bogus"])
    def test_non_builtin_refused_before_the_list_is_read(self, statistic, error):
        def unread():
            raise AssertionError("the n-list was read")
            yield

        for n_list in ([], unread()):
            with pytest.raises(ValueError) as exc:
                rate_table(statistic, n_list)
            assert str(exc.value) == error

    @pytest.mark.parametrize("kind, cap", [(StatisticKind.DESCENTS, 200), (StatisticKind.INVERSIONS, 150)])
    def test_one_pass_equals_per_n_rows(self, kind, cap):
        # shuffled, with repeats: rows in list order, each as its own law gives it
        n_list = [37, 2, cap, 11, 37, 3, 2, 24, 11]
        random.Random(7).shuffle(n_list)
        assert rate_table(kind, n_list) == [_per_n_row(kind, n) for n in n_list]

    @pytest.mark.parametrize("n_list, error", [
        ([5, 1, 151], "inversions is constant at n = 1; the rate table needs n >= 2"),
        ([5, 151, 1], "n=151 exceeds the cap 150"),
        ([5, 0, 151], "n must be at least 1"),
    ])
    def test_refusals_in_list_order(self, n_list, error):
        with pytest.raises(ValueError) as exc:
            rate_table(StatisticKind.INVERSIONS, n_list)
        assert str(exc.value) == error

    def test_csv_format_round_trips(self, capsys):
        rows = rate_table(StatisticKind.DESCENTS, [5, 10])
        assert main(["rate", "--stat", "descents", "--n-list", "5,10", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "n,statistic,d_k,d_k_sqrt_n"
        for line, row in zip(lines[1:], rows):
            n_s, stat_s, dk_s, scaled_s = line.split(",")
            assert int(n_s) == row.n
            assert stat_s == "descents"
            assert float(dk_s) == row.d_k
            assert float(scaled_s) == row.scaled

    def test_json_dict(self, capsys):
        row = rate_table(StatisticKind.DESCENTS, [4])[0]
        assert main(["rate", "--stat", "descents", "--n-list", "4"]) == 0
        [obj] = json.loads(capsys.readouterr().out)
        assert obj == {
            "n": 4,
            "statistic": "descents",
            "d_k": row.d_k,
            "d_k_sqrt_n": row.scaled,
        }
