from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import d_descent_matrix, random_matrices
from steinperm import (
    Permutation,
    builtin_phi,
    check_conditions,
    descents_matrix,
    descents_spec,
    inversions_matrix,
    inversions_spec,
    is_exchangeable,
    joint_distribution,
    lambda_map,
    move_to_end,
    phi,
    theta,
    x_stat,
    zero_matrix,
)
from steinperm._sn import sweep
from steinperm.exchangeability import flip_conditions, relabel_table
from steinperm.perm_core import AntisymmetricMatrix, EnumerationLimitError, custom_spec

from _oracles import relabel

WORKED = Permutation((6, 4, 1, 5, 3, 2, 7))
S_EXAMPLE = (1, 2, 3, 5, 7)


def all_subsets(n):
    values = range(1, n + 1)
    for size in range(1, n + 1):
        yield from combinations(values, size)


def members(mask, n):
    """The 1-indexed values in a bitmask of 0-indexed values."""
    return tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)


def builtin_verdict(m, spec, mask):
    """check_conditions with the built-in Theta and Phi of ``spec`` on one mask."""
    s = members(mask, spec.n)
    return check_conditions(m, s, theta(spec, s), phis=lambda i: builtin_phi(spec, s, i))


def table_verdict(m, table, mask):
    """check_conditions with Theta and Phi read from one mask of a table;
    a row that is no bijection, or that check_conditions refuses, fails."""
    s = members(mask, m.n)
    try:
        th = {v: int(table[mask, v - 1, v - 1]) + 1 for v in s}
        phis = {v: {u: int(table[mask, v - 1, u - 1]) + 1 for u in s if u != v} for v in s}
        return check_conditions(m, s, th, phis=phis.__getitem__)
    except ValueError:
        return False


class TestTheta:
    def test_descents_reverses_runs(self):
        assert theta(descents_spec(7), S_EXAMPLE) == {1: 3, 2: 2, 3: 1, 5: 5, 7: 7}

    def test_inversions_reverses_all(self):
        assert theta(inversions_spec(7), S_EXAMPLE) == {1: 7, 2: 5, 3: 3, 5: 2, 7: 1}

    def test_singleton(self):
        assert theta(descents_spec(7), {4}) == {4: 4}
        assert theta(inversions_spec(7), {4}) == {4: 4}

    def test_custom_kind_refused(self):
        spec = custom_spec(random_matrices(4, count=1)[0])
        with pytest.raises(ValueError):
            theta(spec, {1, 2})

    def test_values_outside_1_to_n_refused(self):
        with pytest.raises(ValueError, match=r"element 5 out of range 1\.\.3"):
            theta(descents_spec(3), {5, 7})

    def test_is_involution_on_all_subsets(self):
        for spec in (descents_spec(6), inversions_spec(6)):
            for s in all_subsets(6):
                th = theta(spec, s)
                assert all(th[th[v]] == v for v in s)


class TestPhi:
    def test_order_preserving_example(self):
        assert phi(S_EXAMPLE, 1, 3) == {2: 1, 3: 2, 5: 5, 7: 7}

    def test_identity_when_fixed(self):
        assert phi(S_EXAMPLE, 5, 5) == {1: 1, 2: 2, 3: 3, 7: 7}

    def test_two_elements(self):
        assert phi({1, 2}, 1, 2) == {2: 1}

    def test_membership_errors(self):
        with pytest.raises(ValueError):
            phi(S_EXAMPLE, 4, 1)
        with pytest.raises(ValueError):
            phi(S_EXAMPLE, 1, 4)


class TestBuiltinPhi:
    def test_descents_translates_run_pieces(self):
        # run 1..4 around i=2: below the pivot shifts up by 3, above shifts down by 2
        f = builtin_phi(descents_spec(4), (1, 2, 3, 4), 2)
        assert f == {1: 4, 3: 1, 4: 2}

    def test_descents_preserves_matrix_where_order_preserving_fails(self):
        m = descents_matrix(4)
        s = (1, 2, 3, 4)
        i, th_i = 2, 3
        good = builtin_phi(descents_spec(4), s, i)
        assert all(
            m.entry(j, k) == m.entry(good[j], good[k])
            for j in (1, 3, 4)
            for k in (1, 3, 4)
        )
        naive = phi(s, i, th_i)
        assert m.entry(3, 4) != m.entry(naive[3], naive[4])

    def test_inversions_matches_order_preserving(self):
        spec = inversions_spec(6)
        for s in all_subsets(6):
            for i in s:
                th_i = theta(spec, s)[i]
                assert builtin_phi(spec, s, i) == phi(s, i, th_i)

    def test_membership(self):
        with pytest.raises(ValueError):
            builtin_phi(descents_spec(7), S_EXAMPLE, 4)

    def test_values_outside_1_to_n_refused(self):
        with pytest.raises(ValueError, match=r"element 5 out of range 1\.\.3"):
            builtin_phi(inversions_spec(3), {5, 7}, 5)


class TestCheckConditions:
    def test_descents_all_subsets(self):
        spec = descents_spec(7)
        m = spec.matrix
        for s in all_subsets(7):
            th = theta(spec, s)
            assert check_conditions(m, s, th, phis=lambda i, s=s: builtin_phi(spec, s, i))

    def test_inversions_all_subsets(self):
        spec = inversions_spec(7)
        m = spec.matrix
        for s in all_subsets(7):
            assert check_conditions(m, s, theta(spec, s))

    def test_identity_flip_fails_for_descents(self):
        assert check_conditions(descents_matrix(2), {1, 2}, {1: 1, 2: 2}) is False

    def test_bijection_must_act_on_the_set(self):
        with pytest.raises(ValueError):
            check_conditions(descents_matrix(3), {1, 2}, {1: 1, 3: 3})
        with pytest.raises(ValueError):  # not onto the set
            check_conditions(zero_matrix(3), {1, 2, 3}, {1: 1, 2: 1, 3: 3})

    @pytest.mark.parametrize("s, th, bad", [({0, 1}, {0: 1, 1: 0}, 0), ({4, 5}, {4: 5, 5: 4}, 4)])
    def test_values_outside_1_to_n_refused(self, s, th, bad):
        # unchecked, 0 would read the matrix's last row and 4 would run past its end
        with pytest.raises(ValueError, match=rf"element {bad} out of range 1\.\.3"):
            check_conditions(descents_matrix(3), s, th)

    def test_phi_with_a_repeated_value_fails(self):
        # on the zero matrix only the bijection checks can fail
        s, th = (1, 2, 3), {1: 1, 2: 2, 3: 3}
        assert check_conditions(zero_matrix(3), s, th)
        phis = {1: {2: 2, 3: 3}, 2: {1: 1, 3: 3}, 3: {1: 1, 2: 1}}
        assert check_conditions(zero_matrix(3), s, th, phis=phis.__getitem__) is False


class TestLambdaMap:
    def test_worked_tables(self):
        assert lambda_map(descents_spec(7), WORKED, 3).image == (6, 4, 3, 5, 2, 1, 7)
        assert lambda_map(inversions_spec(7), WORKED, 3).image == (6, 4, 7, 3, 2, 1, 5)

    def test_worked_tables_after_step(self):
        # the companion tables list the relabeled permutation after its own
        # chain step: apply the map first, then move position 3 to the end
        lam_d = lambda_map(descents_spec(7), WORKED, 3)
        assert move_to_end(lam_d, 3).image == (6, 4, 5, 2, 1, 7, 3)
        lam_i = lambda_map(inversions_spec(7), WORKED, 3)
        assert move_to_end(lam_i, 3).image == (6, 4, 3, 2, 1, 5, 7)

    def test_worked_x_values(self):
        dspec, ispec = descents_spec(7), inversions_spec(7)
        p_prime = move_to_end(WORKED, 3)
        assert x_stat(dspec, WORKED) == 0 and x_stat(dspec, p_prime) == 2
        assert x_stat(ispec, WORKED) == 1 and x_stat(ispec, p_prime) == 9
        assert x_stat(dspec, lambda_map(dspec, WORKED, 3)) == 2
        assert x_stat(ispec, lambda_map(ispec, WORKED, 3)) == 9

    def test_stays_in_coset(self):
        n = 5
        for spec in (descents_spec(n), inversions_spec(n)):
            for image in permutations(range(1, n + 1)):
                p = Permutation(image)
                for i in range(1, n + 1):
                    assert lambda_map(spec, p, i).image[: i - 1] == p.image[: i - 1]

    def test_swaps_pair_values_everywhere(self):
        n = 5
        for spec in (descents_spec(n), inversions_spec(n)):
            for image in permutations(range(1, n + 1)):
                p = Permutation(image)
                for i in range(1, n + 1):
                    lam = lambda_map(spec, p, i)
                    assert x_stat(spec, lam) == x_stat(spec, move_to_end(p, i))
                    assert x_stat(spec, move_to_end(lam, i)) == x_stat(spec, p)

    def test_bijective_on_each_coset(self):
        n = 5
        for spec in (descents_spec(n), inversions_spec(n)):
            for i in range(1, n + 1):
                images: dict[tuple, set] = {}
                for image in permutations(range(1, n + 1)):
                    p = Permutation(image)
                    images.setdefault(p.image[: i - 1], set()).add(
                        lambda_map(spec, p, i).image
                    )
                coset_size = 1
                for k in range(1, n - i + 2):
                    coset_size *= k
                for prefix, hit in images.items():
                    # injective into the same coset, hence bijective on it
                    assert len(hit) == coset_size
                    assert all(img[: i - 1] == prefix for img in hit)

    def test_custom_kind_refused(self):
        spec = custom_spec(random_matrices(5, count=1)[0])
        with pytest.raises(ValueError):
            lambda_map(spec, Permutation((1, 2, 3, 4, 5)), 2)

    def test_position_range(self):
        with pytest.raises(ValueError):
            lambda_map(descents_spec(7), WORKED, 8)


class TestRelabelTable:
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_matches_lambda_map(self, n):
        perms = np.array(list(permutations(range(n))), dtype=np.int64)
        for spec in (descents_spec(n), inversions_spec(n)):
            table = relabel_table(spec)
            for i in range(n):
                expected = [
                    [v - 1 for v in lambda_map(spec, Permutation(tuple(v + 1 for v in row)), i + 1).image]
                    for row in perms.tolist()
                ]
                assert relabel(table, perms, i).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_equals_theta_and_builtin_phi(self, make, n):
        spec = make(n)
        table = relabel_table(spec)
        assert table.dtype == np.int64 and table.shape == (1 << n, n, n)
        assert table.flags.c_contiguous
        for mask in range(1 << n):
            s = members(mask, n)
            expected = np.zeros((n, n), dtype=np.int64)
            if s:
                th = theta(spec, s)
                for v in s:
                    expected[v - 1, v - 1] = th[v] - 1
                    for u, w in builtin_phi(spec, s, v).items():
                        expected[v - 1, u - 1] = w - 1
            assert np.array_equal(table[mask], expected), (mask, s)

    def test_custom_kind_refused(self):
        with pytest.raises(ValueError):
            relabel_table(custom_spec(inversions_matrix(3)))


def _corrupt_theta(row):
    row[0, 0], row[1, 1] = row[1, 1], row[0, 0]


def _corrupt_phi_not_injective(row):
    row[0, 2] = row[0, 1]


def _corrupt_phi_not_invariant(row):
    row[0, 1], row[0, 2] = row[0, 2], row[0, 1]


class TestFlipConditions:
    """The array check over all masks against the per-subset Fraction one."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_equals_check_conditions(self, make, n):
        spec = make(n)
        verdict = flip_conditions(*sweep(spec.matrix)[:2], relabel_table(spec))
        assert verdict.dtype == bool and verdict.shape == (1 << n,)
        assert verdict[0]
        assert [bool(verdict[mask]) for mask in range(1, 1 << n)] == [
            builtin_verdict(spec.matrix, spec, mask) for mask in range(1, 1 << n)
        ]
        assert verdict.all()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_descents_table_on_inversions_matrix(self, n):
        m = inversions_matrix(n)
        spec = descents_spec(n)
        verdict = flip_conditions(*sweep(m)[:2], relabel_table(spec))
        failing = [mask for mask in range(1, 1 << n) if not builtin_verdict(m, spec, mask)]
        assert np.flatnonzero(~verdict).tolist() == failing
        assert (len(failing) > 0) == (n >= 3)

    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_other_matrices(self, make):
        # random integer entries and a rational matrix, so that condition 1
        # compares sums other than 0 and +-1, scaled by L > 1
        n = 5
        spec = make(n)
        table = relabel_table(spec)
        halves = [[Fraction(j - i, 2 * (i + j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
        for m in random_matrices(n) + [AntisymmetricMatrix.from_rows(halves)]:
            verdict = flip_conditions(*sweep(m)[:2], table)
            for mask in range(1, 1 << n):
                assert verdict[mask] == builtin_verdict(m, spec, mask), mask

    @pytest.mark.parametrize("corrupt", [
        _corrupt_theta, _corrupt_phi_not_injective, _corrupt_phi_not_invariant,
    ], ids=["theta-swapped", "phi-not-injective", "phi-not-invariant"])
    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_corrupted_table_fails_its_mask(self, make, corrupt):
        n = 5
        spec = make(n)
        swept = sweep(spec.matrix)[:2]
        table = relabel_table(spec)
        full = (1 << n) - 1
        corrupt(table[full])
        if corrupt is _corrupt_phi_not_invariant:
            # still a bijection onto S - {Theta(v)}, so only invariance can fail
            assert sorted(table[full, 0, 1:].tolist()) == sorted(set(range(n)) - {table[full, 0, 0]})
        verdict = flip_conditions(*swept, table)
        assert not verdict[full]
        assert not table_verdict(spec.matrix, table, full)
        assert verdict[:full].all()


    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_invariance_mutant_on_an_inner_mask(self, make):
        # S = {1, 2, 3} of n = 5, one run: Theta(1) = 3 and Phi_1 = {2: 1, 3: 2}
        # for both statistics.  Swapped to {2: 2, 3: 1}, Phi_1 still maps
        # S - {1} onto S - {3}, but M[2][3] = -1 becomes M[2][1] = 1
        n, mask = 5, 0b01110
        spec = make(n)
        swept = sweep(spec.matrix)[:2]
        table = relabel_table(spec)
        row = table[mask, 1]
        assert row[[1, 2, 3]].tolist() == [3, 1, 2]
        row[[2, 3]] = row[[3, 2]]
        verdict = flip_conditions(*swept, table)
        assert np.flatnonzero(~verdict).tolist() == [mask]
        assert not table_verdict(spec.matrix, table, mask)
        # every other mask, the full set among them, keeps its verdict
        assert all(table_verdict(spec.matrix, table, other) for other in (0b00111, 0b11100, 0b11111))

    # On the zero matrix both conditions reduce to the bijection checks.  In
    # the built-in tables on the full set of 5, Theta(0) = 4, Theta(1) = 3,
    # Theta(4) = 0, Phi_0(1) = 0 and Phi_0(4) = 3.
    @pytest.mark.parametrize("corrupt", [
        # Theta(0) = Theta(1) = 3, with Phi_0 onto S - {3} to match
        lambda row: row.__setitem__((0, [0, 4]), [3, 4]),
        lambda row: row.__setitem__((4, 4), 5),
        _corrupt_phi_not_injective,
        lambda row: row.__setitem__((0, 1), 5),
        lambda row: row.__setitem__((0, 1), row[0, 0]),
    ], ids=["theta-not-injective", "theta-out-of-range", "phi-not-injective",
            "phi-out-of-range", "phi-onto-theta"])
    @pytest.mark.parametrize("make", [descents_spec, inversions_spec])
    def test_bijection_checks_on_the_zero_matrix(self, make, corrupt):
        n = 5
        table = relabel_table(make(n))
        swept = sweep(zero_matrix(n))[:2]
        assert flip_conditions(*swept, table).all()
        full = (1 << n) - 1
        assert table[full, [0, 1, 4, 0, 0], [0, 1, 4, 1, 4]].tolist() == [4, 3, 0, 0, 3]
        corrupt(table[full])
        verdict = flip_conditions(*swept, table)
        assert not verdict[full]
        assert not table_verdict(zero_matrix(n), table, full)
        assert verdict[:full].all()


class TestJointDistribution:
    def test_descents_n3(self):
        dist = joint_distribution(descents_matrix(3), 3)
        assert dist.total == 18
        assert sum(dist.counts.values()) == 18
        for (a, b), c in dist.counts.items():
            assert dist.counts[(b, a)] == c

    def test_zero_matrix(self):
        dist = joint_distribution(zero_matrix(3), 3)
        assert dist.counts == {(Fraction(0), Fraction(0)): 18}

    def test_inversions_n4(self):
        dist = joint_distribution(inversions_matrix(4), 4)
        assert dist.total == 96
        for (a, b), c in dist.counts.items():
            assert dist.counts[(b, a)] == c

    def test_probability(self):
        dist = joint_distribution(zero_matrix(3), 3)
        assert dist.probability(Fraction(0), Fraction(0)) == 1
        assert dist.probability(Fraction(1), Fraction(0)) == 0

    def test_scaled_matrix_shares_the_integer_tally(self):
        m = descents_matrix(4)
        half = AntisymmetricMatrix.from_rows([[e / 2 for e in row] for row in m.entries])
        dist, halved = joint_distribution(m, 4), joint_distribution(half, 4)
        assert halved.raw == dist.raw and (dist.scale, halved.scale) == (1, 2)
        assert halved.counts == {(a / 2, b / 2): c for (a, b), c in dist.counts.items()}
        assert all(halved.probability(a / 2, b / 2) == dist.probability(a, b) for a, b in dist.counts)
        assert halved.probability(Fraction(1, 4), Fraction(0)) == 0
        assert halved.total == dist.total == 96
        # a float key counts only where it equals X exactly: 0.5 is 1/2, 1 / 3 is not 1/3
        assert halved.probability(0.5, 0.5) == dist.probability(1, 1) > 0
        third = joint_distribution(AntisymmetricMatrix(m.rows, 3), 4)
        assert third.probability(Fraction(1, 3), Fraction(1, 3)) > 0 == third.probability(1 / 3, 1 / 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            joint_distribution(zero_matrix(3), 4)

    def test_limit(self):
        with pytest.raises(EnumerationLimitError):
            joint_distribution(zero_matrix(11), 11)


class TestIsExchangeable:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_builtin_statistics(self, n):
        assert is_exchangeable(descents_matrix(n), n)
        assert is_exchangeable(inversions_matrix(n), n)

    def test_zero_matrix(self):
        assert is_exchangeable(zero_matrix(4), 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_integer_tally_agrees_with_scaled_law(self, n):
        base = random_matrices(n, count=1)[0]
        halved = AntisymmetricMatrix.from_rows([[e / 2 for e in row] for row in base.entries])
        verdicts = []
        for m in [descents_matrix(n), inversions_matrix(n), halved, *random_matrices(n, count=3)]:
            dist = joint_distribution(m, n)
            counts = dist.counts
            verdicts.append(dist.swap_symmetric())
            assert verdicts[-1] == all(counts.get((b, a), 0) == c for (a, b), c in counts.items())
        # from n = 4 on the seeded random matrices include pairs that are not exchangeable
        assert verdicts[:2] == [True, True] and (n < 4 or False in verdicts)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_d_descents_exchangeable_only_at_the_ends(self, n):
        # swap-symmetric exactly for descents (d = 1) and for d >= n - 2
        for d in range(1, n):
            expected = d == 1 or d >= n - 2
            m = d_descent_matrix(n, d)
            assert is_exchangeable(m, n) is expected, d
            assert joint_distribution(m, n).swap_symmetric() is expected, d
