import ast
import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUILTIN_SIZES, builtin_rows, random_matrices
from steinperm import (
    AntisymmetricMatrix,
    EnumerationLimitError,
    MatrixFormatError,
    Permutation,
    StatisticKind,
    brute_force_moments,
    custom_spec,
    descent_count,
    descents_matrix,
    descents_spec,
    identity,
    inverse,
    inversion_count,
    inversions_matrix,
    inversions_spec,
    load_matrix_file,
    matrix_from_json_dict,
    matrix_to_json_dict,
    random_antisymmetric_matrix,
    spec_for,
    variance_formula,
    x_stat,
    zero_matrix,
)
from steinperm import perm_core
from steinperm.perm_core import parse_rational

WORKED = Permutation((6, 4, 1, 5, 3, 2, 7))

perm_images = st.integers(2, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


class TestPermutation:
    def test_valid_and_call(self):
        p = Permutation((2, 3, 1))
        assert p.n == 3
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]

    @pytest.mark.parametrize("bad", [(1, 1), (2, 3), (0, 1), (1, 2, 4)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_list_image_stored_as_tuple(self):
        from steinperm.chain import move_to_end

        p = Permutation([1, 2, 3])
        assert p.image == (1, 2, 3) and type(p.image) is tuple
        assert p == Permutation((1, 2, 3)) and hash(p) == hash(Permutation((1, 2, 3)))
        assert move_to_end(p, 1) == Permutation((2, 3, 1))

    def test_float_image_refused(self):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            Permutation((2.0, 1.0))

    def test_numpy_int_image_stored_as_ints(self):
        p = Permutation(tuple(np.array([2, 3, 1], dtype=np.int64)))
        assert [type(v) for v in p.image] == [int, int, int]
        assert p == Permutation((2, 3, 1)) and hash(p) == hash(Permutation((2, 3, 1)))
        assert repr(p) == "Permutation(image=(2, 3, 1))"

    def test_call_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation((1, 2))(3)

    def test_identity(self):
        assert identity(4).image == (1, 2, 3, 4)

    def test_inverse_worked_value(self):
        assert inverse(WORKED).image == (3, 6, 5, 2, 4, 1, 7)

    @given(perm_images)
    def test_inverse_is_involutive(self, image):
        p = Permutation(tuple(image))
        q = inverse(p)
        assert inverse(q) == p
        assert all(q(p(i)) == i for i in range(1, p.n + 1))


class TestCountingStatistics:
    def test_worked_values(self):
        pi_inv = inverse(WORKED)
        assert descent_count(pi_inv) == 3
        assert inversion_count(pi_inv) == 11

    def test_extremes(self):
        assert descent_count(identity(6)) == 0
        assert inversion_count(identity(6)) == 0
        rev = Permutation(tuple(range(6, 0, -1)))
        assert descent_count(rev) == 5
        assert inversion_count(rev) == 15


class TestMatrices:
    def test_builders_are_antisymmetric(self):
        for m in (descents_matrix(5), inversions_matrix(5), zero_matrix(5)):
            for i in range(1, 6):
                for j in range(1, 6):
                    assert m.entry(i, j) == -m.entry(j, i)

    def test_descents_entries(self):
        m = descents_matrix(4)
        assert m.entry(1, 2) == -1
        assert m.entry(2, 1) == 1
        assert m.entry(1, 3) == 0

    def test_inversions_entries(self):
        m = inversions_matrix(4)
        assert m.entry(1, 4) == -1
        assert m.entry(4, 1) == 1
        assert m.entry(2, 2) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_builders_equal_the_defining_formula(self, n):
        # the built-ins build their integer rows with L = 1; a matrix
        # parsed from the same entries clears them from the Fractions
        formulas = {
            descents_matrix: lambda i, j: -1 if j == i + 1 else (1 if i == j + 1 else 0),
            inversions_matrix: lambda i, j: -1 if i < j else (1 if i > j else 0),
        }
        for build, formula in formulas.items():
            m = build(n)
            assert m.entries == tuple(tuple(Fraction(formula(i, j)) for j in range(n)) for i in range(n))
            assert all(type(e) is Fraction for row in m.entries for e in row)
            generic = AntisymmetricMatrix.from_rows(m.entries)
            assert (m.rows, m.scale) == (generic.rows, generic.scale)
            assert all(type(e) is int for row in m.rows for e in row) and m.scale == 1
            assert variance_formula(m) == variance_formula(generic)

    def test_from_rows_rejects_asymmetry_with_location(self):
        with pytest.raises(MatrixFormatError, match=r"\(1, 3\)"):
            AntisymmetricMatrix.from_rows(
                [[0, 1, 5], [-1, 0, 2], [5, -2, 0]]
            )

    def test_from_rows_rejects_nonzero_diagonal(self):
        with pytest.raises(MatrixFormatError, match=r"\(2, 2\)"):
            AntisymmetricMatrix.from_rows([[0, 0], [0, 1]])

    def test_from_rows_rejects_non_square(self):
        with pytest.raises(MatrixFormatError, match="square"):
            AntisymmetricMatrix.from_rows([[0, 1], [-1, 0], [0, 0]])

    def test_from_rows_stores_l_times_m_and_l(self):
        text = [["0", "1/2", "-2/3"], ["-1/2", "0", "5"], ["2/3", "-5", "0"]]
        m = AntisymmetricMatrix.from_rows(text)
        assert m.rows == ((0, 3, -4), (-3, 0, 30), (4, -30, 0)) and m.scale == 6
        assert all(type(e) is int for row in m.rows for e in row)
        assert m.entries == tuple(tuple(Fraction(e) for e in row) for row in text)
        assert m.entry(1, 3) == Fraction(-2, 3)
        assert AntisymmetricMatrix(m.rows, m.scale) == m
        with pytest.raises(TypeError):
            AntisymmetricMatrix(m.entries)  # the scale has no default

    def test_equal_entries_compare_and_hash_equal(self):
        a = AntisymmetricMatrix.from_rows([["0", "1/2"], ["-1/2", "0"]])
        b = AntisymmetricMatrix.from_rows([[0, Fraction(2, 4)], [Fraction(-3, 6), "0/5"]])
        assert a == b and hash(a) == hash(b)
        assert AntisymmetricMatrix.from_rows([[0, 1], [-1, 0]]) != a
        d = AntisymmetricMatrix.from_rows([[str(e) for e in row] for row in descents_matrix(4).entries])
        assert d == descents_matrix(4) and hash(d) == hash(descents_matrix(4))

    def test_builders_store_int_rows_with_scale_1(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for m in (descents_matrix(5), inversions_matrix(5), zero_matrix(5), random_antisymmetric_matrix(5, rng)):
            assert m.scale == 1 and all(type(e) is int for row in m.rows for e in row)

    @pytest.mark.parametrize("kind", ["descents", "inversions"])
    def test_builtin_window_against_its_rows(self, kind):
        # a built-in keeps its window and builds no rows for its summary;
        # the rows, built when read, equal the defining formula, and the
        # matrix equals and hashes like from_rows of them
        for n in BUILTIN_SIZES:
            m = spec_for(kind, n).matrix
            rows = builtin_rows(kind, n)
            assert len(m.window) == 2 * n + 1 and m.n == n
            assert m.row_sums == (tuple(map(sum, rows)), tuple(sum(map(abs, row)) for row in rows))
            assert "rows" not in vars(m)
            parsed = AntisymmetricMatrix.from_rows(rows)
            assert m.rows == parsed.rows == tuple(map(tuple, rows))
            assert m == parsed and parsed == m and hash(m) == hash(parsed)
            assert parsed.window is None and parsed.row_sums == m.row_sums

    def test_custom_row_sums_from_rows(self):
        m = AntisymmetricMatrix.from_rows([["0", "1/2", "-2/3"], ["-1/2", "0", "5"], ["2/3", "-5", "0"]])
        assert m.row_sums == ((-1, 27, -26), (7, 33, 34))

    def test_from_rows_rational_asymmetry_message(self):
        with pytest.raises(MatrixFormatError) as exc:
            AntisymmetricMatrix.from_rows([["0", "1/2", "1"], ["-1/3", "0", "2"], ["-1", "-2", "0"]])
        assert str(exc.value) == "matrix is not antisymmetric at (i, j) = (1, 2): entry 1/2 vs -1/3"

    def test_random_matrix_is_valid(self):
        rng = np.random.Generator(np.random.PCG64(7))
        m = random_antisymmetric_matrix(6, rng)
        AntisymmetricMatrix.from_rows([[str(e) for e in row] for row in m.entries])


class TestXStat:
    def test_worked_values(self):
        assert x_stat(descents_spec(7), WORKED) == 0
        assert x_stat(inversions_spec(7), WORKED) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            x_stat(descents_spec(6), WORKED)

    def test_affine_relation_to_classical_statistics_exhaustive(self):
        n = 5
        dspec, ispec = descents_spec(n), inversions_spec(n)
        for image in permutations(range(1, n + 1)):
            p = Permutation(image)
            q = inverse(p)
            assert x_stat(dspec, p) == 2 * descent_count(q) - (n - 1)
            assert x_stat(ispec, p) == 2 * inversion_count(q) - n * (n - 1) // 2

    @given(perm_images)
    def test_affine_relation_to_classical_statistics_random(self, image):
        p = Permutation(tuple(image))
        n = p.n
        q = inverse(p)
        assert x_stat(descents_spec(n), p) == 2 * descent_count(q) - (n - 1)
        assert x_stat(inversions_spec(n), p) == 2 * inversion_count(q) - n * (n - 1) // 2

    def test_zero_matrix_always_zero(self):
        spec = custom_spec(zero_matrix(4))
        for image in permutations(range(1, 5)):
            assert x_stat(spec, Permutation(image)) == 0


class TestVarianceFormula:
    def test_reference_values(self):
        assert variance_formula(descents_matrix(7)).variance == Fraction(8, 3)
        assert variance_formula(inversions_matrix(3)).variance == Fraction(11, 3)
        assert variance_formula(zero_matrix(5)).variance == 0

    def test_closed_forms_on_ladder(self):
        # X = 2*Des - (n-1) and X = 2*Inv - C(n,2), so Var(X) = 4*Var(classical)
        for n in [*range(2, 21), 50, 100, 500, 1000]:
            assert variance_formula(descents_matrix(n)).variance == 4 * Fraction(n + 1, 12)
            expected = 4 * Fraction(n * (n - 1) * (2 * n + 5), 72)
            assert variance_formula(inversions_matrix(n)).variance == expected

    def test_breakdown_fields(self):
        br = variance_formula(inversions_matrix(4))
        assert br.variance == (br.sum_sq + br.row_balance) / 3
        assert len(br.a) == len(br.b) == 4

    def test_breakdown_fields_by_definition(self):
        rational = AntisymmetricMatrix.from_rows(
            [[Fraction(j - i, 2 + (i * j) % 5) for j in range(6)] for i in range(6)]
        )
        for m in [rational, descents_matrix(6), inversions_matrix(5), *random_matrices(6, count=3)]:
            n, e = m.n, m.entries
            a = [sum(e[i][i + 1 :], Fraction(0)) for i in range(n)]
            b = [sum((e[h][i] for h in range(i)), Fraction(0)) for i in range(n)]
            br = variance_formula(m)
            assert br.a == tuple(a) and br.b == tuple(b)
            assert br.sum_sq == sum(e[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
            assert br.row_balance == sum((x - y) ** 2 for x, y in zip(a, b))
            assert all(type(v) is Fraction for v in (br.sum_sq, br.row_balance, br.variance, *br.a, *br.b))

    def test_matches_brute_force_on_random_matrices(self):
        for n in (3, 4, 5):
            for m in random_matrices(n, count=3):
                mean, var = brute_force_moments(m)
                assert mean == 0
                assert var == variance_formula(m).variance


class TestBruteForce:
    def test_descents_small(self):
        assert brute_force_moments(descents_matrix(5)) == (0, 2)

    def test_limit_enforced(self):
        with pytest.raises(EnumerationLimitError):
            brute_force_moments(descents_matrix(11))

    def test_limit_override(self):
        mean, var = brute_force_moments(descents_matrix(4), limit=4)
        assert (mean, var) == (0, Fraction(5, 3))
        with pytest.raises(EnumerationLimitError):
            brute_force_moments(descents_matrix(5), limit=4)


class TestSpecFor:
    def test_builtins(self):
        assert spec_for("descents", 5).kind is StatisticKind.DESCENTS
        assert spec_for(StatisticKind.INVERSIONS, 5).matrix.entry(1, 2) == -1

    def test_custom_needs_matrix(self):
        with pytest.raises(ValueError):
            spec_for("custom", 5)


def test_perm_core_imports_no_package_module():
    """perm_core is the leaf every command imports: no import anywhere in
    it, function bodies included, names a module of the package."""
    with open(perm_core.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "fractions" in imported and "itertools" in imported
    assert [name for name in imported if name.startswith(".") or name.split(".")[0] == "steinperm"] == []


class TestSerialization:
    @pytest.mark.parametrize("text,value", [("3", 3), ("-7/2", Fraction(-7, 2)), ("+4/6", Fraction(2, 3))])
    def test_parse_rational(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "1.5", "3/0", "a/b", "1/-2", "2 / 3"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(MatrixFormatError):
            parse_rational(bad)

    def test_format_round_trip(self):
        for x in (Fraction(0), Fraction(5), Fraction(-3, 7)):
            assert parse_rational(str(x)) == x

    def test_matrix_json_round_trip(self):
        for m in (descents_matrix(4), inversions_matrix(3), *random_matrices(4, count=2)):
            assert matrix_from_json_dict(matrix_to_json_dict(m)).entries == m.entries

    def test_matrix_json_validation(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json_dict({"entries": [["0"]]})
        with pytest.raises(MatrixFormatError):
            matrix_from_json_dict({"n": 2, "entries": [["0", "1"]]})
        with pytest.raises(MatrixFormatError):
            matrix_from_json_dict({"n": 1, "entries": [["0.5"]]})

    def test_load_matrix_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json_dict(inversions_matrix(3))))
        assert load_matrix_file(str(path)).entries == inversions_matrix(3).entries

    def test_load_matrix_file_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(MatrixFormatError):
            load_matrix_file(str(path))


@settings(max_examples=30)
@given(perm_images)
def test_x_stat_mean_zero_pairs(image):
    # X(p) + X(reverse of p) = 0: reversing flips every pair orientation
    p = Permutation(tuple(image))
    rev = Permutation(tuple(reversed(image)))
    spec = inversions_spec(p.n)
    assert x_stat(spec, p) + x_stat(spec, rev) == 0


class TestValueSemantics:
    """The validating classes keep the behaviour of frozen dataclasses:
    read-only fields, and equality, hash and repr over the fields.  The
    result records are NamedTuples."""

    def test_read_only_fields(self):
        from steinperm import eulerian_distribution, standardize

        dist = eulerian_distribution(3)
        law = standardize(dist, Fraction(1), 1.0)
        for obj, field in ((WORKED, "image"), (descents_matrix(3), "rows"), (descents_spec(3), "kind"),
                           (dist, "counts"), (law, "atoms")):
            for change in (lambda: setattr(obj, field, None), lambda: delattr(obj, field),
                           lambda: setattr(obj, "other", 1)):
                with pytest.raises(AttributeError):
                    change()
            assert getattr(obj, field) is not None

    def test_equality_hash_repr(self):
        from steinperm import IntegerDistribution, eulerian_distribution

        p = Permutation(image=(2, 3, 1))
        assert p == Permutation((2, 3, 1)) and p != Permutation((1, 2, 3)) and p != (2, 3, 1)
        assert hash(p) == hash(((2, 3, 1),)) and repr(p) == "Permutation(image=(2, 3, 1))"
        spec = descents_spec(3)
        assert spec.variance == Fraction(4, 3)  # a cached value is no field
        assert spec == descents_spec(3) != inversions_spec(3)
        assert hash(spec) == hash((StatisticKind.DESCENTS, descents_matrix(3)))
        assert repr(spec) == f"StatisticSpec(kind={StatisticKind.DESCENTS!r}, matrix={descents_matrix(3)!r})"
        d = IntegerDistribution(n=3, min_value=0, counts=(1, 4, 1), total=6)
        assert d == eulerian_distribution(3) and hash(d) == hash((3, 0, (1, 4, 1), 6))
        assert repr(d) == "IntegerDistribution(n=3, min_value=0, counts=(1, 4, 1), total=6)"
        with pytest.raises(ValueError, match="sum to total"):
            IntegerDistribution(3, 0, (1, 4, 1), 7)

    def test_records_are_named_tuples(self):
        br = variance_formula(descents_matrix(3))
        assert br._fields == ("sum_sq", "row_balance", "a", "b", "variance")
        assert br == tuple(br) and br._asdict()["variance"] == br.variance == Fraction(4, 3)
        assert br._replace(variance=Fraction(0)).variance == 0
