import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import steinperm
from steinperm import (
    AntisymmetricMatrix,
    _sn,
    custom_spec,
    descents_spec,
    exchangeability,
    ingredients_exact,
    inversions_spec,
    inversions_matrix,
    matrix_to_json_dict,
    random_antisymmetric_matrix,
    sample_pair,
    zero_matrix,
)
from steinperm import analysis, cli, exact_dist, perm_core
from steinperm.cli import main

import numpy as np

from _oracles import draw_whole_tile, row_copy_x, whole_tile_draw
from conftest import d_descent_matrix

SRC = Path(steinperm.__file__).resolve().parents[1]
_RATIONAL = str(Path(__file__).with_name("rational_matrix.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def matrix_file(tmp_path):
    # doubled inversion weights: affine image of a pair that is known to be
    # exchangeable, so every verify check still holds
    base = inversions_matrix(5)
    rows = [[2 * base.entry(i, j) for j in range(1, 6)] for i in range(1, 6)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(AntisymmetricMatrix.from_rows(rows))))
    return str(path)


@pytest.fixture()
def lopsided_matrix_file(tmp_path):
    # a generic antisymmetric matrix; the induced pair of statistic values
    # is genuinely not exchangeable (checked by exact enumeration), so the
    # verify suite must flag it and exit 1
    rng = np.random.Generator(np.random.PCG64(404))
    m = random_antisymmetric_matrix(5, rng)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(m)))
    return str(path)


class TestVerify:
    def test_descents_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--stat", "descents", "--n", "5")
        report = json.loads(out)
        assert code == 0
        assert report["all_pass"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "statistic_delta_consistency",
            "drift_identity",
            "pair_exchangeable",
            "flip_bijection_conditions",
            "descent_unit_step",
        }

    def test_smallest_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--stat", "inversions", "--n", "2")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_custom_matrix(self, capsys, matrix_file):
        code, out, _ = run(capsys, "verify", "--matrix", matrix_file)
        report = json.loads(out)
        assert code == 0
        assert report["statistic"] == "custom"
        names = {c["name"] for c in report["checks"]}
        assert "flip_bijection_conditions" not in names

    def test_non_exchangeable_matrix_exit_1(self, capsys, lopsided_matrix_file):
        code, out, _ = run(capsys, "verify", "--matrix", lopsided_matrix_file)
        report = json.loads(out)
        assert code == 1
        assert report["all_pass"] is False
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failed == {"pair_exchangeable"}

    def test_two_descent_matrix_exit_1(self, capsys, tmp_path):
        # the d-descent pair is exchangeable only for d = 1 and d >= n - 2
        path = tmp_path / "two_descents.json"
        path.write_text(json.dumps(matrix_to_json_dict(d_descent_matrix(8, 2))))
        code, out, _ = run(capsys, "verify", "--matrix", str(path))
        report = json.loads(out)
        assert code == 1 and report["n"] == 8
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["pair_exchangeable"]
        # pinned before verify tallied each chunk in one pass
        assert hashlib.sha256(out.encode()).hexdigest() == "34e4a977cb1cd86e15090016e3dc8b9b8b13bfe14a6501f368c471b18251cc5e"

    def test_bad_matrix_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "entries": [["0", "1"], ["1", "0"]]}))
        code, _, err = run(capsys, "verify", "--matrix", str(path))
        assert code == 2
        assert "(1, 2)" in err

    def test_zero_variance_exit_2(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(matrix_to_json_dict(zero_matrix(3))))
        code, _, err = run(capsys, "verify", "--matrix", str(path))
        assert code == 2
        assert "variance" in err

    def test_needs_selector(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4")
        assert code == 2
        assert "--stat or --matrix" in err

    def test_enum_limit_warning(self, capsys):
        code, _, err = run(capsys, "verify", "--stat", "descents", "--n", "4", "--enum-limit", "11")
        assert code == 0
        assert err == (
            "warning: enumeration limit raised to 11; a full sweep visits 11! permutations and may run very long\n"
        )

    @pytest.mark.parametrize("command", ["bounds", "dist"])
    def test_enum_limit_warning_without_a_sweep(self, capsys, matrix_file, command):
        argv = (command, "--matrix", matrix_file)
        code, out, err = run(capsys, *argv, "--enum-limit", "11")
        assert code == 0
        assert err == (
            "warning: enumeration limit raised to 11; a sweep of up to 11! permutations runs only "
            "where the prefix-set program does not fit\n"
        )
        assert out == run(capsys, *argv)[1]

    def test_enum_limit_warning_for_a_recurrence(self, capsys):
        argv = ("bounds", "--stat", "inversions", "--n", "11")
        code, out, err = run(capsys, *argv, "--enum-limit", "11")
        assert code == 0
        assert err == (
            "warning: enumeration limit raised to 11; the exact sums of --stat come from a recurrence "
            "in Python ints, with no sweep\n"
        )
        assert json.loads(out)["ingredients"]["n"] == 11


class TestExample:
    def test_matches_embedded_tables(self, capsys):
        code, out, _ = run(capsys, "example")
        report = json.loads(out)
        assert code == 0
        assert report["all_match"] is True
        assert report["pi_prime"] == [6, 4, 5, 3, 2, 7, 1]
        assert report["descents"]["lambda_pi"] == [6, 4, 3, 5, 2, 1, 7]
        assert report["descents"]["x_pi"] == "0"
        assert report["descents"]["x_pi_prime"] == "2"
        assert report["inversions"]["lambda_pi"] == [6, 4, 7, 3, 2, 1, 5]
        assert report["inversions"]["lambda_pi_then_move"] == [6, 4, 3, 2, 1, 5, 7]
        assert report["inversions"]["x_pi"] == "1"
        assert report["inversions"]["x_pi_prime"] == "9"


class TestDist:
    def test_eulerian_json(self, capsys):
        code, out, _ = run(capsys, "dist", "--stat", "descents", "--n", "4")
        assert code == 0
        assert json.loads(out)["counts"] == ["1", "11", "11", "1"]

    def test_mahonian_csv(self, capsys):
        code, out, _ = run(capsys, "dist", "--stat", "inversions", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["value,count", "0,1", "1,2", "2,2", "3,1"]

    def test_generic_matrix(self, capsys, matrix_file):
        code, out, _ = run(capsys, "dist", "--matrix", matrix_file)
        report = json.loads(out)
        assert code == 0
        assert sum(int(c) for c in report["counts"]) == 120

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "--stat", "descents", "--n", "6", "--cap", "5")
        assert code == 2
        assert "cap" in err

    def test_needs_n(self, capsys):
        code, _, err = run(capsys, "dist", "--stat", "descents")
        assert code == 2

    @pytest.mark.parametrize("stat, recurrence", [
        ("descents", "eulerian_distribution"), ("inversions", "mahonian_distribution")])
    def test_raised_cap_warned_before_the_recurrence(self, capsys, monkeypatch, stat, recurrence):
        real, seen = getattr(exact_dist, recurrence), []

        def watched(n, cap):
            seen.append(capsys.readouterr().err)
            return real(n, cap)

        monkeypatch.setattr(exact_dist, recurrence, watched)
        code, out, err = run(capsys, "dist", "--stat", stat, "--n", "5", "--cap", "300")
        assert (code, err) == (0, "")
        assert seen == ["warning: cap raised to 300; large n may take minutes and much memory\n"]

    def test_n_past_the_raised_cap_refused_unwarned(self, capsys):
        assert run(capsys, "dist", "--stat", "inversions", "--n", "157", "--cap", "155") == \
            (2, "", "error: n=157 exceeds the cap 155\n")

    @pytest.mark.parametrize("stat, cap", [
        ("descents", exact_dist.EULERIAN_CAP), ("inversions", exact_dist.MAHONIAN_CAP)])
    def test_json_is_the_json_module_layout(self, capsys, stat, cap):
        law = exact_dist.eulerian_distribution if stat == "descents" else exact_dist.mahonian_distribution
        for n in [*range(1, 41), cap]:
            obj = {"n": n, "min_value": 0, "counts": [str(c) for c in law(n).counts]}
            assert run(capsys, "dist", "--stat", stat, "--n", str(n)) == \
                (0, json.dumps(obj, indent=2, sort_keys=True) + "\n", "")

    def test_matrix_json_is_the_json_module_layout(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(_INTEGER_MATRIX)
        code, out, _ = run(capsys, "dist", "--matrix", str(path))
        obj = json.loads(out)
        assert code == 0 and obj["min_value"] < 0
        assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_json_writer_empty_counts(self):
        obj = {"n": 0, "min_value": -3, "counts": []}
        assert cli._dist_json(0, -3, []) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestRate:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "rate", "--stat", "inversions", "--n-list", "10,20", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,statistic,d_k,d_k_sqrt_n"
        assert len(lines) == 3
        assert lines[1].startswith("10,inversions,")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "rate", "--stat", "descents", "--n-list", "5")
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["n"] == 5
        assert rows[0]["d_k_sqrt_n"] == pytest.approx(rows[0]["d_k"] * math.sqrt(5))

    def test_requires_stat(self, capsys):
        code, _, err = run(capsys, "rate", "--n-list", "5")
        assert code == 2

    def test_bad_n_list(self, capsys):
        code, _, err = run(capsys, "rate", "--stat", "descents", "--n-list", "5,x")
        assert code == 2
        assert "--n-list" in err

    @pytest.mark.parametrize("text", ["5,,6", ",5", "5,", ",", "5, ,6"])
    def test_empty_element_refused(self, capsys, text):
        code, out, err = run(capsys, "rate", "--stat", "descents", "--n-list", text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad --n-list {text!r}: invalid literal for int()")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "  "])
    def test_empty_list_refused(self, capsys, text):
        code, out, err = run(capsys, "rate", "--stat", "descents", "--n-list", text)
        assert (code, out) == (2, "")
        assert err == f"error: bad --n-list {text!r}: need positive integers\n"

    def test_spaces_around_numbers(self, capsys):
        assert run(capsys, "rate", "--stat", "descents", "--n-list", " 5 , 6")[:2] == \
            run(capsys, "rate", "--stat", "descents", "--n-list", "5,6")[:2]

    @pytest.mark.parametrize("stat", ["descents", "inversions"])
    def test_n_1_is_constant(self, capsys, stat):
        # one permutation of 1 has no descent and no inversion: no spread to standardize
        code, out, err = run(capsys, "rate", "--stat", stat, "--n-list", "5,1")
        assert code == 2
        assert out == ""
        assert err == f"error: {stat} is constant at n = 1; the rate table needs n >= 2\n"

    @pytest.mark.parametrize("n_list, error", [
        ("5,1,151", "inversions is constant at n = 1; the rate table needs n >= 2"),
        ("5,151,1", "n=151 exceeds the cap 150"),
    ])
    def test_list_refused_in_order_before_any_recurrence(self, capsys, monkeypatch, n_list, error):
        def no_pass(rows, ns):
            raise AssertionError("a recurrence ran")

        monkeypatch.setattr(analysis, "laws", no_pass)
        assert run(capsys, "rate", "--stat", "inversions", "--n-list", n_list) == (2, "", f"error: {error}\n")


class TestBounds:
    def test_exact_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--stat", "descents", "--n", "8")
        report = json.loads(out)
        assert code == 0
        assert report["ingredients"]["lambda"] == "1/4"
        assert report["report"]["surrogate_used"] is False
        assert report["report"]["rr_scaled"] == pytest.approx(
            report["report"]["rr_bound"] * math.sqrt(8)
        )

    def test_mc_needs_seed(self, capsys):
        code, _, err = run(capsys, "bounds", "--stat", "descents", "--n", "12", "--mode", "mc", "--trials", "100")
        assert code == 2
        assert "--seed" in err

    def test_mc_needs_trials(self, capsys):
        code, _, err = run(capsys, "bounds", "--stat", "descents", "--n", "12", "--mode", "mc", "--seed", "4")
        assert code == 2
        assert "--trials" in err

    def test_mc_deterministic_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bounds", "--stat", "inversions", "--n", "15", "--mode", "mc",
                "--trials", "20000", "--seed", "77"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["report"]["surrogate_used"] is True

    def test_seed_range(self, capsys):
        for seed in (str(1 << 64), "-1"):
            code, out, err = run(capsys, "bounds", "--stat", "descents", "--n", "12",
                                 "--mode", "mc", "--trials", "10", "--seed", seed)
            assert code == 2 and out == ""
            assert err == "error: seed must be in 0..2^64 - 1, a non-negative integer that fits in 64 bits\n"

    def test_matrix_refusals_in_the_order_of_exact_sums(self, capsys, tmp_path):
        # cmd_bounds refuses on Python ints, before stein_bounds runs: the
        # enumeration limit comes before the entry guard, as in _sn.exact_sums
        rows = [[0] * 11 for _ in range(11)]
        rows[0][1], rows[1][0] = 9_000_000_000_000, -9_000_000_000_000
        _write_rows(tmp_path, "big.json", rows)
        code, out, err = run(capsys, "bounds", "--matrix", str(tmp_path / "big.json"))
        assert (code, out) == (2, "")
        assert err == "error: full enumeration of S_11 exceeds the limit 10; raise the limit explicitly to proceed\n"
        code, out, err = run(capsys, "bounds", "--matrix", str(tmp_path / "big.json"), "--enum-limit", "11")
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == [f"error: {_sn._TOO_LARGE}"]

    # the first n past it: Var(E^W (W' - W)^2) has about 4825 and 4336 digits
    @pytest.mark.parametrize("stat, n", [("inversions", 30), ("descents", 86)])
    def test_exact_past_the_int_string_limit_refused(self, capsys, stat, n):
        code, out, err = run(capsys, "bounds", "--stat", stat, "--n", str(n), "--enum-limit", str(n))
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == [
            f"error: the exact ingredients at n={n} have more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for printing an int; use --mode mc"
        ]

    @pytest.mark.parametrize("stat", ["descents", "inversions"])
    def test_mc_within_4_stderr_of_exact(self, capsys, stat):
        # the estimates against the exact values at n = 12, whichever the stream
        code, out, _ = run(capsys, "bounds", "--stat", stat, "--n", "12", "--mode", "mc",
                           "--trials", "40000", "--seed", "8")
        assert code == 0
        mc = json.loads(out)["ingredients"]
        spec = {"descents": descents_spec, "inversions": inversions_spec}[stat](12)
        exact = ingredients_exact(spec, limit=12)
        for name in ("e_diff_sq", "e_abs_diff_cubed", "var_cond_pi"):
            assert mc["stderr"][name] > 0
            assert abs(mc[name] - getattr(exact, name)) <= 4 * mc["stderr"][name], name


class TestSample:
    def test_reproducible(self, capsys):
        args = ("sample", "--stat", "descents", "--n", "7", "--seed", "123", "--trials", "4")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        samples = json.loads(out1)
        assert len(samples) == 4
        for s in samples:
            assert 1 <= s["position"] <= 7

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sample", "--stat", "inversions", "--n", "5",
                           "--seed", "9", "--trials", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,x_prime,w,w_prime,position"
        assert len(lines) == 3

    def test_matrix_input(self, capsys, matrix_file):
        code, out, _ = run(capsys, "sample", "--matrix", matrix_file, "--seed", "1")
        assert code == 0

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--stat", "descents", "--n", "5"])
        assert exc.value.code == 2

    def test_no_fraction_oracle_calls(self, capsys, monkeypatch):
        from steinperm import chain, cli, perm_core

        def refuse(*args):
            raise AssertionError("per-draw Fraction evaluation")

        # at L = 1 the rows are built from ints alone: no Fraction at all
        for module, name in ((perm_core, "x_stat"), (cli, "x_stat"), (chain, "x_delta"),
                             (cli, "Fraction"), (chain, "Fraction")):
            monkeypatch.setattr(module, name, refuse)
        code, out, _ = run(capsys, "sample", "--stat", "inversions", "--n", "6",
                           "--seed", "4", "--trials", "50")
        assert code == 0
        assert len(json.loads(out)) == 50

    # sample draws the (pi, I) pairs of bounds --mode mc with the same seed
    # and trial count; 65540 trials span two blocks
    def test_same_draws_as_bounds_mc(self, capsys):
        common = ("--stat", "inversions", "--n", "4", "--seed", "21", "--trials", "65540")
        code, out, _ = run(capsys, "sample", *common, "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 65540
        mean_abs3 = math.fsum(abs(float(r[3]) - float(r[2])) ** 3 for r in rows) / len(rows)
        code, out, _ = run(capsys, "bounds", *common, "--mode", "mc")
        assert code == 0
        want = json.loads(out)["ingredients"]["e_abs_diff_cubed"]
        assert mean_abs3 == pytest.approx(want, rel=1e-12)

    def test_w_of_a_rational_x_beyond_2_53(self, capsys, tmp_path):
        # L = 3 and L M_ij, i < j, a little above 2^56: |L X| exceeds 2^53,
        # where a float64 of L X would be rounded before the division by L
        rows = _antisymmetric([[str(Fraction((1 << 56) + 1 + 7919 * (8 * i + j), 3)) for j in range(i + 1, 8)]
                               for i in range(7)])
        path = _write_rows(tmp_path, "m.json", rows)
        code, out, err = run(capsys, "sample", "--matrix", path, "--seed", "2", "--trials", "2000", "--format", "csv")
        assert (code, err) == (0, "")
        sigma = math.sqrt(custom_spec(AntisymmetricMatrix.from_rows(rows)).variance)
        drawn = [line.split(",") for line in out.splitlines()[1:]]
        assert any("/" in x for x, *_ in drawn) and any("/" not in x for x, *_ in drawn)
        assert max(abs(3 * Fraction(x)) for x, *_ in drawn) > 1 << 53
        for x, x_prime, w, w_prime, _ in drawn:
            assert float(w) == float(Fraction(x)) / sigma
            assert float(w_prime) == float(Fraction(x_prime)) / sigma
        # a float64 division misses the correctly rounded W on some rows
        assert any(float(np.float64(int(3 * Fraction(x)))) / 3 / sigma != float(w) for x, _, w, _, _ in drawn)

    @pytest.mark.parametrize("fmt, out", [("json", "[]\n"), ("csv", "x,x_prime,w,w_prime,position\n")])
    def test_no_trials(self, capsys, fmt, out):
        assert run(capsys, "sample", "--stat", "descents", "--n", "5", "--seed", "1", "--trials", "0",
                   "--format", fmt) == (0, out, "")

    # digests recorded before the rows were written per sub-tile: 400 draws
    # at n = 200 are 3 sub-tiles, 70000 at n = 6 are 2 blocks of 5461-row ones
    @pytest.mark.parametrize("argv, digest", [
        (("--stat", "inversions", "--n", "200", "--seed", "7", "--trials", "400"),
         "4eca002eaa1ed5132b20dcf7e7a5736838913bd43c5a8d109df8aa07110f9f27"),
        (("--stat", "inversions", "--n", "200", "--seed", "7", "--trials", "400", "--format", "csv"),
         "0c5b4652c078fd1369b0d0e0fbd4a114b6daab7eeb9f27dc8df3aecef2950565"),
        (("--matrix", _RATIONAL, "--seed", "17", "--trials", "70000"),
         "fbc8377329d689f2e7b1f526f22b06ea1e8437b64a3e7dd361b31fa61727ca49"),
        (("--matrix", _RATIONAL, "--seed", "17", "--trials", "70000", "--format", "csv"),
         "9baaf0854d62217c3062026a5f9f4a9a6726514ddd6ad99a7781d3a12eabf52f"),
    ], ids=["inversions-json", "inversions-csv", "rational-json", "rational-csv"])
    def test_rows_written_per_sub_tile(self, monkeypatch, tmp_path, argv, digest):
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recording())
        assert main(["sample", *argv]) == 0
        assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest
        n, trials = (200, 400) if "--stat" in argv else (6, 70000)
        rows = "\n" if "csv" in argv else '"position"'
        assert len(writes) >= -(-trials // _sn.tile_height(n))
        assert max(text.count(rows) for text in writes) <= _sn.tile_height(n)
        out = tmp_path / "out"
        assert main(["sample", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("trials", ["0", "1", "3"])
    def test_zero_variance_refused_for_every_trial_count(self, capsys, trials):
        code, out, err = run(capsys, "sample", "--stat", "descents", "--n", "1",
                             "--seed", "1", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "zero variance" in err

    @pytest.mark.parametrize("stat", ["descents", "inversions"])
    @pytest.mark.parametrize("argv", [
        ("bounds",), ("bounds", "--mode", "mc", "--trials", "10", "--seed", "1"), ("verify",), ("sample", "--seed", "1"),
    ], ids=["bounds-exact", "bounds-mc", "verify", "sample"])
    def test_n_1_refused_by_every_command(self, capsys, stat, argv):
        # the one permutation of 1 has no descent and no inversion
        assert run(capsys, argv[0], "--stat", stat, "--n", "1", *argv[1:]) == \
            (2, "", "error: statistic has zero variance; W is undefined\n")


def _write_rows(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(rows), "entries": [[str(e) for e in r] for r in rows]}))
    return str(path)


def _antisymmetric(upper):
    """Rows of the antisymmetric matrix with the given strictly upper entries."""
    n = len(upper) + 1
    rows = [["0"] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, e in enumerate(row, start=i + 1):
            rows[i][j] = e
            rows[j][i] = e[1:] if e.startswith("-") else "-" + e
    return rows


def _inversions_times(n, e):
    """Rows of e times the inversions matrix: -e above the diagonal, e below."""
    return [[e if i > j else -e if i < j else 0 for j in range(n)] for i in range(n)]


def _x_of(rows, perm):
    """X of the 0-indexed permutation ``perm``, in Python ints."""
    return sum(rows[u][v] for i, u in enumerate(perm) for v in perm[i + 1 :])


class TestWideX:
    """X = sum_v inner[v] leaves int64 once sum_{i<j} |L M_ij| reaches 2^63,
    though every row sum stays below 2^62: 2^59 times the inversions
    matrix at n = 8 sums to 28 * 2^59 = 7 * 2^61 above the diagonal."""

    def test_refused_by_sample_not_by_bounds(self, capsys, tmp_path):
        path = _write_rows(tmp_path, "wide.json", _inversions_times(8, 1 << 59))
        code, out, err = run(capsys, "sample", "--matrix", path, "--seed", "5", "--trials", "20000", "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "too large" in err
        # bounds --mode mc reduces each draw to floats and never sums X
        code, out, err = run(capsys, "bounds", "--matrix", path, "--mode", "mc", "--seed", "5", "--trials", "2000")
        assert (code, err) == (0, "")

    def test_refused_by_sample_pair(self):
        spec = custom_spec(AntisymmetricMatrix.from_rows(_inversions_times(8, 1 << 59)))
        with pytest.raises(ValueError, match="too large"):
            sample_pair(spec, np.random.default_rng(0))

    def test_below_the_bound_printed_exactly(self, capsys, tmp_path):
        # at 2^58 the sum above the diagonal is 7 * 2^60 < 2^63
        rows, trials = _inversions_times(8, 1 << 58), 3000
        path = _write_rows(tmp_path, "m.json", rows)
        code, out, err = run(capsys, "sample", "--matrix", path, "--seed", "5", "--trials", str(trials), "--format", "csv")
        assert (code, err) == (0, "")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(1)[0]))
        perms, _, pos, _ = draw_whole_tile(np.array(rows, dtype=np.int64), trials, rng)
        printed = [line.split(",")[:2] for line in out.splitlines()[1:]]
        assert len(printed) == trials
        for (x, x_prime), perm, i in zip(printed, perms.tolist(), pos.tolist()):
            assert int(x) == _x_of(rows, perm)
            assert int(x_prime) == _x_of(rows, perm[:i] + perm[i + 1 :] + [perm[i]])
        assert max(abs(int(x)) for x, _ in printed) > 1 << 62


class TestGuardBoundaries:
    """The two int64 guards of the draws at their edges, on custom
    matrices: an absolute row sum of 2^62 (2^62 - 1 passes, see
    TestNarrowInner.test_row_sum_below_2_62), and for sample a sum of
    |L M_ij| over i < j of 2^63, with every row sum below 2^62."""

    @staticmethod
    def _refused(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {_sn._TOO_LARGE}\n"

    @pytest.mark.parametrize("command", [("bounds", "--mode", "mc"), ("sample",)])
    def test_row_sum_at_2_62_refused(self, capsys, tmp_path, command):
        path = _write_rows(tmp_path, "m.json", _antisymmetric([[str(1 << 61), str(1 << 61)], ["1"]]))
        self._refused(capsys, *command, "--matrix", path, "--trials", "300", "--seed", "6")

    @staticmethod
    def _wide(total):
        # 2^58 times the inversions matrix at n = 8 has 28 * 2^58 = 2^63 - 2^60
        # above the diagonal; M[0][1] takes the rest, and rows 0 and 1 stay
        # near 11 * 2^58 < 2^62
        rows = _inversions_times(8, 1 << 58)
        rows[0][1] = -((1 << 58) + total - (1 << 63) + (1 << 60))
        rows[1][0] = -rows[0][1]
        assert sum(abs(e) for i, row in enumerate(rows) for e in row[i + 1 :]) == total
        assert max(sum(map(abs, row)) for row in rows) < 1 << 62
        return rows

    def test_x_bound_at_2_63_refused(self, capsys, tmp_path):
        path = _write_rows(tmp_path, "m.json", self._wide(1 << 63))
        self._refused(capsys, "sample", "--matrix", path, "--seed", "5", "--trials", "300")

    def test_x_bound_below_2_63_printed_exactly(self, capsys, tmp_path):
        rows, trials = self._wide((1 << 63) - 1), 300
        path = _write_rows(tmp_path, "m.json", rows)
        argv = ("sample", "--matrix", path, "--seed", "5", "--trials", str(trials), "--format", "csv")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(1)[0]))
        perms, _, pos, _ = draw_whole_tile(np.array(rows, dtype=np.int64), trials, rng)
        printed = [line.split(",")[:2] for line in out.splitlines()[1:]]
        assert len(printed) == trials
        for (x, x_prime), perm, i in zip(printed, perms.tolist(), pos.tolist()):
            assert int(x) == _x_of(rows, perm)
            assert int(x_prime) == _x_of(rows, perm[:i] + perm[i + 1 :] + [perm[i]])


# an entry of 9e12, and denominators whose lcm is about 1e18 (the scaled
# entries fit int64) or 1e36 (they do not): each is refused before any sweep
# allocates
_LARGE_ENTRY = _antisymmetric([["9000000000000", "1", "-2"], ["3", "1"], ["2"]])
_LARGE_LCM = _antisymmetric([["1/999983", "1/999979", "1"], ["1/999961", "2"], ["-1"]])
_HUGE_LCM = _antisymmetric(
    [["1/1000003", "1/1000033", "1/1000037"], ["1/1000039", "1/1000081"], ["1/1000099"]]
)


class TestNarrowInner:
    """sample and bounds --mode mc print what the int64 whole-tile draw of
    the oracle gives, as one sub-tile keyed by its positions, on matrices
    whose largest absolute row sum sits at each edge of the narrow dtypes
    that the draw keeps inner in, through both kernels: a dense row and a
    banded matrix."""

    @staticmethod
    def _rows(kind, bound):
        if kind == "dense":
            # row 0 holds bound when value 0 comes first
            return _antisymmetric([[str(bound - 3), "1", "1", "1"], ["0", "0", "0"], ["0", "0"], ["0"]])
        # one diagonal; row 1 holds -bound when value 1 precedes 0 and 2
        return _antisymmetric([[str(bound - 27)] + ["0"] * 4, ["-27", "0", "0", "0"], ["1", "0", "0"], ["1", "0"], ["1"]])

    @staticmethod
    def _against_oracle(capsys, monkeypatch, rows, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.setattr(_sn, "draw", whole_tile_draw(_sn.integer_matrix(AntisymmetricMatrix.from_rows(rows))))
        assert run(capsys, *argv) == (0, out, "")
        return out

    @pytest.mark.parametrize("bound", [127, 128, 32767, 32768])
    @pytest.mark.parametrize("kind", ["dense", "banded"])
    @pytest.mark.parametrize("command", ["sample", "bounds"])
    def test_row_sum_edges(self, capsys, monkeypatch, tmp_path, bound, kind, command):
        rows = self._rows(kind, bound)
        assert max(sum(abs(int(e)) for e in row) for row in rows) == bound
        path = _write_rows(tmp_path, "m.json", rows)
        mode = ["--format", "csv", "--trials", "600"] if command == "sample" else ["--mode", "mc", "--trials", "3000"]
        out = self._against_oracle(capsys, monkeypatch, rows, command, "--matrix", path, "--seed", "4", *mode)
        if command == "sample":
            # some draw moves the value whose suffix sum is +-bound
            steps = {abs(int(r.split(",")[1]) - int(r.split(",")[0])) for r in out.splitlines()[1:]}
            assert 2 * bound in steps

    @pytest.mark.parametrize("command", ["sample", "bounds"])
    def test_row_sum_below_2_62(self, capsys, monkeypatch, tmp_path, command):
        rows = _antisymmetric([[str(1 << 61), str((1 << 61) - 1)], ["1"]])
        path = _write_rows(tmp_path, "m.json", rows)
        mode = ["--trials", "300"] if command == "sample" else ["--mode", "mc", "--trials", "3000"]
        self._against_oracle(capsys, monkeypatch, rows, command, "--matrix", path, "--seed", "6", *mode)


_S_1000000 = "full enumeration of S_1000000 exceeds the limit 10; raise the limit explicitly to proceed\n"


class TestRefusedInput:
    # dist --matrix takes integer entries only, so it sees just the first
    @pytest.mark.parametrize("command, rows", [
        ("bounds", _LARGE_ENTRY),
        ("bounds", _LARGE_LCM),
        ("bounds", _HUGE_LCM),
        ("verify", _LARGE_ENTRY),
        ("verify", _HUGE_LCM),
        ("dist", _LARGE_ENTRY),
    ], ids=["bounds-entry", "bounds-lcm-1e18", "bounds-lcm-1e36", "verify-entry",
            "verify-lcm-1e36", "dist-entry"])
    def test_large_matrix_refused(self, capsys, tmp_path, command, rows):
        code, out, err = run(capsys, command, "--matrix", _write_rows(tmp_path, "big.json", rows))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "too large" in err

    # the dense Monte Carlo kernel's 100000 x 100000 int32 rows, 40 GB, used
    # to end in exit 3 with a MemoryError; here a patched numpy.empty refuses them
    _HUGE_MC = ("bounds", "--stat", "inversions", "--n", "100000", "--mode", "mc", "--trials", "4", "--seed", "1")
    _HUGE_MC_ERR = "error: cannot allocate the (100000, 100000) int32 matrix of 40000000000 bytes\n"

    def test_unallocatable_kernel_refused(self, capsys, monkeypatch):
        real = np.empty

        def empty(shape, *args, **kwargs):
            if shape == (100000, 100000):
                raise MemoryError(shape)
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        assert run(capsys, *self._HUGE_MC) == (2, "", self._HUGE_MC_ERR)

    # the same in a new interpreter under a 1 GiB address-space limit, as the
    # benchmark runs its fault operation, where the allocation really fails
    def test_unallocatable_kernel_refused_under_a_memory_limit(self):
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from steinperm.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        proc = run_fresh(code, *self._HUGE_MC)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", self._HUGE_MC_ERR)

    # every partial row sum of such a matrix overflows int64, which the Monte
    # Carlo draws used to do silently
    def test_mc_row_sum_overflow_refused(self, capsys, tmp_path):
        big = str((1 << 62) - 1)
        path = _write_rows(tmp_path, "big.json", _antisymmetric([[big, big, big], [big, big], [big]]))
        for command in (("bounds", "--mode", "mc"), ("sample",)):
            code, out, err = run(capsys, *command, "--matrix", path, "--trials", "1000", "--seed", "1")
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "too large" in err

    @pytest.mark.parametrize("command", ["verify", "dist", "bounds"])
    def test_negative_enum_limit_refused(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--stat", "descents", "--n", "4", "--enum-limit", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--enum-limit" in captured.err and "negative" in captured.err

    # refused by name before the matrix is built, so the other entries do not matter
    @pytest.mark.parametrize("entry", ['"1/' + "9" * 5000 + '"', '"-' + "9" * 5000 + '/7"', "9" * 5000],
                             ids=["denominator", "numerator", "json-number"])
    def test_entry_past_int_string_limit(self, capsys, tmp_path, entry):
        path = tmp_path / "long.json"
        path.write_text('{"n": 2, "entries": [["0", ' + entry + '], ["0", "0"]]}')
        code, out, err = run(capsys, "bounds", "--matrix", str(path))
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == (f"error: entry literal has a 5000-digit integer, over Python's limit of {limit} digits "
                       "for int-string conversion\n")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_cap_refused(self, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--stat", "descents", "--n", "5", "--cap", cap])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--cap" in captured.err and "positive" in captured.err

    def test_boolean_n_refused(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": True, "entries": [["0"]]}))
        code, out, err = run(capsys, "dist", "--matrix", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert '"n"' in err

    # flags that the chosen mode would silently ignore
    @pytest.mark.parametrize("extra, flag", [
        (("--trials", "10", "--seed", "3"), "--trials"),
        (("--mode", "exact", "--trials", "10"), "--trials"),
        (("--mode", "exact", "--seed", "3"), "--seed"),
        (("--mode", "mc", "--trials", "10", "--seed", "3", "--enum-limit", "5"), "--enum-limit"),
    ], ids=["exact-trials-and-seed", "exact-trials", "exact-seed", "mc-enum-limit"])
    def test_bounds_flag_unused_by_mode_refused(self, capsys, extra, flag):
        code, out, err = run(capsys, "bounds", "--stat", "descents", "--n", "5", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err

    # flags that dist would silently ignore with this selector
    @pytest.mark.parametrize("selector, extra, flag", [
        (("--stat", "descents", "--n", "5"), ("--enum-limit", "3"), "--enum-limit"),
        (("--stat", "inversions", "--n", "5"), ("--enum-limit", "100"), "--enum-limit"),
        (("--matrix",), ("--cap", "10"), "--cap"),
        (("--matrix",), ("--cap", "10", "--enum-limit", "10"), "--cap"),
    ], ids=["descents-enum-limit", "inversions-enum-limit", "matrix-cap", "matrix-cap-and-enum-limit"])
    def test_dist_flag_unused_by_selector_refused(self, capsys, matrix_file, selector, extra, flag):
        if selector == ("--matrix",):
            selector += (matrix_file,)
        code, out, err = run(capsys, "dist", *selector, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    @pytest.mark.parametrize("command", ["verify", "bounds", "sample", "dist"])
    def test_non_positive_n_refused(self, capsys, command, n):
        with pytest.raises(SystemExit) as exc:
            main([command, "--stat", "descents", "--n", n] + (["--seed", "1"] if command == "sample" else []))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--n" in captured.err and "positive" in captured.err

    def test_negative_trials_refused(self, capsys):
        code, out, err = run(capsys, "sample", "--stat", "descents", "--n", "5",
                             "--seed", "1", "--trials", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--trials" in err

    # refused on the arguments alone, before the n x n matrix of --stat is built
    @pytest.mark.parametrize("argv, err", [
        (("verify", "--stat", "inversions"), "error: " + _S_1000000),
        (("verify", "--stat", "descents", "--enum-limit", "11"),
         "warning: enumeration limit raised to 11; a full sweep visits 11! permutations and may run very long\n"
         "error: " + _S_1000000.replace("limit 10", "limit 11")),
        (("bounds", "--stat", "descents"), "error: " + _S_1000000),
        (("bounds", "--stat", "inversions", "--mode", "mc", "--trials", "5"), "error: Monte Carlo mode needs --seed\n"),
        (("bounds", "--stat", "descents", "--mode", "mc", "--seed", "1"), "error: Monte Carlo mode needs --trials\n"),
        (("sample", "--stat", "descents", "--seed", "1", "--trials", "-1"), "error: --trials must not be negative\n"),
    ], ids=["verify", "verify-enum-limit", "bounds", "mc-seed", "mc-trials", "sample-trials"])
    def test_refused_before_the_statistic_is_built(self, capsys, monkeypatch, argv, err):
        from steinperm import cli

        def unbuilt(kind, n):
            raise RuntimeError(f"the {n}x{n} matrix was built")

        monkeypatch.setattr(cli, "spec_for", unbuilt)
        assert run(capsys, *argv, "--n", "1000000") == (2, "", err)

    @pytest.mark.parametrize("command", ["bounds", "dist"])
    def test_matrix_nested_too_deeply(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, command, "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {path}: ") and err.count("\n") == 1


class TestSingleSweep:
    """verify enumerates S_n exactly once, whatever the statistic."""

    @pytest.mark.parametrize("selector", ["descents", "inversions", "custom"])
    def test_verify_rows_equal_n_factorial(self, capsys, monkeypatch, matrix_file, selector):
        from steinperm import _sn

        rows = []
        original = _sn.chunks

        def counting_chunks(*args, **kwargs):
            for block in original(*args, **kwargs):
                rows.append(block.shape[0])
                yield block

        monkeypatch.setattr(_sn, "chunks", counting_chunks)
        if selector == "custom":
            argv = ["verify", "--matrix", matrix_file]
        else:
            argv = ["verify", "--stat", selector, "--n", "5"]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert sum(rows) == math.factorial(5)


def _doubled_inversions_file(tmp_path, n):
    """A custom matrix file, 2 x the inversions matrix: every verify check holds."""
    base = inversions_matrix(n)
    rows = [[2 * base.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(AntisymmetricMatrix.from_rows(rows))))
    return str(path)


class TestNoRowCopies:
    """verify reads X of every moved and relabeled row from the swept rows'
    seen sets: no row set is copied or recomputed outside the sweep."""

    @pytest.mark.parametrize("selector", ["descents", "inversions", "custom"])
    def test_no_moved_rows_at_n_6(self, capsys, monkeypatch, tmp_path, selector):
        calls = {"chunks": 0, "moved": 0, "table_inner": 0}
        originals = {name: getattr(_sn, name) for name in calls}

        def counting(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return originals[name](*args, **kwargs)
            return wrapper

        def counting_chunks(*args, **kwargs):
            for block in originals["chunks"](*args, **kwargs):
                calls["chunks"] += 1
                yield block

        monkeypatch.setattr(_sn, "chunks", counting_chunks)
        monkeypatch.setattr(_sn, "moved", counting("moved"))
        monkeypatch.setattr(_sn, "table_inner", counting("table_inner"))
        if selector == "custom":
            argv = ["verify", "--matrix", _doubled_inversions_file(tmp_path, 6)]
        else:
            argv = ["verify", "--stat", selector, "--n", "6"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["all_pass"]
        assert calls["moved"] == 0
        # the sweep itself reads each chunk's suffix sums once
        assert calls["table_inner"] == calls["chunks"] >= 1


class TestFailingChecks:
    """A broken table makes the identity checks fail, and the failing set is
    the one that X recomputed on copied rows gives."""

    @staticmethod
    def failing(capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        return [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]

    def oracle_failing(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            _sn, "moved_x", lambda perms, inner, suffix, table: [(inner, *row_copy_x(perms, suffix, table))]
        )
        return self.failing(capsys, argv)

    @pytest.mark.parametrize("stat, other", [("descents", "inversions"), ("inversions", "descents")])
    def test_other_builtins_relabel_table(self, capsys, monkeypatch, stat, other):
        from steinperm.perm_core import spec_for

        build = exchangeability.relabel_table
        monkeypatch.setattr(exchangeability, "relabel_table", lambda spec: build(spec_for(other, spec.n)))
        argv = ["verify", "--stat", stat, "--n", "6"]
        failing = self.failing(capsys, argv)
        assert "relabeling_swaps_pair_values" in failing
        assert "statistic_delta_consistency" not in failing and "drift_identity" not in failing
        assert failing == self.oracle_failing(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("selector", ["descents", "inversions", "custom"])
    @pytest.mark.parametrize("value, seen", [(0, 0b111111), (2, 0b000111), (5, 0b100000)])
    def test_altered_suffix_entry(self, capsys, monkeypatch, tmp_path, selector, value, seen):
        build = _sn.suffix_table

        def altered(mint):
            table = build(mint).copy()
            table[value, seen] += 1
            return table

        monkeypatch.setattr(_sn, "suffix_table", altered)
        if selector == "custom":
            argv = ["verify", "--matrix", _doubled_inversions_file(tmp_path, 6)]
        else:
            argv = ["verify", "--stat", selector, "--n", "6"]
        failing = self.failing(capsys, argv)
        assert {"statistic_delta_consistency", "drift_identity"} <= set(failing)
        assert ("relabeling_swaps_pair_values" in failing) == (selector != "custom")
        assert failing == self.oracle_failing(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("selector", ["descents", "inversions", "custom"])
    def test_wrong_variance_formula(self, capsys, monkeypatch, tmp_path, selector):
        # a built-in's spec.variance is its closed form, so verify checks the matrix formula by itself
        real = cli.variance_formula
        monkeypatch.setattr(cli, "variance_formula", lambda m: real(m)._replace(variance=real(m).variance + 1))
        if selector == "custom":
            argv = ["verify", "--matrix", _doubled_inversions_file(tmp_path, 6)]
        else:
            argv = ["verify", "--stat", selector, "--n", "6"]
        assert self.failing(capsys, argv) == ["variance_formula_vs_enumeration"]


class TestNoSweep:
    """Exact bounds and dist --matrix read S_n through the prefix-set
    dynamic program and pull no rows from the sweep."""

    @pytest.mark.parametrize(
        "command, selector",
        [("bounds", "descents"), ("bounds", "inversions"), ("bounds", "integer"),
         ("bounds", "rational"), ("dist", "integer")],
    )
    def test_no_rows_at_n_6(self, capsys, monkeypatch, tmp_path, command, selector):
        from steinperm import _sn

        rows = []
        original = _sn.chunks

        def counting_chunks(*args, **kwargs):
            for block in original(*args, **kwargs):
                rows.append(block.shape[0])
                yield block

        monkeypatch.setattr(_sn, "chunks", counting_chunks)
        if selector in ("descents", "inversions"):
            argv = [command, "--stat", selector, "--n", "6"]
        else:
            m = random_antisymmetric_matrix(6, np.random.Generator(np.random.PCG64(6)))
            if selector == "rational":
                m = AntisymmetricMatrix.from_rows([[e / 6 for e in row] for row in m.entries])
            path = tmp_path / "m.json"
            path.write_text(json.dumps(matrix_to_json_dict(m)))
            argv = [command, "--matrix", str(path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert sum(rows) == 0


class TestInternalError:
    """An exception that is not a usage or input error exits 3 with one line."""

    @pytest.mark.parametrize(
        "exc, line",
        [
            (RuntimeError("boom"), "error: internal: RuntimeError('boom')\n"),
            (MemoryError(), "error: internal: MemoryError()\n"),
        ],
    )
    def test_exit_3(self, capsys, monkeypatch, exc, line):
        from steinperm import cli

        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_bounds", broken)
        code, out, err = run(capsys, "bounds", "--stat", "descents", "--n", "4")
        assert code == 3
        assert out == ""
        assert err == line


# the child prints whether numpy was loaded as the last line of stderr
_MAIN = """\
import sys
from steinperm.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stderr.write(f"numpy loaded: {'numpy._core' in sys.modules}\\n")
sys.exit(code)
"""


def run_fresh(code, *argv):
    """Run ``code`` with ``argv`` in a new interpreter that imports steinperm from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=300)


# pinned both in this process, where numpy was imported before steinperm,
# and in a new interpreter, where steinperm loads it lazily; the Monte Carlo
# cases here and below pin the stream of the keyed draw
_ARRAY_GOLDENS = [
    (("verify", "--stat", "descents", "--n", "7"),
     "5c0bed8ceddb2e1e043fd37a67ad732d515dcb99dde5d49454944ef69d00cab8"),
    (("bounds", "--stat", "descents", "--n", "30", "--mode", "mc", "--trials", "2000", "--seed", "11"),
     "7bc5cbb47d44390a08b949ce893c79146600b051925709cf4522268d27a04384"),
    (("sample", "--stat", "inversions", "--n", "8", "--seed", "5", "--trials", "20"),
     "ccfbb7b4d6363b6d9ddd43cccf91d58ddef63553c2eb1da3e38b53fa81ab8476"),
    # a rational matrix, L = 12, with negative entries and one given as 4/6,
    # so the printed X are fractions, some in lower terms than x / 12
    (("sample", "--matrix", _RATIONAL, "--seed", "17", "--trials", "50"),
     "56ef023b34c12dd221cab0df9fb048f2bd7cd29e9e37fe0ef6875b4dc9c97b41"),
    (("sample", "--matrix", _RATIONAL, "--seed", "17", "--trials", "50", "--format", "csv"),
     "bd3eff84ead392d3ba7a8051d5b4da27bfccd1e124ca0dadd047be75fa77440c"),
]


# the other built-in's verify report, pinned in both places too
_VERIFY_INVERSIONS_GOLDEN = (("verify", "--stat", "inversions", "--n", "7"),
                             "151584cdfacaaf3b2173852ee082b77ca21d466481a0887e8a882ace7e725044")


# exact bounds of a built-in, as the prefix-set program printed them, now
# from the recurrence with no array work: pinned in both places too
_RECURRENCE_GOLDEN = (("bounds", "--stat", "inversions", "--n", "6"),
                      "2ea572c1dab22785b205be2f3fbc7e224b20a1f2493400c5bc4aaeb64221751a")


# refused commands, then the one in argv, in one interpreter; the child
# prints how many parsers it built as the last line of stderr
_REFUSED_THEN_GOOD = """\
import sys
from steinperm import cli
assert cli.build_parser.cache_info().misses == 0
try:
    cli.main(["sample", "--stat", "descents", "--n", "5"])
except SystemExit as exc:
    assert exc.code == 2
else:
    raise AssertionError("sample without --seed accepted")
assert cli.main(["bounds", "--stat", "descents", "--n", "4", "--mode", "mc"]) == 2
code = cli.main(sys.argv[1:])
sys.stderr.write(f"parsers built: {cli.build_parser.cache_info().misses}\\n")
sys.exit(code)
"""


class TestGoldenStdout:
    """The exact laws at the caps, their rate tables and the verify report,
    byte for byte: the sha256 of stdout as the full-row recurrences, the
    Fraction standardize and the per-subset Fraction bijection check
    printed it."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("dist", "--stat", "inversions", "--n", "150"),
             "7a065c8b2f70dce68ae051c983fb8d42e815970049dfbd2d6b52715a59395152"),
            (("dist", "--stat", "descents", "--n", "200", "--format", "csv"),
             "9fcb19e210abf31c1e15f3003eafccee3cf5bbc1e27f7f3e0220fcc1e1026791"),
            (("rate", "--stat", "descents", "--n-list", "2,10,37,200"),
             "75eb2bc2d21d57765bd3993444187d110eb934ada0e12ec76f029747606f780d"),
            (("rate", "--stat", "descents", "--n-list", "2,10,37,200", "--format", "csv"),
             "9d09bdd3fda17c9db8573a6d199127b2c605f48adc97fe10f2083c810a07fc5c"),
            (("rate", "--stat", "inversions", "--n-list", "2,10,37,150"),
             "9f70df93d0b225579f86fa0b2deb1436902f478d4b8d3ee50e856eeae9386bf0"),
            (("rate", "--stat", "inversions", "--n-list", "2,10,37,150", "--format", "csv"),
             "360401d6eda822a243e80ae4d4dfc434c9f88ad97255fef9ad691ee66a830090"),
            (("verify", "--stat", "descents", "--n", "7"),
             "5c0bed8ceddb2e1e043fd37a67ad732d515dcb99dde5d49454944ef69d00cab8"),
            _VERIFY_INVERSIONS_GOLDEN,
            _RECURRENCE_GOLDEN,
            *_ARRAY_GOLDENS[1:3],
            # odd rows (11 027 and 199 entries) and the even one in CSV, taken
            # before the recurrences carried half rows
            (("dist", "--stat", "inversions", "--n", "149"),
             "726987aceada2bfccd94aa08e8bf1d30db1d6d583130d085ba2232549ec557b3"),
            (("dist", "--stat", "inversions", "--n", "150", "--format", "csv"),
             "2cbea8539443609138236e1a7f9473568dfb4139e9b2f5ed70c1b195784558fb"),
            (("dist", "--stat", "descents", "--n", "199"),
             "b3983dfb3a2465e84c322f5cd5e9f65e16ed3cbef5c2e07f3a2f0785e993a4f4"),
            # lambda_map on the worked example, exact bounds by the prefix-set
            # program, and Monte Carlo bounds and samples in both formats
            (("example",),
             "0a7e9809fc220b4fc837b14187d117d4ac38f29113d2191373a1d6d22f82e9f2"),
            (("bounds", "--stat", "descents", "--n", "8"),
             "f1351e6f50b1acecbd77122a7e6db06c68e3ce8e54c2b59c2c975f545e8b5b9c"),
            (("bounds", "--stat", "inversions", "--n", "12", "--mode", "mc", "--trials", "5000", "--seed", "11"),
             "1c7e5847e4ae03aa3bc04aa5a3b64a66ee13bc9893a06e689f37d93b973108d8"),
            (("sample", "--stat", "descents", "--n", "12", "--seed", "3", "--trials", "5"),
             "79940a9a13f44cb5666a02346aface2deadcb89171ec5ba1181b16b587931ea3"),
            (("sample", "--stat", "descents", "--n", "12", "--seed", "3", "--trials", "5", "--format", "csv"),
             "fed29ae675b1feb8c2ec124c63dc87d59d1a7768d6e2641b27ce576f0b69bfc1"),
            # last, so that the cases before keep their ids
            *_ARRAY_GOLDENS[3:],
        ],
    )
    def test_sha256(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # taken before rate ran one recurrence pass per n-list and dist wrote its
    # own JSON: unsorted n-lists with repeats, the descents law at its cap
    # as JSON, and the one- and two-point laws
    @pytest.mark.parametrize("argv, digest", [
        (("rate", "--stat", "inversions", "--n-list", "150,2,37,37,10"),
         "b971554a086135628f97a417e26d8b880c6d53a4da3b2f7809a585d8ce25cd63"),
        (("rate", "--stat", "inversions", "--n-list", "150,2,37,37,10", "--format", "csv"),
         "69efd43637e065ceb812bde8adc06b87512b477c8d22c953fd69ee99895c7f9e"),
        (("rate", "--stat", "descents", "--n-list", "150,2,37,37,10"),
         "ca680028ab1d378677a9e8afa1f6848794a475b72ffbd82a710802507e2f3d84"),
        (("rate", "--stat", "descents", "--n-list", "150,2,37,37,10", "--format", "csv"),
         "2898615932f9899f25fa46c58edbbd90bdf687df0c0d629222bbb402a7b5debc"),
        (("rate", "--stat", "descents", "--n-list", "200,3,3,40"),
         "9df8592fc40b087e3c57dcf526463fa9e930e0fb3b54f2f454cff447d19f555e"),
        (("rate", "--stat", "descents", "--n-list", "200,3,3,40", "--format", "csv"),
         "61b4ab8b56ab408e6bcc910a6a729f3142f6b54247eb519b9a662c3677e497a3"),
        (("rate", "--stat", "inversions", "--n-list", "150,3,3,40"),
         "021c85dd6ea17e4732309129cca04dc5f2a1715bd4b6ecc0714f84c911fe1a49"),
        (("rate", "--stat", "inversions", "--n-list", "150,3,3,40", "--format", "csv"),
         "1e040a2c1a07b8bf499342e86ba4fdc433edafa106682c4b6d79b47627bab67f"),
        (("dist", "--stat", "descents", "--n", "200"),
         "41b197b08c46143995837a7340cfdd6d8892458ece0e12940dde077ef9b47a06"),
        (("dist", "--stat", "inversions", "--n", "1"),
         "eb6dd098f84fd209f41c1a205b3878fb696c20aa139d3a9397f0575b94e5f82d"),
        (("dist", "--stat", "inversions", "--n", "2"),
         "f3ccfce25ae83dbbfadd8c7b292209ab294d1c476e9671f4d7d75bdd63ed04e1"),
    ])
    def test_sha256_one_pass(self, capsys, argv, digest):
        self.test_sha256(capsys, argv, digest)

    # the parser is built once per process, and a refusal, by argparse or
    # by main, leaves nothing behind for the next command
    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--stat", "descents", "--n", "7"),
         "5c0bed8ceddb2e1e043fd37a67ad732d515dcb99dde5d49454944ef69d00cab8"),
        (("sample", "--stat", "descents", "--n", "12", "--seed", "3", "--trials", "5"),
         "79940a9a13f44cb5666a02346aface2deadcb89171ec5ba1181b16b587931ea3"),
    ])
    def test_sha256_after_refused_commands(self, argv, digest):
        proc = run_fresh(_REFUSED_THEN_GOOD, *argv)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
        lines = proc.stderr.splitlines()
        assert lines[-1] == "parsers built: 1"
        assert lines[-3:-1] == [
            "steinperm sample: error: the following arguments are required: --seed",
            "error: Monte Carlo mode needs --seed",
        ]

    @pytest.mark.parametrize("argv, digest", [
        _ARRAY_GOLDENS[0], _RECURRENCE_GOLDEN, *_ARRAY_GOLDENS[1:], _VERIFY_INVERSIONS_GOLDEN,
    ])
    def test_sha256_fresh_interpreter(self, argv, digest):
        # numpy is loaded lazily here, on the first array operation, and
        # never by the recurrence
        proc = run_fresh(_MAIN, *argv)
        loaded = (argv, digest) != _RECURRENCE_GOLDEN
        assert (proc.returncode, proc.stderr) == (0, f"numpy loaded: {loaded}\n")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


_FAULT = [[0, 9_000_000_000_000, 1, -2], [-9_000_000_000_000, 0, 3, 1], [-1, -3, 0, 2], [2, -1, -2, 0]]


class TestLazyNumpy:
    """What loads numpy, each case in a new interpreter: the recurrences,
    --help and refused input never do.  That an array operation does is
    checked with the stdout of TestGoldenStdout.test_sha256_fresh_interpreter."""

    @pytest.mark.parametrize("module", ["steinperm", "steinperm.cli"])
    def test_import(self, module):
        proc = run_fresh(f"import sys, {module}; print('numpy._core' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    @pytest.mark.parametrize("argv", [
        ("dist", "--stat", "inversions", "--n", "20"),
        ("dist", "--stat", "descents", "--n", "20", "--format", "csv"),
        ("rate", "--stat", "descents", "--n-list", "5,10,20"),
        ("rate", "--stat", "inversions", "--n-list", "5,10,20"),
        ("example",),
        ("--help",),
        ("bounds", "--stat", "descents", "--n", "9"),
        ("bounds", "--stat", "inversions", "--n", "9"),
    ], ids=["dist-inversions", "dist-descents", "rate-descents", "rate-inversions", "example", "help",
            "bounds-descents", "bounds-inversions"])
    def test_no_array_work(self, argv):
        proc = run_fresh(_MAIN, *argv)
        assert (proc.returncode, proc.stderr) == (0, "numpy loaded: False\n")
        assert proc.stdout

    @pytest.mark.parametrize("argv, error", [
        (("bounds", "--matrix", "fault.json"), _sn._TOO_LARGE),
        (("dist", "--matrix", "fault.json"), _sn._TOO_LARGE),
        (("bounds", "--matrix", "zero.json", "--mode", "mc", "--trials", "10", "--seed", "1"),
         "statistic has zero variance; W is undefined"),
        (("verify", "--stat", "descents", "--n", "11"),
         "full enumeration of S_11 exceeds the limit 10; raise the limit explicitly to proceed"),
        (("sample", "--matrix", "wide.json", "--seed", "1"), _sn._TOO_LARGE),
    ], ids=["bounds-fault", "dist-fault", "mc-zero-variance", "verify-enum-limit", "sample-wide-x"])
    def test_refused_first(self, tmp_path, argv, error):
        _write_rows(tmp_path, "fault.json", _FAULT)
        _write_rows(tmp_path, "wide.json", _inversions_times(8, 1 << 59))
        _write_rows(tmp_path, "zero.json", [[0] * 3] * 3)
        proc = run_fresh(_MAIN, *(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {error}\nnumpy loaded: False\n"

    def test_numpy_imported_first_is_kept(self):
        code = (
            "import sys, types, numpy\n"
            "from steinperm import _sn, chain, cli, exchangeability, stein_bounds\n"
            "mods = (_sn, chain, exchangeability, stein_bounds)\n"
            "print(all(m.np is numpy for m in mods), sys.modules['numpy'] is numpy, type(numpy) is types.ModuleType)\n"
            "print(hasattr(cli, 'np'))\n"  # cli reads it from _sn when it sweeps
        )
        proc = run_fresh(code)
        assert (proc.returncode, proc.stdout) == (0, "True True True\nFalse\n")

    def test_lazy_module_is_the_one_in_sys_modules(self):
        code = (
            "import sys\n"
            "from steinperm import _sn, stein_bounds\n"
            "lazy = _sn.np\n"
            "lazy.int64\n"  # loads it in place
            "import numpy\n"
            "print(stein_bounds.np is lazy is numpy is sys.modules['numpy'], 'numpy._core' in sys.modules)\n"
        )
        proc = run_fresh(code)
        assert (proc.returncode, proc.stdout) == (0, "True True\n")

    @pytest.mark.parametrize("hide", [
        "sys.modules['numpy'] = None",
        "sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p, 'numpy'))]",
    ], ids=["none-in-sys-modules", "not-on-path"])
    def test_missing_numpy_fails_on_import(self, hide):
        code = (
            f"import os, sys\n{hide}\n"
            "try:\n"
            "    import steinperm\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc.name)\n"
        )
        proc = run_fresh(code)
        assert (proc.returncode, proc.stdout) == (0, "ModuleNotFoundError numpy\n")


# the steinperm modules that have run, as the last line of stderr: the
# command modules sit in sys.modules as lazy modules until first used
_RAN = """\
import sys, types
from steinperm.cli import main
try:
    code = main(sys.argv[1:])
finally:
    ran = sorted(k for k, m in sys.modules.items() if k.startswith("steinperm.") and type(m) is types.ModuleType)
    sys.stderr.write(f"ran: {' '.join(ran)}\\n")
sys.exit(code)
"""


class TestColdStart:
    """What a new interpreter runs: importing the CLI runs perm_core and cli
    and no dataclasses or inspect, and each command runs only the modules
    it uses: the recurrences, exact bounds of a built-in, --help and a
    matrix refused on its entries never run _sn."""

    def test_import_loads_no_dataclasses(self):
        proc = run_fresh("import sys, steinperm.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, "False False\n")

    def test_command_modules_registered_not_run(self):
        code = (
            "import sys, types, steinperm, steinperm.cli\n"
            "names = ('analysis', 'chain', 'exact_dist', 'exchangeability', 'stein_bounds', '_sn')\n"
            "modules = [sys.modules['steinperm.' + name] for name in names]\n"
            "print(all(m is getattr(steinperm, name) for m, name in zip(modules, names)))\n"
            "print([type(m) is types.ModuleType for m in modules])\n"
            "for m in modules:\n"
            "    m.__doc__\n"  # the first read runs it, in place
            "print([type(m) is types.ModuleType for m in modules], modules[1].move_to_end is steinperm.move_to_end)\n"
        )
        proc = run_fresh(code)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "True\n" + "[False, False, False, False, False, False]\n" + \
            "[True, True, True, True, True, True] True\n"

    @pytest.mark.parametrize("argv, code, ran", [
        (("bounds", "--matrix", "fault.json"), 2, "cli perm_core"),
        (("dist", "--stat", "inversions", "--n", "20"), 0, "cli exact_dist perm_core"),
        (("dist", "--stat", "descents", "--n", "20", "--format", "csv"), 0, "cli exact_dist perm_core"),
        (("rate", "--stat", "descents", "--n-list", "5,10,20"), 0, "analysis cli exact_dist perm_core"),
        (("rate", "--stat", "inversions", "--n-list", "5,10,20"), 0, "analysis cli exact_dist perm_core"),
        (("example",), 0, "_sn chain cli exchangeability perm_core"),
        (("--help",), 0, "cli perm_core"),
        (("bounds", "--stat", "descents", "--n", "9"), 0, "cli exact_dist perm_core stein_bounds"),
        (("bounds", "--stat", "inversions", "--n", "9"), 0, "cli exact_dist perm_core stein_bounds"),
        (("sample", "--stat", "descents", "--n", "5", "--seed", "1", "--trials", "2"), 0, "_sn chain cli perm_core"),
        (("bounds", "--stat", "inversions", "--n", "5", "--mode", "mc", "--trials", "4", "--seed", "1"), 0,
         "_sn cli perm_core stein_bounds"),
        (("verify", "--stat", "descents", "--n", "4"), 0, "_sn cli exchangeability perm_core stein_bounds"),
    ], ids=["bounds-fault", "dist-inversions", "dist-descents", "rate-descents", "rate-inversions", "example", "help",
            "bounds-descents", "bounds-inversions", "sample-descents", "bounds-mc-inversions", "verify-descents"])
    def test_modules_run_by_command(self, tmp_path, argv, code, ran):
        _write_rows(tmp_path, "fault.json", _FAULT)
        proc = run_fresh(_RAN, *(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
        assert proc.returncode == code
        assert proc.stderr.splitlines()[-1] == "ran: " + " ".join(f"steinperm.{m}" for m in ran.split())


class TestUsage:
    def test_stat_choices_are_the_table_keys(self):
        subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        stats = [a.choices for sub in subs.values() for a in sub._actions if a.dest == "stat"]
        assert stats == [[kind.value for kind in perm_core.BUILTINS]] * 5  # all but example
        assert list(perm_core.BUILTINS) == list(exact_dist.RECURRENCES)

    def test_stat_and_matrix_conflict(self, capsys, matrix_file):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--stat", "descents", "--matrix", matrix_file])
        assert exc.value.code == 2

    def test_n_matrix_mismatch(self, capsys, matrix_file):
        code, _, err = run(capsys, "verify", "--matrix", matrix_file, "--n", "7")
        assert code == 2
        assert "disagrees" in err

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "example", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["all_match"] is True

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinperm.cli", "example"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["all_match"] is True


# fixed matrix files for the --matrix layouts: integer entries for dist,
# rational ones (cleared by L = 6) for exact and Monte Carlo bounds
_INTEGER_MATRIX = """{"n": 6, "entries": [
  ["0", "2", "-1", "3", "0", "1"],
  ["-2", "0", "1", "-1", "2", "0"],
  ["1", "-1", "0", "2", "-3", "1"],
  ["-3", "1", "-2", "0", "1", "2"],
  ["0", "-2", "3", "-1", "0", "-1"],
  ["-1", "0", "-1", "-2", "1", "0"]]}
"""
_RATIONAL_MATRIX = """{"n": 5, "entries": [
  ["0", "1/2", "-2/3", "1", "0"],
  ["-1/2", "0", "3/2", "-1/3", "2"],
  ["2/3", "-3/2", "0", "1/6", "-1"],
  ["-1", "1/3", "-1/6", "0", "5/6"],
  ["0", "-2", "1", "-5/6", "0"]]}
"""


@pytest.mark.parametrize("text, argv, digest", [
    (_INTEGER_MATRIX, ("dist",),
     "3a5ccd1832c0caa95de3f361785d7574f62e3306ff4c81e97a783acf9614fe85"),
    (_INTEGER_MATRIX, ("dist", "--format", "csv"),
     "6f5732673d30f0e878d245ea698d0ce373924e14745d1e6230a49efda931fcd2"),
    (_RATIONAL_MATRIX, ("bounds",),
     "6d3d4a28d66b3728de774595cd8cbf3fd9d2b0d4a17473d57daa11f6845d0345"),
    (_RATIONAL_MATRIX, ("bounds", "--mode", "mc", "--trials", "2000", "--seed", "7"),
     "d3d778f7e772663dec592372a85574ae127d5a0d8ee75748308e4b9b458e8b6a"),
    # verify's custom-matrix path, whose array types come from the matrix's
    # bounds; neither pair is exchangeable, so verify exits 1
    (_INTEGER_MATRIX, ("verify",),
     "4cd0a13a8d1ef38563eb61c8ef272f959c2f0734ec5c0eacf5ae9fd92c5d5bed"),
    (_RATIONAL_MATRIX, ("verify",),
     "4387f35bfc9dddb0ef200fb1d80d3a173bb84348a8945a52a95e5b9177536b36"),
])
def test_matrix_layout_sha256(capsys, tmp_path, text, argv, digest):
    """The --matrix layouts of dist, bounds and verify, byte for byte."""
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run(capsys, argv[0], "--matrix", str(path), *argv[1:])
    assert (code, err) == (1 if argv[0] == "verify" else 0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _residue_rows(n, bound):
    """Strictly upper entries of a dense n x n integer matrix whose widest
    absolute row sum is ``bound``: row 0 sums to +bound and row n - 1 to
    -bound, each over entries of one sign, and every other entry above the
    diagonal is -1, 0 or 1, but M[0][n - 1] = 0."""
    upper = [[str((7 * i + 11 * j) % 3 - 1) for j in range(i + 1, n)] for i in range(n - 1)]
    share, extra = divmod(bound, n - 2)
    for k in range(n - 2):
        upper[0][k] = upper[k + 1][-1] = str(share + (k < extra))  # M[0][k + 1] and M[k + 1][n - 1]
    upper[0][-1] = "0"
    return upper


def _varied_band_rows(n):
    """Strictly upper entries of a banded n x n integer matrix: the constant
    diagonal d = 1 of 2s, and d = 3 of entries that vary along it."""
    return [[{1: "2", 3: str((7 * i) % 11 - 5)}.get(j - i, "0") for j in range(i + 1, n)] for i in range(n - 1)]


def _band_rows(n, offsets):
    """Strictly upper entries of a banded n x n integer matrix whose
    diagonals d in ``offsets`` hold entries from -4 to 4 that vary along
    them, every other entry zero."""
    return [[str((7 * i + 3 * (j - i)) % 9 - 4) if j - i in offsets else "0" for j in range(i + 1, n)]
            for i in range(n - 1)]


def _limit_rows(n):
    """Strictly upper entries of a dense n x n integer matrix whose row 0
    has absolute sum 2^62 - 1, the widest row the draws accept, spread over
    its n - 1 positive entries; every other entry above the diagonal is
    -1, 0 or 1, so the sum of all absolute rows stays below 2^64."""
    limit = (1 << 62) - 1
    share, extra = divmod(limit, n - 1)
    upper = [[str((7 * i + 11 * j) % 3 - 1) for j in range(i + 1, n)] for i in range(n - 1)]
    upper[0] = [str(share + (k < extra)) for k in range(n - 1)]
    return upper


class TestDrawKernelGoldens:
    """Monte Carlo bounds and samples, byte for byte, on the paths of both
    draw kernels, recorded before the kernels ran on flat rows and on 8-bit
    residues: inversions at n = 200 (a dense kernel whose widest row, 199,
    fits 8 bits), descents across a draw block, a banded custom matrix with
    a diagonal that is not constant, and dense custom matrices whose widest
    absolute row sum is 255 and 256.  Recorded later, before the dense
    kernel ran on residues for every matrix and the banded kernel stepped
    every diagonal flat: inversions at n = 50 and 100 (the ``*-wide`` ids),
    dense customs whose widest row, 127, 32767 or 2^62 - 1, fills a residue
    type as wide as ``InnerKernel.dtype``, and banded customs whose
    diagonals vary, d = 1..14 (``band-near``) and d = 35..49 (``band-far``)
    at n = 50."""

    @pytest.mark.parametrize("argv, digest", [
        (("bounds", "--stat", "inversions", "--n", "200", "--mode", "mc", "--trials", "2048", "--seed", "11"),
         "9204b2b206d2fd62ee9e522509f06a414594b387425bf818335cc6474fa31711"),
        (("sample", "--stat", "inversions", "--n", "200", "--seed", "3", "--trials", "300"),
         "ecd9a677d1daca1fa7ab4b6fe0535dc62a4a880553dfb46a17178f8e1664750b"),
        (("bounds", "--stat", "descents", "--n", "50", "--mode", "mc", "--trials", "65537", "--seed", "11"),
         "e9ebcd652c00e76d40cd03ce8379afcf75401fd087c0f356a96625a4304ce4be"),
        (("sample", "--stat", "inversions", "--n", "50", "--seed", "3", "--trials", "300"),
         "3a800423ef80d24c437fd24df3d4264f4fe3400ca443b1aacb81f7d9436efb8a"),
        (("bounds", "--stat", "inversions", "--n", "100", "--mode", "mc", "--trials", "2048", "--seed", "11"),
         "fce2a4bfda134733108baaee429e54142c409c0f8f0668b9c3d230580d6e22b9"),
    ], ids=["inversions-200-bounds", "inversions-200-sample", "descents-50-two-blocks", "inversions-50-sample-wide",
            "inversions-100-bounds-wide"])
    def test_builtin(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # 3000 draws at n = 40 are four sub-tiles, 1000 are two
    @pytest.mark.parametrize("matrix, argv, digest", [
        ("band", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "7b9badfaf4c85e2b924350e0ab2c99704801cf211b5012d121417af6d2ad32eb"),
        ("band", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "0e49a3ce81b0eeb506372ce86e373650ea568001f154c18a94f7689ac0fcd8e1"),
        ("dense-255", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "479cf7864b0523b19f7b2386341371770e2727088526f7bd65606eb63aa2bf99"),
        ("dense-255", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "14b7aa2dc9d6a5b35ffaf08957151425763ff543b99a6bc6b0a2b6fec8f24bc5"),
        ("dense-256", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "8e62935917ca04ca35f389e426568ebce581ecc0b8e4600e9c9a326cd395f173"),
        ("dense-256", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "a14ebb1aeafb9104977b295df46c8afd85ea0c1682811400ee056fde3f92bd05"),
        ("dense-127", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "5ee79b2edbbf115d1dda269ad09b0638e7c2a09cd4fbb0ae73789403cab578ce"),
        ("dense-127", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "2308a8a9bce28b83f42e6c9b5f2a0b26c372000e919fc55b75022ff942517d60"),
        ("dense-32767", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "afebb237ebece98203480f65e882181bf458f437107cdadb2679ab0b64f614e2"),
        ("dense-32767", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "6a18f169af3eed63c574aeab2f39907b5501815b4ebc824ac73a21fd28a74f1f"),
        ("dense-2^62-1", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "a3d36807009026474622c66cec3fbefb268000d34dd6a0876fbea3dfad235cb8"),
        ("dense-2^62-1", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "b6415402aa57743e5a3edc8fc4b6f194e282ec29088e27d33f081b500c96c285"),
        ("band-near", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "4f3c28364bdd45578d4e0e3266f75162811e4b5fe992875a7f1c5033ce9c5728"),
        ("band-near", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "14d7ba9e74e1195b485fae63fe5c2a63e96ddf7781f0dcf148e0daa108648916"),
        ("band-far", ("bounds", "--mode", "mc", "--trials", "3000", "--seed", "5"),
         "8219e64ff5d47dd16da30c97eb34757f9db3254ef4e83c5328348b40c4faaa24"),
        ("band-far", ("sample", "--seed", "5", "--trials", "1000", "--format", "csv"),
         "b5c14f4f4f4d212e7ff7adb7dbe1888457bb9e45ca45bc59b3db09900f55eee6"),
    ])
    def test_custom(self, capsys, tmp_path, matrix, argv, digest):
        upper = {"band": lambda: _varied_band_rows(40), "dense-255": lambda: _residue_rows(40, 255),
                 "dense-256": lambda: _residue_rows(40, 256), "dense-127": lambda: _residue_rows(40, 127),
                 "dense-32767": lambda: _residue_rows(40, 32767), "dense-2^62-1": lambda: _limit_rows(40),
                 "band-near": lambda: _band_rows(50, range(1, 15)),
                 "band-far": lambda: _band_rows(50, range(35, 50))}[matrix]()
        rows = _antisymmetric(upper)
        widest = max(sum(abs(int(e)) for e in row) for row in rows)
        assert widest == {"band": 14, "dense-255": 255, "dense-256": 256, "dense-127": 127, "dense-32767": 32767,
                          "dense-2^62-1": (1 << 62) - 1, "band-near": 66, "band-far": 35}[matrix]
        path = _write_rows(tmp_path, "m.json", rows)
        code, out, err = run(capsys, argv[0], "--matrix", path, *argv[1:])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
