"""Acceptance gate: ten end-to-end criteria, one test and one report line each.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL - <measured detail>`` before
asserting, so a plain ``pytest -v`` gives one verdict line per criterion and
``pytest -s`` (or any failure) shows the measured numbers.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from steinperm import (
    StatisticKind,
    brute_force_moments,
    custom_spec,
    descents_matrix,
    descents_spec,
    eulerian_distribution,
    exact_moments,
    ingredients_exact,
    ingredients_mc,
    inversions_matrix,
    inversions_spec,
    is_exchangeable,
    joint_distribution,
    kolmogorov_distance,
    lambda_map,
    mahonian_distribution,
    normal_cdf,
    rate_table,
    scaling_table,
    standardize,
    theta,
    builtin_phi,
    check_conditions,
    variance_formula,
    x_stat,
    Permutation,
)
from steinperm import _sn
from steinperm.chain import move_to_end, x_delta
from steinperm.cli import main

from conftest import random_matrices
from _oracles import descent_counts, kolmogorov_scan, phi_taylor


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _all_specs(n):
    return [descents_spec(n), inversions_spec(n)] + [
        custom_spec(m) for m in random_matrices(n)
    ]


def _perms(n):
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


def test_criterion_01_worked_example(capsys):
    t0 = time.perf_counter()
    code = main(["example"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    report = json.loads(out)

    ok = (
        code == 0
        and report["all_match"] is True
        and report["pi"] == [6, 4, 1, 5, 3, 2, 7]
        and report["pi_prime"] == [6, 4, 5, 3, 2, 7, 1]
        and report["descents"]["lambda_pi"] == [6, 4, 3, 5, 2, 1, 7]
        and report["descents"]["lambda_pi_then_move"] == [6, 4, 5, 2, 1, 7, 3]
        and report["descents"]["x_pi"] == "0"
        and report["descents"]["x_pi_prime"] == "2"
        and report["inversions"]["lambda_pi"] == [6, 4, 7, 3, 2, 1, 5]
        and report["inversions"]["lambda_pi_then_move"] == [6, 4, 3, 2, 1, 5, 7]
        and report["inversions"]["x_pi"] == "1"
        and report["inversions"]["x_pi_prime"] == "9"
        and elapsed < 1.0
    )
    detail = f"all six tables and four statistic values reproduced in {elapsed:.3f}s"
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_02_delta_sums():
    # For every permutation the position-indexed increments must sum to
    # -2 X(pi), and each increment must equal the actual change of X under
    # the move; everything in exact rational arithmetic.
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 8):
        for spec in _all_specs(n):
            for p in _perms(n):
                x = x_stat(spec, p)
                total = sum(
                    (x_delta(spec, p, i) for i in range(1, n + 1)), Fraction(0)
                )
                if total != -2 * x:
                    ok = False
                checked += 1
    for n in range(2, 6):
        for spec in _all_specs(n):
            for p in _perms(n):
                x = x_stat(spec, p)
                for i in range(1, n + 1):
                    if x_stat(spec, move_to_end(p, i)) - x != x_delta(spec, p, i):
                        ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    detail = (
        f"sum of increments equals -2X for {checked} (matrix, permutation) pairs,"
        f" n=2..7, 7 matrices per n, exact; per-move consistency n<=5; {elapsed:.1f}s"
    )
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_03_exchangeability():
    t0 = time.perf_counter()
    ok = True

    # joint pair counts are swap-symmetric, exact big-integer equality
    for n in range(3, 7):
        for spec in (descents_spec(n), inversions_spec(n)):
            dist = joint_distribution(spec.matrix, n)
            for (a, b), c in dist.counts.items():
                if dist.counts.get((b, a)) != c:
                    ok = False
            if not is_exchangeable(spec.matrix, n):
                ok = False

    # the coset bijection swaps the pair of statistic values at every (pi, I)
    lam_checked = 0
    for n in range(2, 7):
        for spec in (descents_spec(n), inversions_spec(n)):
            for p in _perms(n):
                x = x_stat(spec, p)
                for i in range(1, n + 1):
                    lam = lambda_map(spec, p, i)
                    if x_stat(spec, lam) != x_stat(spec, move_to_end(p, i)):
                        ok = False
                    if x_stat(spec, move_to_end(lam, i)) != x:
                        ok = False
                    lam_checked += 1

    # the flip/relabel pair certifies both structural conditions on every subset
    cond_checked = 0
    for n in range(2, 9):
        for spec in (descents_spec(n), inversions_spec(n)):
            for mask in range(1 << n):
                s = tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
                th = theta(spec, s)
                if not check_conditions(
                    spec.matrix, s, th, phis=lambda i, s=s, spec=spec: builtin_phi(spec, s, i)
                ):
                    ok = False
                cond_checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    detail = (
        f"joint counts swap-symmetric n=3..6; value-swap identity at {lam_checked}"
        f" (pi, I) pairs n<=6; conditions hold on {cond_checked} subsets n<=8; {elapsed:.1f}s"
    )
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_04_variance_formula():
    ok = True
    for n in range(3, 8):
        for spec in _all_specs(n):
            mean, var = brute_force_moments(spec.matrix)
            if mean != 0 or variance_formula(spec.matrix).variance != var:
                ok = False
    ladder = [*range(2, 21), 50, 100, 500, 1000]
    for n in ladder:
        if variance_formula(descents_matrix(n)).variance != Fraction(n + 1, 3):
            ok = False
        expected = Fraction(n * (n - 1) * (2 * n + 5), 18)
        if variance_formula(inversions_matrix(n)).variance != expected:
            ok = False
    detail = (
        "closed formula equals brute-force variance for 35 matrices n=3..7;"
        f" descent/inversion specializations exact up to n={ladder[-1]}"
    )
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_05_pair_second_moment():
    # sum over all (pi, I) of (X' - X)^2 equals 4 n! Var(X), zero tolerance
    ok = True
    for n in range(3, 8):
        for spec in _all_specs(n):
            scale = spec.matrix.scale
            total = 0
            for perms in _sn.chunks(n):
                d = 2 * _sn.inner_sums(perms, _sn.InnerKernel(spec.matrix))
                total += int((d * d).sum())
            var = variance_formula(spec.matrix).variance
            if Fraction(total, scale**2) != 4 * math.factorial(n) * var:
                ok = False
    detail = "sum of squared pair increments equals 4 n! Var(X) for 35 matrices n=3..7, exact"
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_conditional_variance_and_jensen():
    ok = True
    for n in range(4, 9):
        for spec in (descents_spec(n), inversions_spec(n)):
            ing = ingredients_exact(spec)
            if ing.var_cond_w_w > ing.var_cond_pi_w:
                ok = False
            var = variance_formula(spec.matrix).variance
            # E|W'-W|^3 >= (E(W'-W)^2)^(3/2) = (4/n)^(3/2), squared to stay rational
            if ing.e_abs_diff_cubed_x**2 * n**3 < 64 * var**3:
                ok = False
    detail = (
        "conditioning on W never exceeds conditioning on pi, and the third"
        " absolute moment clears its Jensen floor (4/n)^(3/2); exact, n=4..8,"
        " both statistics"
    )
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_distribution_recurrences():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        desc_hist = [0] * n
        inv_hist = [0] * (n * (n - 1) // 2 + 1)
        for perms in _sn.chunks(n, 200_000):
            for k, c in enumerate(np.bincount(descent_counts(perms), minlength=n)):
                desc_hist[k] += int(c)
            inv = np.zeros(len(perms), dtype=np.int64)
            for i in range(n - 1):
                inv += (perms[:, i : i + 1] > perms[:, i + 1 :]).sum(axis=1)
            for k, c in enumerate(np.bincount(inv, minlength=len(inv_hist))):
                inv_hist[k] += int(c)
        if list(eulerian_distribution(n).counts) != desc_hist:
            ok = False
        if list(mahonian_distribution(n).counts) != inv_hist:
            ok = False

    for n in range(1, 201):
        d = eulerian_distribution(n)
        if sum(d.counts) != math.factorial(n) or d.counts != d.counts[::-1]:
            ok = False
    for n in range(1, 151):
        d = mahonian_distribution(n)
        if sum(d.counts) != math.factorial(n) or d.counts != d.counts[::-1]:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    detail = (
        "recurrences match direct enumeration for n<=8; totals are n! and both"
        f" count arrays are palindromic for every n up to the caps (200/150); {elapsed:.1f}s"
    )
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_08_rate_envelope():
    # The paper's rate is sup_x |P(W <= x) - Phi(x)| <= C n^(-1/2): d_k*sqrt(n)
    # stays bounded, it need not fall. The descent count lives on a lattice of
    # standardized spacing sqrt(12/(n+1)); against the continuous Phi the
    # distance is at least half the largest jump of the step CDF, and that
    # half-jump times sqrt(n) tends to phi(0)*sqrt(3)*sqrt(n/(n+1)), below
    # sqrt(3/(2 pi)). A rate slower than n^(-1/2) breaks the ceiling; a
    # distance that misses a jump breaks the floor. (1e-9 absorbs rounding.)
    t0 = time.perf_counter()
    ns = list(range(10, 101, 10))
    rows_d = rate_table(StatisticKind.DESCENTS, ns)
    rows_i = rate_table(StatisticKind.INVERSIONS, ns)
    half_jump = [
        float(Fraction(max(eulerian_distribution(n).counts), 2 * math.factorial(n)))
        for n in ns
    ]
    ceiling_d = math.sqrt(3 / (2 * math.pi))
    floor_d = all(h <= r.d_k * (1 + 1e-9) for h, r in zip(half_jump, rows_d))
    rate_d = all(r.scaled <= ceiling_d * (1 + 1e-9) for r in rows_d)
    env_i = all(r.scaled <= rows_i[0].scaled * (1 + 1e-9) for r in rows_i)
    elapsed = time.perf_counter() - t0
    ok = floor_d and rate_d and env_i and elapsed < 120.0
    detail = (
        f"descents n=10..100: half-jump floor*sqrt(n) {half_jump[0] * math.sqrt(ns[0]):.6f}"
        f" -> {half_jump[-1] * math.sqrt(ns[-1]):.6f} ({'below' if floor_d else 'ABOVE'} d_k),"
        f" d_k*sqrt(n) {rows_d[0].scaled:.6f} -> {rows_d[-1].scaled:.6f}"
        f" ({'within' if rate_d else 'ABOVE'} the sqrt(3/(2 pi)) = {ceiling_d:.6f} ceiling);"
        f" inversions d_k*sqrt(n) {rows_i[0].scaled:.6f} -> {rows_i[-1].scaled:.6f}"
        f" ({'within' if env_i else 'EXCEEDS'} the n=10 envelope); {elapsed:.1f}s"
    )
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_09_bound_scaling():
    # On descents a_max = 2 sqrt(3/(n+1)) and lambda = 2/n, so the two
    # a_max terms of rr_bound*sqrt(n) are 192 (3n/(n+1))^(3/2) and
    # 48 sqrt(2) n/(n+1): a floor that rises with n. The variance term
    # (12/lambda) sqrt(vc) sqrt(n) = 6 sqrt(vc n^3) is at most 6 sqrt(2 V4),
    # since vc <= var_cond_pi (criterion 6) and var_cond_pi n^3 <= 2 V4
    # (factor2), which with the limits of the a_max terms gives a ceiling
    # that holds for every n: rr_bound is O(n^(-1/2)). (1e-9 absorbs rounding.)
    t0 = time.perf_counter()
    rows = scaling_table(StatisticKind.DESCENTS, list(range(4, 11)), mode="exact")
    first = rows[0]
    factor2 = all(
        first.var_cond_pi_n3 / 2 <= r.var_cond_pi_n3 <= first.var_cond_pi_n3 * 2
        for r in rows
    )
    finite = all(
        math.isfinite(v)
        for r in rows
        for v in (r.rr_bound, r.stein_bound, r.rr_scaled, r.stein_scaled)
    )
    floors = [
        192 * (3 * r.n / (r.n + 1)) ** 1.5 + 48 * math.sqrt(2) * r.n / (r.n + 1)
        for r in rows
    ]
    ceiling = 192 * 3**1.5 + 48 * math.sqrt(2) + 6 * math.sqrt(2 * first.var_cond_pi_n3)
    env = all(
        f * (1 - 1e-9) <= r.rr_scaled <= ceiling * (1 + 1e-9) for f, r in zip(floors, rows)
    )
    elapsed = time.perf_counter() - t0
    ok = factor2 and finite and env
    detail = (
        f"descents n=4..10 exact: var_cond_pi*n^3 spans {first.var_cond_pi_n3:.4f}"
        f" -> {rows[-1].var_cond_pi_n3:.4f} ({'within' if factor2 else 'OUTSIDE'}"
        " factor 2); all bound columns finite"
        f" ({'yes' if finite else 'NO'}); rr_bound*sqrt(n) {first.rr_scaled:.3f} ->"
        f" {rows[-1].rr_scaled:.3f} against the a_max floor {floors[0]:.3f} ->"
        f" {floors[-1]:.3f} and the ceiling {ceiling:.3f}"
        f" ({'between' if env else 'OUTSIDE'}); variance term"
        f" {first.rr_scaled - floors[0]:.3f} -> {rows[-1].rr_scaled - floors[-1]:.3f};"
        f" stein_bound*n^(1/4) {first.stein_scaled:.4f} -> {rows[-1].stein_scaled:.4f};"
        f" {elapsed:.1f}s"
    )
    _report(9, ok, detail)
    assert ok, detail


def test_criterion_10_numerics_and_reproducibility(tmp_path):
    ok = True

    worst_cdf = max(
        abs(normal_cdf(x) - phi_taylor(x))
        for x in (-8 + 16 * k / 1000 for k in range(1001))
    )
    if worst_cdf > 1e-14:
        ok = False

    worst_k = 0.0
    for kind, build in (
        (StatisticKind.DESCENTS, eulerian_distribution),
        (StatisticKind.INVERSIONS, mahonian_distribution),
    ):
        for n in (3, 8, 12):
            d = build(n)
            mean, var = exact_moments(d)
            law = standardize(d, mean, math.sqrt(var))
            err = abs(kolmogorov_distance(law) - kolmogorov_scan(law.atoms, law.probs))
            worst_k = max(worst_k, err)
    if worst_k > 1e-12:
        ok = False

    ing = ingredients_mc(descents_spec(20), trials=10**6, seed=42)
    mc_gap = abs(ing.e_diff_sq - 0.2)
    if mc_gap > 5 * ing.stderr_e_diff_sq:
        ok = False

    bounds_args = ["bounds", "--stat", "inversions", "--n", "15", "--mode", "mc",
                   "--trials", "20000", "--seed", "77"]
    f1, f2 = tmp_path / "b1.json", tmp_path / "b2.json"
    rerun_ok = main(bounds_args + ["--out", str(f1)]) == 0
    rerun_ok = main(bounds_args + ["--out", str(f2)]) == 0 and rerun_ok
    rerun_ok = rerun_ok and f1.read_bytes() == f2.read_bytes()
    sample_args = ["sample", "--stat", "descents", "--n", "9", "--seed", "5",
                   "--trials", "8"]
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    rerun_ok = main(sample_args + ["--out", str(s1)]) == 0 and rerun_ok
    rerun_ok = main(sample_args + ["--out", str(s2)]) == 0 and rerun_ok
    rerun_ok = rerun_ok and s1.read_bytes() == s2.read_bytes()
    ok = ok and rerun_ok

    detail = (
        f"normal cdf within {worst_cdf:.2e} of the series oracle (1001 points);"
        f" distance within {worst_k:.2e} of the grid scan; Monte Carlo second"
        f" moment off 4/n by {mc_gap:.2e} ({mc_gap / ing.stderr_e_diff_sq:.2f}"
        " standard errors, 10^6 trials); fixed-seed CLI reruns byte-identical:"
        f" {'yes' if rerun_ok else 'NO'}"
    )
    _report(10, ok, detail)
    assert ok, detail
