"""Output checks computed apart from the program.

Every checker takes one command's stdout and returns a list of problems
(empty when the output is right).  None of them compares against a
stored copy of an earlier output: each expected value comes from a
closed form, an exact identity the paper's theorem requires, or a
recomputation written here with ``Fraction``, plain integers, numpy and
``scipy.stats.norm``.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import numpy as np

# Monte Carlo estimates must lie within this many reported standard errors.
Z_MC = 5.0
# Below this many draws a sample's own standard error is no yardstick
# (eight draws can all have X' = X), so only the exact checks apply.
MIN_DRAWS_FOR_MEAN = 64


# ------------------------------------------------------------ closed forms

def builtin_entries(stat: str, n: int) -> list[list[Fraction]]:
    """The defining matrices, written out afresh.

    descents:   M[v][v+1] = -1, M[v+1][v] = +1 (values, 1-indexed)
    inversions: M[i][j] = -1 for i < j, +1 for i > j
    """
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if stat == "inversions" and i != j:
                m[i][j] = Fraction(-1 if i < j else 1)
            elif stat == "descents" and abs(i - j) == 1:
                m[i][j] = Fraction(-1 if i < j else 1)
    return m


def matrix_variance(entries: list[list[Fraction]]) -> Fraction:
    """Var X = (sum_{i<j} M_ij^2 + sum_i (A_i - B_i)^2) / 3 with
    A_i = sum_{j>i} M_ij and B_i = sum_{h<i} M_hi."""
    n = len(entries)
    sum_sq = sum((entries[i][j] ** 2 for i in range(n) for j in range(i + 1, n)), Fraction(0))
    balance = Fraction(0)
    for i in range(n):
        a = sum((entries[i][j] for j in range(i + 1, n)), Fraction(0))
        b = sum((entries[h][i] for h in range(i)), Fraction(0))
        balance += (a - b) ** 2
    return (sum_sq + balance) / 3


def builtin_variance(stat: str, n: int) -> Fraction:
    """Var X for the built-ins: X = 2 des - (n-1) or X = 2 inv - n(n-1)/2."""
    if stat == "descents":
        return Fraction(n + 1, 3)
    return Fraction(n * (n - 1) * (2 * n + 5), 18)


def count_moments(stat: str, n: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the descent or inversion count."""
    if stat == "descents":
        return Fraction(n - 1, 2), Fraction(n + 1, 12)
    return Fraction(n * (n - 1), 4), Fraction(n * (n - 1) * (2 * n + 5), 72)


def descents_abs_cubed_x(n: int) -> Fraction:
    """E|X'-X|^3 for descents: inner is in {-1, 0, 1}, so |X'-X|^3 = 4 (X'-X)^2."""
    return Fraction(8 * (n + 1), 3 * n)


# ----------------------------------------------------------------- helpers

def _load(out: str, kind: type):
    try:
        obj = json.loads(out)
    except json.JSONDecodeError as exc:
        raise _Bad(f"output is not JSON: {exc}") from exc
    if not isinstance(obj, kind):
        raise _Bad(f"output is not a JSON {kind.__name__}")
    return obj


class _Bad(Exception):
    pass


def _guard(fn):
    @functools.wraps(fn)
    def checker(*args, **kwargs) -> list[str]:
        try:
            return fn(*args, **kwargs)
        except _Bad as exc:
            return [str(exc)]
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
    return checker


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def _frac(text) -> Fraction:
    if not isinstance(text, str):
        raise _Bad(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _within(est: float, se: float, target: float) -> bool:
    return math.isfinite(est) and math.isfinite(se) and se > 0 and abs(est - target) <= Z_MC * se


def _counts(obj: dict) -> tuple[int, list[int]]:
    counts = [int(c) for c in obj["counts"]]
    if any(c < 0 for c in counts):
        raise _Bad("negative count")
    return int(obj["min_value"]), counts


# ----------------------------------------------------------------- checkers

@_guard
def check_verify(out: str, stat: str, n: int) -> list[str]:
    """Built-in ``verify`` must pass every check: the theorem requires it."""
    obj = _load(out, dict)
    bad = []
    if obj["n"] != n or obj["statistic"] != stat:
        bad.append(f"echoes n={obj['n']} statistic={obj['statistic']}")
    checks = obj["checks"]
    if not checks:
        bad.append("no checks reported")
    failing = [c["name"] for c in checks if c["pass"] is not True]
    if failing:
        bad.append(f"checks failed: {failing}")
    if obj["all_pass"] is not True:
        bad.append("all_pass is not true")
    return bad


@_guard
def check_bounds_exact(out: str, stat: str, entries: list[list[Fraction]]) -> list[str]:
    """Exact ``bounds``: identities that hold for every antisymmetric M."""
    obj = _load(out, dict)
    n = len(entries)
    var = builtin_variance(stat, n) if stat != "custom" else matrix_variance(entries)
    ing = obj["ingredients"]
    ex = ing["exact"]
    rep = obj["report"]
    bad = []
    if obj["statistic"] != stat or ing["n"] != n or ing["mode"] != "exact":
        bad.append("statistic, n or mode not echoed")
    if _frac(ing["lambda"]) != Fraction(2, n):
        bad.append(f"lambda {ing['lambda']} != 2/{n}")
    e_w = _frac(ex["e_diff_sq_w"])
    if e_w != Fraction(4, n):
        bad.append(f"e_diff_sq_w {e_w} != 4/{n}")
    e_x = _frac(ex["e_diff_sq_x"])
    if e_x != Fraction(4, n) * var:
        bad.append(f"e_diff_sq_x {e_x} != 4/n * Var = {Fraction(4, n) * var}")
    e3 = _frac(ex["e_abs_diff_cubed_x"])
    if stat == "descents" and e3 != descents_abs_cubed_x(n):
        bad.append(f"e_abs_diff_cubed_x {e3} != 8(n+1)/(3n)")
    if e3 <= 0:
        bad.append("e_abs_diff_cubed_x is not positive")
    vw = _frac(ex["var_cond_w_w"])
    vp = _frac(ex["var_cond_pi_w"])
    if not 0 <= vw <= vp:
        bad.append(f"var_cond_w_w {vw} not in [0, var_cond_pi_w {vp}]")
    if not (_close(ing["e_diff_sq"], float(e_w)) and _close(ing["var_cond_pi"], float(vp))
            and _close(ing["var_cond_w"], float(vw))):
        bad.append("float ingredients disagree with their exact values")
    if rep["surrogate_used"] is not False:
        bad.append("exact mode used the surrogate variance")
    if not (rep["rr_bound"] > 0 and _close(rep["rr_scaled"], rep["rr_bound"] * math.sqrt(n))):
        bad.append("rr_bound or rr_scaled wrong")
    return bad


@_guard
def check_bounds_mc(out: str, stat: str, n: int, trials: int, seed: int) -> list[str]:
    """Monte Carlo ``bounds``: estimates within Z_MC standard errors of the
    closed forms E(W'-W)^2 = 4/n and, for descents, E|W'-W|^3."""
    obj = _load(out, dict)
    ing = obj["ingredients"]
    se = ing["stderr"]
    bad = []
    if (obj["statistic"], ing["n"], ing["mode"], ing["trials"], ing["seed"]) != (stat, n, "mc", trials, seed):
        bad.append("statistic, n, mode, trials or seed not echoed")
    if _frac(ing["lambda"]) != Fraction(2, n):
        bad.append(f"lambda {ing['lambda']} != 2/{n}")
    if not _within(ing["e_diff_sq"], se["e_diff_sq"], 4.0 / n):
        bad.append(f"e_diff_sq {ing['e_diff_sq']} not within {Z_MC} SE ({se['e_diff_sq']}) of 4/n")
    if stat == "descents":
        target = float(descents_abs_cubed_x(n)) / float(builtin_variance(stat, n)) ** 1.5
        if not _within(ing["e_abs_diff_cubed"], se["e_abs_diff_cubed"], target):
            bad.append(f"e_abs_diff_cubed {ing['e_abs_diff_cubed']} not within {Z_MC} SE of {target}")
    elif not ing["e_abs_diff_cubed"] > 0:
        bad.append("e_abs_diff_cubed is not positive")
    if not (ing["var_cond_pi"] >= 0 and math.isfinite(se["var_cond_pi"])):
        bad.append("var_cond_pi or its SE invalid")
    if ing["var_cond_w"] is not None or obj["report"]["surrogate_used"] is not True:
        bad.append("Monte Carlo mode must fall back on the pi-conditioned variance")
    return bad


@_guard
def check_sample(out: str, stat: str, n: int, trials: int) -> list[str]:
    """``sample``: w = x/sd, X' - X even, and, from MIN_DRAWS_FOR_MEAN
    draws on, the mean of (X' - X)^2 within Z_MC standard errors of 4 Var / n."""
    rows = _load(out, list)
    var = builtin_variance(stat, n)
    sd = math.sqrt(var)
    bad = []
    if len(rows) != trials:
        return [f"{len(rows)} samples, expected {trials}"]
    d2 = []
    for r in rows:
        x, xp = _frac(r["x"]), _frac(r["x_prime"])
        if x.denominator != 1 or xp.denominator != 1 or (xp - x) % 2 != 0:
            bad.append(f"x={x}, x'={xp}: the increment is not an even integer")
            break
        if not 1 <= r["position"] <= n:
            bad.append(f"position {r['position']} outside 1..{n}")
            break
        if not (_close(r["w"], float(x) / sd) and _close(r["w_prime"], float(xp) / sd)):
            bad.append(f"w={r['w']}, w'={r['w_prime']} are not x/sd, x'/sd")
            break
        d2.append(float((xp - x) ** 2))
    if not bad and trials >= MIN_DRAWS_FOR_MEAN:
        arr = np.array(d2)
        se = float(arr.std(ddof=1)) / math.sqrt(len(arr))
        if not _within(float(arr.mean()), se, float(4 * var / n)):
            bad.append(f"mean (x'-x)^2 {arr.mean()} not within {Z_MC} SE ({se}) of 4 Var/n")
    return bad


def check_same_bytes(out: str, reference: str | None) -> list[str]:
    """A rerun with the same seed must give identical bytes."""
    if reference is None:
        return ["no reference output to compare with"]
    return [] if out == reference else ["rerun with the same seed gave different bytes"]


@_guard
def check_dist(out: str, stat: str, n: int) -> list[str]:
    """Built-in ``dist``: positive counts summing to n!, symmetric, with the
    closed-form mean and variance of the count."""
    obj = _load(out, dict)
    lo, counts = _counts(obj)
    top = n - 1 if stat == "descents" else n * (n - 1) // 2
    bad = []
    if obj["n"] != n or lo != 0 or len(counts) != top + 1:
        return [f"support is {lo}..{lo + len(counts) - 1}, expected 0..{top}"]
    if min(counts) <= 0:
        bad.append("a count in the support is zero")
    total = sum(counts)
    if total != math.factorial(n):
        bad.append("counts do not sum to n!")
    if counts != counts[::-1]:
        bad.append("counts are not symmetric")
    mean = Fraction(sum(k * c for k, c in enumerate(counts)), total)
    var = Fraction(sum(k * k * c for k, c in enumerate(counts)), total) - mean * mean
    if (mean, var) != count_moments(stat, n):
        bad.append(f"mean {mean}, variance {var} differ from the closed forms {count_moments(stat, n)}")
    return bad


@_guard
def check_dist_matrix(out: str, entries: list[list[Fraction]]) -> list[str]:
    """``dist --matrix``: counts summing to n!, symmetric about 0 (reversing
    the word negates X), mean 0 and variance from the matrix formula."""
    obj = _load(out, dict)
    n = len(entries)
    lo, counts = _counts(obj)
    bad = []
    if obj["n"] != n:
        bad.append(f"n {obj['n']} != {n}")
    total = sum(counts)
    if total != math.factorial(n):
        bad.append("counts do not sum to n!")
    if lo + len(counts) - 1 != -lo or counts != counts[::-1]:
        bad.append("counts are not symmetric about 0")
    if total:
        mean = Fraction(sum((lo + k) * c for k, c in enumerate(counts)), total)
        second = Fraction(sum((lo + k) ** 2 * c for k, c in enumerate(counts)), total)
        if mean != 0 or second != matrix_variance(entries):
            bad.append(f"mean {mean}, variance {second - mean * mean} != 0, {matrix_variance(entries)}")
    return bad


def kolmogorov_from_counts(stat: str, n: int, counts: list[int]) -> float:
    """sup |F - Phi| over the atoms of the standardized count law, with
    scipy's normal CDF and the closed-form mean and standard deviation."""
    from scipy.stats import norm

    mean, var = count_moments(stat, n)
    total = sum(counts)
    ks = [k for k, c in enumerate(counts) if c]
    atoms = np.array([float(k - mean) for k in ks]) / math.sqrt(float(var))
    probs = np.array([float(Fraction(counts[k], total)) for k in ks])
    below = np.concatenate([[0.0], np.cumsum(probs)[:-1]])
    phi = norm.cdf(atoms)
    return float(max(np.max(phi - below), np.max(below + probs - phi)))


@_guard
def check_rate(out: str, stat: str, n_list: list[int], dist_outputs: dict[int, str | None]) -> list[str]:
    """``rate``: each d_k equals the distance recomputed from the counts that
    ``dist`` printed for the same n, to within 1e-12."""
    rows = _load(out, list)
    if [r["n"] for r in rows] != n_list:
        return [f"rows for n = {[r['n'] for r in rows]}, expected {n_list}"]
    bad = []
    for r in rows:
        n = r["n"]
        text = dist_outputs.get(n)
        if text is None:
            bad.append(f"no dist output for n={n}")
            continue
        _, counts = _counts(_load(text, dict))
        d = kolmogorov_from_counts(stat, n, counts)
        if r["statistic"] != stat or not abs(r["d_k"] - d) <= 1e-12:
            bad.append(f"n={n}: d_k {r['d_k']} != recomputed {d}")
        if not _close(r["d_k_sqrt_n"], r["d_k"] * math.sqrt(n)):
            bad.append(f"n={n}: d_k_sqrt_n != d_k * sqrt(n)")
    return bad
