"""Ingredients and evaluation of the two normal-approximation bounds.

For the exchangeable pair (W, W') built from one chain step we need:
the regression rate lambda = 2/n, an almost-sure bound A on |W' - W|,
the conditional second moment E[(W'-W)^2 | pi] and its variance over
pi (or over W), and the third absolute moment E|W'-W|^3.  Small n gets
all of them exactly (:func:`exact_ingredients`) from the integer sums over
S_n, which the built-ins' recurrences in ``exact_dist.RECURRENCES`` give in
Python ints and :func:`_sn.exact_sums` gives for any other matrix; large n
gets Monte Carlo estimates with standard errors.  Two bounds are then
evaluated:

* the concentration-inequality bound
    (12/lambda) sqrt(Var(E^W(W'-W)^2)) + 48 A^3/lambda + 8 A^2/sqrt(lambda)

* the original exchangeable-pair bound
    2 sqrt(E[1 - (1/(2 lambda)) E^W(W'-W)^2]^2)
      + (2 pi)^(-1/4) sqrt(E|W'-W|^3 / lambda)

When only Var(E^pi(W'-W)^2) is available it substitutes for the
W-conditioned variance; conditioning on less can only increase the
variance of the conditional expectation, so the bound stays valid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _sn, exact_dist, lazy_module
from .perm_core import ExactSums, StatisticKind, StatisticSpec, check_enum_limit, spec_for

np = lazy_module("numpy")

MODE_EXACT = "exact"
MODE_MC = "mc"


class BoundIngredients(NamedTuple):
    """Everything the bound formulas consume, for one statistic at one n.

    Moments live on the normalized W scale; ``e_diff_sq_x`` keeps the
    unnormalized E[(X'-X)^2] next to it.  In exact mode the ``*_x``
    rational fields are exact and the float fields are their rounded
    values; in Monte Carlo mode the floats are estimates, the rationals
    other than lam are absent, and each estimate carries a standard
    error.
    """

    n: int
    lam: Fraction
    a_max: float
    e_diff_sq: float
    e_abs_diff_cubed: float
    var_cond_pi: float
    var_cond_w: float | None
    mode: str
    e_diff_sq_x: Fraction | None = None
    e_diff_sq_w: Fraction | None = None
    e_abs_diff_cubed_x: Fraction | None = None
    var_cond_pi_w: Fraction | None = None
    var_cond_w_w: Fraction | None = None
    trials: int | None = None
    seed: int | None = None
    stderr_e_diff_sq: float | None = None
    stderr_e_abs_diff_cubed: float | None = None
    stderr_var_cond_pi: float | None = None


class BoundReport(NamedTuple):
    rr_bound: float
    stein_bound: float
    rr_scaled: float
    stein_scaled: float
    surrogate_used: bool


def a_max(spec: StatisticSpec) -> float:
    """An almost-sure bound on |W' - W|.

    A chain step flips the orientation of the pairs between one value v
    and an arbitrary subset of the others, so the worst case is twice
    the larger of the positive and the negative part of v's matrix row,
    over v.  The exact maximum, ``ingredients_exact(spec).a_max``, can
    only be smaller.

    >>> from .perm_core import descents_spec, inversions_spec
    >>> import math
    >>> a_max(descents_spec(7)) == 2 / math.sqrt(8 / 3)
    True
    >>> a_max(inversions_spec(7)) == 12 / math.sqrt(133 / 3)
    True
    >>> ingredients_exact(descents_spec(5)).a_max == a_max(descents_spec(5))
    True
    """
    sigma = math.sqrt(spec.variance)
    # the larger part of a row is half its absolute sum plus half |row sum|
    worst = max(a + abs(s) for s, a in zip(*spec.matrix.row_sums))
    return 2 * float(Fraction(worst, 2 * spec.matrix.scale)) / sigma


def exact_ingredients(sums: ExactSums, spec: StatisticSpec) -> BoundIngredients:
    """The exact bound ingredients from ``sums`` over the whole of S_n,
    on the matrix L * M with L = ``spec.matrix.scale``, as
    :func:`_sn.exact_sums` or a built-in's recurrence (L = 1) gives them."""
    n, scale = spec.n, spec.matrix.scale
    var = spec.variance
    nfact = math.factorial(n)
    e_diff_sq_x = Fraction(sums.sum_q, nfact * n * scale**2)
    e_diff_sq_w = e_diff_sq_x / var
    e_abs3_x = Fraction(sums.sum_abs_d3, nfact * n * scale**3)
    # E|W'-W|^3 = E|X'-X|^3 / Var(X)^{3/2}, rounded once
    e_abs3_w = math.sqrt(float(e_abs3_x**2 / var**3))

    # c_pi = E[(W'-W)^2 | pi] = q_pi / (n scale^2 Var(X))
    denom = n * scale**2 * var
    mean_c = Fraction(sums.sum_q, nfact) / denom
    mean_c2 = Fraction(sums.sum_q2, nfact) / denom**2
    var_cond_pi_w = mean_c2 - mean_c * mean_c

    # the level sets x of X, c_x permutations with sum Q_x of q_pi each, give
    # sum_x c_x (Q_x / (c_x denom))^2 = (sum_x Q_x^2 / c_x) / denom^2, and
    # the inner sum is one exact rational over the lcm of the counts
    common = math.lcm(*sums.level_count.values())
    level_sq = Fraction(sum(sums.level_q[x] ** 2 * (common // c) for x, c in sums.level_count.items()), common)
    var_cond_w_w = level_sq / (nfact * denom**2) - mean_c * mean_c

    return BoundIngredients(
        n=n,
        lam=Fraction(2, n),
        a_max=2 * sums.max_inner / (scale * math.sqrt(var)),
        e_diff_sq=float(e_diff_sq_w),
        e_abs_diff_cubed=e_abs3_w,
        var_cond_pi=float(var_cond_pi_w),
        var_cond_w=float(var_cond_w_w),
        mode=MODE_EXACT,
        e_diff_sq_x=e_diff_sq_x,
        e_diff_sq_w=e_diff_sq_w,
        e_abs_diff_cubed_x=e_abs3_x,
        var_cond_pi_w=var_cond_pi_w,
        var_cond_w_w=var_cond_w_w,
    )


def ingredients_exact(spec: StatisticSpec, limit: int | None = None) -> BoundIngredients:
    """All ingredients over the whole of S_n, exactly: a built-in's sums
    from its recurrence (``exact_dist.RECURRENCES``), in Python ints with no
    array work, under the same enumeration limit; any other matrix's from
    :func:`_sn.exact_sums`.

    The W-conditioned variance groups permutations into level sets of
    the exact rational statistic value and averages the pi-conditioned
    second moment within each group.
    """
    spec.variance  # refuse a zero-variance statistic before any work
    if spec.kind is StatisticKind.CUSTOM:
        sums = _sn.exact_sums(spec.matrix, limit)
    else:
        sums = exact_dist.RECURRENCES[spec.kind].sums(check_enum_limit(spec.n, limit))
    return exact_ingredients(sums, spec)


def ingredients_mc(spec: StatisticSpec, trials: int, seed: int) -> BoundIngredients:
    """Monte Carlo ingredients from ``trials`` independent (pi, V) draws,
    V the moved value, uniform and independent of pi.

    The draws come in blocks from :func:`_sn.draws`, so the result
    depends only on (trials, seed); each sub-tile is reduced to per-draw
    floats as it is drawn.  E[(W'-W)^2] is estimated by the mean of the
    exact per-permutation conditional second moment (which has smaller
    variance than the raw squared increments); the third moment uses the
    sampled value's suffix sum, ``inner`` at column V.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    n = spec.n
    sigma = math.sqrt(spec.variance)  # refuses zero variance before any draw
    blocks = _sn.draws(spec.matrix, trials, seed)
    sigma_x = sigma * spec.matrix.scale
    c_center = 4.0 / n  # exact mean of c_pi, used to stabilize moments

    block_sums: list[list[float]] = []
    for pick, tiles in blocks:
        # inner at V and c from each sub-tile while it is in cache: a row
        # sum is the same float however the rows are sliced
        d_w, c = np.empty(len(pick)), np.empty(len(pick))
        for start, keys, rows in tiles:
            stop = start + len(rows)
            d_w[start:stop] = rows[np.arange(len(rows)), pick[start:stop]]
            # the sub-tile's uint64 keys, which nothing reads again, hold its floats
            f = np.divide(rows, sigma_x**2, out=keys.view(np.float64))
            f *= rows
            c[start:stop] = 4.0 / n * f.sum(axis=1)
        d_w *= -2.0
        d_w /= sigma_x
        # abs3, abs3^2, u, u^2, u^3 and u^4 summed in place, each power a
        # left-to-right product in one scratch array
        abs3 = np.abs(d_w, out=d_w)
        abs3 **= 3
        u = np.subtract(c, c_center, out=c)
        power = np.multiply(abs3, abs3)
        sums = [float(abs3.sum()), float(power.sum()), float(u.sum())]
        np.multiply(u, u, out=power)
        sums.append(float(power.sum()))
        power *= u
        sums.append(float(power.sum()))
        power *= u
        sums.append(float(power.sum()))
        block_sums.append(sums)

    nt = float(trials)
    m_abs3, m_abs6, mu, mu2, mu3, mu4 = (math.fsum(col) / nt for col in zip(*block_sums))
    # central moments of c from moments about the fixed center
    c2 = mu2 - mu * mu
    c4 = mu4 - 4 * mu * mu3 + 6 * mu * mu * mu2 - 3 * mu**4
    var_c = c2 * nt / (nt - 1)

    return BoundIngredients(
        n=n,
        lam=Fraction(2, n),
        a_max=a_max(spec),
        e_diff_sq=c_center + mu,
        e_abs_diff_cubed=m_abs3,
        var_cond_pi=var_c,
        var_cond_w=None,
        mode=MODE_MC,
        trials=trials,
        seed=seed,
        stderr_e_diff_sq=math.sqrt(max(c2, 0.0) / nt),
        stderr_e_abs_diff_cubed=math.sqrt(max(m_abs6 - m_abs3 * m_abs3, 0.0) / nt),
        stderr_var_cond_pi=math.sqrt(max(c4 - c2 * c2, 0.0) / nt),
    )


def _cond_variance(ing: BoundIngredients) -> tuple[float, bool]:
    if ing.var_cond_w is not None:
        return ing.var_cond_w, False
    return ing.var_cond_pi, True


def rr_bound(ing: BoundIngredients) -> float:
    """The concentration-inequality bound on sup_x |P(W <= x) - Phi(x)|."""
    lam = float(ing.lam)
    vc, _ = _cond_variance(ing)
    return 12.0 / lam * math.sqrt(vc) + 48.0 * ing.a_max**3 / lam + 8.0 * ing.a_max**2 / math.sqrt(lam)


def stein_original_bound(ing: BoundIngredients) -> float:
    """The original exchangeable-pair bound.

    The first term is 2 sqrt(E[1 - (1/(2 lambda)) E^W(W'-W)^2]^2); the
    inner random variable has mean exactly 1 because E(W'-W)^2 equals
    2 lambda, so the expectation collapses to the conditional variance
    scaled by (1/(2 lambda))^2.
    """
    lam = float(ing.lam)
    vc, _ = _cond_variance(ing)
    first = 2.0 * math.sqrt(vc / (2.0 * lam) ** 2)
    second = (2.0 * math.pi) ** -0.25 * math.sqrt(ing.e_abs_diff_cubed / lam)
    return first + second


def bound_report(ing: BoundIngredients) -> BoundReport:
    rr = rr_bound(ing)
    st = stein_original_bound(ing)
    _, surrogate = _cond_variance(ing)
    return BoundReport(
        rr_bound=rr,
        stein_bound=st,
        rr_scaled=rr * math.sqrt(ing.n),
        stein_scaled=st * ing.n**0.25,
        surrogate_used=surrogate,
    )


class ScalingRow(NamedTuple):
    n: int
    statistic: StatisticKind
    mode: str
    rr_bound: float
    stein_bound: float
    rr_scaled: float
    stein_scaled: float
    var_cond_pi: float
    var_cond_pi_n3: float


def scaling_table(
    kind: StatisticKind | str,
    n_list,
    mode: str = MODE_EXACT,
    trials: int | None = None,
    seed: int | None = None,
    limit: int | None = None,
) -> list[ScalingRow]:
    """One row per n with both bounds and the n^3-scaled conditional variance."""
    kind = StatisticKind(kind)
    rows = []
    for n in n_list:
        spec = spec_for(kind, n)
        if mode == MODE_EXACT:
            ing = ingredients_exact(spec, limit)
        elif mode == MODE_MC:
            if trials is None or seed is None:
                raise ValueError("Monte Carlo mode needs trials and seed")
            ing = ingredients_mc(spec, trials, seed)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        rep = bound_report(ing)
        rows.append(
            ScalingRow(
                n=n,
                statistic=kind,
                mode=mode,
                rr_bound=rep.rr_bound,
                stein_bound=rep.stein_bound,
                rr_scaled=rep.rr_scaled,
                stein_scaled=rep.stein_scaled,
                var_cond_pi=ing.var_cond_pi,
                var_cond_pi_n3=ing.var_cond_pi * n**3,
            )
        )
    return rows
