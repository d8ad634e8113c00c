"""Command-line interface.

Subcommands:

* ``verify``  -- run the exact identity suite for one statistic at one n,
  every check fed by one pass over S_n; for descents, ``descent_unit_step``
  checks that the statistic's step changes des(pi^-1) by at most 1
* ``example`` -- reproduce the built-in worked example (n = 7, position 3)
* ``dist``    -- exact integer distribution of a statistic
* ``rate``    -- normal-approximation rate table over a list of n
* ``bounds``  -- bound ingredients and bound values, exact or Monte Carlo
* ``sample``  -- draw reproducible samples of the exchangeable pair

Exit codes: 0 on success (and all checks passing), 1 when a check
fails, 2 on usage or input errors, 3 on an internal error.  Output is
JSON by default (CSV where tabular), deterministic for a fixed
configuration including the seed.  This module owns every command's JSON
and CSV layout; the library modules return values only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from . import _sn, analysis, chain, exact_dist, exchangeability, stein_bounds
from .perm_core import (
    BUILTINS,
    DEFAULT_ENUM_LIMIT,
    Permutation,
    StatisticKind,
    StatisticSpec,
    check_enum_limit,
    check_int64_entries,
    custom_spec,
    load_matrix_file,
    spec_for,
    variance_formula,
    x_stat,
)


class UsageError(Exception):
    """Bad flag combinations or malformed input files (exit code 2)."""


# ---------------------------------------------------------------- output

def _write(texts, out_path: str | None) -> None:
    """Write each string of ``texts`` as it is made, to stdout or to the file ``out_path``."""
    with contextlib.nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(texts)


def _emit(text: str, out_path: str | None) -> None:
    _write((text,), out_path)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _emit_csv(header: str, lines, out_path: str | None) -> None:
    _emit("\n".join([header, *lines, ""]), out_path)


def _warn(text: str) -> None:
    sys.stderr.write(f"warning: {text}\n")


# ------------------------------------------------------------- selection

def _selected_spec(args, always_sweeps: bool | None = None) -> StatisticSpec:
    """Build the statistic from --stat/--n or from --matrix.  A command that
    enumerates S_n says whether it ``always_sweeps`` (``verify``) or sweeps only
    where ``_sn.exact_sums`` cannot run its prefix-set program, and never for
    --stat (exact ``bounds``): a raised ``--enum-limit`` is warned of with its
    cost, and --n of --stat is checked against the limit before the n x n
    matrix is built."""
    if args.matrix is not None:
        matrix = load_matrix_file(args.matrix)
        if args.n is not None and args.n != matrix.n:
            raise UsageError(f"--n {args.n} disagrees with the {matrix.n}x{matrix.n} matrix")
    elif args.stat is None:
        raise UsageError("select a statistic with --stat or --matrix")
    elif args.n is None:
        raise UsageError("--stat needs --n")
    limit = args.enum_limit if always_sweeps is not None else None
    if limit is not None and limit > DEFAULT_ENUM_LIMIT:
        if always_sweeps:
            cost = f"a full sweep visits {limit}! permutations and may run very long"
        elif args.matrix is None:
            cost = "the exact sums of --stat come from a recurrence in Python ints, with no sweep"
        else:
            cost = f"a sweep of up to {limit}! permutations runs only where the prefix-set program does not fit"
        _warn(f"enumeration limit raised to {limit}; {cost}")
    if args.matrix is not None:
        return custom_spec(matrix)
    if always_sweeps is not None:
        check_enum_limit(args.n, limit)
    return spec_for(args.stat, args.n)


# ---------------------------------------------------------------- verify

def _run_checks(spec: StatisticSpec, limit: int | None) -> list[tuple[str, bool]]:
    """The exact identity suite behind ``verify``, in one sweep of S_n.

    Each chunk's X is summed once, for the bound sums, the (X, X') tally and
    the sub-tile checks: ``_sn.moved_x`` gives X of every row moved, and for
    the built-ins relabeled and relabeled then moved, at every position, in
    narrow types, and the checks compare them with the int64 X and ``inner``
    so that no difference wraps.  The built-ins' Theta/Phi conditions are
    checked on every value subset at once.
    """
    n, var, scale, np = spec.n, spec.variance, spec.matrix.scale, _sn.np
    mint, suffix, sweep = _sn.sweep(spec.matrix, limit)
    builtin = spec.kind in BUILTINS
    table = exchangeability.relabel_table(spec) if builtin else None

    sums = _sn.ExactSums()
    pairs = exchangeability.PairDistribution({}, scale)
    ok_delta = ok_drift = ok_lambda = True
    for perms, inner in sweep:
        x = np.einsum("ij->i", inner)  # einsum sums rows of n faster than sum(axis=1)
        start = 0
        for inn, xm, xl, xlm in _sn.moved_x(perms, inner, suffix, table):
            xt = x[start : start + len(inn), None]
            start += len(inn)
            ok_delta &= bool((xm == xt - 2 * inn).all())
            ok_drift &= bool((np.einsum("ij->i", xm - xt) == -2 * xt[:, 0]).all())
            if table is not None:
                ok_lambda &= bool((xl == xm).all() and (xlm == xt).all())
        sums.add(inner, x)
        pairs.add(inner, x)
        del perms, inner, inn  # freed before the sweep makes the next chunk
    nfact = math.factorial(n)
    mean = Fraction(sums.sum_x, nfact * scale)
    bf_var = Fraction(sums.sum_x2, nfact * scale**2) - mean * mean
    ing = stein_bounds.exact_ingredients(sums, spec)

    checks = [
        ("statistic_delta_consistency", ok_delta),
        ("drift_identity", ok_drift),
        ("variance_formula_vs_enumeration", mean == 0 and bf_var == variance_formula(spec.matrix).variance),
        ("pair_second_moment_identity", Fraction(sums.sum_q, scale**2) == 4 * nfact * var),
        ("pair_exchangeable", pairs.swap_symmetric()),
        ("normalized_second_moment_is_4_over_n", ing.e_diff_sq_w == Fraction(4, n)),
        ("conditional_variance_order", ing.var_cond_w_w <= ing.var_cond_pi_w),
        ("third_moment_jensen_floor", ing.e_abs_diff_cubed_x**2 * n**3 >= 64 * var**3),
    ]
    if builtin:
        ok_theta = bool(exchangeability.flip_conditions(mint, suffix, table).all())
        checks += [("flip_bijection_conditions", ok_theta), ("relabeling_swaps_pair_values", ok_lambda)]
    if spec.kind is StatisticKind.DESCENTS:
        # the statistic's step is X' - X = -2 inner, a change of des(pi^-1)
        checks.append(("descent_unit_step", sums.max_inner <= 1))
    return checks


def cmd_verify(args) -> int:
    spec = _selected_spec(args, always_sweeps=True)
    checks = _run_checks(spec, args.enum_limit)
    report = {
        "n": spec.n,
        "statistic": spec.kind.value,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
        "all_pass": all(ok for _, ok in checks),
    }
    _emit_json(report, args.out)
    return 0 if report["all_pass"] else 1


# --------------------------------------------------------------- example

_EXAMPLE_PI = (6, 4, 1, 5, 3, 2, 7)
_EXAMPLE_POSITION = 3
_EXAMPLE_PI_PRIME = (6, 4, 5, 3, 2, 7, 1)
_EXAMPLE_EXPECTED = {
    "descents": {
        "lambda_pi": (6, 4, 3, 5, 2, 1, 7),
        "lambda_pi_then_move": (6, 4, 5, 2, 1, 7, 3),
        "x_pi": 0,
        "x_pi_prime": 2,
    },
    "inversions": {
        "lambda_pi": (6, 4, 7, 3, 2, 1, 5),
        "lambda_pi_then_move": (6, 4, 3, 2, 1, 5, 7),
        "x_pi": 1,
        "x_pi_prime": 9,
    },
}


def cmd_example(args) -> int:
    p = Permutation(_EXAMPLE_PI)
    i = _EXAMPLE_POSITION
    p_prime = chain.move_to_end(p, i)
    report = {
        "pi": list(_EXAMPLE_PI),
        "position": i,
        "pi_prime": list(p_prime.image),
    }
    ok = p_prime.image == _EXAMPLE_PI_PRIME
    for kind in BUILTINS:
        name, spec = kind.value, spec_for(kind, 7)
        expected = _EXAMPLE_EXPECTED[name]
        lam_p = exchangeability.lambda_map(spec, p, i)
        lam_then_move = chain.move_to_end(lam_p, i)
        block = {
            "lambda_pi": list(lam_p.image),
            "lambda_pi_then_move": list(lam_then_move.image),
            "x_pi": str(x_stat(spec, p)),
            "x_pi_prime": str(x_stat(spec, p_prime)),
        }
        report[name] = block
        ok = ok and lam_p.image == expected["lambda_pi"]
        ok = ok and lam_then_move.image == expected["lambda_pi_then_move"]
        ok = ok and x_stat(spec, p) == expected["x_pi"]
        ok = ok and x_stat(spec, p_prime) == expected["x_pi_prime"]
        ok = ok and x_stat(spec, lam_p) == expected["x_pi_prime"]
        ok = ok and x_stat(spec, lam_then_move) == expected["x_pi"]
    report["all_match"] = ok
    _emit_json(report, args.out)
    return 0 if ok else 1


# ------------------------------------------------------------------ dist

def cmd_dist(args) -> int:
    if args.matrix is not None:
        if args.cap is not None:
            raise UsageError("--cap does nothing with --matrix")
        spec = _selected_spec(args, always_sweeps=False)
        dist = exact_dist.generic_distribution(spec.matrix, args.enum_limit)
    else:
        if args.stat is None or args.n is None:
            raise UsageError("dist needs --stat with --n, or --matrix")
        if args.enum_limit is not None:
            raise UsageError("--enum-limit does nothing with --stat: the recurrences never enumerate")
        recurrence = exact_dist.RECURRENCES[StatisticKind(args.stat)]
        cap = args.cap or recurrence.cap
        exact_dist.check_size(args.n, cap)  # a refused n is not warned of
        if cap > recurrence.cap:
            _warn(f"cap raised to {cap}; large n may take minutes and much memory")
        dist = getattr(exact_dist, recurrence.distribution)(args.n, cap)
    # a palindromic law's decimal texts from its first half, mirrored, as standardize decides
    counts, size = dist.counts, len(dist.counts)
    k = size // 2 if counts == counts[::-1] else 0
    text = list(map(str, counts[: size - k]))
    text += text[:k][::-1]
    if args.format == "csv":
        lines = (f"{v},{t}" for v, (c, t) in enumerate(zip(dist.counts, text), dist.min_value) if c)
        _emit_csv("value,count", lines, args.out)
    else:
        _emit(_dist_json(dist.n, dist.min_value, text), args.out)
    return 0


def _dist_json(n: int, min_value: int, text: list[str]) -> str:
    """``dist``'s JSON in the layout of :func:`_emit_json`, made by one join
    over the decimal texts of the counts: json's indented encoder is pure
    Python, and each further copy of the 2.6 MB text at n = 150 costs more
    than the join."""
    head, tail = '{\n  "counts": [', f'],\n  "min_value": {min_value},\n  "n": {n}\n}}\n'
    if not text:
        return head + tail
    parts = list(text)
    parts[0] = head + '\n    "' + parts[0]
    parts[-1] += '"\n  ' + tail
    return '",\n    "'.join(parts)


# ------------------------------------------------------------------ rate

def cmd_rate(args) -> int:
    if args.stat is None:
        raise UsageError("rate needs --stat (built-in statistics only)")
    n_list = _parse_n_list(args.n_list)
    kind = StatisticKind(args.stat)
    rows = analysis.rate_table(kind, n_list)
    if args.format == "csv":
        lines = (f"{r.n},{r.statistic.value},{r.d_k!r},{r.scaled!r}" for r in rows)
        _emit_csv("n,statistic,d_k,d_k_sqrt_n", lines, args.out)
    else:
        table = [{"n": r.n, "statistic": r.statistic.value, "d_k": r.d_k, "d_k_sqrt_n": r.scaled} for r in rows]
        _emit_json(table, args.out)
    return 0


# ---------------------------------------------------------------- bounds

def _ingredients_json(ing: stein_bounds.BoundIngredients) -> dict:
    out: dict = {
        "n": ing.n,
        "lambda": str(ing.lam),
        "a_max": ing.a_max,
        "e_diff_sq": ing.e_diff_sq,
        "e_abs_diff_cubed": ing.e_abs_diff_cubed,
        "var_cond_pi": ing.var_cond_pi,
        "var_cond_w": ing.var_cond_w,
        "mode": ing.mode,
    }
    if ing.mode == stein_bounds.MODE_EXACT:
        try:
            out["exact"] = {
                "e_diff_sq_x": str(ing.e_diff_sq_x),
                "e_diff_sq_w": str(ing.e_diff_sq_w),
                "e_abs_diff_cubed_x": str(ing.e_abs_diff_cubed_x),
                "var_cond_pi_w": str(ing.var_cond_pi_w),
                "var_cond_w_w": str(ing.var_cond_w_w),
            }
        except ValueError:  # an int past Python's limit on int-string conversion
            raise UsageError(
                f"the exact ingredients at n={ing.n} have more than {sys.get_int_max_str_digits()} digits, "
                "Python's limit for printing an int; use --mode mc"
            ) from None
    else:
        out["trials"] = ing.trials
        out["seed"] = ing.seed
        out["stderr"] = {
            "e_diff_sq": ing.stderr_e_diff_sq,
            "e_abs_diff_cubed": ing.stderr_e_abs_diff_cubed,
            "var_cond_pi": ing.stderr_var_cond_pi,
        }
    return out


def cmd_bounds(args) -> int:
    if args.mode == "exact":
        unused = {"--trials": args.trials, "--seed": args.seed}
    else:
        unused = {"--enum-limit": args.enum_limit}
    for flag, value in unused.items():
        if value is not None:
            raise UsageError(f"{flag} does nothing in --mode {args.mode}")
    if args.mode == "exact":
        spec = _selected_spec(args, always_sweeps=False)
        if spec.kind is StatisticKind.CUSTOM:
            # the refusals of _sn.exact_sums, in its order, on Python ints:
            # a refused matrix runs neither stein_bounds nor _sn
            spec.variance
            check_enum_limit(spec.n, args.enum_limit)
            check_int64_entries(spec.n, spec.matrix.rows)
        ing = stein_bounds.ingredients_exact(spec, args.enum_limit)
    else:
        if args.seed is None:
            raise UsageError("Monte Carlo mode needs --seed")
        if args.trials is None:
            raise UsageError("Monte Carlo mode needs --trials")
        spec = _selected_spec(args)
        ing = stein_bounds.ingredients_mc(spec, args.trials, args.seed)
    report = {
        "statistic": spec.kind.value,
        "ingredients": _ingredients_json(ing),
        "report": stein_bounds.bound_report(ing)._asdict(),
    }
    _emit_json(report, args.out)
    return 0


# ---------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    if args.trials < 0:
        raise UsageError("--trials must not be negative")
    spec = _selected_spec(args)
    sigma = math.sqrt(spec.variance)  # refuses zero variance before any draw
    blocks = _sn.draws(_sn.checked_x_bound(spec.matrix), args.trials, args.seed)
    scale = spec.matrix.scale
    text = str if scale == 1 else lambda a: str(Fraction(a, scale))
    # the rows of each sub-tile; int / int rounds correctly, so a / L / sigma
    # is float(Fraction(a, L)) / sigma past 2^53 too
    tiles = ([(text(a), text(b), a / scale / sigma, b / scale / sigma, i) for a, b, i in zip(*tile)]
             for block in blocks for tile in chain.pair_samples(*block))
    _write(_sample_text(tiles, args.format), args.out)
    return 0


def _sample_text(tiles, fmt: str):
    """``sample``'s output, one string per sub-tile of rows, in CSV or in the
    layout of :func:`_emit_json`: sorted keys, an indent of 2, floats by repr."""
    if fmt == "csv":
        yield "x,x_prime,w,w_prime,position\n"
        for rows in tiles:
            yield "".join("{},{},{!r},{!r},{}\n".format(*r) for r in rows)
        return
    sep = "[\n"
    for rows in tiles:  # a sub-tile holds at least one row
        yield sep + ",\n".join('  {{\n    "position": {4},\n    "w": {2!r},\n    "w_prime": {3!r},\n    "x": "{0}",\n'
                               '    "x_prime": "{1}"\n  }}'.format(*r) for r in rows)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


# ----------------------------------------------------------------- wiring

def _parse_n_list(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",")] if text.strip() else []
    except ValueError as exc:
        raise UsageError(f"bad --n-list {text!r}: {exc}") from exc
    if not out or any(n < 1 for n in out):
        raise UsageError(f"bad --n-list {text!r}: need positive integers")
    return out


def _check_seed(seed: int | None) -> None:
    if seed is not None and not 0 <= seed < 1 << 64:
        raise UsageError("seed must be in 0..2^64 - 1, a non-negative integer that fits in 64 bits")


def _int_at_least(lowest: int, rule: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"{rule}: {value}")
        return value
    return parse


_non_negative_int = _int_at_least(0, "must not be negative")
_positive_int = _int_at_least(1, "must be positive")


def _add_selector(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--stat", choices=[kind.value for kind in BUILTINS])
    group.add_argument("--matrix", metavar="PATH", help="JSON file with an antisymmetric matrix")
    sub.add_argument("--n", type=_positive_int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first :func:`main` call
    and kept for the process; :func:`main` runs ``cmd_<command>``, looked
    up when it runs."""
    parser = argparse.ArgumentParser(
        prog="steinperm",
        description="Exact and Monte Carlo analysis of permutation statistics "
        "built from antisymmetric matrices, their exchangeable pair, and "
        "normal-approximation bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="run the exact identity suite")
    _add_selector(sub)
    sub.add_argument("--enum-limit", type=_non_negative_int)
    sub.add_argument("--out")

    sub = subs.add_parser("example", help="reproduce the built-in worked example")
    sub.add_argument("--out")

    sub = subs.add_parser("dist", help="exact distribution of a statistic")
    _add_selector(sub)
    sub.add_argument("--cap", type=_positive_int, help="override the recurrence size cap")
    sub.add_argument("--enum-limit", type=_non_negative_int)
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out")

    sub = subs.add_parser("rate", help="normal-approximation rate table")
    sub.add_argument("--stat", choices=[kind.value for kind in BUILTINS])
    sub.add_argument("--n-list", required=True, help="comma-separated, e.g. 10,20,30")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out")

    sub = subs.add_parser("bounds", help="bound ingredients and bound values")
    _add_selector(sub)
    sub.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--enum-limit", type=_non_negative_int)
    sub.add_argument("--out")

    sub = subs.add_parser("sample", help="sample the exchangeable pair")
    _add_selector(sub)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_seed(getattr(args, "seed", None))
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, ValueError, OSError) as exc:
        # MatrixFormatError and EnumerationLimitError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault of the program, MemoryError included
        sys.stderr.write(f"error: internal: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
