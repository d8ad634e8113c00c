"""The four workloads: seeded inputs and the CLI operations run on them.

Every workload is a fixed list of ``steinperm`` command lines.  The seed
given to the benchmark decides the generated inputs (custom matrix
files, Monte Carlo and sampling seeds, rate-table sizes); the program
sees only argv and those files.  ``build(..., warm=True)`` gives the
same operations at reduced size for the warm-up pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("exact-verify", "exact-bounds", "mc-draws", "recurrences")

# An entry of 9e12 makes ingredients_exact allocate a dense level-set list
# of about 2e13 slots before its overflow guard runs.  The matrix does not
# depend on the seed, so the operation fails, or passes, on every run.
FAULT_MATRIX = [
    [0, 9_000_000_000_000, 1, -2],
    [-9_000_000_000_000, 0, 3, 1],
    [-1, -3, 0, 2],
    [2, -1, -2, 0],
]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its stdout must pass.

    ``check(out, outputs)`` gets the op's stdout and the first stdout of
    every op of the pass by name.  ``sweep_n`` is n for operations that
    enumerate S_n.  An ``isolated`` op runs in a child process under an
    address-space limit; a clean refusal (exit 2, one ``error:`` line)
    counts as passing for it.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, dict], list[str]]
    sweep_n: int | None = None
    isolated: bool = False


def _write_matrix(path: Path, entries) -> list[list[Fraction]]:
    path.write_text(json.dumps({"n": len(entries), "entries": [[str(e) for e in row] for row in entries]}))
    return [[Fraction(e) for e in row] for row in entries]


def _random_matrix(rnd: random.Random, n: int, rational: bool) -> list[list[Fraction]]:
    """Antisymmetric with upper entries p/q, |p| <= 5, q in {1, 2, 3, 4, 6}
    (rational) or integers in [-4, 4]; redrawn until Var X > 0."""
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rational:
                    v = Fraction(rnd.randint(-5, 5), rnd.choice((1, 2, 3, 4, 6)))
                else:
                    v = Fraction(rnd.randint(-4, 4))
                m[i][j], m[j][i] = v, -v
        if checks.matrix_variance(m) > 0:
            return m


def _seed(rnd: random.Random) -> int:
    return rnd.randrange(1 << 63)


def _verify_ops(rnd, tmp, warm):
    n = 4 if warm else 6
    return [
        Op(f"verify {stat} n={n}", ("verify", "--stat", stat, "--n", str(n)),
           lambda out, _o, stat=stat: checks.check_verify(out, stat, n), sweep_n=n)
        for stat in ("descents", "inversions")
    ]


def _bounds_ops(rnd, tmp, warm):
    n_builtin, n_custom = (6, 5) if warm else (9, 9)
    ops = [
        Op(f"bounds {stat} n={n_builtin}", ("bounds", "--stat", stat, "--n", str(n_builtin)),
           lambda out, _o, stat=stat: checks.check_bounds_exact(
               out, stat, checks.builtin_entries(stat, n_builtin)), sweep_n=n_builtin)
        for stat in ("descents", "inversions")
    ]
    rational = _write_matrix(tmp / "rational.json", _random_matrix(rnd, n_custom, True))
    integer = _write_matrix(tmp / "integer.json", _random_matrix(rnd, n_custom, False))
    fault = _write_matrix(tmp / "fault.json", FAULT_MATRIX)
    for label, entries in (("rational", rational), ("integer", integer)):
        ops.append(Op(f"bounds {label} matrix n={n_custom}",
                      ("bounds", "--matrix", str(tmp / f"{label}.json")),
                      lambda out, _o, e=entries: checks.check_bounds_exact(out, "custom", e),
                      sweep_n=n_custom))
    ops.append(Op(f"dist integer matrix n={n_custom}", ("dist", "--matrix", str(tmp / "integer.json")),
                  lambda out, _o: checks.check_dist_matrix(out, integer), sweep_n=n_custom))
    ops.append(Op("bounds fault matrix n=4 (entry 9e12)", ("bounds", "--matrix", str(tmp / "fault.json")),
                  lambda out, _o: checks.check_bounds_exact(out, "custom", fault), isolated=True))
    return ops


def _mc_ops(rnd, tmp, warm):
    n_sample = 50
    big, small, draws = (1024, 512, 4) if warm else (65536, 2048, 128)
    ops = []
    # One full 65536-trial block (the block size of ingredients_mc) on
    # n = 50 rows, and a partial block on the widest rows, n = 200.  No op
    # takes much over a second, so the speed kernel run next to each op
    # tracks the machine's speed over the whole op.
    for stat, n_mc, trials in (("descents", 50, big), ("inversions", 200, small)):
        seed = _seed(rnd)
        ops.append(Op(f"bounds mc {stat} n={n_mc} trials={trials}",
                      ("bounds", "--stat", stat, "--n", str(n_mc), "--mode", "mc",
                       "--trials", str(trials), "--seed", str(seed)),
                      lambda out, _o, stat=stat, n_mc=n_mc, trials=trials, seed=seed:
                          checks.check_bounds_mc(out, stat, n_mc, trials, seed)))
    for stat, trials in (("inversions", draws), ("descents", 2 * draws)):
        argv = ("sample", "--stat", stat, "--n", str(n_sample), "--seed", str(_seed(rnd)),
                "--trials", str(trials))
        name = f"sample {stat} n={n_sample} trials={trials}"
        ops.append(Op(name, argv, lambda out, _o, stat=stat, trials=trials:
                      checks.check_sample(out, stat, n_sample, trials)))
    ops.append(Op(name + " (rerun)", argv, lambda out, outputs, ref=name:
                  checks.check_same_bytes(out, outputs.get(ref))))
    return ops


def _recurrence_ops(rnd, tmp, warm):
    ops = []
    for stat, cap in (("descents", 200), ("inversions", 150)):
        # One seeded n from each band keeps the work of a pass nearly the
        # same for every seed; the caps dominate it.
        n_list = [4, 6, 9, 12] if warm else [rnd.randrange(lo, lo + 8) for lo in (8, 16, 24, 32)] + [cap]
        for n in n_list:
            ops.append(Op(f"dist {stat} n={n}", ("dist", "--stat", stat, "--n", str(n)),
                          lambda out, _o, stat=stat, n=n: checks.check_dist(out, stat, n)))
        ops.append(Op(f"rate {stat} n={n_list}",
                      ("rate", "--stat", stat, "--n-list", ",".join(map(str, n_list))),
                      partial(_check_rate, stat, n_list)))
    return ops


def _check_rate(stat, n_list, out, outputs):
    dists = {n: outputs.get(f"dist {stat} n={n}") for n in n_list}
    return checks.check_rate(out, stat, n_list, dists)


_BUILDERS = {
    "exact-verify": _verify_ops,
    "exact-bounds": _bounds_ops,
    "mc-draws": _mc_ops,
    "recurrences": _recurrence_ops,
}


def build(workload: str, seed: int, tmp: Path, warm: bool) -> list[Op]:
    """The operations of one pass; the same (workload, seed, warm) gives the
    same operations and input files."""
    rnd = random.Random(f"{workload}/{seed}/{'warm' if warm else 'main'}")
    sub = tmp / ("warm" if warm else "main")
    sub.mkdir(exist_ok=True)
    return _BUILDERS[workload](rnd, sub, warm)


def factorial_rows(ops: list[Op]) -> int:
    """Sum of n! over the ops that enumerate S_n: the rows one sweep each needs."""
    return sum(math.factorial(op.sweep_n) for op in ops if op.sweep_n is not None)
