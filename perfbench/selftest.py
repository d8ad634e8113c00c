"""Show that no output check is vacuous.

    python3 perfbench/selftest.py

For every checker in ``checks.py`` this runs the real command at a small
size, confirms the checker accepts the genuine output, then applies
deliberate corruptions, each aimed at one property, and confirms the
checker rejects every one.  It also confirms that the metric lists in
``BENCHMARK.json`` match the ones ``run.py`` prints.  Exit code 0 when
all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import run
import workloads


def genuine(argv: list[str]) -> str:
    from steinperm.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return out.getvalue()


def edit(text: str, fn) -> str:
    obj = json.loads(text)
    fn(obj)
    return json.dumps(obj)


def _set(path, value):
    def fn(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value
    return fn


def _shift_mc(key, factor):
    def fn(obj):
        ing = obj["ingredients"]
        ing[key] += factor * ing["stderr"][key]
    return fn


def _triple_steps(stat, n):
    """Every X' - X tripled, with w' kept equal to x'/sd: only the second
    moment of the step is wrong."""
    sd = float(checks.builtin_variance(stat, n)) ** 0.5

    def fn(rows):
        for r in rows:
            x, xp = Fraction(r["x"]), Fraction(r["x_prime"])
            r["x_prime"] = str(x + 3 * (xp - x))
            r["w_prime"] = float(x + 3 * (xp - x)) / sd
    return fn


def _count_edit(kind):
    def fn(obj):
        c = [int(v) for v in obj["counts"]]
        if kind == "plus_one":
            c[len(c) // 2] += 1
        elif kind == "asymmetric":
            c[0], c[1] = c[0] + 1, c[1] - 1
        elif kind == "spread":  # symmetric, same total, larger variance
            c[0], c[1], c[-1], c[-2] = c[0] + 1, c[1] - 1, c[-1] + 1, c[-2] - 1
        obj["counts"] = [str(v) for v in c]
    return fn


def cases(tmp: Path):
    """(label, checker, genuine output, [(corruption label, corrupted output)])."""
    n = 5
    for stat in ("descents", "inversions"):
        out = genuine(["verify", "--stat", stat, "--n", str(n)])
        yield (f"verify {stat}", lambda o, s=stat, n=n: checks.check_verify(o, s, n), out, [
            ("all_pass false", edit(out, _set(["all_pass"], False))),
            ("one check fails", edit(out, _set(["checks", 0, "pass"], False))),
            ("wrong n", edit(out, _set(["n"], n + 1))),
        ])

    n = 6
    for stat in ("descents", "inversions"):
        out = genuine(["bounds", "--stat", stat, "--n", str(n)])
        entries = checks.builtin_entries(stat, n)
        bad = [
            ("e_diff_sq_w != 4/n", edit(out, _set(["ingredients", "exact", "e_diff_sq_w"], "5/6"))),
            ("e_diff_sq_x off by 1/1000",
             edit(out, _set(["ingredients", "exact", "e_diff_sq_x"], lambda v: str(Fraction(v) + Fraction(1, 1000))))),
            ("var_cond_w_w above var_cond_pi_w",
             edit(out, _set(["ingredients", "exact", "var_cond_w_w"], lambda v: str(Fraction(v) * 1000 + 1)))),
            ("surrogate_used true", edit(out, _set(["report", "surrogate_used"], True))),
        ]
        if stat == "descents":
            bad.append(("e_abs_diff_cubed_x off by 1/1000",
                        edit(out, _set(["ingredients", "exact", "e_abs_diff_cubed_x"],
                                       lambda v: str(Fraction(v) + Fraction(1, 1000))))))
        yield (f"bounds exact {stat}", lambda o, s=stat, e=entries: checks.check_bounds_exact(o, s, e), out, bad)

    rnd = random.Random(0)
    for label, rational in (("rational", True), ("integer", False)):
        path = tmp / f"{label}.json"
        entries = workloads._write_matrix(path, workloads._random_matrix(rnd, 5, rational))
        out = genuine(["bounds", "--matrix", str(path)])
        yield (f"bounds exact {label} matrix", lambda o, e=entries: checks.check_bounds_exact(o, "custom", e), out, [
            ("e_diff_sq_x off by 1/1000",
             edit(out, _set(["ingredients", "exact", "e_diff_sq_x"], lambda v: str(Fraction(v) + Fraction(1, 1000))))),
            ("e_diff_sq_w != 4/n", edit(out, _set(["ingredients", "exact", "e_diff_sq_w"], "1"))),
        ])
        if not rational:
            out = genuine(["dist", "--matrix", str(path)])
            yield ("dist integer matrix", lambda o, e=entries: checks.check_dist_matrix(o, e), out, [
                ("one count + 1", edit(out, _count_edit("plus_one"))),
                ("asymmetric", edit(out, _count_edit("asymmetric"))),
                ("variance off", edit(out, _count_edit("spread"))),
            ])

    n, trials, seed = 30, 8192, 11
    for stat in ("descents", "inversions"):
        out = genuine(["bounds", "--stat", stat, "--n", str(n), "--mode", "mc", "--trials", str(trials),
                       "--seed", str(seed)])
        bad = [
            ("e_diff_sq moved 10 SE", edit(out, _shift_mc("e_diff_sq", 10))),
            ("seed not echoed", edit(out, _set(["ingredients", "seed"], seed + 1))),
        ]
        if stat == "descents":
            bad.append(("e_abs_diff_cubed moved 10 SE", edit(out, _shift_mc("e_abs_diff_cubed", 10))))
        yield (f"bounds mc {stat}", lambda o, s=stat, n=n: checks.check_bounds_mc(o, s, n, trials, seed), out, bad)

    n = 50  # the sizes mc-draws uses
    for stat, trials in (("descents", 256), ("inversions", 128)):
        out = genuine(["sample", "--stat", stat, "--n", str(n), "--seed", "5", "--trials", str(trials)])
        yield (f"sample {stat}", lambda o, s=stat, n=n, t=trials: checks.check_sample(o, s, n, t), out, [
            ("w scaled by 1.01", edit(out, lambda rows: rows[0].update(w=rows[0]["w"] * 1.01 + 0.01))),
            ("odd increment", edit(out, lambda rows: rows[0].update(x_prime=str(Fraction(rows[0]["x_prime"]) + 1)))),
            ("a row missing", edit(out, lambda rows: rows.pop())),
            ("every step tripled", edit(out, _triple_steps(stat, n))),
        ])
        yield (f"rerun bytes {stat}", lambda o, ref=out: checks.check_same_bytes(o, ref), out, [
            ("one byte changed", out.replace("1", "2", 1)),
        ])

    for stat, n_list in (("descents", [5, 9, 30]), ("inversions", [5, 9, 20])):
        dists = {m: genuine(["dist", "--stat", stat, "--n", str(m)]) for m in n_list}
        out = dists[n_list[-1]]
        yield (f"dist {stat}", lambda o, s=stat, m=n_list[-1]: checks.check_dist(o, s, m), out, [
            ("one count + 1", edit(out, _count_edit("plus_one"))),
            ("asymmetric", edit(out, _count_edit("asymmetric"))),
            ("variance off", edit(out, _count_edit("spread"))),
        ])
        out = genuine(["rate", "--stat", stat, "--n-list", ",".join(map(str, n_list))])
        yield (f"rate {stat}", lambda o, s=stat, nl=n_list, d=dists: checks.check_rate(o, s, nl, d), out, [
            ("d_k + 1e-9", edit(out, _set([1, "d_k"], lambda v: v + 1e-9))),
            ("d_k_sqrt_n off", edit(out, _set([0, "d_k_sqrt_n"], lambda v: v * 1.001))),
            ("a row missing", edit(out, lambda rows: rows.pop())),
        ])


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bad = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        bad.append("end_to_end metrics differ from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != [(m, run.layer_unit(m)) for m in run.PER_LAYER]:
        bad.append("per_layer metrics differ from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        bad.append("workloads differ from workloads.WORKLOADS")
    return bad


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures = check_benchmark_json()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
        for label, check, out, corrupted in cases(Path(tmp)):
            problems = check(out)
            print(f"{label}: genuine output {'REJECTED ' + str(problems) if problems else 'accepted'}")
            if problems:
                failures.append(f"{label}: genuine output rejected")
            for what, text in corrupted:
                caught = check(text)
                print(f"  {what}: {'rejected' if caught else 'NOT REJECTED'}")
                if not caught:
                    failures.append(f"{label}: corruption '{what}' not rejected")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
