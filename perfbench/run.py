"""steinperm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each operation is one ``steinperm.cli.main(argv)`` call whose stdout is
checked by ``checks.py``.  A run makes one warm-up pass of the workload's
operations at reduced size, then full passes until ``--seconds`` have
gone by (at least one).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--trace 1`` untraced and traced passes alternate, and the spans
of the traced passes are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import os

# One process, one thread: keep BLAS and OpenMP pools from starting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import Speed
from tracing import OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
ISOLATED_AS_LIMIT = 1 << 30
CHILD_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Names follow <module>.<function>.<what>; the module _sn is written "sn"
# because a metric name starts with a letter or a digit.
PER_LAYER = [
    "sn.chunks.s", "sn.chunks.rows", "sn.chunks.calls", "sn.sweep_factor",
    "sn.inner_sums.s", "sn.inner_sums.calls", "sn.inner_sums.cells", "sn.inner_sums.bytes_computed",
    "sn.moved.s", "sn.moved.calls", "sn.integer_matrix.s",
    "perm_core.x_stat.s", "perm_core.x_stat.calls",
    "perm_core.variance_formula.s", "perm_core.variance_formula.calls",
    "exchangeability.lambda_map.self_s", "exchangeability.lambda_map.calls",
    "exchangeability.theta.calls", "exchangeability.builtin_phi.calls",
    "exchangeability.check_conditions.s", "exchangeability.joint_distribution.self_s",
    "chain.sample_pair.self_s", "chain.sample_pair.calls", "chain.x_delta.calls",
    "chain.move_to_end.calls", "chain.unit_step_check.self_s",
    "stein_bounds.ingredients_exact.self_s", "stein_bounds.ingredients_mc.self_s", "stein_bounds.a_max.s",
    "exact_dist.eulerian_distribution.s", "exact_dist.mahonian_distribution.s",
    "exact_dist.generic_distribution.self_s", "exact_dist.standardize.s",
    "analysis.kolmogorov_distance.s", "analysis.rate_table.self_s",
    "cli.cmd_verify.s", "cli.cmd_bounds.s", "cli.cmd_sample.s", "cli.cmd_dist.s", "cli.cmd_rate.s",
    "cli._run_checks.self_s", "cli._emit_json.s", "cli._emit.bytes",
    "trace.overhead_s", "trace.unattributed_s",
    "speed.raw_wall_s", "speed.slowdown",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("sweep_factor") or name.endswith("slowdown"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------------ set-up

def import_seconds(speed: Speed) -> float:
    """Time for a fresh interpreter to import steinperm.cli, at reference speed."""
    code = (
        "import time; t = time.perf_counter(); import steinperm.cli; "
        "t = time.perf_counter() - t; import steinperm; print(steinperm.__file__); print(repr(t))"
    )
    before = speed.kernel_seconds()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    after = speed.kernel_seconds()
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not Path(lines[0]).is_relative_to(SRC):
        raise RuntimeError(f"importing steinperm.cli from {SRC} failed: {proc.stderr.strip()}")
    return speed.at_reference(float(lines[1]), before, after)


# -------------------------------------------------------------- operations

class Recorder:
    """Outcome of every operation attempted, and each distinct stdout."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.outputs: dict[str, dict[str, None]] = {}  # op name -> distinct stdouts, in order
        self.ops: dict[str, workloads.Op] = {}

    def add(self, op: workloads.Op, failed: bool, out: str | None, error: str = "") -> None:
        self.attempted += 1
        self.ops[op.name] = op
        if failed:
            self.failed += 1
            self.errors.setdefault(op.name, error)
        elif out is not None:
            self.outputs.setdefault(op.name, {})[out] = None

    def problems(self) -> list[str]:
        """Check each distinct output once; an op must print the same bytes every time."""
        first = {name: next(iter(outs)) for name, outs in self.outputs.items()}
        bad = []
        for name, outs in self.outputs.items():
            if len(outs) > 1:
                bad.append(f"{name}: {len(outs)} different outputs for the same input")
            for out in outs:
                bad += [f"{name}: {p}" for p in self.ops[name].check(out, first)]
        return bad


def run_in_process(main, op: workloads.Op) -> tuple[float, bool, str | None, str]:
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation that crashes is counted as failed
        dt = time.perf_counter() - t
        return dt, True, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    if rc != 0:
        return dt, True, None, f"exit {rc}: {err.getvalue().strip()[-300:]}"
    return dt, False, out.getvalue(), ""


def run_isolated(op: workloads.Op) -> tuple[float, bool, str | None, str]:
    code = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({ISOLATED_AS_LIMIT}, {ISOLATED_AS_LIMIT})); "
        "from steinperm.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", code, *op.argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, True, None, f"timed out after {CHILD_TIMEOUT_S} s"
    dt = time.perf_counter() - t
    err = proc.stderr.strip()
    if proc.returncode == 0:
        return dt, False, proc.stdout, ""
    if proc.returncode == 2 and err.startswith("error:") and "\n" not in err:
        return dt, False, None, ""  # a clean refusal is a correct answer here
    return dt, True, None, f"exit {proc.returncode}: {err.splitlines()[-1] if err else ''}"


def run_pass(main, ops, rec: Recorder, speed: Speed, tracer: Tracer | None = None) -> tuple[float, float]:
    """Run every op once, with the speed kernel between ops.  Returns the
    pass time (the sum of the op times) raw and at reference speed."""
    gc.collect()
    raw = scaled = 0.0
    before = speed.kernel_seconds()
    for op in ops:
        if op.isolated:
            dt, failed, out, error = run_isolated(op)
        elif tracer is None:
            dt, failed, out, error = run_in_process(main, op)
        else:
            idx = tracer.open(0)
            try:
                dt, failed, out, error = run_in_process(main, op)
            finally:
                tracer.close(idx)
        after = speed.kernel_seconds()
        raw += dt
        scaled += speed.at_reference(dt, before, after)
        before = after
        rec.add(op, failed, out, error)
    return raw, scaled


# --------------------------------------------------------------------- run

def layer_metrics(tracer: Tracer, traced, untraced, sweep_rows: int, speed: Speed) -> dict:
    """Per-layer values per traced pass; span times are raw seconds."""
    k = len(traced)
    totals = tracer.totals()
    own = sum(v for key, v in totals.items() if key.endswith(".self_s"))
    if abs(own - totals[OP + ".s"]) > 1e-6 * max(1.0, own):
        raise RuntimeError(f"span self times add up to {own} s, operations took {totals[OP + '.s']} s")
    values = {}
    for name in PER_LAYER:
        internal = "_sn." + name[3:] if name.startswith("sn.") else name
        values[name] = totals.get(internal, 0.0) / k
    values["sn.sweep_factor"] = values["sn.chunks.rows"] / sweep_rows if sweep_rows else 0.0
    values["trace.overhead_s"] = statistics.median(t for _, t in traced) - statistics.median(t for _, t in untraced)
    values["speed.raw_wall_s"] = statistics.median(r for r, _ in untraced)
    values["speed.slowdown"] = speed.slowdown()
    values["trace.unattributed_s"] = totals.get(OP + ".self_s", 0.0) / k
    return {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    speed = Speed()
    # Set-up is sampled between passes, so that its median spans the run.
    setup: list[float] = []
    if not trace:
        import_seconds(speed)  # compiles the sources; not counted
        setup.append(import_seconds(speed))
    sys.path.insert(0, str(SRC))
    import steinperm.cli

    if not Path(steinperm.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"steinperm imported from {steinperm.cli.__file__}, not {SRC}")
    main = steinperm.cli.main
    rec = Recorder()
    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        warm_ops = workloads.build(name, seed, Path(tmp), warm=True)
        ops = workloads.build(name, seed, Path(tmp), warm=False)
        run_pass(main, warm_ops, rec, speed)
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(main, ops, rec, speed))
            if not trace:
                setup.append(import_seconds(speed))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(main, ops, rec, speed, tracer))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(import_seconds(speed))
        problems = rec.problems()

    for op_name, error in rec.errors.items():
        print(f"failed: {op_name}: {error}", file=sys.stderr)
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    if tracer is not None:
        metrics = layer_metrics(tracer, traced, untraced, workloads.factorial_rows(ops), speed)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"{name}-seed{seed}-spans.npz")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(t for _, t in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"pass times (s, raw/at reference speed): untraced {[(round(r, 3), round(t, 3)) for r, t in untraced]}"
          + (f", traced {[(round(r, 3), round(t, 3)) for r, t in traced]}" if traced else ""), file=sys.stderr)
    print(f"{name} seed={seed}: {len(untraced)} pass(es) of {len(ops)} ops"
          + (f", {len(traced)} traced" if traced else "")
          + f"; attempted {rec.attempted}, failed {rec.failed}")
    return {"correct": not problems, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process of its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, v in one["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = v
            print(f"{name:14s} {metric:40s} {v['value']:.6g} {v['unit']}")
        print(f"{name:14s} attempted {one['attempted']}, failed {one['failed']}, correct {one['correct']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinperm" / "cli.py").is_file():
        print(f"error: no steinperm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
