"""Spans around calls into steinperm, installed from outside the package.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` replaces each
traced function with a timing wrapper in every ``steinperm`` module
namespace that binds it (``x_stat``, ``move_to_end`` and others are
imported by name into ``cli``, ``chain`` and ``exchangeability``), and
``Tracer.uninstall`` puts the originals back.  Generators are timed per
``next()``.

Every span records its parent, so self time is span time minus the time
of its direct children.  Spans are kept in flat arrays while the run
lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function, kind); kind "gen" marks a generator timed per next().
TRACED = [
    ("cli", "cmd_verify", "fn"),
    ("cli", "cmd_bounds", "fn"),
    ("cli", "cmd_sample", "fn"),
    ("cli", "cmd_dist", "fn"),
    ("cli", "cmd_rate", "fn"),
    ("cli", "_run_checks", "fn"),
    ("cli", "_emit_json", "fn"),
    ("cli", "_emit", "fn"),
    ("_sn", "chunks", "gen"),
    ("_sn", "inner_sum_chunks", "gen"),
    ("_sn", "inner_sums", "fn"),
    ("_sn", "moved", "fn"),
    ("_sn", "integer_matrix", "fn"),
    ("perm_core", "x_stat", "fn"),
    ("perm_core", "variance_formula", "fn"),
    ("exchangeability", "lambda_map", "fn"),
    ("exchangeability", "theta", "fn"),
    ("exchangeability", "builtin_phi", "fn"),
    ("exchangeability", "check_conditions", "fn"),
    ("exchangeability", "joint_distribution", "fn"),
    ("chain", "sample_pair", "fn"),
    ("chain", "x_delta", "fn"),
    ("chain", "move_to_end", "fn"),
    ("chain", "unit_step_check", "fn"),
    ("stein_bounds", "ingredients_exact", "fn"),
    ("stein_bounds", "ingredients_mc", "fn"),
    ("stein_bounds", "a_max", "fn"),
    ("exact_dist", "eulerian_distribution", "fn"),
    ("exact_dist", "mahonian_distribution", "fn"),
    ("exact_dist", "generic_distribution", "fn"),
    ("exact_dist", "standardize", "fn"),
    ("analysis", "kolmogorov_distance", "fn"),
    ("analysis", "rate_table", "fn"),
]

OP = "op"


def inner_sums_bytes(m: int, n: int) -> int:
    """Bytes of the int64 arrays ``_sn.inner_sums`` materializes for an
    (m, n) block, computed from the array shapes of the kernel as it is
    written at the time the benchmark was defined: the (m, n) result, and
    for each of the n - 1 positions the gathered (m, n) matrix rows, the
    (m, n - 1 - i) take_along_axis result and its (m,) row sum."""
    per_position = sum(m * n + m * (n - 1 - i) + m for i in range(n - 1))
    return 8 * (m * n + per_position)


class _TracedIter:
    __slots__ = ("_gen", "_tracer", "_nid", "_on_item")

    def __init__(self, gen, tracer, nid, on_item):
        self._gen = gen
        self._tracer = tracer
        self._nid = nid
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._nid)
        try:
            item = next(self._gen)
        finally:
            self._tracer.close(idx)
        if self._on_item is not None:
            self._on_item(item)
        return item


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self._name_id = {OP: 0}
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, nid: int) -> int:
        idx = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("span stack out of order")

    # ---------------------------------------------------------- wrapping

    def _wrap_fn(self, fn, qual: str):
        nid = self._nid(qual)
        counters = self.counters
        calls = qual + ".calls"

        if qual == "_sn.inner_sums":
            def count(args):
                m, n = args[0].shape
                counters["_sn.inner_sums.cells"] += m * n
                counters["_sn.inner_sums.bytes_computed"] += inner_sums_bytes(m, n)
        elif qual == "cli._emit":
            def count(args):
                counters["cli._emit.bytes"] += len(args[0].encode("utf-8"))
        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            if count is not None:
                count(args)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _wrap_gen(self, fn, qual: str):
        nid = self._nid(qual)
        counters = self.counters
        calls = qual + ".calls"
        if qual == "_sn.chunks":
            def on_item(block):
                counters["_sn.chunks.rows"] += block.shape[0]
        else:
            on_item = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            return _TracedIter(fn(*args, **kwargs), self, nid, on_item)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every steinperm namespace binding it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "steinperm" or k.startswith("steinperm.")]
        for mod_name, fn_name, kind in TRACED:
            home = sys.modules["steinperm." + mod_name]
            original = getattr(home, fn_name)
            qual = f"{mod_name}.{fn_name}"
            wrapper = self._wrap_gen(original, qual) if kind == "gen" else self._wrap_fn(original, qual)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return parent, name, dur, dur - child

    def totals(self) -> dict[str, float]:
        """Inclusive and self seconds per traced name, plus the counters."""
        _, name, dur, self_time = self.arrays()
        k = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        out = dict(self.counters)
        for nid, qual in enumerate(self.names):
            out[qual + ".s"] = float(incl[nid])
            out[qual + ".self_s"] = float(own[nid])
        return out

    def save(self, path) -> None:
        parent, name, _, _ = self.arrays()
        np.savez_compressed(
            path,
            parent=parent,
            name=name,
            start=np.frombuffer(self.t0, dtype=np.float64),
            end=np.frombuffer(self.t1, dtype=np.float64),
            names=np.array(self.names),
        )
