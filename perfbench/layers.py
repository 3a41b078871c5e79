"""Per-layer attribution for the traced run, from outside the program.

:class:`LayerProfiler` runs the code under ``cProfile`` and charges
every function's self time to a layer: the ``repro`` package its code
lives in.  A function with no layer of its own -- a C builtin, the
standard library, generated code, ``repro``'s top-level modules -- runs
on behalf of its callers and is charged to their layers, split by the
self time it spent under each caller.  A function in any other
``repro`` package (the ones off the measured path), and whatever the
profiler could not place at all, is ``unattributed``, as is the part of
the traced wall time the profiler's own bookkeeping hides from every
function.  So the buckets add up to the traced wall time exactly.

The profiler's call counts and cumulative times also give a count and a
span for a few public functions.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from time import perf_counter
from typing import Callable, Dict

#: The program's layers, by package name under ``repro``.
LAYERS = (
    "sim", "hw", "storage", "relational", "engine", "osp", "pushexec",
    "baseline", "shard", "sql", "workloads", "obs", "harness",
)
#: The benchmark's own files (client coroutines and the round loop).
BENCH = "bench"
UNATTRIBUTED = "unattributed"
_INHERIT = None


def _key(fn: Callable) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class LayerProfiler:
    """Use as a context manager around the code to attribute.

    Args:
        src_root: directory holding the ``repro`` package.
        bench_root: directory holding the benchmark's files.
        watched: ``{name: function}`` -- calls to count and time.

    After the block: ``self_s`` (seconds by layer), ``calls`` and
    ``span_s`` (by watched name) and ``wall_s``.
    """

    def __init__(self, src_root: str, bench_root: str,
                 watched: Dict[str, Callable]):
        self._repro = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self._bench = os.path.realpath(bench_root) + os.sep
        self._watched = {name: _key(fn) for name, fn in watched.items()}
        self._profile = cProfile.Profile()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.span_s: Counter = Counter()
        self.wall_s = 0.0

    def __enter__(self) -> "LayerProfiler":
        self._start = perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self.wall_s = perf_counter() - self._start
        stats = pstats.Stats(self._profile).stats
        for name, key in self._watched.items():
            if key in stats:
                _, calls, _, cumulative, _ = stats[key]
                self.calls[name] = calls
                self.span_s[name] = cumulative
        shares: Dict[tuple, Dict[str, float]] = {}
        for func, (_, _, own, _, _) in stats.items():
            for layer, share in self._shares(func, stats, shares, set()).items():
                self.self_s[layer] += own * share
        self.self_s[UNATTRIBUTED] += self.wall_s - sum(self.self_s.values())

    def _layer(self, filename: str):
        path = os.path.realpath(filename)
        if path.startswith(self._bench):
            return BENCH
        if not path.startswith(self._repro):
            return _INHERIT
        package, sep, _ = path[len(self._repro):].partition(os.sep)
        if not sep:  # a top-level module such as repro/results.py
            return _INHERIT
        return package if package in LAYERS else UNATTRIBUTED

    def _shares(self, func, stats, memo, visiting) -> Dict[str, float]:
        """How *func*'s self time splits over layers."""
        if func in memo:
            return memo[func]
        layer = self._layer(func[0]) if func[0] != "~" else _INHERIT
        if layer is not _INHERIT:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: t[2] for c, t in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:  # no self time under any caller: split by calls
            weights = {c: t[1] for c, t in callers.items() if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            return {UNATTRIBUTED: 1.0}
        visiting.add(func)
        out: Counter = Counter()
        for caller, weight in weights.items():
            for layer, share in self._shares(caller, stats, memo, visiting).items():
                out[layer] += share * weight / total
        visiting.discard(func)
        memo[func] = dict(out)
        return memo[func]
