"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload tpch_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs as many fresh-build rounds of the workload as fit
``--seconds`` at its nominal round length and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced round and
reports the per-layer metrics.  The last line of standard output is the result as
one JSON object; the lines before it are the same figures as a table,
with sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PINNED_FILE = BENCH_DIR / "pinned.json"

#: The default workload seed, and a hold-out seed for re-checking a gain
#: claim on inputs it was not tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
DEFAULT_SECONDS = 25
#: The reference kernel's mean wall time at reference host speed: the
#: mean measured on the 2-vCPU shared x86 host the bounds were set on.
#: Wall figures are rescaled to a host running the kernel this fast.
REFERENCE_S = 300e-6

WORKLOAD_NAMES = ("tpch_mix", "scan_sweep", "sql_rw", "sharded_mix")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure
    ``repro`` comes from it, never from an installed copy."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
        sys.exit(f"perfbench: repro imported from {repro.__file__}")


def cold_memos() -> None:
    """Empty the program's process-wide memos (dbgen output and fused
    expression code), so every round starts as cold as a fresh process."""
    from repro.pushexec import fusion
    from repro.workloads.tpch import dbgen
    from repro.workloads.wisconsin import gen

    for memo in (dbgen._GENERATED_CACHE, gen._GENERATED_CACHE,
                 fusion._code_cache):
        memo.clear()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q * n`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def load_pinned() -> Dict[str, Dict]:
    with open(PINNED_FILE) as f:
        return json.load(f)


def check_round(rnd, pinned: Dict[str, Dict]) -> List[str]:
    """One message per failed operation or cell of the round."""
    from workloads import digest

    problems = []
    for op, out in rnd.results:
        if isinstance(out, BaseException):
            problems.append(f"{op.key}: raised {type(out).__name__}: {out}")
        elif op.expect is not None:
            if tuple(tuple(r) for r in out) != op.expect:
                problems.append(f"{op.key}: {op.query[:60]!r} returned "
                                f"{str(out)[:80]}, model says "
                                f"{str(op.expect)[:80]}")
        elif digest(out, op.ordered) != pinned["digests"].get(op.key):
            problems.append(f"{op.key}: output digest differs from the pin")
    for name, blocks in rnd.cells:
        if blocks != pinned["fig8_blocks"][name]:
            problems.append(f"fig8 cell {name}: {blocks} blocks, fig8_cell "
                            f"gives {pinned['fig8_blocks'][name]}")
    return problems


def check_fig8_live(seed: int, pinned: Dict[str, Dict]) -> List[str]:
    """Run one seed-chosen Figure 8 cell through the harness's own
    ``fig8_cell`` and compare it with the pinned payload."""
    import random

    from repro.harness.experiments import fig8_cell
    from workloads import fig8_spec

    name = random.Random(seed).choice(sorted(pinned["fig8_blocks"]))
    got = fig8_cell(fig8_spec(name))
    want = pinned["fig8_blocks"][name]
    return [] if got == want else [f"live fig8_cell {name}: {got} != {want}"]


def fingerprint(rnd) -> Tuple:
    """Everything a round must repeat exactly (virtual time and work)."""
    return (sorted(rnd.counters.items()), round(rnd.span_vs, 9),
            [round(v, 9) for v in rnd.resp_vs], rnd.cells, len(rnd.slice_s))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def new_round(workload):
    from workloads import Round

    cold_memos()
    rnd = Round()
    workload.run_round(rnd)
    return rnd


def run_rounds(name: str, seed: int, seconds: float, small: bool = False):
    """Fresh-build rounds of one workload: as many as fit *seconds* at
    the workload's nominal round length (at least 2), or one if *small*.
    The count never depends on how fast the program runs, so two
    commits take their fastest slices over equally many rounds.  Each
    round's outputs are checked, then released.  Returns the rounds and
    one message per problem found."""
    from workloads import WORKLOADS

    pinned = load_pinned()
    workload = WORKLOADS[name](seed, small=small)
    count = 1 if small else max(2, round(seconds / workload.round_s))
    rounds, problems = [], []
    for i in range(count):
        rnd = new_round(workload)
        problems += check_round(rnd, pinned)
        rnd.results.clear()
        if rounds and fingerprint(rnd) != fingerprint(rounds[0]):
            problems.append(f"round {i + 1} did not repeat round 1's "
                            "virtual time and work counters")
        rounds.append(rnd)
    return rounds, problems


def round_times(rnd, scale: float) -> Tuple[float, List[float]]:
    """A round's run seconds and per-operation ms, counting only time
    inside simulator slices, multiplied by *scale*."""
    elapsed = list(itertools.accumulate(rnd.slice_s, initial=0.0))

    def at(wall: float) -> float:
        k = bisect.bisect_right(rnd.slice_start, wall) - 1
        return elapsed[k] + min(wall - rnd.slice_start[k], rnd.slice_s[k])

    return elapsed[-1] * scale, [(at(end) - at(start)) * 1000.0 * scale
                                 for start, end in rnd.marks]


def speed_scale(rnd) -> float:
    """How much faster the host ran the reference kernel during *rnd*
    than it does at reference speed."""
    return REFERENCE_S / statistics.fmean(rnd.reference_s)


def end_to_end(rounds) -> Tuple[Dict[str, Tuple[float, str, int]], Dict]:
    """``{metric: (value, unit, samples)}`` over a run's rounds, and the
    same wall figures before rescaling to the reference host speed.

    Each round's wall figures are rescaled by its host speed, then the
    run reports the median round's throughput and each operation's
    median latency over the rounds.  Virtual figures are round one's
    (every round repeats them).
    """
    first = rounds[0]
    n = len(first.resp_vs)

    def wall(scales):
        times = [round_times(r, k) for r, k in zip(rounds, scales)]
        latency = [statistics.median(ms) for ms in zip(*(t[1] for t in times))]
        return (statistics.median(r.setup_s * k for r, k in zip(rounds, scales)),
                n / statistics.median(t[0] for t in times),
                percentile(latency, 0.5), percentile(latency, 0.9))

    setup, qps, p50, p90 = wall([speed_scale(r) for r in rounds])
    raw = dict(zip(("setup_s", "queries_per_s", "query_ms_p50", "query_ms_p90"),
                   wall([1.0] * len(rounds))))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup, "s", len(rounds)),
        "queries_per_s": (qps, "1/s", n),
        "query_ms_p50": (p50, "ms", n),
        "query_ms_p90": (p90, "ms", n),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "sim_qph": (n * 3600.0 / first.span_vs, "q/vh", n),
        "sim_resp_s_p50": (percentile(first.resp_vs, 0.5), "vs", n),
        "sim_resp_s_p90": (percentile(first.resp_vs, 0.9), "vs", n),
        "sim_blocks_per_query": (
            first.counters["hw.disk.blocks_read"] / n, "blocks", n
        ),
    }, raw


def measure(name: str, seed: int, seconds: float) -> Tuple[Dict, List[str], int]:
    """The untraced run: end-to-end metrics, problems, ops attempted."""
    rounds, problems = run_rounds(name, seed, seconds)
    if name == "scan_sweep":
        problems += check_fig8_live(seed, load_pinned())
    attempted = sum(r.attempted for r in rounds)
    print(f"== {name}: {len(rounds)} rounds of {rounds[0].attempted} operations")
    if not all(r.marks for r in rounds):
        return {}, problems, attempted
    metrics, raw = end_to_end(rounds)
    reference_us = statistics.median(
        statistics.fmean(r.reference_s) * 1e6 for r in rounds)
    print(f"   host speed: reference kernel {reference_us:.0f} us per call "
          f"(reference speed {REFERENCE_S * 1e6:.0f} us); before rescaling: "
          + ", ".join(f"{m} {v:.6g}" for m, v in raw.items()))
    return metrics, problems, attempted


def watched_functions() -> Dict[str, object]:
    """Public functions the traced run counts and spans."""
    from repro.osp.deadlock import DeadlockDetector
    from repro.pushexec.compiler import compile_plan
    from repro.sim import Simulator
    from repro.storage.manager import StorageManager
    from repro.workloads.tpch import generate_tpch
    from repro.workloads.wisconsin.gen import generate_wisconsin

    return {
        "sim.schedule": Simulator.schedule,
        "osp.check_once": DeadlockDetector.check_once,
        "pushexec.compile_plan": compile_plan,
        "workloads.generate_tpch": generate_tpch,
        "workloads.generate_wisconsin": generate_wisconsin,
        "storage.load_table": StorageManager.load_table,
        "storage.create_index": StorageManager.create_index,
    }


def per_layer(name: str, seed: int, small: bool = False
              ) -> Tuple[Dict[str, Tuple[float, str, int]], List[str], int]:
    """The traced run: one untraced round for reference, then the same
    round under the layer profiler."""
    from layers import BENCH, LAYERS, UNATTRIBUTED, LayerProfiler
    from workloads import WORKLOADS, Round

    pinned = load_pinned()
    workload = WORKLOADS[name](seed, small=small)
    plain, traced = Round(), Round()
    cold_memos()
    start = perf_counter()
    workload.run_round(plain)
    plain_wall = perf_counter() - start
    profiler = LayerProfiler(str(SRC_DIR), str(BENCH_DIR), watched_functions())
    cold_memos()
    with profiler:
        workload.run_round(traced)
    problems = check_round(plain, pinned) + check_round(traced, pinned)
    if fingerprint(traced) != fingerprint(plain):
        problems.append("the traced round's virtual time or work counters "
                        "differ from the untraced round's")
    c, spans, calls = traced.counters, profiler.span_s, profiler.calls
    sweeps = calls["osp.check_once"]
    attaches, solo = c["osp.attaches"], c["osp.solo_packets"]
    events = calls["sim.schedule"]
    metrics: Dict[str, Tuple[float, str, int]] = {
        "workloads.gen_s": (spans["workloads.generate_tpch"]
                            + spans["workloads.generate_wisconsin"], "s",
                            calls["workloads.generate_tpch"]
                            + calls["workloads.generate_wisconsin"]),
        "storage.load_s": (spans["storage.load_table"], "s",
                           calls["storage.load_table"]),
        "storage.index_build_s": (spans["storage.create_index"], "s",
                                  calls["storage.create_index"]),
        "sim.events": (events, "count", 1),
        "sim.processes": (c["sim.processes"], "count", 1),
        "sim.events_per_s": (events / plain.run_s, "1/s", 1),
        "osp.deadlock_sweeps": (sweeps, "count", 1),
        "osp.deadlocks_resolved": (c["osp.deadlocks_resolved"], "count", 1),
        "osp.sweep_yield": (c["osp.deadlocks_resolved"] / sweeps if sweeps else 0.0,
                            "ratio", sweeps),
        "osp.attaches": (attaches, "count", 1),
        "osp.solo_packets": (solo, "count", 1),
        "osp.attach_ratio": (attaches / (attaches + solo) if attaches + solo else 0.0,
                             "ratio", attaches + solo),
        "osp.shared_page_deliveries": (c["osp.shared_page_deliveries"], "count", 1),
        "pushexec.compile_s": (spans["pushexec.compile_plan"], "s",
                               calls["pushexec.compile_plan"]),
        "storage.page_requests": (c["storage.page_requests"], "count", 1),
        "storage.pool.hit_ratio": (
            c["storage.pool.hits"] / c["storage.page_requests"]
            if c["storage.page_requests"] else 0.0, "ratio",
            c["storage.page_requests"]),
        "storage.pool.evictions": (c["storage.pool.evictions"], "count", 1),
        "hw.disk.blocks_read": (c["hw.disk.blocks_read"], "count", 1),
        "hw.disk.blocks_written": (c["hw.disk.blocks_written"], "count", 1),
        "hw.disk.seeks": (c["hw.disk.seeks"], "count", 1),
        "hw.disk.busy_vs": (c["hw.disk.busy_vs"], "vs", 1),
        "hw.cpu.busy_vs": (c["hw.cpu.busy_vs"], "vs", 1),
        "hw.net.bytes": (c["hw.net.bytes"], "bytes", 1),
        "hw.net.messages": (c["hw.net.messages"], "count", 1),
        "shard.rows_shipped": (c["shard.rows_shipped"], "count", 1),
        "sql.plan_ms_p50": (percentile(plain.plan_ms, 0.5) if plain.plan_ms else 0.0,
                            "ms", len(plain.plan_ms)),
        "trace.overhead": (profiler.wall_s / plain_wall, "ratio", 1),
        "trace.wall_s": (profiler.wall_s, "s", 1),
        "unattributed_s": (profiler.self_s[UNATTRIBUTED], "s", 1),
    }
    for layer in LAYERS + (BENCH,):
        metrics[f"{layer}.self_s"] = (profiler.self_s[layer], "s", 1)
    return metrics, problems, plain.attempted + traced.attempted


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def report(name: str, metrics: Dict[str, Tuple[float, str, int]],
           problems: List[str], attempted: int) -> Dict:
    failed = len(problems)
    print(f"== {name}: {attempted} operations attempted, {failed} failed")
    for problem in problems[:20]:
        print(f"   FAILED {problem}")
    for metric, (value, unit, samples) in sorted(metrics.items()):
        print(f"   {metric:<28} {value:>16.6g} {unit:<7} n={samples}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }


def run_all(args) -> Dict:
    """Every workload, each in a fresh interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and out.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = report(args.workload, *per_layer(args.workload, args.seed))
    else:
        result = report(args.workload,
                        *measure(args.workload, args.seed, args.seconds))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
