"""The benchmark's four workloads, driven through the public API.

A workload turns the workload seed into client streams of operations
(plans or SQL text) once, then runs *rounds*.  A round builds fresh
system(s) -- timed as set-up -- and runs every client stream to
completion on one virtual clock; it has at least 100 operations.
``round_s`` is a workload's nominal round length, which sets how many
rounds a run of a given length makes.  Every round of a run executes the
same inputs on a fresh build, so its virtual-time figures and work
counters repeat exactly, and so does the sequence of virtual-time slices
the wall clock is read over (see ``drive``).

The program sees only the generated plans and SQL.  The data seed is
always the harness scale's seed (``DEFAULT.seed``).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Host, HostConfig, StorageManager
from repro.harness.config import (
    CLIENT_SEED_BASE,
    DEFAULT,
    build_sharded_wisconsin_system,
    build_tpch_system,
)
from repro.harness.experiments import MIX, SCALEOUT_STAGGER
from repro.pushexec import PushEngine
from repro.relational.expressions import AggSpec, Between, Col
from repro.relational.plans import (
    Aggregate,
    GroupBy,
    HashJoin,
    Limit,
    Project,
    Sort,
    TableScan,
)
from repro.sql import plan as sql_plan
from repro.workloads.tpch import queries as Q
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin

#: Parameter variants per query template.  Variant ``v`` of a template
#: draws its parameters from ``random.Random(v)``; the workload seed
#: picks variants and order, so every operation's output is pinned.
VARIANTS = 16


def variant_deck(rng: random.Random):
    """Variants in shuffled passes over all of them, so every seed runs
    the same mix of variants and only their order changes."""
    while True:
        deck = list(range(VARIANTS))
        rng.shuffle(deck)
        yield from deck


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#: The reference kernel is timed once every this many simulator slices.
REFERENCE_EVERY = 8


def reference_kernel() -> None:
    """Fixed pure-Python work shaped like the simulator's inner loop: a
    heap of timers, dict updates and generator resumptions (~0.3 ms)."""
    heap: list = []
    totals: Dict[int, int] = {}

    def steps(n: int):
        for i in range(n):
            yield i

    for i in range(150):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        totals[i % 50] = totals.get(i % 50, 0) + sum(steps(4))
    while heap:
        heapq.heappop(heap)


def time_reference() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------
def _canon(value: Any) -> str:
    """A float keeps a 24-bit mantissa: a sum folded in another order
    under sharing differs only in its last bits.  Binary rounding steps
    never fall on the short decimals (``275153.9225``) the data is made
    of, where a decimal rounding would flip between two runs."""
    if not isinstance(value, float):
        return repr(value)
    mantissa, exponent = math.frexp(value)
    q = round(mantissa * (1 << 24))
    if abs(q) == 1 << 24:  # rounded up to the next power of two
        q, exponent = q // 2, exponent + 1
    return f"{q}p{exponent}"


def digest(rows: Sequence[tuple], ordered: bool) -> str:
    """A short content hash of a result; row order counts only when the
    query defines it."""
    lines = ["\x1f".join(_canon(v) for v in row) for row in rows]
    if not ordered:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def order_defined(plan) -> bool:
    """True when the plan's output order is fixed by a Sort at its top."""
    while isinstance(plan, (Limit, Project)):
        plan = plan.children[0]
    return isinstance(plan, Sort)


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``key`` names its pinned output digest; when ``expect`` is given the
    output must equal those rows exactly instead (model-checked writes).
    """

    key: str
    query: Any
    ordered: bool
    expect: Optional[Tuple[tuple, ...]] = None


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------
@dataclass
class Round:
    """What one round measured."""

    setup_s: float = 0.0
    #: Wall seconds of each virtual-time slice the simulators ran, and
    #: the wall clock at the start of each.
    slice_s: List[float] = field(default_factory=list)
    slice_start: List[float] = field(default_factory=list)
    #: Wall clock at each completed operation's submit and result.
    marks: List[Tuple[float, float]] = field(default_factory=list)
    #: Wall seconds of each timing of the reference kernel, taken
    #: between slices (outside them).
    reference_s: List[float] = field(default_factory=list)
    resp_vs: List[float] = field(default_factory=list)
    #: Summed virtual makespan of every system the round ran.
    span_vs: float = 0.0
    #: Wall ms per ``repro.sql.plan`` call (SQL workload only).
    plan_ms: List[float] = field(default_factory=list)
    #: ``(op, rows)`` per completed operation, ``(op, exception)`` per
    #: operation that raised; emptied once checked.
    results: List[Tuple[Op, Any]] = field(default_factory=list)
    attempted: int = 0
    #: Deterministic work counters summed over the round's systems.
    counters: Counter = field(default_factory=Counter)
    #: ``(cell name, disk blocks read)`` per Figure 8 cell.
    cells: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(self.slice_s)

    def timed_build(self, build: Callable, *args, **kwargs):
        start = perf_counter()
        built = build(*args, **kwargs)
        self.setup_s += perf_counter() - start
        return built


def drive(sim, execute: Callable, streams: Sequence[Sequence[tuple]],
          stagger: float, slice_vs: float, rnd: Round) -> None:
    """Closed loop over ``(op, payload)`` streams: client ``i`` starts at
    ``i * stagger`` virtual seconds and submits its next payload when
    ``execute(payload)`` (a coroutine returning rows) has returned.

    The simulator runs in slices of *slice_vs* virtual seconds, each
    timed on the wall clock, with the reference kernel timed between
    every ``REFERENCE_EVERY`` of them.  Pausing between events changes
    nothing the simulation can observe, so every round runs the same
    slices.
    """
    first = sim.now
    last = [first]

    def client(i: int, stream: Sequence[tuple]):
        yield sim.timeout(i * stagger)
        for op, payload in stream:
            rnd.attempted += 1
            wall, virtual = perf_counter(), sim.now
            try:
                rows = yield from execute(payload)
            except Exception as exc:  # counted as a failed operation
                rnd.results.append((op, exc))
                continue
            rnd.marks.append((wall, perf_counter()))
            rnd.resp_vs.append(sim.now - virtual)
            rnd.results.append((op, rows))
            last[0] = max(last[0], sim.now)

    procs = [
        sim.spawn(client(i, stream), name=f"bench-client{i}")
        for i, stream in enumerate(streams)
    ]
    for k in itertools.count():  # until the queue drains, as run_until_done does
        if k % REFERENCE_EVERY == 0:
            rnd.reference_s.append(time_reference())
        until = sim.now + slice_vs
        start = perf_counter()
        rnd.slice_start.append(start)
        sim.run(until=until)
        rnd.slice_s.append(perf_counter() - start)
        if sim.now < until:
            break
    sim.run_until_done(procs)  # raises if a client is stuck
    rnd.span_vs += last[0] - first
    rnd.counters["sim.processes"] += sim.process_count


def tally_storage(c: Counter, host, sm, engine) -> None:
    """Add one host's public stats to the round's counters."""
    disk = host.disk.stats
    pool = sm.pool.stats
    c["hw.disk.blocks_read"] += disk.blocks_read
    c["hw.disk.blocks_written"] += disk.blocks_written
    c["hw.disk.seeks"] += disk.seeks
    c["hw.disk.busy_vs"] += disk.read_time + disk.write_time
    c["hw.cpu.busy_vs"] += host.cpu.total_burst_time
    c["storage.page_requests"] += pool.accesses
    c["storage.pool.hits"] += pool.hits + pool.coalesced
    c["storage.pool.evictions"] += pool.evictions
    osp = getattr(engine, "osp_stats", None)
    if osp is not None:
        c["osp.attaches"] += osp.total_attaches
        c["osp.solo_packets"] += sum(osp.solo_packets.values())
        c["osp.shared_page_deliveries"] += osp.shared_page_deliveries
        c["osp.deadlocks_resolved"] += osp.deadlocks_resolved


def rows_of(engine) -> Callable:
    """``execute`` for `drive` over plan payloads on *engine*."""
    def execute(plan):
        result = yield from engine.execute(plan)
        return result.rows
    return execute


# ---------------------------------------------------------------------------
# tpch_mix: the Figure 12 experiment
# ---------------------------------------------------------------------------
class TpchMix:
    """8 closed-loop clients, zero think time, staggered starts, each
    running permutations of the Figure 12 eight-query mix on QPipe
    w/OSP (packet engine) over one ``DEFAULT``-scale TPC-H build."""

    name = "tpch_mix"
    round_s = 4.0
    clients = 8
    slice_vs = 2.0

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        passes = 1 if small else 2
        decks = {name: variant_deck(rng) for name in MIX}
        self.streams: List[List[Op]] = []
        for _ in range(self.clients):
            stream: List[Op] = []
            for _ in range(passes):
                names = list(MIX)
                rng.shuffle(names)
                for name in names:
                    v = next(decks[name])
                    stream.append(Op(f"{name}/{v}", (name, v),
                                     order_defined(tpch_plan(name, v))))
            self.streams.append(stream)

    def run_round(self, rnd: Round) -> None:
        host, sm, engine = rnd.timed_build(build_tpch_system, DEFAULT, "qpipe")
        # Plans are built fresh for each round: a plan object may carry
        # per-execution state.
        streams = [[(op, tpch_plan(*op.query)) for op in stream]
                   for stream in self.streams]
        drive(host.sim, rows_of(engine), streams, DEFAULT.client_stagger,
              self.slice_vs, rnd)
        tally_storage(rnd.counters, host, sm, engine)


def tpch_plan(name: str, variant: int):
    return Q.QUERY_BUILDERS[name](random.Random(variant))


# ---------------------------------------------------------------------------
# scan_sweep: the Figure 8 grid
# ---------------------------------------------------------------------------
FIG8_SYSTEMS = ("baseline", "qpipe", "dbmsx")


class ScanSweep:
    """The Figure 8 grid: {2, 4, 8} staggered Q6 clients x {Baseline,
    QPipe w/OSP, DBMS X} x interarrival {0, 20, 60, 100} s, with a fresh
    system per cell built as the harness builds it.  Q6's parameters
    are Figure 8's own (client ``i`` draws from ``CLIENT_SEED_BASE + i``)
    so every cell's block total can be checked against ``fig8_cell``;
    the workload seed draws the order the cells run in."""

    name = "scan_sweep"
    round_s = 8.0
    slice_vs = 5.0

    def __init__(self, seed: int, small: bool = False):
        counts, gaps = ((2,), (0, 60)) if small else ((2, 4, 8), (0, 20, 60, 100))
        self.cells = [
            (count, system, gap)
            for count in counts for system in FIG8_SYSTEMS for gap in gaps
        ]
        random.Random(seed).shuffle(self.cells)
        self.ordered = order_defined(fig8_plan(0))

    def run_round(self, rnd: Round) -> None:
        for count, system, gap in self.cells:
            host, sm, engine = rnd.timed_build(build_tpch_system, DEFAULT, system)
            streams = [
                [(Op(f"q6@fig8/{i}", i, self.ordered), fig8_plan(i))]
                for i in range(count)
            ]
            drive(host.sim, rows_of(engine), streams, gap, self.slice_vs, rnd)
            rnd.cells.append((cell_name(count, system, gap),
                              host.disk.stats.blocks_read))
            tally_storage(rnd.counters, host, sm, engine)


def fig8_plan(i: int):
    return Q.q6(random.Random(CLIENT_SEED_BASE + i))


def cell_name(count: int, system: str, gap: float) -> str:
    return f"{count}/{system}/{gap}"


def fig8_spec(name: str):
    """The harness's ``fig8_cell`` spec for a cell name."""
    from repro.harness.experiments import fig8_cell
    from repro.parallel.cells import CellSpec, coords, fn_key

    count, system, gap = name.split("/")
    return CellSpec("fig8", fn_key(fig8_cell), DEFAULT,
                    coords(count=int(count), system=system, gap=int(gap)),
                    seeds=(("CLIENT_SEED_BASE", CLIENT_SEED_BASE),))


# ---------------------------------------------------------------------------
# sql_rw: SQL text on the push engine, reads and writes
# ---------------------------------------------------------------------------
SQL_BIG_ROWS = 10_000
#: Inserted rows take keys from here up, outside every read template's
#: predicate, so reads stay pinned while the tables grow.
INSERT_BASE = 1_000_000
INSERT_BATCH = 8
#: Rows per range UPDATE.  Fixed: every updated row is a page write, so
#: updates carry most of the workload's virtual time, and a width drawn
#: per seed would make that total swing from seed to seed.
UPDATE_ROWS = 200
SQL_BLOCK_READS = 2  # each template twice per block of 15 statements


def sql_read(template: int, variant: int) -> str:
    """The six read templates of the Wisconsin SQL differential test,
    with parameters scaled to ``SQL_BIG_ROWS``."""
    n = SQL_BIG_ROWS
    rng = random.Random(variant)
    big = rng.choice(["big1", "big2"])
    k = rng.randrange(n // 6, n * 14 // 15)
    a = rng.randrange(0, n // 2)
    b = a + rng.randrange(n // 15, n * 2 // 5)
    d = rng.randrange(10)
    return (
        f"SELECT onepercent, COUNT(*) AS n, SUM(unique1) AS s FROM {big} "
        f"WHERE unique1 < {k} GROUP BY onepercent ORDER BY onepercent",
        f"SELECT unique1, unique2 FROM {big} "
        f"WHERE unique1 BETWEEN {a} AND {b} ORDER BY unique1",
        f"SELECT DISTINCT ten FROM {big} WHERE unique1 < {k}",
        f"SELECT COUNT(*) AS n FROM {big} "
        f"JOIN small ON {big}.unique1 = small.unique1 "
        f"WHERE {big}.unique1 < {k}",
        f"SELECT four, MIN(unique1) AS lo, MAX(unique1) AS hi FROM {big} "
        f"WHERE unique1 >= {a} AND unique1 < {n} GROUP BY four ORDER BY four",
        f"SELECT unique2 FROM small WHERE tenpercent = {d} "
        f"ORDER BY unique2 LIMIT 10",
    )[template]


def _inserted_row(key: int) -> tuple:
    return (key, key, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
            f"A{key:07d}", f"B{key:07d}", "AAAAxxxx")


class SqlRw:
    """One client running SQL statements one at a time through
    ``repro.sql.plan`` on the push engine, over Wisconsin BIG1/BIG2
    (``SQL_BIG_ROWS`` each) plus SMALL in a pool that holds every table.

    Blocks of 15 statements: each read template twice (12 reads) plus
    one INSERT batch, one range UPDATE and one DELETE, shuffled.  Writes
    never touch a row a read template can see (UPDATE sets the unread
    ``unique3``; INSERT/DELETE use keys from ``INSERT_BASE``), so reads
    keep pinned digests; each write's row count, and three closing reads
    of the written state, are checked against a model of the writes.
    """

    name = "sql_rw"
    round_s = 2.1
    slice_vs = 0.05

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        n = SQL_BIG_ROWS
        live = {"big1": [], "big2": []}   # inserted keys still present
        bumped = {"big1": 0, "big2": 0}   # unique3 increments applied
        next_key = INSERT_BASE
        decks = [variant_deck(rng) for _ in range(6)]
        ops: List[Op] = []
        for _ in range(2 if small else 10):
            block = [("read", t) for t in range(6)] * SQL_BLOCK_READS
            block += [("insert",), ("update",), ("delete",)]
            rng.shuffle(block)
            for kind, *arg in block:
                if kind == "read":
                    t = arg[0]
                    v = next(decks[t])
                    text = sql_read(t, v)
                    ops.append(Op(f"t{t}/{v}", text, "ORDER BY" in text))
                    continue
                table = rng.choice(["big1", "big2"])
                if kind == "insert":
                    keys = list(range(next_key, next_key + INSERT_BATCH))
                    next_key += INSERT_BATCH
                    live[table].extend(keys)
                    values = ", ".join(str(_inserted_row(k)) for k in keys)
                    text = f"INSERT INTO {table} VALUES {values}"
                    affected = len(keys)
                elif kind == "update":
                    lo = rng.randrange(n - UPDATE_ROWS)
                    hi = lo + UPDATE_ROWS - 1
                    text = (f"UPDATE {table} SET unique3 = unique3 + 1 "
                            f"WHERE unique2 BETWEEN {lo} AND {hi}")
                    affected = hi - lo + 1
                    bumped[table] += affected
                else:
                    lo = rng.randrange(INSERT_BASE, max(next_key, INSERT_BASE + 1))
                    hi = lo + rng.randrange(4, 24)
                    gone = [k for k in live[table] if lo <= k <= hi]
                    live[table] = [k for k in live[table] if not lo <= k <= hi]
                    text = (f"DELETE FROM {table} "
                            f"WHERE unique1 BETWEEN {lo} AND {hi}")
                    affected = len(gone)
                ops.append(Op(kind, text, True, ((affected,),)))
        base_sum = n * (n - 1) // 2  # unique3 == unique1 on loaded rows
        for table in ("big1", "big2"):
            ops.append(Op(
                "check", f"SELECT COUNT(*) AS n, SUM(unique3) AS s FROM {table}",
                True, ((n + len(live[table]), base_sum + bumped[table]),),
            ))
        ops.append(Op(
            "check",
            f"SELECT unique1 FROM big1 WHERE unique1 >= {INSERT_BASE} "
            f"ORDER BY unique1",
            True, tuple((k,) for k in sorted(live["big1"])),
        ))
        self.streams = [ops]

    @staticmethod
    def build():
        host = Host(HostConfig(seed=DEFAULT.seed))
        sm = StorageManager(host, buffer_pages=1024, use_scan_ring=False)
        load_wisconsin(sm, WisconsinScale(big_rows=SQL_BIG_ROWS),
                       seed=DEFAULT.seed)
        return host, sm, PushEngine(sm, work_mem_tuples=DEFAULT.work_mem_tuples)

    def run_round(self, rnd: Round) -> None:
        host, sm, engine = rnd.timed_build(self.build)

        def execute(text: str):
            start = perf_counter()
            plan = sql_plan(text, sm.catalog)
            rnd.plan_ms.append((perf_counter() - start) * 1000.0)
            result = yield from engine.execute(plan)
            return result.rows

        streams = [[(op, op.query) for op in stream] for stream in self.streams]
        drive(host.sim, execute, streams, 0.0, self.slice_vs, rnd)
        tally_storage(rnd.counters, host, sm, engine)


# ---------------------------------------------------------------------------
# sharded_mix: the scale-out plans on 4 simulated hosts
# ---------------------------------------------------------------------------
SHARD_HOSTS = 4


def scaleout_plans() -> Dict[str, Any]:
    """The scale-out figure's seven frozen plans, by name: four
    selective scan-aggregates, a replicated-build hash join (gather), a
    grouped aggregate (shuffle) and a partitioned join (broadcast)."""
    aggs = [AggSpec("sum", Col("unique2")), AggSpec("count", None)]
    plans: Dict[str, Any] = {
        f"scan_{table}_{lo}": Aggregate(
            TableScan(table, predicate=Between(Col("onepercent"), lo, lo + 1)),
            aggs,
        )
        for table, lo in (("big1", 0), ("big1", 40), ("big2", 20), ("big2", 60))
    }
    plans["gather_join"] = Sort(
        HashJoin(
            TableScan("small", project=["unique1", "unique2"]),
            TableScan("big1", predicate=Between(Col("unique1"), 0, 400),
                      project=["unique1", "ten"], alias="b"),
            "unique1", "b.unique1",
        ),
        ["unique2"],
    )
    plans["shuffle_groupby"] = GroupBy(
        TableScan("big2"), ["ten"],
        [AggSpec("sum", Col("unique1")), AggSpec("count", None)],
    )
    plans["broadcast_join"] = Limit(
        HashJoin(
            TableScan("big2", predicate=Between(Col("unique1"), 0, 100),
                      project=["unique1", "four"]),
            # An ordered probe scan keeps the LIMIT's input order fixed.
            TableScan("big1", project=["unique1", "twenty"], alias="b",
                      ordered=True),
            "unique1", "b.unique1",
        ),
        2000,
    )
    return plans


class ShardedMix:
    """4 simulated hosts on one clock (BIG1/BIG2 range-partitioned,
    SMALL replicated); 4 closed-loop clients run permutations of the
    seven scale-out plans through ``ShardedExecutor``."""

    name = "sharded_mix"
    round_s = 2.4
    clients = 4
    slice_vs = 1.0

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        ordered = {k: order_defined(p) for k, p in scaleout_plans().items()}
        self.streams = []
        for _ in range(self.clients):
            stream = []
            for _ in range(1 if small else 8):
                names = sorted(ordered)
                rng.shuffle(names)
                stream += [Op(name, name, ordered[name]) for name in names]
            self.streams.append(stream)

    def run_round(self, rnd: Round) -> None:
        cluster, system, executor = rnd.timed_build(
            build_sharded_wisconsin_system, DEFAULT, SHARD_HOSTS
        )
        streams = []
        for stream in self.streams:
            plans = scaleout_plans()
            streams.append([(op, plans[op.query]) for op in stream])
        drive(cluster.sim, rows_of(executor), streams, SCALEOUT_STAGGER,
              self.slice_vs, rnd)
        c = rnd.counters
        for shard in system:
            tally_storage(c, shard.host, shard.sm, shard.engine)
        c["hw.net.bytes"] += system.network.stats.bytes_on_wire
        c["hw.net.messages"] += system.network.stats.messages
        c["shard.rows_shipped"] += executor.stats.rows_shipped


WORKLOADS = {w.name: w for w in (TpchMix, ScanSweep, SqlRw, ShardedMix)}
