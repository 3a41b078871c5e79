"""Engine equivalence: random plans and random SQL on every engine.

Both engines' schedules are pinned exactly.  The push engine runs the
DBMS X persona: for fixed seed lists it must reproduce the rows, the
virtual clock and the disk counters recorded from the retired Volcano
iterator engine (``iterator_reference.json``), at the default work_mem
and under memory pressure.  The packet engine (OSP on) replays its own
recorded table (``qpipe_reference.json``) over the same seeds, plus the
TPC-H EXISTS / outer-join queries and an INSERT/UPDATE/DELETE script, so
its sort, merge-join, semi/outer-join and DML schedules cannot move.
Hypothesis then generates random (but well-formed) logical plans over
the fixture tables, and the QPipe engine must return the push engine's
rows on every one of them.  This covers scans, index scans, filters,
projections, sorts, all three joins, aggregates and group-bys in random
compositions.
"""

import hashlib
import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.pushexec import PushEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    DeleteRows,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    InsertRows,
    MergeJoin,
    NLJoin,
    Project,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.storage.manager import StorageManager
from repro.workloads.tpch import TpchScale, load_tpch
from repro.workloads.tpch import queries as Q

import tests.conftest as cf

#: Rows sha256, ``sim.now``, blocks read and blocks written per seed, as
#: the iterator engine produced them before the push engine replaced it.
ITERATOR_REFERENCE = json.loads(
    (Path(__file__).parent / "iterator_reference.json").read_text()
)
#: The same entries as the packet engine (OSP on) produced them, plus its
#: TPC-H, DML and merge-join-split runs.
QPIPE_REFERENCE = json.loads(
    (Path(__file__).parent / "qpipe_reference.json").read_text()
)
RECORDED_SEEDS = range(64)


def observed(host, rows, clock=None):
    """One recorded-table entry for a finished run on *host*; *clock*
    defaults to the simulator's clock."""
    return [
        hashlib.sha256(repr(rows).encode()).hexdigest(),
        host.sim.now if clock is None else clock,
        host.disk.stats.blocks_read,
        host.disk.stats.blocks_written,
    ]


def run_observed(host, engine, plan):
    """Run *plan* alone on *engine*; its recorded-table entry.

    The clock is the query's finish time: the packet engine's deadlock
    detector ticks on after the last query, which rounds ``sim.now`` up
    to its period.  Any other engine must leave nothing running after
    its query -- no CPU burst, no timer -- so there the finish time must
    be the simulator's final clock too."""
    proc = host.sim.spawn(engine.execute(plan), name="recorded")
    host.sim.run()
    result = proc.value
    if not isinstance(engine, QPipeEngine):
        assert host.sim.now == result.finished_at, (
            f"simulated activity ran on to {host.sim.now} after the "
            f"query finished at {result.finished_at}"
        )
    return observed(host, result.rows, result.finished_at)


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=96)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=160))
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_index("r", ["grp"], name="r_grp")
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", cf.make_s_rows(n=70, r_n=160))
    return host, sm


def r_predicate(rng: random.Random):
    return rng.choice(
        [
            None,
            Col("grp") == rng.randrange(7),
            Col("val") > rng.uniform(10, 90),
            (Col("grp") <= 4) & (Col("val") < rng.uniform(30, 95)),
        ]
    )


def r_source(rng: random.Random):
    choice = rng.randrange(3)
    if choice == 0:
        return TableScan("r", predicate=r_predicate(rng))
    if choice == 1:
        lo = rng.randrange(0, 120)
        return IndexScan(
            "r", "r_id", lo=lo, hi=lo + rng.randrange(10, 60),
            ordered=rng.random() < 0.5,
        )
    grp = rng.randrange(7)
    return IndexScan("r", "r_grp", lo=grp, hi=grp + rng.randrange(0, 3))


def random_shaped_plan(seed: int):
    """``(shape, plan)``: one of six plan shapes over a random source."""
    rng = random.Random(seed)
    base = r_source(rng)
    shape = rng.randrange(6)
    if shape == 0:
        return shape, Sort(base, keys=["val"], descending=rng.random() < 0.5)
    if shape == 1:
        return shape, GroupBy(
            base,
            ["grp"],
            [AggSpec("count", None, "n"), AggSpec("sum", Col("val"), "sv")],
        )
    if shape == 2:
        return shape, Aggregate(
            Filter(base, Col("val") >= rng.uniform(0, 50)),
            [AggSpec("min", Col("id"), "lo"), AggSpec("max", Col("id"), "hi"),
             AggSpec("count", None, "n")],
        )
    if shape == 3:
        join = HashJoin(base, TableScan("s"), "id", "rid")
        return shape, GroupBy(join, ["grp"], [AggSpec("sum", Col("w"), "sw")])
    if shape == 4:
        join = MergeJoin(
            Sort(base, keys=["id"]),
            Sort(TableScan("s"), keys=["rid"]),
            "id",
            "rid",
        )
        return shape, Aggregate(join, [AggSpec("count", None, "n")])
    return shape, Project(
        Sort(base, keys=["id"]),
        ["twice"],
        exprs=[Col("val") * 2],
    )


def random_plan(seed: int):
    return random_shaped_plan(seed)[1]


def test_recorded_seeds_cover_every_plan_shape():
    """Each of the six shapes appears at least three times in the seed
    list, and both memory settings were recorded for every seed."""
    shapes = [random_shaped_plan(seed)[0] for seed in RECORDED_SEEDS]
    assert all(shapes.count(shape) >= 3 for shape in range(6))
    for reference in (ITERATOR_REFERENCE, QPIPE_REFERENCE):
        for table in reference["random_plan"].values():
            assert sorted(map(int, table)) == list(RECORDED_SEEDS)


def qpipe_engine(sm, **config):
    """The packet engine with OSP on, as the recorded table ran it."""
    return QPipeEngine(sm, QPipeConfig(osp_enabled=True, **config))


def _check_recorded(reference, label, make_engine):
    table = reference["random_plan"][label]
    for seed in RECORDED_SEEDS:
        host, sm = build_db()
        got = run_observed(host, make_engine(sm), random_plan(seed))
        # Same rows in the same order, same virtual finish time, same
        # disk traffic as the recorded reference.
        assert got == table[str(seed)], (
            f"seed {seed} ({label}): {random_plan(seed)!r}"
        )


def test_pushed_matches_recorded_iterator_table():
    _check_recorded(ITERATOR_REFERENCE, "default", PushEngine)


def test_pushed_agrees_under_memory_pressure():
    """The spill paths (external sort, Grace hash join) replay the
    recorded schedule too: a tiny work_mem forces them."""
    _check_recorded(
        ITERATOR_REFERENCE, "work_mem_40",
        lambda sm: PushEngine(sm, work_mem_tuples=40),
    )
    spilled = ITERATOR_REFERENCE["random_plan"]["work_mem_40"].values()
    assert sum(1 for entry in spilled if entry[3] > 0) >= 10


def test_qpipe_matches_recorded_table():
    _check_recorded(QPIPE_REFERENCE, "default", qpipe_engine)


def test_qpipe_agrees_under_memory_pressure():
    """The µEngines' run spill and k-way merge replay their schedule."""
    _check_recorded(
        QPIPE_REFERENCE, "work_mem_40",
        lambda sm: qpipe_engine(sm, work_mem_tuples=40),
    )
    spilled = QPIPE_REFERENCE["random_plan"]["work_mem_40"].values()
    assert sum(1 for entry in spilled if entry[3] > 0) >= 10


def build_tpch_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=256)
    load_tpch(sm, TpchScale(factor=0.05), seed=7)
    return host, sm


def test_qpipe_matches_recorded_tpch_semi_and_outer_joins():
    """Q4 (EXISTS: a semi join) and Q13 (a left-outer join) run in
    sequence on one database; the counters are cumulative."""
    host, sm = build_tpch_db()
    engine = qpipe_engine(sm)
    recorded = QPIPE_REFERENCE["tpch"]
    for name in ("q4_exists", "q13_outer"):
        got = run_observed(host, engine, getattr(Q, name)())
        assert got == recorded[name], name


def dml_script():
    """An INSERT/UPDATE/DELETE script over the random-plan database,
    each statement followed by a read of the table it changed."""
    return [
        InsertRows("s", [(900 + i, i * 3, 0.5 * i) for i in range(40)]),
        Sort(TableScan("s"), keys=["sid"]),
        UpdateRows(
            "r", Col("grp") == 2,
            lambda row: (row[0], row[1], row[2] + 1.0, row[3]),
        ),
        UpdateRows("s", None, lambda row: (row[0], row[1], -row[2])),
        Sort(TableScan("r"), keys=["val"]),
        DeleteRows("s", Col("rid") < 60),
        DeleteRows("r", (Col("grp") == 5) & (Col("val") > 40.0)),
        GroupBy(TableScan("r"), ["grp"], [AggSpec("count", None, "n")]),
        Aggregate(TableScan("s"), [AggSpec("sum", Col("w"), "sw")]),
        DeleteRows("s"),
        Aggregate(TableScan("s"), [AggSpec("count", None, "n")]),
    ]


def test_qpipe_matches_recorded_dml_script():
    host, sm = build_db()
    engine = qpipe_engine(sm)
    recorded = QPIPE_REFERENCE["dml"]
    script = dml_script()
    assert len(recorded) == len(script)
    for step, (plan, entry) in enumerate(zip(script, recorded)):
        got = run_observed(host, engine, plan)
        assert got == entry, f"step {step}: {plan!r}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_engines_agree_on_random_plans(seed):
    """Row differential: QPipe vs the push engine."""
    plan = random_plan(seed)

    host, sm = build_db()
    reference = PushEngine(sm).run_query(plan)

    host2, sm2 = build_db()
    qpipe = QPipeEngine(sm2, QPipeConfig(osp_enabled=True)).run_query(plan)

    assert sorted(qpipe) == sorted(reference)
    # Order-producing roots must match exactly, not just as multisets.
    if isinstance(plan, (Sort, Project)):
        assert qpipe == reference


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_osp_on_off_agree_on_random_plans(seed):
    plan = random_plan(seed)
    host, sm = build_db()
    with_osp = QPipeEngine(sm, QPipeConfig(osp_enabled=True)).run_query(plan)
    host2, sm2 = build_db()
    without = QPipeEngine(sm2, QPipeConfig(osp_enabled=False)).run_query(plan)
    assert sorted(with_osp) == sorted(without)


# ---------------------------------------------------------------------------
# Differential harness: seeded random Wisconsin SQL through all engines
# ---------------------------------------------------------------------------
from repro.sql import plan as sql_plan  # noqa: E402
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin  # noqa: E402

DIFFERENTIAL_SEEDS = list(range(30))


def build_wisconsin_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    load_wisconsin(sm, WisconsinScale(big_rows=300), seed=7)
    return host, sm


def random_wisconsin_sql(seed: int) -> str:
    """One random (but deterministic per seed) Wisconsin-style query.

    Every ORDER BY key below is unique per row/group, so LIMIT results
    are well-defined and comparable across engines.
    """
    rng = random.Random(seed)
    big = rng.choice(["big1", "big2"])
    k = rng.randrange(50, 280)
    a = rng.randrange(0, 150)
    b = a + rng.randrange(20, 120)
    d = rng.randrange(10)
    templates = [
        f"SELECT onepercent, COUNT(*) AS n, SUM(unique1) AS s FROM {big} "
        f"WHERE unique1 < {k} GROUP BY onepercent ORDER BY onepercent",
        f"SELECT unique1, unique2 FROM {big} "
        f"WHERE unique1 BETWEEN {a} AND {b} ORDER BY unique1",
        f"SELECT DISTINCT ten FROM {big} WHERE unique1 < {k}",
        f"SELECT COUNT(*) AS n FROM {big} "
        f"JOIN small ON {big}.unique1 = small.unique1 "
        f"WHERE {big}.unique1 < {k}",
        f"SELECT four, MIN(unique1) AS lo, MAX(unique1) AS hi FROM {big} "
        f"WHERE unique1 >= {a} GROUP BY four ORDER BY four",
        f"SELECT unique2 FROM small WHERE tenpercent = {d} "
        f"ORDER BY unique2 LIMIT 10",
    ]
    return templates[rng.randrange(len(templates))]


def _run_concurrent(host, engine, plans, stagger: float = 0.0):
    """Submit all *plans* with small staggers so OSP can share work."""
    procs = []

    def client(p, delay):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(p)
        return result

    for i, p in enumerate(plans):
        procs.append(host.sim.spawn(client(p, i * stagger), name=f"dq{i}"))
    host.sim.run_until_done(procs)
    return [proc.value.rows for proc in procs]


def _is_aggregate_sql(sql: str) -> bool:
    return any(fn in sql for fn in ("COUNT(", "SUM(", "MIN(", "MAX("))


def test_differential_wisconsin_sql():
    """~30 seeded random SQL queries agree across the push engine (which
    must reproduce the recorded iterator table), QPipe with sharing off,
    and QPipe with sharing on (submitted concurrently)."""
    queries = {seed: random_wisconsin_sql(seed) for seed in DIFFERENTIAL_SEEDS}
    recorded = ITERATOR_REFERENCE["wisconsin_sql"]
    assert sorted(map(int, recorded)) == DIFFERENTIAL_SEEDS

    host_push, sm_push = build_wisconsin_db()
    push_engine = PushEngine(sm_push)
    reference = {}
    aggregates = 0
    for seed, sql in queries.items():
        got = push_engine.run_query(sql_plan(sql, sm_push.catalog))
        # Schedule equivalence: exact row order, not just the multiset,
        # and the clock and disk counters after each query.
        assert observed(host_push, got) == recorded[str(seed)], (
            f"pushed mismatch seed {seed}: {sql}"
        )
        reference[seed] = sorted(got)
        if _is_aggregate_sql(sql):
            aggregates += 1
    # The seed range must actually have exercised aggregate equality.
    assert aggregates >= 5

    host_off, sm_off = build_wisconsin_db()
    engine_off = QPipeEngine(sm_off, QPipeConfig(osp_enabled=False))
    for seed, sql in queries.items():
        got = sorted(engine_off.run_query(sql_plan(sql, sm_off.catalog)))
        assert got == reference[seed], f"OSP-off mismatch seed {seed}: {sql}"

    host_on, sm_on = build_wisconsin_db()
    engine_on = QPipeEngine(sm_on, QPipeConfig(osp_enabled=True))
    compiled = [sql_plan(sql, sm_on.catalog) for sql in queries.values()]
    all_rows = _run_concurrent(host_on, engine_on, compiled)
    for (seed, sql), rows in zip(queries.items(), all_rows):
        assert sorted(rows) == reference[seed], (
            f"OSP-on mismatch seed {seed}: {sql}"
        )
    # The concurrent submission must actually have exercised sharing.
    stats = engine_on.osp_stats
    assert stats.attaches or stats.shared_page_deliveries
