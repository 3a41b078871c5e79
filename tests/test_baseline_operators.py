"""Correctness tests for the relational operators on the push engine.

Each operator is checked against a naive Python evaluation of the same
query over the raw rows.
"""

import pytest

from repro.pushexec import PushEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
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


def run(db, plan):
    host, sm, _r, _s = db
    engine = PushEngine(sm)
    return engine.run_query(plan)


def test_full_scan(db):
    host, sm, r_rows, _s = db
    rows = run(db, TableScan("r"))
    assert sorted(rows) == sorted(r_rows)


def test_scan_with_predicate_and_projection(db):
    _h, _sm, r_rows, _s = db
    plan = TableScan("r", predicate=Col("grp") == 3, project=["id", "val"])
    rows = run(db, plan)
    expected = [(r[0], r[2]) for r in r_rows if r[1] == 3]
    assert sorted(rows) == sorted(expected)


def test_scan_charges_disk_reads(db):
    host, sm, _r, _s = db
    run(db, TableScan("r"))
    assert host.disk.stats.blocks_read == sm.num_pages("r")


def test_index_scan_clustered_range_ordered(db):
    _h, _sm, r_rows, _s = db
    plan = IndexScan("r", "r_id", lo=50, hi=99, ordered=True)
    rows = run(db, plan)
    expected = sorted(r for r in r_rows if 50 <= r[0] <= 99)
    assert rows == expected  # exact order: clustered key order


def test_index_scan_unclustered(db):
    _h, _sm, r_rows, _s = db
    plan = IndexScan("r", "r_grp", lo=2, hi=2)
    rows = run(db, plan)
    expected = [r for r in r_rows if r[1] == 2]
    assert sorted(rows) == sorted(expected)


def test_index_scan_with_residual_predicate(db):
    _h, _sm, r_rows, _s = db
    plan = IndexScan(
        "r", "r_grp", lo=2, hi=4, predicate=Col("val") > 50.0
    )
    rows = run(db, plan)
    expected = [r for r in r_rows if 2 <= r[1] <= 4 and r[2] > 50.0]
    assert sorted(rows) == sorted(expected)


def test_project_with_expressions(db):
    _h, _sm, r_rows, _s = db
    plan = Project(
        TableScan("r"), ["double_val"], exprs=[Col("val") * 2]
    )
    rows = run(db, plan)
    assert sorted(rows) == sorted((r[2] * 2,) for r in r_rows)


def test_sort_in_memory(db):
    _h, _sm, r_rows, _s = db
    plan = Sort(TableScan("r"), keys=["val"])
    rows = run(db, plan)
    assert rows == sorted(r_rows, key=lambda r: (r[2],))


def test_sort_descending(db):
    _h, _sm, r_rows, _s = db
    plan = Sort(TableScan("r"), keys=["val"], descending=True)
    rows = run(db, plan)
    assert [r[2] for r in rows] == sorted(
        (r[2] for r in r_rows), reverse=True
    )


def test_sort_external_spills(db):
    host, sm, r_rows, _s = db
    engine = PushEngine(sm, work_mem_tuples=50)  # forces spills
    plan = Sort(TableScan("r"), keys=["id"])
    proc = sm.sim.spawn(engine.execute(plan))
    sm.sim.run()
    rows = proc.value.rows
    assert rows == sorted(r_rows, key=lambda r: (r[0],))
    assert host.disk.stats.blocks_written > 0  # runs actually spilled


def test_hash_join(db):
    _h, _sm, r_rows, s_rows = db
    plan = HashJoin(TableScan("r"), TableScan("s"), "id", "rid")
    rows = run(db, plan)
    expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
    assert sorted(rows) == sorted(expected)


def test_hash_join_partitioned(db):
    host, sm, r_rows, s_rows = db
    engine = PushEngine(sm, work_mem_tuples=40)  # force Grace spill
    plan = HashJoin(TableScan("r"), TableScan("s"), "id", "rid")
    proc = sm.sim.spawn(engine.execute(plan))
    sm.sim.run()
    expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
    assert sorted(proc.value.rows) == sorted(expected)
    assert host.disk.stats.blocks_written > 0


def test_merge_join(db):
    _h, _sm, r_rows, s_rows = db
    plan = MergeJoin(
        Sort(TableScan("r"), keys=["id"]),
        Sort(TableScan("s"), keys=["rid"]),
        "id",
        "rid",
    )
    rows = run(db, plan)
    expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
    assert sorted(rows) == sorted(expected)


def test_merge_join_with_duplicates(db):
    _h, _sm, r_rows, s_rows = db
    # Join on grp (7 distinct values in r) against s.rid%7 via projection.
    plan = MergeJoin(
        Sort(TableScan("r", project=["grp", "val"]), keys=["grp"]),
        Sort(TableScan("s", project=["sid"]), keys=["sid"]),
        "grp",
        "sid",
    )
    rows = run(db, plan)
    expected = [
        (r[1], r[2], s[0])
        for r in r_rows
        for s in s_rows
        if r[1] == s[0]
    ]
    assert sorted(rows) == sorted(expected)


def test_nl_join(db):
    _h, _sm, r_rows, s_rows = db
    plan = NLJoin(
        TableScan("r", project=["id", "grp"]),
        TableScan("s"),
        predicate=Col("id") == Col("rid"),
    )
    rows = run(db, plan)
    expected = [
        (r[0], r[1]) + s for r in r_rows for s in s_rows if r[0] == s[1]
    ]
    assert sorted(rows) == sorted(expected)


def test_single_aggregate(db):
    _h, _sm, r_rows, _s = db
    plan = Aggregate(
        TableScan("r"),
        [
            AggSpec("sum", Col("val"), "sv"),
            AggSpec("count", None, "n"),
            AggSpec("min", Col("id"), "lo"),
            AggSpec("max", Col("id"), "hi"),
            AggSpec("avg", Col("val"), "av"),
        ],
    )
    rows = run(db, plan)
    assert len(rows) == 1
    total = sum(r[2] for r in r_rows)
    assert rows[0][0] == pytest.approx(total)
    assert rows[0][1] == len(r_rows)
    assert rows[0][2] == 0 and rows[0][3] == len(r_rows) - 1
    assert rows[0][4] == pytest.approx(total / len(r_rows))


def test_group_by(db):
    _h, _sm, r_rows, _s = db
    plan = GroupBy(
        TableScan("r"), ["grp"], [AggSpec("count", None, "n")]
    )
    rows = run(db, plan)
    expected = {}
    for r in r_rows:
        expected[r[1]] = expected.get(r[1], 0) + 1
    assert dict(rows) == expected


def test_group_by_on_aggregate_filtered(db):
    _h, _sm, r_rows, _s = db
    plan = GroupBy(
        TableScan("r", predicate=Col("val") > 30.0),
        ["tag"],
        [AggSpec("sum", Col("val"), "sv")],
    )
    rows = run(db, plan)
    expected = {}
    for r in r_rows:
        if r[2] > 30.0:
            expected[r[3]] = expected.get(r[3], 0) + r[2]
    assert {k: pytest.approx(v) for k, v in rows} == expected


def test_insert(db):
    host, sm, _r, _s = db
    plan = InsertRows("s", [(9991, 1, 0.5), (9992, 2, 0.6)])
    rows = run(db, plan)
    assert rows == [(2,)]
    assert sm.num_rows("s") == 122


def test_update(db):
    host, sm, r_rows, _s = db
    plan = UpdateRows(
        "r",
        predicate=Col("grp") == 0,
        apply=lambda row: (row[0], row[1], 0.0, row[3]),
    )
    rows = run(db, plan)
    changed = sum(1 for r in r_rows if r[1] == 0)
    assert rows == [(changed,)]
    stored = sm.catalog.table("r").heap.all_rows()
    assert all(r[2] == 0.0 for r in stored if r[1] == 0)


def test_composed_tpch_like_plan(db):
    """scan -> filter -> join -> group-by composition."""
    _h, _sm, r_rows, s_rows = db
    plan = GroupBy(
        HashJoin(
            TableScan("r", predicate=Col("grp") <= 3),
            TableScan("s"),
            "id",
            "rid",
        ),
        ["grp"],
        [AggSpec("sum", Col("w"), "sw"), AggSpec("count", None, "n")],
    )
    rows = run(db, plan)
    expected = {}
    for s in s_rows:
        r = r_rows[s[1]]
        if r[1] <= 3:
            agg = expected.setdefault(r[1], [0.0, 0])
            agg[0] += s[2]
            agg[1] += 1
    assert {k: (pytest.approx(sw), n) for k, sw, n in rows} == {
        k: (pytest.approx(v[0]), v[1]) for k, v in expected.items()
    }


def test_engine_reports_response_time(db):
    _h, sm, _r, _s = db
    engine = PushEngine(sm)
    proc = sm.sim.spawn(engine.execute(TableScan("r")))
    sm.sim.run()
    result = proc.value
    assert result.finished_at > result.submitted_at
    assert result.response_time > 0
