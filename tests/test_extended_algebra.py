"""Extended algebra: Limit, Distinct, semi/anti/outer joins, both engines."""

import pytest

from repro.pushexec import PushEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    AntiJoin,
    Distinct,
    GroupBy,
    LeftOuterJoin,
    Limit,
    Project,
    SemiJoin,
    Sort,
    TableScan,
)


def run_both(db, plan, ordered_root=False):
    _h, sm, _r, _s = db
    reference = PushEngine(sm).run_query(plan)
    qpipe = QPipeEngine(sm, QPipeConfig()).run_query(plan)
    if ordered_root:
        assert qpipe == reference
    else:
        assert sorted(qpipe) == sorted(reference)
    return reference


# ---------------------------------------------------------------------------
# Limit
# ---------------------------------------------------------------------------
def test_limit_caps_rows(db):
    _h, _sm, r_rows, _s = db
    plan = Limit(Sort(TableScan("r"), keys=["id"]), count=10)
    rows = run_both(db, plan, ordered_root=True)
    assert rows == sorted(r_rows)[:10]


def test_limit_with_offset(db):
    _h, _sm, r_rows, _s = db
    plan = Limit(Sort(TableScan("r"), keys=["id"]), count=5, offset=7)
    rows = run_both(db, plan, ordered_root=True)
    assert rows == sorted(r_rows)[7:12]


def test_limit_beyond_input(db):
    _h, _sm, r_rows, _s = db
    plan = Limit(TableScan("r"), count=10_000)
    rows = run_both(db, plan)
    assert len(rows) == len(r_rows)


def test_limit_zero(db):
    plan = Limit(TableScan("r"), count=0)
    assert run_both(db, plan) == []


def test_limit_validation():
    with pytest.raises(ValueError):
        Limit(TableScan("r"), count=-1)


def test_limit_stops_upstream_scan(big_db):
    """LIMIT must not force a full table scan."""
    host, sm, _r, _s = big_db
    engine = PushEngine(sm)
    before = host.disk.stats.blocks_read
    engine.run_query(Limit(TableScan("r"), count=3))
    assert host.disk.stats.blocks_read - before < sm.num_pages("r")


# ---------------------------------------------------------------------------
# Distinct
# ---------------------------------------------------------------------------
def test_distinct_removes_duplicates(db):
    _h, _sm, r_rows, _s = db
    plan = Distinct(TableScan("r", project=["grp"]))
    rows = run_both(db, plan)
    assert sorted(rows) == sorted({(r[1],) for r in r_rows})


def test_distinct_preserves_first_seen_order(db):
    _h, sm, r_rows, _s = db
    plan = Distinct(TableScan("r", project=["grp"]))
    rows = PushEngine(sm).run_query(plan)
    expected = []
    for r in r_rows:
        if (r[1],) not in expected:
            expected.append((r[1],))
    assert rows == expected


def test_distinct_on_unique_input_is_identity(db):
    _h, _sm, r_rows, _s = db
    plan = Distinct(TableScan("r", project=["id"]))
    rows = run_both(db, plan)
    assert len(rows) == len(r_rows)


# ---------------------------------------------------------------------------
# Semi / anti joins
# ---------------------------------------------------------------------------
def test_semi_join_is_exists(db):
    _h, _sm, r_rows, s_rows = db
    plan = SemiJoin(TableScan("r"), TableScan("s"), "id", "rid")
    rows = run_both(db, plan)
    referenced = {s[1] for s in s_rows}
    assert sorted(rows) == sorted(r for r in r_rows if r[0] in referenced)


def test_semi_join_emits_each_left_row_once(db):
    """Unlike an inner join, multiple right matches yield ONE left row."""
    _h, _sm, r_rows, s_rows = db
    plan = SemiJoin(TableScan("r"), TableScan("s"), "grp", "sid")
    rows = run_both(db, plan)
    sids = {s[0] for s in s_rows}
    expected = [r for r in r_rows if r[1] in sids]
    assert len(rows) == len(expected)


def test_anti_join_is_not_exists(db):
    _h, _sm, r_rows, s_rows = db
    plan = AntiJoin(TableScan("r"), TableScan("s"), "id", "rid")
    rows = run_both(db, plan)
    referenced = {s[1] for s in s_rows}
    assert sorted(rows) == sorted(r for r in r_rows if r[0] not in referenced)


def test_semi_plus_anti_partition_left(db):
    _h, _sm, r_rows, _s = db
    semi = run_both(db, SemiJoin(TableScan("r"), TableScan("s"), "id", "rid"))
    anti = run_both(db, AntiJoin(TableScan("r"), TableScan("s"), "id", "rid"))
    assert sorted(semi + anti) == sorted(r_rows)


def test_semi_join_output_schema_is_left_only(db):
    _h, sm, _r, _s = db
    plan = SemiJoin(TableScan("r"), TableScan("s"), "id", "rid")
    assert plan.output_schema(sm.catalog).names == ["id", "grp", "val", "tag"]


# ---------------------------------------------------------------------------
# Left outer join
# ---------------------------------------------------------------------------
def test_outer_join_pads_unmatched_left(db):
    _h, _sm, r_rows, s_rows = db
    plan = LeftOuterJoin(TableScan("r"), TableScan("s"), "id", "rid")
    rows = run_both(db, plan)
    referenced = {s[1] for s in s_rows}
    inner = sum(1 for s in s_rows)  # every s row matches exactly one r
    unmatched = sum(1 for r in r_rows if r[0] not in referenced)
    assert len(rows) == inner + unmatched
    padded = [row for row in rows if row[-1] is None]
    assert len(padded) == unmatched


def test_outer_join_preserves_all_left_keys(db):
    _h, _sm, r_rows, _s = db
    plan = LeftOuterJoin(TableScan("r"), TableScan("s"), "id", "rid")
    rows = run_both(db, plan)
    assert {row[0] for row in rows} == {r[0] for r in r_rows}


def test_outer_join_composes_with_groupby(db):
    """The TPC-H Q13 shape: count orders per customer including zeros."""
    _h, _sm, r_rows, s_rows = db
    plan = GroupBy(
        LeftOuterJoin(TableScan("r"), TableScan("s"), "id", "rid"),
        ["id"],
        [
            AggSpec(
                "sum",
                # count only matched rows: NULL-padded sid stays 0
                Col("val") * 0 + 1,  # placeholder 1 per row
                "n_rows",
            )
        ],
    )
    rows = run_both(db, plan)
    assert len(rows) == len(r_rows)  # every left key has a group


# ---------------------------------------------------------------------------
# QPipe sharing still works on the new operators
# ---------------------------------------------------------------------------
def test_identical_semi_joins_attach(big_db):
    host, sm, r_rows, s_rows = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))

    def plan(agg):
        # Roots differ (count vs sum) so sharing happens at the semijoin.
        return Aggregate(
            SemiJoin(TableScan("r"), TableScan("s"), "id", "rid"),
            [agg],
        )

    def client(delay, agg):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(plan(agg))
        return result

    a = host.sim.spawn(client(0.0, AggSpec("count", None, "n")))
    b = host.sim.spawn(client(0.3, AggSpec("sum", Col("val"), "sv")))
    host.sim.run_until_done([a, b])
    assert a.value.rows[0][0] > 0
    assert b.value.rows[0][0] > 0
    assert engine.osp_stats.attaches["semijoin"] == 1
