"""QPipe engine correctness: every operator, OSP on and off.

The push engine's results (already verified against naive Python)
are the reference: both engines must return identical row sets.
"""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
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


def qpipe(db, osp=True, **kwargs):
    _host, sm, _r, _s = db
    return QPipeEngine(sm, QPipeConfig(osp_enabled=osp, **kwargs))


@pytest.mark.parametrize("osp", [True, False], ids=["osp", "no-osp"])
class TestOperators:
    def test_full_scan(self, db, osp):
        _h, _sm, r_rows, _s = db
        rows = qpipe(db, osp).run_query(TableScan("r"))
        assert sorted(rows) == sorted(r_rows)

    def test_scan_with_predicate_and_projection(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = TableScan("r", predicate=Col("grp") == 3, project=["id", "val"])
        rows = qpipe(db, osp).run_query(plan)
        assert sorted(rows) == sorted(
            (r[0], r[2]) for r in r_rows if r[1] == 3
        )

    def test_ordered_scan(self, db, osp):
        _h, _sm, r_rows, _s = db
        rows = qpipe(db, osp).run_query(TableScan("r", ordered=True))
        assert rows == sorted(r_rows)  # r clustered on id

    def test_index_scan_ordered(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = IndexScan("r", "r_id", lo=50, hi=99, ordered=True)
        rows = qpipe(db, osp).run_query(plan)
        assert rows == sorted(r for r in r_rows if 50 <= r[0] <= 99)

    def test_index_scan_unclustered(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = IndexScan("r", "r_grp", lo=2, hi=2)
        rows = qpipe(db, osp).run_query(plan)
        assert sorted(rows) == sorted(r for r in r_rows if r[1] == 2)

    def test_project(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = Project(TableScan("r"), ["v2"], exprs=[Col("val") * 2])
        rows = qpipe(db, osp).run_query(plan)
        assert sorted(rows) == sorted((r[2] * 2,) for r in r_rows)

    def test_sort(self, db, osp):
        _h, _sm, r_rows, _s = db
        rows = qpipe(db, osp).run_query(Sort(TableScan("r"), keys=["val"]))
        assert rows == sorted(r_rows, key=lambda r: (r[2],))

    def test_sort_external(self, db, osp):
        _h, _sm, r_rows, _s = db
        engine = qpipe(db, osp, work_mem_tuples=50)
        rows = engine.run_query(Sort(TableScan("r"), keys=["id"]))
        assert rows == sorted(r_rows, key=lambda r: (r[0],))

    def test_hash_join(self, db, osp):
        _h, _sm, r_rows, s_rows = db
        plan = HashJoin(TableScan("r"), TableScan("s"), "id", "rid")
        rows = qpipe(db, osp).run_query(plan)
        expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
        assert sorted(rows) == sorted(expected)

    def test_hash_join_grace(self, db, osp):
        _h, _sm, r_rows, s_rows = db
        engine = qpipe(db, osp, work_mem_tuples=40)
        plan = HashJoin(TableScan("r"), TableScan("s"), "id", "rid")
        rows = engine.run_query(plan)
        expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
        assert sorted(rows) == sorted(expected)

    def test_merge_join(self, db, osp):
        _h, _sm, r_rows, s_rows = db
        plan = MergeJoin(
            Sort(TableScan("r"), keys=["id"]),
            Sort(TableScan("s"), keys=["rid"]),
            "id",
            "rid",
        )
        rows = qpipe(db, osp).run_query(plan)
        expected = [r + s for s in s_rows for r in r_rows if r[0] == s[1]]
        assert sorted(rows) == sorted(expected)

    def test_nl_join(self, db, osp):
        _h, _sm, r_rows, s_rows = db
        plan = NLJoin(
            TableScan("r", project=["id", "grp"]),
            TableScan("s"),
            predicate=Col("id") == Col("rid"),
        )
        rows = qpipe(db, osp).run_query(plan)
        expected = [
            (r[0], r[1]) + s for r in r_rows for s in s_rows if r[0] == s[1]
        ]
        assert sorted(rows) == sorted(expected)

    def test_aggregate(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = Aggregate(
            TableScan("r"),
            [AggSpec("sum", Col("val"), "sv"), AggSpec("count", None, "n")],
        )
        rows = qpipe(db, osp).run_query(plan)
        assert len(rows) == 1
        assert rows[0][0] == pytest.approx(sum(r[2] for r in r_rows))
        assert rows[0][1] == len(r_rows)

    def test_group_by(self, db, osp):
        _h, _sm, r_rows, _s = db
        plan = GroupBy(TableScan("r"), ["grp"], [AggSpec("count", None, "n")])
        rows = qpipe(db, osp).run_query(plan)
        expected = {}
        for r in r_rows:
            expected[r[1]] = expected.get(r[1], 0) + 1
        assert dict(rows) == expected

    def test_insert(self, db, osp):
        _h, sm, _r, _s = db
        rows = qpipe(db, osp).run_query(
            InsertRows("s", [(9991, 1, 0.5)])
        )
        assert rows == [(1,)]
        assert sm.num_rows("s") == 121

    def test_update(self, db, osp):
        _h, sm, r_rows, _s = db
        plan = UpdateRows(
            "r",
            predicate=Col("grp") == 1,
            apply=lambda row: (row[0], row[1], -1.0, row[3]),
        )
        rows = qpipe(db, osp).run_query(plan)
        assert rows == [(sum(1 for r in r_rows if r[1] == 1),)]

    def test_composed_plan(self, db, osp):
        _h, _sm, r_rows, s_rows = db
        plan = GroupBy(
            HashJoin(
                TableScan("r", predicate=Col("grp") <= 3),
                TableScan("s"),
                "id",
                "rid",
            ),
            ["grp"],
            [AggSpec("sum", Col("w"), "sw")],
        )
        rows = qpipe(db, osp).run_query(plan)
        expected = {}
        for s in s_rows:
            r = r_rows[s[1]]
            if r[1] <= 3:
                expected[r[1]] = expected.get(r[1], 0.0) + s[2]
        assert {k: pytest.approx(v) for k, v in rows} == expected


def test_qpipe_matches_iterator_engine(db):
    """Cross-engine equivalence on a three-table-ish composite plan."""
    from repro.pushexec import PushEngine

    _h, sm, _r, _s = db
    plan = Sort(
        HashJoin(
            TableScan("r", predicate=Col("val") > 20.0),
            TableScan("s"),
            "id",
            "rid",
        ),
        keys=["w"],
    )
    reference = PushEngine(sm).run_query(plan)
    got = QPipeEngine(sm).run_query(plan)
    assert sorted(got) == sorted(reference)
    assert [row[-1] for row in got] == [row[-1] for row in reference]
