"""SQL front-end tests: lexer, parser, planner, end-to-end on both engines."""

import pytest

from repro.pushexec import PushEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.sql import SqlError, plan, run, tokenize
from repro.sql.parser import parse


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
def kinds(sql):
    return [(t.kind, t.value) for t in tokenize(sql)[:-1]]


def test_tokenize_basics():
    assert kinds("SELECT a, 1.5 FROM t") == [
        ("KEYWORD", "SELECT"),
        ("IDENT", "a"),
        ("SYMBOL", ","),
        ("NUMBER", "1.5"),
        ("KEYWORD", "FROM"),
        ("IDENT", "t"),
    ]


def test_tokenize_strings_and_comments():
    tokens = kinds("SELECT 'hello' -- a comment\nFROM t")
    assert ("STRING", "hello") in tokens
    assert all(value not in ("a", "comment") for _k, value in tokens)


def test_tokenize_qualified_names_vs_decimals():
    assert kinds("a.b 1.5 c.2") [0:3] == [
        ("IDENT", "a"), ("SYMBOL", "."), ("IDENT", "b"),
    ]


def test_tokenize_rejects_garbage():
    with pytest.raises(SqlError):
        tokenize("SELECT ;")


def test_tokenize_unterminated_string():
    with pytest.raises(SqlError):
        tokenize("SELECT 'oops")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def test_parse_full_statement():
    stmt = parse(
        "SELECT grp, COUNT(*) AS n FROM r WHERE val > 10 "
        "GROUP BY grp HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3"
    )
    assert len(stmt.items) == 2
    assert stmt.items[1].alias == "n"
    assert stmt.group_by[0].name == "grp"
    assert stmt.having is not None
    assert stmt.order_by[0].descending
    assert stmt.limit == 3


def test_parse_joins():
    stmt = parse(
        "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.y = c.z"
    )
    assert [t.join_type for t in stmt.tables] == ["inner", "inner", "left"]
    assert stmt.tables[1].condition is not None


def test_parse_aliases():
    stmt = parse("SELECT o.id FROM orders AS o, lineitem l")
    assert stmt.tables[0].alias == "o"
    assert stmt.tables[1].alias == "l"


def test_parse_between_in_like():
    stmt = parse(
        "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2) "
        "AND c LIKE 'x%' AND d IS NOT NULL"
    )
    assert stmt.where is not None


def test_parse_date_literal():
    stmt = parse("SELECT * FROM t WHERE d >= DATE '1995-01-01'")
    # 1995-01-01 is 9131 days after the epoch.
    assert "9131" in repr(stmt.where.right.value)


def test_parse_errors():
    for bad in (
        "SELECT",  # missing FROM
        "SELECT * FROM",  # missing table
        "SELECT a FROM t WHERE",  # missing predicate
        "SELECT SUM(*) FROM t",  # SUM(*) invalid
        "SELECT * FROM t LIMIT x",  # LIMIT wants a number
    ):
        with pytest.raises(SqlError):
            parse(bad)


# ---------------------------------------------------------------------------
# Planner + execution (both engines, vs raw rows)
# ---------------------------------------------------------------------------
def run_sql(db, sql, ordered=False):
    _h, sm, _r, _s = db
    reference = run(PushEngine(sm), sql)
    qpipe = run(QPipeEngine(sm, QPipeConfig()), sql)
    if ordered:
        assert qpipe == reference
    else:
        assert sorted(qpipe) == sorted(reference)
    return reference


def test_select_star(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(db, "SELECT * FROM r")
    assert sorted(rows) == sorted(r_rows)


def test_select_columns_with_pushdown(db):
    _h, sm, r_rows, _s = db
    sql = "SELECT id, val FROM r WHERE grp = 3 AND val > 20"
    rows = run_sql(db, sql)
    expected = [(r[0], r[2]) for r in r_rows if r[1] == 3 and r[2] > 20]
    assert sorted(rows) == sorted(expected)
    # The predicate was pushed into the scan, not a Filter above it.
    from repro.relational.plans import Project, TableScan

    compiled = plan(sql, sm.catalog)
    assert isinstance(compiled, Project)
    assert isinstance(compiled.child, TableScan)
    assert compiled.child.predicate is not None


def test_computed_select_items(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(db, "SELECT val * 2 AS double_val FROM r WHERE id < 5")
    assert sorted(rows) == sorted((r[2] * 2,) for r in r_rows if r[0] < 5)


def test_between_in_like_execution(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(
        db,
        "SELECT id FROM r WHERE grp BETWEEN 2 AND 4 "
        "AND tag IN ('t1', 't2') AND tag LIKE 't%'",
    )
    expected = [
        (r[0],)
        for r in r_rows
        if 2 <= r[1] <= 4 and r[3] in ("t1", "t2")
    ]
    assert sorted(rows) == sorted(expected)


def test_group_by_with_having(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(
        db,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS sv FROM r "
        "GROUP BY grp HAVING COUNT(*) > 40",
    )
    counts = {}
    sums = {}
    for r in r_rows:
        counts[r[1]] = counts.get(r[1], 0) + 1
        sums[r[1]] = sums.get(r[1], 0.0) + r[2]
    expected = [
        (g, counts[g], pytest.approx(sums[g]))
        for g in counts
        if counts[g] > 40
    ]
    assert sorted(rows) == sorted(expected)


def test_global_aggregates(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(
        db, "SELECT COUNT(*), MIN(id), MAX(id), AVG(val) FROM r"
    )
    assert rows[0][0] == len(r_rows)
    assert rows[0][1] == 0 and rows[0][2] == len(r_rows) - 1
    assert rows[0][3] == pytest.approx(
        sum(r[2] for r in r_rows) / len(r_rows)
    )


def test_order_by_and_limit(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(
        db, "SELECT id, val FROM r ORDER BY val DESC LIMIT 5", ordered=True
    )
    expected = sorted(
        ((r[0], r[2]) for r in r_rows), key=lambda t: t[1], reverse=True
    )[:5]
    assert rows == expected


def test_limit_offset(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(
        db, "SELECT id FROM r ORDER BY id LIMIT 4 OFFSET 10", ordered=True
    )
    assert rows == [(i,) for i in range(10, 14)]


def test_distinct(db):
    _h, _sm, r_rows, _s = db
    rows = run_sql(db, "SELECT DISTINCT grp FROM r")
    assert sorted(rows) == sorted({(r[1],) for r in r_rows})


def test_explicit_join(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT r.id, s.w FROM r JOIN s ON r.id = s.rid WHERE s.w > 5",
    )
    expected = [
        (r[0], s[2]) for s in s_rows for r in r_rows
        if r[0] == s[1] and s[2] > 5
    ]
    assert sorted(rows) == sorted(expected)


def test_comma_join_uses_where_equality(db):
    _h, sm, r_rows, s_rows = db
    sql = "SELECT r.id FROM r, s WHERE r.id = s.rid AND s.w > 5"
    rows = run_sql(db, sql)
    expected = [
        (r[0],) for s in s_rows for r in r_rows
        if r[0] == s[1] and s[2] > 5
    ]
    assert sorted(rows) == sorted(expected)
    # The equality became a hash join, not a filtered cross product.
    from repro.relational.plans import HashJoin, walk_plan

    compiled = plan(sql, sm.catalog)
    assert any(isinstance(n, HashJoin) for n in walk_plan(compiled))


def test_left_join(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT r.id, s.sid FROM r LEFT JOIN s ON r.id = s.rid",
    )
    referenced = {s[1] for s in s_rows}
    unmatched = [row for row in rows if row[1] is None]
    assert len(unmatched) == sum(
        1 for r in r_rows if r[0] not in referenced
    )


def test_three_way_join(db):
    """r x s x r (self-join through s) with aliases."""
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT a.id, b.id FROM r a JOIN s ON a.id = s.rid "
        "JOIN r b ON s.rid = b.id",
    )
    expected = [(s[1], s[1]) for s in s_rows]
    assert sorted(rows) == sorted(expected)


def test_group_by_over_join(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT r.grp, SUM(s.w) AS total FROM r JOIN s ON r.id = s.rid "
        "GROUP BY r.grp ORDER BY total",
    )
    expected = {}
    for s in s_rows:
        grp = r_rows[s[1]][1]
        expected[grp] = expected.get(grp, 0.0) + s[2]
    assert {g: pytest.approx(v) for g, v in rows} == expected
    totals = [v for _g, v in rows]
    assert totals == sorted(totals)


def test_ambiguous_column_rejected(db):
    _h, sm, _r, _s = db
    # both big1-style fixtures: r and s share no names, so fabricate one
    with pytest.raises(SqlError):
        plan("SELECT id FROM r a, r b", sm.catalog)


def test_unknown_column_rejected(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("SELECT nope FROM r", sm.catalog)


def test_ungrouped_column_rejected(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("SELECT id, COUNT(*) FROM r GROUP BY grp", sm.catalog)


def test_mixed_sort_direction_rejected(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("SELECT id, val FROM r ORDER BY id ASC, val DESC", sm.catalog)


def test_sql_q6_matches_plan_builder(tpch_sql_db):
    """The TPC-H Q6 written as SQL agrees with the hand-built plan."""
    host, sm = tpch_sql_db
    from repro.workloads.tpch import queries as Q

    sql = """
    SELECT SUM(l_extendedprice * l_discount) AS revenue
    FROM lineitem
    WHERE l_shipdate >= DATE '1996-01-01'
      AND l_shipdate < DATE '1997-01-01'
      AND l_discount BETWEEN 0.059 AND 0.081
      AND l_quantity < 24
    """
    engine = PushEngine(sm)
    got = run(engine, sql)
    # Equivalent hand-built plan.
    from repro.relational.expressions import AggSpec, Col
    from repro.relational.plans import Aggregate, TableScan
    from repro.workloads.tpch.schema import date_int

    pred = (
        (Col("l_shipdate") >= date_int(1996, 1, 1))
        & (Col("l_shipdate") < date_int(1997, 1, 1))
        & (Col("l_discount") >= 0.059)
        & (Col("l_discount") <= 0.081)
        & (Col("l_quantity") < 24)
    )
    manual = engine.run_query(
        Aggregate(
            TableScan("lineitem", predicate=pred),
            [AggSpec("sum", Col("l_extendedprice") * Col("l_discount"), "r")],
        )
    )
    assert got[0][0] == pytest.approx(manual[0][0])


import pytest as _pytest


@_pytest.fixture(scope="module")
def tpch_sql_db():
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager
    from repro.workloads.tpch import TpchScale, load_tpch

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=256)
    load_tpch(sm, TpchScale(factor=0.03), seed=3)
    return host, sm


# ---------------------------------------------------------------------------
# EXISTS / NOT EXISTS subqueries (semi/anti joins)
# ---------------------------------------------------------------------------
def test_exists_subquery(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT id FROM r WHERE EXISTS "
        "(SELECT * FROM s WHERE s.rid = r.id AND s.w > 5)",
    )
    heavy = {s[1] for s in s_rows if s[2] > 5}
    assert sorted(rows) == sorted((r[0],) for r in r_rows if r[0] in heavy)


def test_not_exists_subquery(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT id FROM r WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.rid = r.id)",
    )
    referenced = {s[1] for s in s_rows}
    assert sorted(rows) == sorted(
        (r[0],) for r in r_rows if r[0] not in referenced
    )


def test_exists_composes_with_other_predicates(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT id FROM r WHERE grp = 2 AND EXISTS "
        "(SELECT * FROM s WHERE s.rid = r.id)",
    )
    referenced = {s[1] for s in s_rows}
    assert sorted(rows) == sorted(
        (r[0],) for r in r_rows if r[1] == 2 and r[0] in referenced
    )


def test_exists_compiles_to_semijoin(db):
    _h, sm, _r, _s = db
    from repro.relational.plans import AntiJoin, SemiJoin, walk_plan

    semi = plan(
        "SELECT id FROM r WHERE EXISTS (SELECT * FROM s WHERE s.rid = r.id)",
        sm.catalog,
    )
    assert any(isinstance(n, SemiJoin) for n in walk_plan(semi))
    anti = plan(
        "SELECT id FROM r WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.rid = r.id)",
        sm.catalog,
    )
    assert any(isinstance(n, AntiJoin) for n in walk_plan(anti))


def test_spec_exact_q4_in_sql(tpch_sql_db):
    """TPC-H Q4 written as its specification SQL (EXISTS form)."""
    host, sm = tpch_sql_db
    sql = """
    SELECT o_orderpriority, COUNT(*) AS order_count
    FROM orders
    WHERE o_orderdate >= DATE '1995-03-01'
      AND o_orderdate < DATE '1995-05-30'
      AND EXISTS (
        SELECT * FROM lineitem
        WHERE l_orderkey = o_orderkey
          AND l_commitdate < l_receiptdate
      )
    GROUP BY o_orderpriority
    ORDER BY o_orderpriority
    """
    got = run(PushEngine(sm), sql)
    # Naive reference over the raw rows.
    import datetime

    epoch = datetime.date(1970, 1, 1)
    lo = (datetime.date(1995, 3, 1) - epoch).days
    hi = (datetime.date(1995, 5, 30) - epoch).days
    li = sm.catalog.table("lineitem").heap.all_rows()
    orders = sm.catalog.table("orders").heap.all_rows()
    late = {l[0] for l in li if l[11] < l[12]}
    expected = {}
    for o in orders:
        if lo <= o[4] < hi and o[0] in late:
            expected[o[6]] = expected.get(o[6], 0) + 1
    assert dict(got) == expected
    assert [g for g, _n in got] == sorted(expected)


def test_exists_error_cases(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan(  # no correlation equality
            "SELECT id FROM r WHERE EXISTS (SELECT * FROM s WHERE w > 1)",
            sm.catalog,
        )
    with pytest.raises(SqlError):
        plan(  # multi-table subquery unsupported
            "SELECT id FROM r WHERE EXISTS "
            "(SELECT * FROM s, r WHERE s.rid = r.id)",
            sm.catalog,
        )


# ---------------------------------------------------------------------------
# DML statements
# ---------------------------------------------------------------------------
def test_insert_statement(db):
    _h, sm, r_rows, _s = db
    before = sm.num_rows("r")
    result = run_sql_dml(
        db, "INSERT INTO r VALUES (7001, 1, 2.5, 'zz'), (7002, 2, 3.5, 'yy')"
    )
    assert result == [(2,)]
    assert sm.num_rows("r") == before + 2


def test_insert_arity_checked_in_sql(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("INSERT INTO r VALUES (1, 2)", sm.catalog)


def test_update_statement(db):
    _h, sm, r_rows, _s = db
    result = run_sql_dml(db, "UPDATE r SET val = 0 WHERE grp = 5")
    expected = sum(1 for r in r_rows if r[1] == 5)
    assert result == [(expected,)]
    stored = sm.catalog.table("r").heap.all_rows()
    assert all(r[2] == 0 for r in stored if r[1] == 5)


def test_update_with_expression(db):
    _h, sm, r_rows, _s = db
    run_sql_dml(db, "UPDATE r SET val = val + 100 WHERE id = 0")
    stored = {r[0]: r for r in sm.catalog.table("r").heap.all_rows()}
    assert stored[0][2] == pytest.approx(r_rows[0][2] + 100)


def test_delete_statement(db):
    _h, sm, r_rows, _s = db
    before = sm.num_rows("r")
    victims = sum(1 for r in r_rows if r[1] == 6)
    result = run_sql_dml(db, "DELETE FROM r WHERE grp = 6")
    assert result == [(victims,)]
    assert sm.num_rows("r") == before - victims
    survivors = sm.catalog.table("r").heap.all_rows()
    assert all(r[1] != 6 for r in survivors)


def test_delete_unknown_column_rejected(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("DELETE FROM r WHERE nope = 1", sm.catalog)


def run_sql_dml(db, sql):
    """DML mutates shared state: run on one engine only."""
    _h, sm, _r, _s = db
    return run(PushEngine(sm), sql)


# ---------------------------------------------------------------------------
# Join planning corner cases
# ---------------------------------------------------------------------------
def test_cross_join_without_equality_uses_nljoin(db):
    _h, sm, r_rows, s_rows = db
    sql = "SELECT r.id, s.sid FROM r, s WHERE r.grp = 6 AND s.w > 9"
    rows = run_sql(db, sql)
    expected = [
        (r[0], s[0]) for r in r_rows for s in s_rows
        if r[1] == 6 and s[2] > 9
    ]
    assert sorted(rows) == sorted(expected)
    from repro.relational.plans import NLJoin, walk_plan

    compiled = plan(sql, sm.catalog)
    assert any(isinstance(n, NLJoin) for n in walk_plan(compiled))


def test_extra_on_conjuncts_become_filters(db):
    _h, sm, r_rows, s_rows = db
    sql = (
        "SELECT r.id FROM r JOIN s ON r.id = s.rid AND s.w > 5 "
        "WHERE r.grp < 3"
    )
    rows = run_sql(db, sql)
    expected = [
        (r[0],) for s in s_rows for r in r_rows
        if r[0] == s[1] and s[2] > 5 and r[1] < 3
    ]
    assert sorted(rows) == sorted(expected)


def test_multi_table_residual_predicate(db):
    """A non-equality cross-table conjunct lands in a Filter."""
    _h, sm, r_rows, s_rows = db
    sql = "SELECT r.id FROM r JOIN s ON r.id = s.rid WHERE r.val > s.w"
    rows = run_sql(db, sql)
    by_id = {r[0]: r for r in r_rows}
    expected = [
        (s[1],) for s in s_rows
        if s[1] in by_id and by_id[s[1]][2] > s[2]
    ]
    assert sorted(rows) == sorted(expected)


def test_qualified_star_not_supported_cleanly(db):
    _h, sm, _r, _s = db
    with pytest.raises(SqlError):
        plan("SELECT id, * FROM r", sm.catalog)


def test_order_by_qualified_column_in_join(db):
    _h, _sm, r_rows, s_rows = db
    rows = run_sql(
        db,
        "SELECT r.id, s.w FROM r JOIN s ON r.id = s.rid ORDER BY w",
        ordered=True,
    )
    weights = [row[1] for row in rows]
    assert weights == sorted(weights)
