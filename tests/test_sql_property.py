"""Property tests for the SQL front end.

Random (template-driven) SQL statements must (a) compile, (b) produce
identical results on both engines, and (c) agree with a naive Python
evaluation of the same semantics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pushexec import PushEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.sql import plan, run
from repro.storage.manager import StorageManager

import tests.conftest as cf


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=96)
    r_rows = cf.make_r_rows(n=120)
    s_rows = cf.make_s_rows(n=50, r_n=120)
    sm.create_table("r", cf.R_SCHEMA)
    sm.load_table("r", r_rows)
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", s_rows)
    return host, sm, r_rows, s_rows


COMPARATORS = ("<", "<=", ">", ">=", "=", "<>")


def predicate_sql(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        op = rng.choice(COMPARATORS)
        return f"grp {op} {rng.randrange(7)}"
    if kind == 1:
        lo = rng.randrange(0, 80)
        return f"val BETWEEN {lo} AND {lo + rng.randrange(5, 40)}"
    if kind == 2:
        values = ", ".join(str(rng.randrange(7)) for _ in range(3))
        return f"grp IN ({values})"
    return f"tag LIKE 't{rng.randrange(4)}%'"


def predicate_python(sql_pred: str):
    """Mirror predicate_sql semantics over raw r rows."""
    import re

    if sql_pred.startswith("grp IN"):
        values = {int(v) for v in re.findall(r"\d+", sql_pred)}
        return lambda r: r[1] in values
    if sql_pred.startswith("val BETWEEN"):
        lo, hi = (int(v) for v in re.findall(r"\d+", sql_pred))
        return lambda r: lo <= r[2] <= hi
    if sql_pred.startswith("tag LIKE"):
        prefix = sql_pred.split("'")[1].rstrip("%")
        return lambda r: r[3].startswith(prefix)
    match = re.match(r"grp (\S+) (\d+)", sql_pred)
    op, value = match.group(1), int(match.group(2))
    import operator as _op

    fn = {
        "<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
        "=": _op.eq, "<>": _op.ne,
    }[op]
    return lambda r: fn(r[1], value)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_filtered_projections_agree_with_python(seed):
    rng = random.Random(seed)
    pred = predicate_sql(rng)
    sql = f"SELECT id, val FROM r WHERE {pred}"
    host, sm, r_rows, _s = build_db()
    got = run(PushEngine(sm), sql)
    qp = run(QPipeEngine(sm, QPipeConfig()), sql)
    check = predicate_python(pred)
    expected = sorted((r[0], r[2]) for r in r_rows if check(r))
    assert sorted(got) == expected
    assert sorted(qp) == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_grouped_aggregates_agree_with_python(seed):
    rng = random.Random(seed)
    pred = predicate_sql(rng)
    sql = (
        f"SELECT grp, COUNT(*) AS n, SUM(val) AS sv FROM r "
        f"WHERE {pred} GROUP BY grp"
    )
    host, sm, r_rows, _s = build_db()
    got = run(PushEngine(sm), sql)
    check = predicate_python(pred)
    expected = {}
    for r in r_rows:
        if check(r):
            agg = expected.setdefault(r[1], [0, 0.0])
            agg[0] += 1
            agg[1] += r[2]
    assert {g: n for g, n, _sv in got} == {
        g: v[0] for g, v in expected.items()
    }
    for g, _n, sv in got:
        assert sv == pytest.approx(expected[g][1])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    limit=st.integers(1, 30),
    descending=st.booleans(),
)
def test_order_limit_agree_with_python(seed, limit, descending):
    rng = random.Random(seed)
    pred = predicate_sql(rng)
    direction = "DESC" if descending else "ASC"
    sql = (
        f"SELECT id FROM r WHERE {pred} ORDER BY id {direction} "
        f"LIMIT {limit}"
    )
    host, sm, r_rows, _s = build_db()
    got = run(PushEngine(sm), sql)
    check = predicate_python(pred)
    ids = sorted((r[0] for r in r_rows if check(r)), reverse=descending)
    assert got == [(i,) for i in ids[:limit]]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_joins_agree_with_python(seed):
    rng = random.Random(seed)
    pred = predicate_sql(rng)
    sql = (
        f"SELECT r.id, s.w FROM r JOIN s ON r.id = s.rid WHERE {pred}"
    )
    host, sm, r_rows, s_rows = build_db()
    got = run(PushEngine(sm), sql)
    check = predicate_python(pred)
    by_id = {r[0]: r for r in r_rows}
    expected = sorted(
        (s[1], s[2]) for s in s_rows
        if s[1] in by_id and check(by_id[s[1]])
    )
    assert sorted(got) == expected
