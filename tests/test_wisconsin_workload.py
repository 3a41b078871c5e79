"""Wisconsin benchmark validation and the Figure 10 query plan."""

import pytest

from repro.pushexec import PushEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import Col
from repro.storage.manager import StorageManager
from repro.workloads.wisconsin import (
    WISCONSIN_SCHEMA,
    WisconsinScale,
    generate_wisconsin,
    load_wisconsin,
    three_way_join,
)


@pytest.fixture(scope="module")
def wisconsin():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=128)
    tables = load_wisconsin(sm, WisconsinScale(big_rows=600), seed=5)
    return host, sm, tables


def test_schema_is_200_bytes():
    assert WISCONSIN_SCHEMA.row_width == 200


def test_column_semantics():
    tables = generate_wisconsin(WisconsinScale(big_rows=200), seed=5)
    for name in ("big1", "big2", "small"):
        rows = tables[name]
        u1 = sorted(r[0] for r in rows)
        assert u1 == list(range(len(rows)))  # unique1 is a permutation
        assert [r[1] for r in rows] == list(range(len(rows)))  # unique2 seq
        for r in rows[:50]:
            assert r[6] == r[0] % 100  # onepercent
            assert r[2] == r[0] % 2


def test_small_is_tenth_of_big():
    scale = WisconsinScale(big_rows=500)
    assert scale.small_rows == 50


def test_three_way_join_matches_naive(wisconsin):
    host, sm, tables = wisconsin
    plan = three_way_join(big_range=150)
    reference = PushEngine(sm).run_query(plan)
    qpipe_rows = QPipeEngine(sm, QPipeConfig()).run_query(plan)
    assert qpipe_rows == reference

    big1 = {r[0] for r in tables["big1"] if r[0] < 150}
    big2 = {r[0] for r in tables["big2"] if r[0] < 150}
    small = {r[0]: r[1] for r in tables["small"]}
    matched = [u for u in big1 & big2 if u in small]
    assert reference[0][0] == len(matched)
    assert reference[0][1] == sum(small[u] for u in matched)


def test_three_way_join_with_small_filter(wisconsin):
    host, sm, tables = wisconsin
    plan = three_way_join(
        big_range=150, small_predicate=Col("onepercent") == 3
    )
    rows = PushEngine(sm).run_query(plan)
    big1 = {r[0] for r in tables["big1"] if r[0] < 150}
    big2 = {r[0] for r in tables["big2"] if r[0] < 150}
    small = {r[0]: r[1] for r in tables["small"] if r[6] == 3}
    matched = [u for u in big1 & big2 if u in small]
    assert rows[0][0] == len(matched)


def test_shared_subtree_signatures_match(wisconsin):
    """The BIG1/BIG2 sort subtrees of two Figure 10 queries are
    signature-identical while the SMALL sides differ."""
    host, sm, _tables = wisconsin
    plan_a = three_way_join(150, small_predicate=Col("onepercent") == 1)
    plan_b = three_way_join(150, small_predicate=Col("onepercent") == 2)
    catalog = sm.catalog
    # children[0] of the final merge-join is the big1xbig2 join subtree.
    big_join_a = plan_a.children[0].children[0]
    big_join_b = plan_b.children[0].children[0]
    assert big_join_a.signature(catalog) == big_join_b.signature(catalog)
    small_a = plan_a.children[0].children[1]
    small_b = plan_b.children[0].children[1]
    assert small_a.signature(catalog) != small_b.signature(catalog)
