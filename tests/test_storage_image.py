"""Loaded storage images: a TPC-H load restored from the memo is the
same store, block for block, as one built from scratch, and every
restore is private."""

import pytest

from repro.harness.config import SMOKE
from repro.harness.experiments import fig8_cell, fig8_cells
from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.manager import StorageManager
from repro.storage.page import Page
from repro.workloads.tpch import TpchScale, dbgen, load_tpch
from repro.workloads.tpch import schema as S

SCALE = TpchScale(factor=0.02)
SEED = 3


@pytest.fixture(autouse=True)
def cold_memo():
    dbgen._GENERATED_CACHE.clear()
    yield
    dbgen._GENERATED_CACHE.clear()


def new_sm(index_order=64):
    host = Host(HostConfig())
    return host, StorageManager(host, buffer_pages=64, index_order=index_order)


def drive(host, gen):
    proc = host.sim.spawn(gen)
    host.sim.run()
    assert proc.triggered
    return proc.value


def payload(block):
    if isinstance(block, Page):
        return ("page", block.capacity, list(block._slots))
    return block


def state(sm):
    """Everything a restore must reproduce, as plain comparable data."""
    store = sm.store
    files = [
        (file_id, store.file_name(file_id),
         [payload(b) for b in store._files[file_id]])
        for file_id in store.files()
    ]
    tables = [
        (info.name, info.heap.file_id, info.num_rows, info.clustered_on,
         [(i.name, i.key_columns, i.clustered, i.tree.file_id,
           i.tree.root_block, i.tree.height, i.tree.num_keys,
           i.tree.num_entries)
          for i in info.indexes.values()])
        for info in sm.catalog.infos()
    ]
    return files, store._next_id, tables, dict(store._corrupt)


def image_of(sm, with_indexes=True):
    entry = dbgen._GENERATED_CACHE[(SCALE.factor, SEED)]
    return entry.images[(with_indexes, sm.index_order)]


@pytest.mark.parametrize("index_order", [64, 4])
@pytest.mark.parametrize("with_indexes", [True, False])
def test_restore_equals_a_fresh_load(index_order, with_indexes):
    _, cold = new_sm(index_order)
    cold_rows = load_tpch(cold, SCALE, SEED, with_indexes=with_indexes)
    _, warm = new_sm(index_order)
    warm_rows = load_tpch(warm, SCALE, SEED, with_indexes=with_indexes)
    assert warm_rows == cold_rows
    assert state(warm) == state(cold)
    assert [i.name for i in warm.catalog.infos()] == list(S.TPCH_SCHEMAS)
    for info in warm.catalog.infos():
        assert info.heap.store is warm.store
        assert info.heap.all_rows() == cold.catalog.table(info.name).heap.all_rows()
        for index in info.indexes.values():
            assert index.tree.store is warm.store
            index.tree.check_invariants()


def test_image_key_separates_index_layouts():
    _, a = new_sm(64)
    load_tpch(a, SCALE, SEED)
    _, b = new_sm(4)
    load_tpch(b, SCALE, SEED)
    entry = dbgen._GENERATED_CACHE[(SCALE.factor, SEED)]
    assert set(entry.images) == {(True, 64), (True, 4)}
    assert state(a) != state(b)


def test_writes_to_one_restore_reach_neither_another_nor_the_image():
    _, cold = new_sm(index_order=4)
    load_tpch(cold, SCALE, SEED)
    image = image_of(cold)
    _, probe = new_sm(index_order=4)
    probe.restore(image)
    before = state(probe)

    host_a, a = new_sm(index_order=4)
    load_tpch(a, SCALE, SEED)
    _, b = new_sm(index_order=4)
    load_tpch(b, SCALE, SEED)
    tree = a.catalog.index("customer", "c_custkey_idx").tree
    blocks_before = a.store.num_blocks(tree.file_id)

    def writes():
        # Enough new keys past the end to split leaves (order 4).
        for key in range(10_000, 10_012):
            yield from a.insert_row(
                "customer", (key, f"Customer#{key:09d}", 1, 0.0, "BUILDING"))
        rids = [rid for _key, rid in tree.range_scan(lo=1, hi=3)]
        old = a.catalog.table("customer").heap.fetch(rids[0])
        yield from a.update_row("customer", rids[0], (99_999,) + old[1:])
        yield from a.delete_row("customer", rids[1])

    drive(host_a, writes())
    a.store.corrupt_block(a.table_file_id("lineitem"), 0, permanent=True)
    assert a.store.num_blocks(tree.file_id) > blocks_before
    assert tree.search(99_999) and tree.search(10_011)
    assert state(a) != before

    assert state(b) == before
    _, c = new_sm(index_order=4)
    c.restore(image)
    assert state(c) == before
    b_tree = b.catalog.index("customer", "c_custkey_idx").tree
    assert b_tree.search(10_011) == [] and b_tree.search(99_999) == []
    b_tree.check_invariants()


def test_restore_needs_a_fresh_manager():
    _, sm = new_sm()
    load_tpch(sm, SCALE, SEED)
    with pytest.raises(ValueError):
        sm.restore(image_of(sm))


def test_load_into_a_used_manager_neither_restores_nor_memoizes():
    _, first = new_sm()
    load_tpch(first, SCALE, SEED)
    _, used = new_sm()
    used.create_table("extra", Schema.of("x:int"))
    load_tpch(used, SCALE, SEED)
    assert set(dbgen._GENERATED_CACHE[(SCALE.factor, SEED)].images) == {
        (True, 64)
    }
    # Same contents, every file one id later.
    lineitem = used.catalog.table("lineitem")
    assert lineitem.heap.file_id == first.table_file_id("lineitem") + 1
    assert lineitem.heap.all_rows() == (
        first.catalog.table("lineitem").heap.all_rows())


def test_clearing_the_memo_rebuilds_the_indexes(monkeypatch):
    calls = []
    create_index = StorageManager.create_index

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return create_index(self, *args, **kwargs)

    monkeypatch.setattr(StorageManager, "create_index", counted)
    load_tpch(new_sm()[1], SCALE, SEED)
    assert len(calls) == 4
    load_tpch(new_sm()[1], SCALE, SEED)
    assert len(calls) == 4
    dbgen._GENERATED_CACHE.clear()
    load_tpch(new_sm()[1], SCALE, SEED)
    assert len(calls) == 8


@pytest.mark.parametrize(
    "spec",
    [s for s in fig8_cells(SMOKE, client_counts=(4,), interarrivals=(0, 20))
     if s.coord["gap"] == 20 or s.coord["system"] == "baseline"],
    ids=lambda s: f"{s.coord['system']}/{s.coord['gap']}",
)
def test_fig8_cell_payload_is_the_same_cold_and_warm(spec):
    cold = fig8_cell(spec)
    assert dbgen._GENERATED_CACHE
    warm = fig8_cell(spec)
    dbgen._GENERATED_CACHE.clear()
    assert fig8_cell(spec) == warm == cold
