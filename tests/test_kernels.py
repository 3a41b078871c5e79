"""Property tests for the shared batch-kernel library.

Every engine filters, projects and aggregates through
:mod:`repro.relational.kernels`, so these are the equivalence proofs the
engines lean on:

* scan / filter / project kernels over random expression trees (all
  eleven ``Expr`` node types) return what the tree-walking interpreter
  ``fusion.eval_expr`` returns row by row, whatever the batch split;
* the aggregate updaters and the group split leave every ``AggState``
  bit-identical to the per-row ``AggState.add`` loop, on values chosen
  to break a careless fold: NaN, infinities, -0.0, int/float ties and
  empty batches;
* all engines share one generated-code memo, so clearing it makes any
  engine's next query start cold;
* a packet-engine aggregate that crashes and resumes from batch-updated
  lineage checkpoints returns the fault-free rows byte for byte.
"""

import math
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pushexec import fusion
from repro.relational import kernels, operators
from repro.relational.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    If,
    InList,
    Like,
    Not,
    Or,
    bind_aggregates,
)
from repro.relational.plans import AntiJoin, LeftOuterJoin, SemiJoin
from repro.relational.schema import Column, Schema

SCHEMA = Schema(
    [
        Column("id", "int"),
        Column("grp", "int"),
        Column("val", "float"),
        Column("amt", "float"),
        Column("name", "str"),
    ]
)

NUM_COLS = ("id", "grp", "val", "amt")
BATCH_SIZES = (1, 7, 64, None)  # None = the whole input as one batch

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 1, 1.0, -1)
numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
)
names = st.sampled_from(("alpha", "beta", "gamma", "", "ab"))
rows_st = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 4), numbers, numbers, names),
    max_size=150,
)


# ---------------------------------------------------------------------------
# Random expression trees
# ---------------------------------------------------------------------------
def _num_expr():
    leaves = st.one_of(
        st.sampled_from(NUM_COLS).map(Col),
        numbers.map(Const),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Arith, st.sampled_from("+-*/"), inner, inner),
            st.builds(If, _bool_leaf(), inner, inner),
        ),
        max_leaves=6,
    )


def _bool_leaf():
    num_col = st.sampled_from(NUM_COLS).map(Col)
    return st.one_of(
        st.builds(Cmp, st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
                  num_col, numbers.map(Const)),
        st.builds(Between, num_col, numbers, numbers),
        st.builds(InList, num_col, st.lists(numbers, max_size=4)),
        st.builds(Like, st.just(Col("name")),
                  st.sampled_from(("%a%", "a%", "%a", "beta", "%"))),
    )


def _bool_expr():
    return st.recursive(
        st.one_of(
            _bool_leaf(),
            st.builds(Cmp, st.sampled_from(("<", ">=", "!=")),
                      _num_expr(), _num_expr()),
            st.builds(Cmp, st.just("=="), st.just(Col("name")),
                      st.builds(If, _bool_leaf(), names.map(Const),
                                names.map(Const))),
        ),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=4).map(lambda t: And(*t)),
            st.lists(inner, min_size=1, max_size=4).map(lambda t: Or(*t)),
            inner.map(Not),
        ),
        max_leaves=6,
    )


ANY_EXPR = st.one_of(_num_expr(), _bool_expr())


# ---------------------------------------------------------------------------
# Bit-exact comparison helpers
# ---------------------------------------------------------------------------
def canon(value):
    """A key equal only for bit-identical values (NaN == NaN, 0.0 !=
    -0.0, 1 != 1.0 != True)."""
    if isinstance(value, tuple):
        return tuple(canon(v) for v in value)
    if isinstance(value, list):
        return [canon(v) for v in value]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def outcome(fn, *args):
    """``canon(fn(*args))``, or the exception type it raised."""
    try:
        return canon(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared by type
        return ("raises", type(exc).__name__)


def batches_of(rows, size):
    if size is None:
        return [list(rows)]
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def run_batched(kernel, rows, size):
    out = []
    for batch in batches_of(rows, size):
        out.extend(kernel(batch))
    return out


def reference(row_fn, rows):
    return [row_fn(row) for row in rows]


# ---------------------------------------------------------------------------
# Scan / filter / project kernels
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(pred=_bool_expr(), rows=rows_st,
       project=st.one_of(st.none(), st.lists(st.sampled_from(SCHEMA.names),
                                             min_size=1, max_size=3)))
def test_scan_kernel_matches_interpreter(pred, rows, project):
    idxs = [SCHEMA.index_of(n) for n in project or ()]

    def ref(rows):
        kept = [r for r in rows if fusion.eval_expr(pred, r, SCHEMA)]
        return kept if project is None else [
            tuple(r[i] for i in idxs) for r in kept
        ]

    want = outcome(ref, rows)
    kernel = kernels.scan_kernel(pred, project, SCHEMA)
    for size in BATCH_SIZES:
        assert outcome(run_batched, kernel, rows, size) == want
    filt = kernels.filter_kernel(pred, SCHEMA)
    want_filter = outcome(
        lambda rs: [r for r in rs if fusion.eval_expr(pred, r, SCHEMA)], rows
    )
    for size in BATCH_SIZES:
        assert outcome(run_batched, filt, rows, size) == want_filter


@settings(max_examples=150, deadline=None)
@given(exprs=st.lists(ANY_EXPR, min_size=1, max_size=3), rows=rows_st)
def test_project_kernel_matches_interpreter(exprs, rows):
    want = outcome(reference, lambda r: tuple(
        fusion.eval_expr(e, r, SCHEMA) for e in exprs), rows)
    kernel = kernels.project_kernel(
        [f"e{i}" for i in range(len(exprs))], exprs, SCHEMA
    )
    for size in BATCH_SIZES:
        assert outcome(run_batched, kernel, rows, size) == want


@settings(max_examples=150, deadline=None)
@given(expr=ANY_EXPR, rows=rows_st)
def test_row_fn_and_bind_match_interpreter(expr, rows):
    want = [outcome(fusion.eval_expr, expr, r, SCHEMA) for r in rows]
    fn = kernels.row_fn(expr, SCHEMA)
    bound = expr.bind(SCHEMA)
    assert [outcome(fn, r) for r in rows] == want
    assert [outcome(bound, r) for r in rows] == want


class _Unrenderable(Expr):
    """An expression node the source renderer does not know."""

    def bind(self, schema):
        return lambda row: row[0] % 2 == 0


def test_unrenderable_expression_falls_back_to_bind():
    rows = [(i, 0, 1.5 * i, 0.0, "x") for i in range(10)]
    pred = And(_Unrenderable(), Col("id") > 2)
    kernel = kernels.scan_kernel(pred, ["grp", "id"], SCHEMA)
    assert kernel.__code__.co_filename != "<fused>"  # the bind fallback
    assert kernel(rows) == [(0, i) for i in (4, 6, 8)]
    assert kernels.filter_kernel(pred, SCHEMA)(rows) == [
        rows[i] for i in (4, 6, 8)
    ]
    assert kernels.row_fn(pred, SCHEMA)(rows[4]) is True


def test_scan_kernel_is_none_without_work():
    assert kernels.scan_kernel(None, None, SCHEMA) is None


# ---------------------------------------------------------------------------
# Aggregate updaters and the group split
# ---------------------------------------------------------------------------
agg_specs = st.lists(
    st.one_of(
        st.builds(AggSpec, st.sampled_from(("sum", "avg", "min", "max")),
                  st.sampled_from(NUM_COLS).map(Col)),
        st.builds(AggSpec, st.sampled_from(("sum", "min", "max")),
                  st.builds(Arith, st.sampled_from("+-*"),
                            st.sampled_from(("val", "amt")).map(Col),
                            numbers.map(Const))),
        st.builds(AggSpec, st.just("count"), st.none()),
        st.builds(AggSpec, st.just("count"), st.just(Col("val"))),
    ),
    min_size=1,
    max_size=4,
)


def snapshot(states):
    return canon([(s.count, s.total, s.best) for s in states])


def per_row(specs, rows, states=None):
    """The reference: ``AggState.add`` over bound expressions, row by row."""
    specs, fns = bind_aggregates(specs, SCHEMA)
    states = states or [spec.make_state() for spec in specs]
    for row in rows:
        for state, fn in zip(states, fns):
            state.add(fn(row))
    return states


@settings(max_examples=200, deadline=None)
@given(specs=agg_specs, rows=rows_st)
def test_batch_updaters_match_per_row_add(specs, rows):
    want = per_row(specs, rows)
    kernel = kernels.AggKernel(specs, SCHEMA)
    for size in BATCH_SIZES:
        states = kernel.new_states()
        for batch in batches_of(rows, size):
            kernel.update(states, batch)
            kernel.update(states, [])  # empty batches change nothing
        assert snapshot(states) == snapshot(want)
        assert canon(kernel.result(states)) == canon(
            tuple(s.result() for s in want)
        )


@settings(max_examples=200, deadline=None)
@given(specs=agg_specs, rows=rows_st,
       group_cols=st.sampled_from((["grp"], ["grp", "name"], ["name"])))
def test_group_split_matches_per_row_add(specs, rows, group_cols):
    idxs = [SCHEMA.index_of(c) for c in group_cols]
    want = {}
    for row in rows:
        key = tuple(row[i] for i in idxs)
        want.setdefault(key, []).append(row)
    kernel = kernels.AggKernel(specs, SCHEMA, group_cols)
    for size in BATCH_SIZES:
        groups = {}
        for batch in batches_of(rows, size):
            split = kernels.split_groups(kernel.keys(batch), batch)
            for key, members in split.items():
                # Encounter order within each key, as a subsequence.
                assert members == [
                    r for r in batch if tuple(r[i] for i in idxs) == key
                ]
            kernel.update_groups(groups, batch)
        assert list(groups) == list(want)  # groups created on first sight
        for key, members in want.items():
            assert snapshot(groups[key]) == snapshot(per_row(specs, members))
        assert canon(kernel.group_results(groups)) == canon([
            key + tuple(s.result() for s in per_row(specs, members))
            for key, members in sorted(want.items())
        ])


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 1, 1.0, -0.0],          # ties: the first extremum stays
    [math.nan, 3.0, 1.0],               # NaN first: the fold keeps it
    [3.0, math.nan, 1.0, math.nan],     # NaN later: skipped by the compare
    [math.inf, -math.inf, 2, -2.5],
    [5, 5.0, 5, -0.0, 0, 0.0],
])
def test_min_max_and_sum_edge_values(values):
    rows = [(0, 0, v, v, "x") for v in values]
    specs = [AggSpec(f, Col("val")) for f in ("min", "max", "sum", "avg")]
    kernel = kernels.AggKernel(specs, SCHEMA)
    for size in BATCH_SIZES:
        states = kernel.new_states()
        for batch in batches_of(rows, size):
            kernel.update(states, batch)
        assert snapshot(states) == snapshot(per_row(specs, rows))


def test_updaters_continue_from_restored_state():
    """Recovery restores ``(count, total, best)`` and folds the suffix on
    top; the result must equal one uninterrupted per-row pass."""
    rows = [(i, i % 3, 0.1 * i, -0.7 * i, "x") for i in range(40)]
    specs = [AggSpec("sum", Col("val")), AggSpec("min", Col("amt")),
             AggSpec("max", Col("val")), AggSpec("avg", Col("amt"))]
    head = per_row(specs, rows[:17])
    kernel = kernels.AggKernel(specs, SCHEMA)
    states = kernel.new_states()
    for state, snap in zip(states, head):
        state.count, state.total, state.best = snap.count, snap.total, snap.best
    kernel.update(states, rows[17:])
    assert snapshot(states) == snapshot(per_row(specs, rows))


@settings(max_examples=100, deadline=None)
@given(lrows=rows_st, rrows=rows_st, nparts=st.integers(1, 5),
       key=st.sampled_from(("grp", "val", "name")))
def test_hash_join_kernels_match_per_row_loops(lrows, rrows, nparts, key):
    """Build, probe and grace fan-out against the per-row loops over
    1-tuple ``schema.projector`` keys the engines used to run."""
    proj = SCHEMA.projector([key])
    keys = kernels.join_keys(key, SCHEMA)
    want_table = {}
    for row in lrows:
        want_table.setdefault(proj(row), []).append(row)
    want_out = [
        lrow + rrow for rrow in rrows for lrow in want_table.get(proj(rrow), ())
    ]
    for size in BATCH_SIZES:
        table = {}
        for batch in batches_of(lrows, size):
            kernels.split_groups(keys(batch), batch, table)
        assert [(k,) for k in table] == list(want_table)
        assert list(table.values()) == list(want_table.values())
        assert canon(run_batched(
            lambda b: kernels.probe(table, keys(b), b), rrows, size
        )) == canon(want_out)
    want_parts = [[] for _ in range(nparts)]
    for row in lrows:
        want_parts[hash(proj(row)) % nparts].append(row)
    assert kernels.partition(keys(lrows), lrows, nparts) == want_parts


# ---------------------------------------------------------------------------
# The operator library (repro.relational.operators)
# ---------------------------------------------------------------------------
def drive(gen):
    """Run a library coroutine outside the simulator: every event it
    yields is answered with None."""
    try:
        next(gen)
        while True:
            gen.send(None)
    except StopIteration as stop:
        return stop.value


class FakeRun:
    def __init__(self, index, pages):
        self.index = index
        self.pages = pages
        self.num_pages = len(pages)


class FakePage:
    def __init__(self, rows):
        self._rows = rows

    def rows(self):
        return list(self._rows)


class FakeStore:
    """Temp-page reads for the run merge; logs each read and, via
    ``emit``, each row produced, so read order is compared too."""

    def __init__(self):
        self.log = []

    def read_temp_page(self, run, block):
        self.log.append(("read", run.index, block))
        yield "disk"
        return FakePage(run.pages[block])

    def emit(self, row):
        self.log.append(("row", row))


def linear_merge(store, runs, key, reverse):
    """The reference k-way merge: a linear scan over the run heads, the
    lowest run index winning ties (the packet engine's former loop)."""
    cursors = [{"run": run, "block": 0, "rows": [], "idx": 0} for run in runs]
    for cursor in cursors:
        if cursor["run"].num_pages:
            page = yield from store.read_temp_page(cursor["run"], 0)
            cursor["rows"], cursor["block"] = page.rows(), 1
    while True:
        best = None
        for cursor in cursors:
            if cursor["idx"] >= len(cursor["rows"]):
                if cursor["block"] >= cursor["run"].num_pages:
                    continue
                page = yield from store.read_temp_page(
                    cursor["run"], cursor["block"]
                )
                cursor["rows"], cursor["idx"] = page.rows(), 0
                cursor["block"] += 1
            rank = key(cursor["rows"][cursor["idx"]])
            if best is None or (rank > best[0] if reverse else rank < best[0]):
                best = (rank, cursor)
        if best is None:
            return
        cursor = best[1]
        store.emit(cursor["rows"][cursor["idx"]])
        cursor["idx"] += 1


def drain_merge(store, merge):
    while True:
        row = yield from merge.next()
        if row is None:
            return
        store.emit(row)


runs_st = st.lists(st.lists(st.integers(0, 6), max_size=14), max_size=6)


@settings(max_examples=150, deadline=None)
@given(keys=runs_st, page_rows=st.integers(1, 4), reverse=st.booleans())
def test_run_merge_matches_stable_sort_and_linear_scan(keys, page_rows,
                                                       reverse):
    """Random sorted runs with duplicate keys: the merge returns what a
    stable ``sorted`` over the runs in order returns (ties to the lower
    run), reading pages in the linear-scan merge's order."""
    schema = Schema([Column("k", "int"), Column("run", "int"),
                     Column("pos", "int")])
    key = schema.projector(["k"])
    runs = []
    for index, run in enumerate(keys):
        rows = sorted(
            ((k, index, pos) for pos, k in enumerate(run)),
            key=key, reverse=reverse,
        )
        pages = [rows[i:i + page_rows] for i in range(0, len(rows), page_rows)]
        runs.append(FakeRun(index, pages))
    want = sorted(
        [row for run in runs for page in run.pages for row in page],
        key=key, reverse=reverse,
    )
    store, ref_store = FakeStore(), FakeStore()
    drive(drain_merge(store, operators.RunMerge(store, runs, key, reverse)))
    drive(linear_merge(ref_store, runs, key, reverse))
    assert [entry[1] for entry in store.log if entry[0] == "row"] == want
    assert store.log == ref_store.log


def feed(batches):
    """A ``get()`` coroutine over *batches*, then None forever."""
    queue = list(batches)

    def get():
        yield "batch"
        return queue.pop(0) if queue else None

    return get


def charger(log):
    def charge(tuples, factor=1.0):
        log.append((tuples, factor))
        yield "cpu"

    return charge


@settings(max_examples=100, deadline=None)
@given(lrows=rows_st, rrows=rows_st,
       key=st.sampled_from(("grp", "val", "name")),
       size=st.sampled_from(BATCH_SIZES))
def test_semi_anti_outer_kernels_match_per_row_loops(lrows, rrows, key, size):
    """Build and probe against the per-row loops over 1-tuple
    ``schema.projector`` keys the packet engine used to run; the build
    charges one tuple per row of each batch and skips segment markers."""
    proj = SCHEMA.projector([key])
    keys = kernels.join_keys(key, SCHEMA)
    want_keys, want_table = set(), {}
    for row in rrows:
        want_keys.add(proj(row))
        want_table.setdefault(proj(row), []).append(row)
    pad = (None,) * len(SCHEMA)
    want_outer = []
    for lrow in lrows:
        matches = want_table.get(proj(lrow))
        if matches:
            for rrow in matches:
                want_outer.append(lrow + rrow)
        else:
            want_outer.append(lrow + pad)
    batches = batches_of(rrows, size)
    marked = batches[:1] + [operators.SEGMENT_BOUNDARY] + batches[1:]
    for plan, want in (
        (SemiJoin(None, None, key, key), [
            r for r in lrows if proj(r) in want_keys]),
        (AntiJoin(None, None, key, key), [
            r for r in lrows if proj(r) not in want_keys]),
        (LeftOuterJoin(None, None, key, key), want_outer),
    ):
        build, probe = operators.build_probe_kernels(plan, len(SCHEMA))
        charges = []
        side = drive(build(feed(marked), keys, charger(charges)))
        assert charges == [(len(b), 1.0) for b in batches]
        got = run_batched(lambda b: probe(side, keys(b), b), lrows, size)
        assert canon(got) == canon(want)


@settings(max_examples=100, deadline=None)
@given(rows=rows_st, size=st.sampled_from(BATCH_SIZES))
def test_distinct_matches_per_row_loop(rows, size):
    seen, want = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            want.append(row)
    seen = set()
    got = run_batched(lambda b: operators.distinct(seen, b), rows, size)
    assert canon(got) == canon(want)


sorted_side = st.lists(st.tuples(st.integers(0, 8), st.integers()),
                       max_size=30).map(sorted)


@settings(max_examples=150, deadline=None)
@given(lrows=sorted_side, rrows=sorted_side,
       lsize=st.sampled_from(BATCH_SIZES), rsize=st.sampled_from(BATCH_SIZES))
def test_merge_join_groups_match_nested_loop(lrows, rrows, lsize, rsize):
    """Over key-sorted inputs in any batch split (either side may be
    empty), the matched groups' cross products, in order, are the
    nested-loop join: left-major, ascending key."""
    key = itemgetter(0)
    want = [l + r for l in lrows for r in rrows if l[0] == r[0]]
    left = operators.MergeCursor(feed(batches_of(lrows, lsize)))
    right = operators.MergeCursor(feed(batches_of(rrows, rsize)))
    got = []
    while True:
        groups = drive(operators.next_groups(left, right, key, key))
        if groups is None:
            break
        lgroup, rgroup = groups
        assert {key(r) for r in lgroup + rgroup} == {key(lgroup[0])}
        got.extend(operators.cross(lgroup, rgroup))
    assert got == want


def merge_join_groups(lrows, rrows, key, size):
    """Every ``(left group, right group)`` pair :func:`next_groups`
    yields; fails if a call returns without consuming a row."""
    left = operators.MergeCursor(feed(batches_of(lrows, size)))
    right = operators.MergeCursor(feed(batches_of(rrows, size)))
    out = []
    for _ in range(len(lrows) + len(rrows) + 1):
        groups = drive(operators.next_groups(left, right, key, key))
        if groups is None:
            return out
        assert groups[0] and groups[1]
        out.append(groups)
    raise AssertionError("next_groups made no progress")


@pytest.mark.parametrize("size", [1, 2, 64])
def test_merge_join_nan_keys_group_like_tuple_keys(size):
    """Scalar keys group NaN rows exactly as the 1-tuple keys they
    replaced (identity, then equality), and a NaN head never stalls the
    join."""
    nan, other_nan = float("nan"), float("nan")
    lrows = [(nan, 1), (nan, 2), (other_nan, 3), (4.0, 4)]
    rrows = [(nan, 5), (nan, 6), (4.0, 7)]
    scalar = merge_join_groups(lrows, rrows, itemgetter(0), size)
    tupled = merge_join_groups(lrows, rrows, lambda row: (row[0],), size)
    assert scalar == tupled
    assert scalar[0] == ([(nan, 1), (nan, 2)], [(nan, 5), (nan, 6)])


@settings(max_examples=100, deadline=None)
@given(lrows=sorted_side, rest=sorted_side, rrows=sorted_side)
def test_merge_join_pass_stops_at_a_segment_boundary(lrows, rest, rrows):
    """A SEGMENT_BOUNDARY ends the pass over the left input's first
    segment (section 4.3.2); the rows after it stay unread."""
    key = itemgetter(0)
    want = [l + r for l in lrows for r in rrows if l[0] == r[0]]
    left = operators.MergeCursor(
        feed([lrows, operators.SEGMENT_BOUNDARY, rest])
    )
    right = operators.MergeCursor(feed([rrows]))
    got = []
    while True:
        groups = drive(operators.next_groups(left, right, key, key))
        if groups is None:
            break
        got.extend(operators.cross(*groups))
    assert got == want
    assert not left.eos
    if rrows and (not lrows or key(lrows[-1]) <= key(rrows[-1])):
        assert left.segment_ended


# ---------------------------------------------------------------------------
# One generated-code memo for every engine
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("system", ["qpipe", "dbmsx"])
def test_all_engines_repopulate_the_one_code_memo(system):
    from repro.harness.config import SMOKE, build_tpch_system
    from repro.workloads.tpch.queries import q6

    memo = fusion._code_cache
    assert memo is kernels._code_cache
    memo.clear()
    _host, _sm, engine = build_tpch_system(SMOKE, system)
    rows = engine.run_query(q6())
    assert len(rows) == 1
    assert fusion._code_cache is memo
    assert memo, f"{type(engine).__name__} compiled no kernel"


# ---------------------------------------------------------------------------
# Crash recovery over batch-updated checkpoints (packet engine)
# ---------------------------------------------------------------------------
def test_packet_agg_recovers_byte_identical_from_batch_checkpoints():
    from repro.engine.engines.aggregates import AggEngine
    from repro.faults import FaultInjector, FaultPlan
    from repro.harness.config import SMOKE, build_tpch_system
    from repro.lineage import RecoveryManager
    from repro.relational.plans import Aggregate, TableScan

    def plan():
        return Aggregate(
            TableScan("lineitem", predicate=Col("l_discount") > 0.02),
            [
                AggSpec("avg", Col("l_extendedprice"), "avg_price"),
                AggSpec("min", Col("l_extendedprice") * Col("l_discount"),
                        "min_rev"),
                AggSpec("max", Col("l_discount"), "max_disc"),
                AggSpec("sum", Col("l_quantity") * 1.1, "qty"),
            ],
        )

    host, _sm, engine = build_tpch_system(SMOKE, "qpipe")
    assert isinstance(engine.engines["agg"], AggEngine)
    want = engine.run_query(plan())
    crash_at = 0.6 * host.sim.now

    host, _sm, engine = build_tpch_system(SMOKE, "qpipe")
    fault_plan = FaultPlan()
    fault_plan.crash_query(at=crash_at, target=0)
    injector = FaultInjector(fault_plan).attach(engine)
    manager = RecoveryManager(engine, injector=injector)
    got = {}

    def client():
        got["report"] = yield from manager.run(plan())

    proc = host.sim.spawn(client(), name="client")
    injector.register_client(proc)
    host.sim.run_until_done([proc])
    report = got["report"]
    assert [f["type"] for f in injector.fired] == ["query_crash"]
    assert report.recoveries >= 1 and report.pages_saved > 0
    assert canon(report.rows) == canon(want)
