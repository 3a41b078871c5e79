"""Plan trees compiled to push-based pipelines.

A plan is decomposed at its *pipeline breakers* (sort, aggregate, group
by, hash/merge/NL join build) into pipelines: one batch *source* plus a
chain of fused streaming stages (:mod:`repro.pushexec.fusion`).  Each
pipeline compiles to a single generator that pushes row batches upward
as ``(_BATCH, rows)`` markers interleaved with simulation events; a
breaker consumes its child pipeline through :func:`pull_batch`, which
forwards events both ways.  A Volcano iterator tree suspends one
coroutine frame per operator per batch; a compiled pipeline crosses one
frame per *breaker* -- the per-operator interface cost (the Channel hop
in QPipe, the ``yield from`` hop here) is fused away, per Shaikhha et
al.'s push-based loop fusion.

The query-centric operator schedule is defined here: the DBMS X
persona and the push backend both run these pipelines, and the shard
merges charge through the same :class:`ExecContext`.  Each source and breaker
below fixes the charge points, the batch boundaries, the spill
thresholds and the temp-file lifetimes of one operator.  The planner's
fuse / materialize choices (:func:`repro.sql.planner.plan_pipelines`)
only ever select *how the host computes* a batch, never what the
simulation sees; runtime guards (actual row counts) make spill
decisions, so a mis-estimate costs host-side specialisation, never
correctness.  The schedule is pinned by ``tests/iterator_reference.json``
(rows, virtual clock and disk counters recorded from the retired
Volcano operators) and by the committed figure-cell hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.hw.host import Host
from repro.pushexec import fusion
from repro.relational.kernels import (
    AggKernel,
    filter_kernel,
    join_key,
    join_keys,
    partition,
    probe,
    scan_kernel,
    split_groups,
)
from repro.relational.operators import (
    ExternalSort,
    MergeCursor,
    build_probe_kernels,
    cross,
    next_groups,
    nl_probe,
    write_rows,
)
from repro.relational.plans import (
    Aggregate,
    AntiJoin,
    DeleteRows,
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    InsertRows,
    LeftOuterJoin,
    Limit,
    MergeJoin,
    NLJoin,
    PlanNode,
    Project,
    SemiJoin,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.storage.locks import LockMode
from repro.storage.manager import StorageManager
from repro.storage.streams import next_stream

__all__ = ["ExecContext", "Pipeline", "compile_plan", "pull_batch"]

#: Marker tag: pipelines yield ``(_BATCH, rows)`` between simulation
#: events.  A unique sentinel object, so no sim event can collide.
_BATCH = object()


@dataclass
class ExecContext:
    """Per-query execution context: storage, host, and memory budget."""

    sm: StorageManager
    host: Host
    #: Work-memory budget in tuples (sort heaps, hash tables); models the
    #: paper's "each client is given 128MB of memory".
    work_mem_tuples: int = 50_000
    #: Query identity, used as the lock owner for updates.
    owner: Any = None
    #: Optional :class:`~repro.lineage.tracker.LineageTracker`; scan
    #: sources report delivered pages through it (None: no recording).
    lineage: Any = None
    #: Live temp files (spill runs, hash partitions) this query created
    #: and has not yet dropped; the engine's fault teardown sweeps them.
    temp_files: List[Any] = field(default_factory=list)

    def cpu(self, tuples: int, factor: float = 1.0) -> Generator:
        """Coroutine: charge CPU for processing *tuples* tuples."""
        cost = tuples * self.host.config.cpu_per_tuple * factor
        yield from self.host.cpu.burst(cost)

    def track_temp(self, temp) -> Any:
        """Register a freshly created temp file for fault-path cleanup."""
        self.temp_files.append(temp)
        return temp

    def create_temp(self, row_width: int, label: str) -> Any:
        """A new temp file, registered for fault-path cleanup at birth."""
        return self.track_temp(
            self.sm.create_temp_file(row_width, label=label)
        )

    def drop_temp(self, temp) -> None:
        """Drop a temp file and unregister it (normal-path cleanup)."""
        if temp in self.temp_files:
            self.temp_files.remove(temp)
        self.sm.drop_temp_file(temp)

    def spill_partitions(self, rows, keys, nparts, label) -> Generator:
        """Coroutine: grace-join fan-out of *rows* into ``nparts``
        tracked temp files; returns the files."""
        buckets = partition(keys(rows), rows, nparts)
        yield from self.cpu(len(rows))
        parts = []
        for bucket in buckets:
            # Born tracked, so a fault mid-write leaves no orphan file.
            part = self.create_temp(64, label)
            yield from self.sm.write_run(part, bucket)
            parts.append(part)
        return parts

    def read_temp(self, temp) -> Generator:
        """Coroutine: every row of a temp file, in page order."""
        rows: List[tuple] = []
        for block in range(temp.num_pages):
            page = yield from self.sm.read_temp_page(temp, block)
            rows.extend(page.rows())
        return rows


def pull_batch(gen) -> Generator:
    """Coroutine: resume *gen* to its next batch marker.

    Forwards every simulation event (and the kernel's replies) between
    *gen* and the caller's scheduler; returns the marker's rows, or
    ``None`` once *gen* is exhausted.
    """
    try:
        item = next(gen)
    except StopIteration:
        return None
    while True:
        if type(item) is tuple and item and item[0] is _BATCH:
            return item[1]
        value = yield item
        try:
            item = gen.send(value)
        except StopIteration:
            return None


class Pipeline:
    """One compiled pipeline: a source plus fused streaming stages.

    ``generator()`` instantiates the pipeline as a single coroutine.
    Stages hold per-query state (limit counters, distinct sets), so a
    pipeline is instantiated exactly once per execution.
    """

    __slots__ = ("ctx", "source_factory", "stages", "preludes", "schema")

    def __init__(self, ctx, source_factory, stages, preludes, schema):
        self.ctx = ctx
        self.source_factory = source_factory
        self.stages = list(stages)
        self.preludes = list(preludes)
        self.schema = schema

    def generator(self):
        if not self.stages and not self.preludes:
            return self.source_factory()
        return _drive(self.ctx, self.preludes, self.source_factory, self.stages)


def _drive(ctx, preludes, source_factory, stages):
    """The fused driver loop: one frame for the whole stage chain.

    Per source batch this charges each stage's CPU, then applies its
    transformation, skipping the rest of the chain when a batch empties
    (an operator re-pulling its child), and stopping the source once a
    LIMIT is satisfied.
    """
    for prelude in preludes:
        yield from prelude()
    limits = [s for s in stages if isinstance(s, fusion.LimitStage)]
    src = source_factory()
    while True:
        batch = yield from pull_batch(src)
        if batch is None:
            return
        survived = True
        for stage in stages:
            tuples = stage.cost(batch)
            if tuples:
                yield from ctx.cpu(tuples)
            batch = stage.apply(batch)
            if not batch:
                survived = False
                break
        if survived:
            yield (_BATCH, batch)
        if limits and any(stage.finished for stage in limits):
            return


# ---------------------------------------------------------------------------
# Sources: leaves (table and index scans)
# ---------------------------------------------------------------------------
def _scan_source(ctx: ExecContext, plan: TableScan) -> Callable:
    base = ctx.sm.catalog.table_schema(plan.table)
    # The hot path: predicate + projection fused into one generated
    # whole-batch comprehension (no per-row closure calls at all).
    fused = scan_kernel(plan.predicate, plan.project, base)
    num_pages = ctx.sm.num_pages(plan.table)
    # Recovery resume: visit exactly the unconsumed page suffix in
    # wrapped order; a fresh scan visits every page from 0.
    if plan.resume is None:
        start_page, page_count = 0, num_pages
    else:
        start_page, page_count = plan.resume

    def run():
        # One circular-scan stream identity per execution (see
        # repro.storage.streams on why not id()).
        stream = next_stream()
        for i in range(page_count):
            page_no = (start_page + i) % num_pages
            page = yield from ctx.sm.read_table_page(
                plan.table, page_no, scan=True, stream=stream
            )
            rows = page.rows()
            yield from ctx.cpu(len(rows))
            if fused is not None:
                rows = fused(rows)
            if ctx.lineage is not None:
                ctx.lineage.scan_page(
                    stream, plan.table, page_no, len(rows), num_pages
                )
            if rows:
                yield (_BATCH, rows)

    return run


def _index_source(ctx: ExecContext, plan: IndexScan) -> Callable:
    base = ctx.sm.catalog.table_schema(plan.table)
    info = ctx.sm.catalog.index(plan.table, plan.index)
    key_fn = ctx.sm._key_fn(base, info.key_columns)
    # Fused post-processing runs after the key-range filter.
    fused = scan_kernel(plan.predicate, plan.project, base)

    if info.clustered:

        def run():
            stream = next_stream()
            sm = ctx.sm
            page_no = yield from sm.clustered_start_page(
                plan.table, plan.index, plan.lo
            )
            num_pages = sm.num_pages(plan.table)
            while page_no < num_pages:
                page = yield from sm.read_table_page(
                    plan.table, page_no, scan=True, stream=stream
                )
                page_no += 1
                rows = page.rows()
                yield from ctx.cpu(len(rows))
                if (
                    plan.hi is not None
                    and rows
                    and key_fn(rows[0]) > plan.hi
                ):
                    return
                if plan.lo is not None or plan.hi is not None:
                    rows = [
                        row
                        for row in rows
                        if (plan.lo is None or key_fn(row) >= plan.lo)
                        and (plan.hi is None or key_fn(row) <= plan.hi)
                    ]
                if fused is not None:
                    rows = fused(rows)
                if rows:
                    yield (_BATCH, rows)
                    # Re-read the page count at each batch boundary, so
                    # pages appended by a concurrent insert are visited.
                    num_pages = sm.num_pages(plan.table)

        return run

    def run():
        stream = next_stream()
        pairs = yield from ctx.sm.index_range(
            plan.table, plan.index, plan.lo, plan.hi
        )
        rids = [rid for _key, rid in pairs]
        if not plan.ordered:
            rids.sort()  # ascending page number: one visit per page
        cursor = 0
        out: List[tuple] = []
        while cursor < len(rids):
            block = rids[cursor].block_no
            page = yield from ctx.sm.read_table_page(
                plan.table, block, scan=True, stream=stream
            )
            group: List[tuple] = []
            while cursor < len(rids) and rids[cursor].block_no == block:
                row = page.get(rids[cursor].slot)
                if row is not None:
                    group.append(row)
                cursor += 1
            yield from ctx.cpu(len(group))
            if fused is not None:
                group = fused(group)
            out.extend(group)
            if out:
                yield (_BATCH, out)
                out = []

    return run


# ---------------------------------------------------------------------------
# Breakers (sort, joins, aggregation)
# ---------------------------------------------------------------------------
def _sort_source(ctx, plan: Sort, child_factory, schema) -> Callable:
    def run():
        sorter = ExternalSort(
            ctx.sm, plan, schema, ctx.work_mem_tuples, ctx.cpu,
            ctx.host.config.sort_cpu_factor, ctx.create_temp,
        )
        child = child_factory()
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            yield from sorter.add(batch)
        rows = yield from sorter.finish()
        if rows is not None:
            # In-memory path: one sort charge, the whole result as a
            # single charge-free batch.
            if rows:
                yield (_BATCH, rows)
            return
        merge = sorter.merge()
        done = False
        while not done:
            out: List[tuple] = []
            while len(out) < 1024:
                row = yield from merge.next()
                if row is None:
                    done = True
                    for run_file in sorter.runs:
                        ctx.drop_temp(run_file)
                    break
                out.append(row)
            if out:
                yield from ctx.cpu(len(out))
                yield (_BATCH, out)

    return run


def _hashjoin_source(
    ctx, plan: HashJoin, left_factory, right_factory, lschema, rschema
) -> Callable:
    lkeys = join_keys(plan.left_key, lschema)
    rkeys = join_keys(plan.right_key, rschema)

    def run():
        budget = ctx.work_mem_tuples
        table: Dict[Any, List[tuple]] = {}
        count = 0
        overflow: List[tuple] = []
        partitioned = False
        left = left_factory()
        while True:
            batch = yield from pull_batch(left)
            if batch is None:
                break
            yield from ctx.cpu(len(batch))
            count += len(batch)
            if count > budget and not partitioned:
                partitioned = True
            if partitioned:
                overflow.extend(batch)
            else:
                split_groups(lkeys(batch), batch, table)
        right = right_factory()
        if not partitioned:
            while True:
                batch = yield from pull_batch(right)
                if batch is None:
                    return
                yield from ctx.cpu(len(batch))
                out = probe(table, rkeys(batch), batch)
                if out:
                    yield (_BATCH, out)
        # Grace path: spill both sides, join partition pairs in memory.
        all_rows = [row for rows in table.values() for row in rows]
        all_rows.extend(overflow)
        nparts = max(
            2, -(-len(all_rows) // max(1, ctx.work_mem_tuples // 2))
        )
        lparts = yield from ctx.spill_partitions(
            all_rows, lkeys, nparts, "hjL"
        )
        rrows: List[tuple] = []
        while True:
            batch = yield from pull_batch(right)
            if batch is None:
                break
            rrows.extend(batch)
        rparts = yield from ctx.spill_partitions(rrows, rkeys, nparts, "hjR")
        for p in range(nparts):
            lrows = yield from ctx.read_temp(lparts[p])
            prows = yield from ctx.read_temp(rparts[p])
            yield from ctx.cpu(len(lrows) + len(prows))
            ptable = split_groups(lkeys(lrows), lrows)
            pending = probe(ptable, rkeys(prows), prows)
            for i in range(0, len(pending), 1024):
                yield (_BATCH, pending[i : i + 1024])
        for part in lparts + rparts:
            ctx.drop_temp(part)

    return run


def _mergejoin_source(
    ctx, plan: MergeJoin, left_factory, right_factory, lschema, rschema
) -> Callable:
    lkey = join_key(plan.left_key, lschema)
    rkey = join_key(plan.right_key, rschema)

    def run():
        left = MergeCursor(partial(pull_batch, left_factory()))
        right = MergeCursor(partial(pull_batch, right_factory()))
        while True:
            groups = yield from next_groups(left, right, lkey, rkey)
            if groups is None:
                return
            lgroup, rgroup = groups
            yield from ctx.cpu(len(lgroup) * len(rgroup))
            yield (_BATCH, cross(lgroup, rgroup))

    return run


def _nljoin_source(
    ctx, plan: NLJoin, left_factory, right_factory, out_schema, right_width
) -> Callable:
    keep = filter_kernel(plan.predicate, out_schema)

    def run():
        right = right_factory()
        rrows: List[tuple] = []
        while True:
            batch = yield from pull_batch(right)
            if batch is None:
                break
            rrows.extend(batch)
        mat = ctx.create_temp(right_width, "nlj")
        yield from ctx.sm.write_run(mat, rrows)
        left = left_factory()
        while True:
            batch = yield from pull_batch(left)
            if batch is None:
                ctx.drop_temp(mat)
                return
            out = yield from nl_probe(ctx.sm, mat, batch, keep, ctx.cpu)
            if out:
                yield (_BATCH, out)

    return run


def _aggregate_source(ctx, plan: Aggregate, child_factory, in_schema) -> Callable:
    kernel = AggKernel(plan.aggs, in_schema)

    def run():
        states = kernel.new_states()
        child = child_factory()
        consumed = 0
        batches = 0
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            yield from ctx.cpu(len(batch) * len(states))
            kernel.update(states, batch)
            consumed += len(batch)
            batches += 1
            if ctx.lineage is not None and batches % 8 == 0:
                yield from ctx.lineage.checkpoint(
                    consumed,
                    [(s.count, s.total, s.best) for s in states],
                )
        yield (_BATCH, [kernel.result(states)])

    return run


def _groupby_source(ctx, plan: GroupBy, child_factory, in_schema) -> Callable:
    kernel = AggKernel(plan.aggs, in_schema, plan.group_cols)

    def run():
        groups: Dict[tuple, list] = {}
        child = child_factory()
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            yield from ctx.cpu(len(batch) * max(1, len(kernel.specs)))
            kernel.update_groups(groups, batch)
        result = kernel.group_results(groups)
        for i in range(0, len(result), 1024):
            yield (_BATCH, result[i : i + 1024])

    return run


# ---------------------------------------------------------------------------
# Probe-side builds (preludes fused into the left pipeline)
# ---------------------------------------------------------------------------
def _build_prelude(ctx, right_factory, build, rkeys, stage) -> Callable:
    """A semi/anti or outer join's build side, run as a prelude of the
    left pipeline; fills ``stage.build``."""
    def prelude():
        get = partial(pull_batch, right_factory())
        stage.build = yield from build(get, rkeys, ctx.cpu)

    return prelude


# ---------------------------------------------------------------------------
# DML sources (insert / update / delete)
# ---------------------------------------------------------------------------
def _write_source(ctx, plan) -> Callable:
    def run():
        owner = ctx.owner or next_stream()
        yield ctx.sm.locks.acquire(owner, plan.table, LockMode.EXCLUSIVE)
        try:
            count = yield from write_rows(ctx.sm, plan)
        finally:
            ctx.sm.locks.release(owner, plan.table)
        yield (_BATCH, [(count,)])

    return run


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def compile_plan(
    plan: PlanNode, ctx: ExecContext, choices: Optional[dict] = None
) -> Pipeline:
    """Compile *plan* into a tree of pipelines rooted at one Pipeline.

    *choices* maps plan nodes to the planner's
    :class:`~repro.sql.planner.PipelineChoice` decisions; absent
    entries default to fused compilation.
    """
    if choices is None:
        choices = {}
    return _compile(plan, ctx, choices)


def _fuse_choice(plan, choices) -> bool:
    choice = choices.get(plan)
    return True if choice is None else choice.fuse


def _compile(plan: PlanNode, ctx: ExecContext, choices: dict) -> Pipeline:
    catalog = ctx.sm.catalog
    schema = plan.output_schema(catalog)

    if isinstance(plan, TableScan):
        return Pipeline(ctx, _scan_source(ctx, plan), [], [], schema)
    if isinstance(plan, IndexScan):
        return Pipeline(ctx, _index_source(ctx, plan), [], [], schema)

    if isinstance(plan, (Filter, Project, Limit, Distinct)):
        child = _compile(plan.child, ctx, choices)
        stage = fusion.build_stage(
            plan, child.schema, fuse=_fuse_choice(plan, choices)
        )
        return Pipeline(
            ctx,
            child.source_factory,
            child.stages + [stage],
            child.preludes,
            schema,
        )

    if isinstance(plan, Sort):
        child = _compile(plan.child, ctx, choices)
        source = _sort_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, Aggregate):
        child = _compile(plan.child, ctx, choices)
        source = _aggregate_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, GroupBy):
        child = _compile(plan.child, ctx, choices)
        source = _groupby_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)

    if isinstance(plan, HashJoin):
        left = _compile(plan.left, ctx, choices)
        right = _compile(plan.right, ctx, choices)
        source = _hashjoin_source(
            ctx, plan, left.generator, right.generator,
            left.schema, right.schema,
        )
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, MergeJoin):
        left = _compile(plan.left, ctx, choices)
        right = _compile(plan.right, ctx, choices)
        source = _mergejoin_source(
            ctx, plan, left.generator, right.generator,
            left.schema, right.schema,
        )
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, NLJoin):
        left = _compile(plan.left, ctx, choices)
        right = _compile(plan.right, ctx, choices)
        source = _nljoin_source(
            ctx, plan, left.generator, right.generator,
            schema, right.schema.row_width,
        )
        return Pipeline(ctx, source, [], [], schema)

    if isinstance(plan, (SemiJoin, AntiJoin, LeftOuterJoin)):
        left = _compile(plan.left, ctx, choices)
        right = _compile(plan.right, ctx, choices)
        build, side_probe = build_probe_kernels(plan, len(right.schema))
        stage = fusion.ProbeStage(
            join_keys(plan.left_key, left.schema), side_probe
        )
        rkeys = join_keys(plan.right_key, right.schema)
        # The build side runs at the *root's* first pull, before
        # anything below the left input runs: outer preludes precede
        # inner ones.
        prelude = _build_prelude(ctx, right.generator, build, rkeys, stage)
        return Pipeline(
            ctx,
            left.source_factory,
            left.stages + [stage],
            [prelude] + left.preludes,
            schema,
        )

    if isinstance(plan, (InsertRows, UpdateRows, DeleteRows)):
        return Pipeline(ctx, _write_source(ctx, plan), [], [], schema)

    raise TypeError(f"no push pipeline for {type(plan).__name__}")
