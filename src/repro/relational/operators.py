"""The operator library: each shared relational operator body, written once.

The packet engine's µEngines (:mod:`repro.engine.engines`), the push
pipelines (:mod:`repro.pushexec.compiler` and
:mod:`repro.pushexec.fusion`) and the shard merges
(:mod:`repro.shard.merge`) run the same relational operators.  They
differ in how they schedule work -- a µEngine reads batches from a
``TupleBuffer`` and ships them to its output buffer, a push pipeline
pulls its child generator and yields batch markers -- not in what an
operator does.  The bodies here are the part they share:

* the external sort: the comparison count, the run spill and the k-way
  run merge, written as a cursor (``row = yield from merge.next()``);
* the merge join's input cursor and group matcher, including the
  ``SEGMENT_BOUNDARY`` handling of the section 4.3.2 split;
* the semi/anti and left-outer joins' build and probe kernels;
* the nested-loop join's materialised-page probe and the join cross
  product;
* duplicate elimination;
* the INSERT / UPDATE / DELETE row loops.

The caller's side of the protocol comes in as callbacks:
``charge(tuples, factor=1.0)`` is its CPU charge (a µEngine's
``charge`` bound to the packet, or ``ExecContext.cpu``), ``get()`` its
input coroutine (``TupleBuffer.get``, or ``pull_batch`` over a child
pipeline) and ``create_temp(row_width, label)`` its temp-file
constructor.  Nothing here knows which engine called it.  Each body
fixes only the order of its own disk reads and charges, and every
caller keeps its batch boundaries, output protocol, locks and temp-file
drops, so moving a body here moves no virtual time.

Hash and grace joins, LIMIT, the batching of sorted output and the
aggregation loops stay with each engine: their charge schedules differ
between engines, and the pinned figures depend on them (DESIGN.md
section 12).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import log2
from typing import Callable, Generator, List, Optional, Sequence

from repro.relational.kernels import row_fn, split_groups
from repro.relational.plans import (
    AntiJoin,
    InsertRows,
    LeftOuterJoin,
    Sort,
    UpdateRows,
)
from repro.relational.schema import Schema
from repro.storage.page import RID

__all__ = [
    "SEGMENT_BOUNDARY",
    "ExternalSort",
    "MergeCursor",
    "RunMerge",
    "build_keys",
    "build_probe_kernels",
    "build_table",
    "cross",
    "distinct",
    "next_groups",
    "nl_probe",
    "outer_probe",
    "semi_probe",
    "sort_comparisons",
    "sort_rows",
    "write_rows",
]

#: Marker between the two segments of an input delivered out of order
#: (section 4.3.2): [P..EOF], SEGMENT_BOUNDARY, [0..P).
SEGMENT_BOUNDARY = ("__segment_boundary__",)

Charge = Callable[..., Generator]


# ---------------------------------------------------------------------------
# External sort
# ---------------------------------------------------------------------------
def sort_comparisons(n: int) -> int:
    """The comparison count charged for sorting *n* rows,
    ``n * max(1, log2 n)``."""
    return int(n * max(1.0, log2(max(2, n))))


def sort_rows(rows: list, key, reverse: bool, charge: Charge,
              factor: float) -> Generator:
    """Coroutine: charge :func:`sort_comparisons` at *factor*, then sort
    *rows* in place."""
    yield from charge(sort_comparisons(len(rows)), factor)
    rows.sort(key=key, reverse=reverse)


class ExternalSort:
    """One execution of a Sort: rows are buffered up to *budget*, each
    full buffer is sorted and spilled as a temp run, and the runs are
    merged by a :class:`RunMerge`.

    ``runs`` lists every run created so far; the caller drops them.
    """

    __slots__ = (
        "sm", "key", "reverse", "row_width", "budget", "charge", "factor",
        "create_temp", "buffer", "runs",
    )

    def __init__(self, sm, plan: Sort, schema: Schema, budget: int,
                 charge: Charge, factor: float, create_temp):
        self.sm = sm
        self.key = schema.projector(plan.keys)
        self.reverse = plan.descending
        self.row_width = schema.row_width
        self.budget = budget
        self.charge = charge
        self.factor = factor
        self.create_temp = create_temp
        self.buffer: List[tuple] = []
        self.runs: List = []

    def add(self, batch: list) -> Generator:
        """Coroutine: buffer *batch*, spilling once the budget is met."""
        self.buffer.extend(batch)
        if len(self.buffer) >= self.budget:
            yield from self._spill()

    def finish(self) -> Generator:
        """Coroutine: end of input.  Returns the sorted rows when nothing
        spilled; otherwise spills the remainder and returns None, and
        the rows come from :meth:`merge`."""
        if not self.runs:
            rows, self.buffer = self.buffer, []
            yield from sort_rows(
                rows, self.key, self.reverse, self.charge, self.factor
            )
            return rows
        if self.buffer:
            yield from self._spill()
        return None

    def merge(self) -> "RunMerge":
        return RunMerge(self.sm, self.runs, self.key, self.reverse)

    def _spill(self) -> Generator:
        rows, self.buffer = self.buffer, []
        yield from sort_rows(
            rows, self.key, self.reverse, self.charge, self.factor
        )
        run = self.create_temp(self.row_width, "sortrun")
        # Listed before the (interruptible) write, so the caller's fault
        # sweep sees a half-written run.
        self.runs.append(run)
        yield from self.sm.write_run(run, rows)


class _Neg:
    """Ordering inverter for descending sort keys in the run merge."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


class RunMerge:
    """k-way merge cursor over sorted temp runs:
    ``row = yield from merge.next()``, None once every run is drained.

    The first call reads each run's first page in run order.  A run's
    next page is read on the first call after its current page's last
    row was returned -- the page order of a linear scan over the run
    heads.  Equal keys go to the lower run index.
    """

    __slots__ = ("sm", "runs", "rank", "heads", "cursors", "last")

    def __init__(self, sm, runs: Sequence, key, reverse: bool):
        self.sm = sm
        self.runs = runs
        if reverse:
            self.rank = lambda row: tuple(_Neg(part) for part in key(row))
        else:
            self.rank = key
        #: Heap of ``(rank, run index, row)``; None until the first call.
        self.heads: Optional[list] = None
        #: Per run: ``[page rows, next row index, next block]``.
        self.cursors = [[(), 0, 0] for _ in runs]
        #: Run index of the row returned last (its successor is pending).
        self.last: Optional[int] = None

    def next(self) -> Generator:
        """Coroutine: the next row in sort order, or None at the end."""
        heads = self.heads
        if heads is None:
            heads = self.heads = []
            for i in range(len(self.runs)):
                yield from self._advance(i)
        elif self.last is not None:
            yield from self._advance(self.last)
        if not heads:
            self.last = None
            return None
        _rank, self.last, row = heappop(heads)
        return row

    def _advance(self, i: int) -> Generator:
        """Coroutine: push run *i*'s next row onto the heap, reading its
        next page when the current one is used up."""
        cursor = self.cursors[i]
        rows, pos, block = cursor
        run = self.runs[i]
        while pos >= len(rows):
            if block >= run.num_pages:
                return
            page = yield from self.sm.read_temp_page(run, block)
            rows, pos, block = page.rows(), 0, block + 1
        row = rows[pos]
        cursor[0], cursor[1], cursor[2] = rows, pos + 1, block
        heappush(self.heads, (self.rank(row), i, row))


# ---------------------------------------------------------------------------
# Merge join
# ---------------------------------------------------------------------------
class MergeCursor:
    """Batch-buffered reader over one sorted merge-join input.

    ``get()`` is the caller's input coroutine: the next batch, None at
    the end of the stream, or SEGMENT_BOUNDARY where a split input's
    first segment ends.
    """

    __slots__ = ("get", "rows", "eos", "segment_ended")

    def __init__(self, get: Callable[[], Generator]):
        self.get = get
        self.rows: deque = deque()
        self.eos = False
        self.segment_ended = False

    def refill(self) -> Generator:
        """Coroutine: ensure a row is buffered, or flag the end of the
        stream or segment."""
        while not self.rows and not self.eos and not self.segment_ended:
            batch = yield from self.get()
            if batch is None:
                self.eos = True
            elif batch is SEGMENT_BOUNDARY:
                self.segment_ended = True
            else:
                self.rows.extend(batch)

    @property
    def exhausted(self) -> bool:
        return not self.rows and (self.eos or self.segment_ended)

    def take_group(self, key, value) -> Generator:
        """Coroutine: pop the head row (whose key is *value*) and every
        following row whose key matches it, across batch boundaries.

        A key matches if it *is* *value* or equals it -- the identity-
        then-equality test of a tuple key -- so a NaN head still forms a
        group of its own and the join always makes progress."""
        rows = self.rows
        group: List[tuple] = [rows.popleft()]
        while True:
            while rows:
                k = key(rows[0])
                if k is not value and not k == value:
                    break
                group.append(rows.popleft())
            if rows:
                return group
            yield from self.refill()
            if not rows:
                return group


def next_groups(left: MergeCursor, right: MergeCursor, lkey,
                rkey) -> Generator:
    """Coroutine: the next ``(left group, right group)`` of rows with
    equal keys, skipping unmatched rows; None once either input (or its
    current segment) is exhausted."""
    while True:
        yield from left.refill()
        yield from right.refill()
        if left.exhausted or right.exhausted:
            return None
        lk, rk = lkey(left.rows[0]), rkey(right.rows[0])
        if lk < rk:
            left.rows.popleft()
        elif rk < lk:
            right.rows.popleft()
        else:
            lgroup = yield from left.take_group(lkey, lk)
            rgroup = yield from right.take_group(rkey, rk)
            return lgroup, rgroup


def cross(lrows: Sequence[tuple], rrows: Sequence[tuple]) -> list:
    """Every ``lrow + rrow``, left-major."""
    return [lrow + rrow for lrow in lrows for rrow in rrows]


# ---------------------------------------------------------------------------
# Semi / anti and left-outer joins (build the right side, probe the left)
# ---------------------------------------------------------------------------
def _build(get, charge: Charge, absorb) -> Generator:
    while True:
        batch = yield from get()
        if batch is None:
            return
        if batch is SEGMENT_BOUNDARY:
            continue
        yield from charge(len(batch))
        absorb(batch)


def build_keys(get, keys, charge: Charge) -> Generator:
    """Coroutine: a semi/anti join's build side -- the set of the join
    keys (``keys(batch)``) of every row ``get()`` delivers, charging one
    tuple per row."""
    found: set = set()
    yield from _build(get, charge, lambda batch: found.update(keys(batch)))
    return found


def build_table(get, keys, charge: Charge) -> Generator:
    """Coroutine: a left-outer join's build side -- each join key's rows
    in arrival order, charging one tuple per row."""
    table: dict = {}
    yield from _build(
        get, charge, lambda batch: split_groups(keys(batch), batch, table)
    )
    return table


def build_probe_kernels(plan, right_width: int) -> tuple:
    """``(build, probe)`` of a SemiJoin / AntiJoin or LeftOuterJoin:
    :func:`build_keys` or :func:`build_table`, and the matching probe
    as ``probe(build side, keys, rows)``."""
    if isinstance(plan, LeftOuterJoin):
        return build_table, partial(outer_probe, pad=(None,) * right_width)
    return build_keys, partial(semi_probe, anti=isinstance(plan, AntiJoin))


def semi_probe(found: set, keys: Sequence, rows: Sequence[tuple],
               anti: bool) -> list:
    """The *rows* whose key (in *keys*) is in *found* -- or, for an anti
    join, is not."""
    if anti:
        return [row for key, row in zip(keys, rows) if key not in found]
    return [row for key, row in zip(keys, rows) if key in found]


def outer_probe(table: dict, keys: Sequence, rows: Sequence[tuple],
                pad: tuple) -> list:
    """Left-outer probe: ``row + match`` for each build-side match in
    build order, or ``row + pad`` (all NULLs) when there is none."""
    get = table.get
    out: List[tuple] = []
    for key, lrow in zip(keys, rows):
        matches = get(key)
        if matches:
            out.extend([lrow + rrow for rrow in matches])
        else:
            out.append(lrow + pad)
    return out


# ---------------------------------------------------------------------------
# Nested-loop join
# ---------------------------------------------------------------------------
def nl_probe(sm, mat, batch: Sequence[tuple], keep,
             charge: Charge) -> Generator:
    """Coroutine: join one left *batch* against each page of the
    materialised right input *mat*: per page, charge
    ``len(batch) * len(page)`` and keep the concatenations passing the
    ``keep`` filter kernel."""
    out: List[tuple] = []
    for block in range(mat.num_pages):
        page = yield from sm.read_temp_page(mat, block)
        rows = page.rows()
        yield from charge(len(batch) * len(rows))
        out.extend(keep(cross(batch, rows)))
    return out


# ---------------------------------------------------------------------------
# Distinct
# ---------------------------------------------------------------------------
def distinct(seen: set, rows: Sequence[tuple]) -> list:
    """The *rows* not yet in *seen* (which grows), first occurrence
    wins."""
    out: List[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# INSERT / UPDATE / DELETE
# ---------------------------------------------------------------------------
def write_rows(sm, plan) -> Generator:
    """Coroutine: apply an InsertRows, UpdateRows or DeleteRows; returns
    the number of rows affected.  UPDATE and DELETE visit every page of
    the table and rewrite or remove each row matching the predicate.
    The caller holds the table's exclusive lock."""
    table = plan.table
    if isinstance(plan, InsertRows):
        for row in plan.rows:
            yield from sm.insert_row(table, row)
        return len(plan.rows)
    schema = sm.catalog.table_schema(table)
    pred = row_fn(plan.predicate, schema) if plan.predicate else None
    update = isinstance(plan, UpdateRows)
    count = 0
    for block in range(sm.catalog.table(table).num_pages):
        page = yield from sm.read_table_page(table, block)
        for slot, row in list(page.items()):
            if pred is None or pred(row):
                if update:
                    yield from sm.update_row(
                        table, RID(block, slot), plan.apply(row)
                    )
                else:
                    yield from sm.delete_row(table, RID(block, slot))
                count += 1
    return count
