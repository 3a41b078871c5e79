"""The join micro-engines: hash join, merge join, nested-loop join.

Overlap classes (section 3.2):

* hash join -- *full* during the build phase (no output yet, so the
  generic rule shares everything), *step* during probe (replay ring);
* merge join -- *step*, plus the section 4.3.2 segmented-input handling:
  a SEGMENT_BOUNDARY on one input makes the join restart its other input
  and merge the next segment (two joins whose union is the answer);
* nested-loop join -- *step*.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List

from repro.engine.buffers import SEGMENT_BOUNDARY
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational.kernels import (
    filter_kernel,
    join_key,
    join_keys,
    partition,
    probe,
    split_groups,
)
from repro.relational.operators import (
    MergeCursor,
    build_probe_kernels,
    cross,
    next_groups,
    nl_probe,
)

OUT_BATCH = 256


class HashJoinEngine(MicroEngine):
    overlap_class = "full"  # build; probe is step

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
        catalog = self.engine.sm.catalog
        lkeys = join_keys(plan.left_key, plan.left.output_schema(catalog))
        rkeys = join_keys(plan.right_key, plan.right.output_schema(catalog))
        left_in, right_in = packet.inputs

        packet.phase = "build"
        table: Dict = {}
        count = 0
        while True:
            batch = yield from left_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            count += len(batch)
            split_groups(lkeys(batch), batch, table)
        if count > query.work_mem_tuples:
            yield from self._grace_join(packet, table, lkeys, rkeys, right_in)
            return

        packet.phase = "probe"
        while True:
            batch = yield from right_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            pending = probe(table, rkeys(batch), batch)
            # Pipelined: matches ship as soon as they are produced, so
            # the probe phase's step window closes honestly.
            if pending:
                yield from packet.output.put(pending)

    def _grace_join(self, packet, table, lkeys, rkeys, right_in) -> Generator:
        """Partitioned fallback when the build side overflows memory."""
        query = packet.query
        sm = self.engine.sm
        packet.phase = "partition"
        lrows = [row for rows in table.values() for row in rows]
        rrows = yield from right_in.drain()
        nparts = max(2, -(-len(lrows) // max(1, query.work_mem_tuples // 2)))

        def spill(rows, keys, label, parts):
            for bucket in partition(keys(rows), rows, nparts):
                part = sm.create_temp_file(64, label=label)
                # Registered before the (interruptible) write so the
                # caller's fault sweep sees a half-written partition.
                parts.append(part)
                yield from sm.write_run(part, bucket)

        yield from self.charge(packet, len(lrows) + len(rrows))
        lparts: List = []
        rparts: List = []
        try:
            yield from spill(lrows, lkeys, "hjL", lparts)
            yield from spill(rrows, rkeys, "hjR", rparts)

            packet.phase = "probe"
            for p in range(nparts):
                lpart_rows: List[tuple] = []
                for block in range(lparts[p].num_pages):
                    page = yield from sm.read_temp_page(lparts[p], block)
                    lpart_rows.extend(page.rows())
                sub = split_groups(lkeys(lpart_rows), lpart_rows)
                pending: List[tuple] = []
                for block in range(rparts[p].num_pages):
                    page = yield from sm.read_temp_page(rparts[p], block)
                    rows = page.rows()
                    yield from self.charge(packet, len(rows))
                    pending.extend(probe(sub, rkeys(rows), rows))
                if pending:
                    yield from packet.output.put(pending)
        finally:
            for part in lparts + rparts:
                sm.drop_temp_file(part)


class MergeJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        lkey = join_key(plan.left_key, plan.left.output_schema(catalog))
        rkey = join_key(plan.right_key, plan.right.output_schema(catalog))
        left_in, right_in = packet.inputs
        left, right = MergeCursor(left_in.get), MergeCursor(right_in.get)

        packet.phase = "merge"
        while True:
            while True:
                groups = yield from next_groups(left, right, lkey, rkey)
                if groups is None:
                    break
                lgroup, rgroup = groups
                yield from self.charge(packet, len(lgroup) * len(rgroup))
                # Pipelined: each matched group ships immediately.
                yield from packet.output.put(cross(lgroup, rgroup))
            if left.segment_ended and not left.eos:
                # Section 4.3.2: the left input delivered an out-of-order
                # segment pair; restart the right subtree and join again.
                # Closing the abandoned buffer lets its producer detach
                # and finish without blocking.
                right_in.close()
                right_in = self._restart(packet, plan.right)
                right = MergeCursor(right_in.get)
                left.segment_ended = False
            elif right.segment_ended and not right.eos:
                left_in.close()
                left_in = self._restart(packet, plan.left)
                left = MergeCursor(left_in.get)
                right.segment_ended = False
            else:
                break

    def _restart(self, packet: Packet, child_plan):
        buffer = self.engine.dispatcher.dispatch_subtree(
            packet.query, child_plan
        )
        packet.query.bump("mj_restarts")
        return buffer


class BuildProbeJoinEngine(MicroEngine):
    """EXISTS / NOT EXISTS and hash left-outer joins: *full* overlap
    while the right side builds, *step* once left rows flow out
    (unmatched outer rows padded with NULLs)."""

    overlap_class = "full"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        lkeys = join_keys(plan.left_key, plan.left.output_schema(catalog))
        rschema = plan.right.output_schema(catalog)
        build, side_probe = build_probe_kernels(plan, len(rschema))
        left_in, right_in = packet.inputs
        charge = partial(self.charge, packet)

        packet.phase = "build"
        side = yield from build(
            right_in.get, join_keys(plan.right_key, rschema), charge
        )

        packet.phase = "probe"
        while True:
            batch = yield from left_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from charge(len(batch))
            out = side_probe(side, lkeys(batch), batch)
            if out:
                yield from packet.output.put(out)


class NLJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        sm = self.engine.sm
        charge = partial(self.charge, packet)
        keep = filter_kernel(plan.predicate, plan.output_schema(sm.catalog))
        left_in, right_in = packet.inputs

        packet.phase = "materialize"
        rrows = yield from right_in.drain()
        right_schema = plan.right.output_schema(sm.catalog)
        mat = sm.create_temp_file(right_schema.row_width, label="nlj")
        try:
            yield from sm.write_run(mat, rrows)

            packet.phase = "join"
            while True:
                batch = yield from left_in.get()
                if batch is None:
                    break
                if batch is SEGMENT_BOUNDARY:
                    continue
                pending = yield from nl_probe(sm, mat, batch, keep, charge)
                if pending:
                    yield from packet.output.put(pending)
        finally:
            sm.drop_temp_file(mat)
