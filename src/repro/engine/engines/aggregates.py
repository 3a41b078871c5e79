"""The aggregation micro-engines.

* Single aggregates are a *full* overlap: no output exists until the very
  end, so the generic sharing rule admits satellites for the operator's
  whole lifetime (Figure 4a).
* Group-by is *step* (it produces multiple results); hash grouping is
  blocking here, so output starts only after input is consumed, and the
  fan-out replay ring (buffering enhancement) keeps the window open a
  while into emission.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.engine.buffers import SEGMENT_BOUNDARY
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational.kernels import AggKernel

OUT_BATCH = 1024

#: How many consumed input batches between lineage checkpoints of the
#: accumulator state (one batch per delivered scan page upstream).
CHECKPOINT_EVERY = 8


class AggEngine(MicroEngine):
    overlap_class = "full"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
        kernel = AggKernel(
            plan.aggs, plan.child.output_schema(self.engine.sm.catalog)
        )
        states = kernel.new_states()
        source = packet.inputs[0]
        lineage = query.lineage
        consumed = 0
        batches = 0

        packet.phase = "aggregate"
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch) * len(states))
            kernel.update(states, batch)
            consumed += len(batch)
            batches += 1
            if lineage is not None and batches % CHECKPOINT_EVERY == 0:
                # Write-ahead checkpoint: accumulator snapshot at an
                # input frontier; recovery replays only the unconsumed
                # page suffix into the restored states.
                yield from lineage.checkpoint(
                    consumed,
                    [(s.count, s.total, s.best) for s in states],
                )
        packet.phase = "emit"
        yield from packet.output.put([kernel.result(states)])


class FoldBank:
    """Merged-aggregation accumulators for one folded scan signature.

    The fold group (repro.folding) feeds each wide-scan page's residual
    rows through :meth:`add_batch` exactly once; members enrolling the
    same aggregate (by :meth:`AggSpec.signature`) share one accumulator,
    which is the "one aggregation, per-query projections" half of query
    folding.  ``upto`` is the next canonical block this bank will consume
    live; accumulators created later (``fresh``) are caught up from the
    group's survivor ring over exactly ``ring[:upto]`` so a join landing
    mid-page stays exactly-once.
    """

    __slots__ = ("residual", "upto", "_pairs", "_order")

    def __init__(self, residual, frontier: int = 0):
        #: ``survivors -> member scan rows`` (the folded scan's own
        #: predicate + projection, shared by every member of this bank).
        self.residual = residual
        self.upto = frontier
        self._pairs: Dict[str, tuple] = {}
        self._order: List[str] = []

    def enroll(self, specs, updaters):
        """Register one member's aggregates (their batch updaters from
        an :class:`AggKernel`); dedupe by signature.

        Returns ``(sigs, fresh)``: the member's own signature list (its
        result row is ``result_for(sigs)``) and the newly created
        ``(state, update)`` pairs the caller must replay history into.
        """
        sigs: List[str] = []
        fresh: List[tuple] = []
        for spec, update in zip(specs, updaters):
            sig = spec.signature()
            sigs.append(sig)
            if sig not in self._pairs:
                pair = (spec.make_state(), update)
                self._pairs[sig] = pair
                self._order.append(sig)
                fresh.append(pair)
        return sigs, fresh

    def add_batch(self, rows) -> None:
        for sig in self._order:
            state, update = self._pairs[sig]
            update(state, rows)

    def result_for(self, sigs) -> tuple:
        return tuple(self._pairs[sig][0].result() for sig in sigs)

    def __len__(self) -> int:
        return len(self._order)


class GroupByEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        kernel = AggKernel(
            plan.aggs,
            plan.child.output_schema(self.engine.sm.catalog),
            plan.group_cols,
        )
        source = packet.inputs[0]

        packet.phase = "group"
        groups: Dict[tuple, list] = {}
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(
                packet, len(batch) * max(1, len(kernel.specs))
            )
            kernel.update_groups(groups, batch)
        packet.phase = "emit"
        result = kernel.group_results(groups)
        for start in range(0, len(result), OUT_BATCH):
            yield from packet.output.put(result[start:start + OUT_BATCH])
