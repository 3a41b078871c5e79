"""The sort micro-engine.

Phases (section 3.2): the *sort* phase is a full overlap -- identical
packets attach via the generic rule and receive the complete output --
and the *emit* phase is linear thanks to the materialisation enhancement:
the host retains its sorted result while it remains active, so a late
satellite gets a private re-emission from the start instead of missing
the window entirely.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, List

from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet, PacketState
from repro.faults.errors import FaultError
from repro.relational.operators import ExternalSort

EMIT_BATCH = 1024


class SortEngine(MicroEngine):
    overlap_class = "full"  # sort phase; emit phase is linear

    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        sm = self.engine.sm
        sorter = ExternalSort(
            sm,
            plan,
            plan.child.output_schema(sm.catalog),
            packet.query.work_mem_tuples,
            partial(self.charge, packet),
            self.engine.host.config.sort_cpu_factor,
            sm.create_temp_file,
        )

        packet.phase = "sort"
        source = packet.inputs[0]
        try:
            while True:
                batch = yield from source.get()
                if batch is None:
                    break
                yield from sorter.add(batch)
            result = yield from sorter.finish()
            if result is None:
                # Spilled: read the whole merge, then charge it once.
                merge = sorter.merge()
                result = []
                while True:
                    row = yield from merge.next()
                    if row is None:
                        break
                    result.append(row)
                yield from self.charge(packet, len(result))
        finally:
            # Sweeps the spilled runs on faults too; on the normal path
            # this fires right after the merge's charge.
            for run in sorter.runs:
                sm.drop_temp_file(run)

        # Materialisation function: retain the sorted result for late
        # satellites while this packet is active.
        packet.artifacts["sorted_result"] = result
        packet.phase = "emit"
        for start in range(0, len(result), EMIT_BATCH):
            yield from packet.output.put(result[start:start + EMIT_BATCH])

    # ------------------------------------------------------------------
    # OSP: generic full/step sharing plus materialised re-emission
    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        if super().try_share(packet):
            return True
        for host in self.active:
            if host.query is packet.query:
                continue
            if host.signature != packet.signature:
                continue
            result = host.artifacts.get("sorted_result")
            if result is None or not host.active:
                continue
            # Emit phase: re-emit the materialised result from the start.
            packet.state = PacketState.SATELLITE
            # Completed by its own re-emit process, not the host's sweeps.
            packet.self_serving = True
            packet.host = host
            host.satellites.append(packet)
            self.sim.tracer.packet_attach(
                packet, host, "sort-reemit", materialized=True
            )
            packet.cancel_subtree()
            self.engine.osp_stats.sort_reemissions += 1
            self.engine.osp_stats.record_attach(self.name, packet)
            self.sim.spawn(
                self._reemit(packet, result), name="sort-reemit"
            )
            return True
        return False

    def _reemit(self, packet: Packet, result: List[tuple]) -> Generator:
        out = packet.primary_output
        try:
            yield from self.charge(packet, len(result))
            for start in range(0, len(result), EMIT_BATCH):
                yield from out.put(result[start:start + EMIT_BATCH])
        except FaultError as exc:
            if not packet.query.aborted:
                self.engine.abort_query(packet.query, str(exc), exc)
        finally:
            out.close()
            if packet.state is PacketState.SATELLITE:
                packet.state = PacketState.DONE
                self.sim.tracer.packet_complete(packet)
