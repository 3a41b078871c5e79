"""Client drivers: closed-loop clients with think time, staggered
arrivals, and the workload runner both engines plug into.

Engines are duck-typed: anything with an ``execute(plan)`` coroutine
returning a :class:`~repro.results.QueryResult` and an ``sm`` attribute
works -- :class:`~repro.engine.qpipe.QPipeEngine` and
:class:`~repro.pushexec.PushEngine` both do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Sequence

from repro.relational.plans import PlanNode
from repro.results import QueryResult
from repro.workloads.metrics import WorkloadMetrics

PlanFactory = Callable[[random.Random], PlanNode]


@dataclass
class ClosedLoopClient:
    """One client: submit, wait for the result, think, repeat.

    This is the TPC-H throughput-test client model the paper uses in
    sections 5.3 (zero think time) and Figure 13 (varying think time).

    Args:
        client_id: identifier.
        plan_factory: draws the next query plan (qgen-like).
        queries: how many queries this client submits in total.
        think_time: idle seconds between receiving a result and
            submitting the next query.
        start_delay: seconds before the first submission.
    """

    client_id: int
    plan_factory: PlanFactory
    queries: int = 1
    think_time: float = 0.0
    start_delay: float = 0.0
    results: List[QueryResult] = field(default_factory=list)

    def run(self, engine, rng: random.Random) -> Generator:
        sim = engine.sm.sim
        if self.start_delay > 0:
            yield sim.timeout(self.start_delay)
        for _ in range(self.queries):
            plan = self.plan_factory(rng)
            result = yield from engine.execute(plan)
            self.results.append(result)
            if self.think_time > 0:
                yield sim.timeout(self.think_time)


def run_workload(
    engine,
    clients: Sequence[ClosedLoopClient],
    seed: int = 42,
    until: Optional[float] = None,
) -> WorkloadMetrics:
    """Run all clients to completion on *engine*; returns the metrics.

    The disk/pool counters are windowed to this run (snapshots taken
    before and after), so several workloads can share one engine when an
    experiment needs warm state.
    """
    sm = engine.sm
    sim = sm.sim
    seed_rng = random.Random(seed)
    disk_before = sm.host.disk.stats.snapshot()
    pool_before = (sm.pool.stats.hits, sm.pool.stats.misses,
                   sm.pool.stats.coalesced)
    start = sim.now
    procs = [
        sim.spawn(client.run(engine, random.Random(seed_rng.randrange(2**31))),
                  name=f"client{client.client_id}")
        for client in clients
    ]
    if until is None:
        sim.run_until_done(procs)
    else:
        sim.run(until=until)
    disk_delta = sm.host.disk.stats.delta(disk_before)
    hits = sm.pool.stats.hits - pool_before[0]
    misses = sm.pool.stats.misses - pool_before[1]
    coalesced = sm.pool.stats.coalesced - pool_before[2]
    results: List[QueryResult] = []
    for client in clients:
        results.extend(client.results)
    finished = [r.finished_at for r in results]
    makespan = (max(finished) - start) if finished else 0.0
    accesses = hits + misses + coalesced
    return WorkloadMetrics(
        results=results,
        blocks_read=disk_delta.blocks_read,
        blocks_written=disk_delta.blocks_written,
        makespan=makespan,
        pool_hit_ratio=(hits + coalesced) / accesses if accesses else 0.0,
    )


def mixed_tpch_factory(
    builders: Sequence[Callable],
) -> PlanFactory:
    """A plan factory drawing uniformly from *builders* with qgen-like
    parameter randomisation (section 5.3's random query mix)."""

    def factory(rng: random.Random) -> PlanNode:
        builder = rng.choice(list(builders))
        return builder(rng)

    return factory
