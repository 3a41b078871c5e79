"""Tests for the client driver and workload metrics."""

import random

import pytest

from repro.pushexec import PushEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, TableScan
from repro.storage.manager import StorageManager
from repro.workloads.clients import (
    ClosedLoopClient,
    mixed_tpch_factory,
    run_workload,
)

import tests.conftest as cf


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=32)
    sm.create_table("r", cf.BIG_R_SCHEMA)
    sm.load_table("r", cf.make_big_r_rows(n=1200))
    return host, sm


def count_plan(_rng=None):
    return Aggregate(TableScan("r"), [AggSpec("count", None, "n")])


def test_closed_loop_client_runs_n_queries():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    client = ClosedLoopClient(0, count_plan, queries=3, think_time=1.0)
    metrics = run_workload(engine, [client])
    assert metrics.queries_completed == 3
    assert all(r.rows == [(1200,)] for r in metrics.results)


def test_think_time_separates_submissions():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    client = ClosedLoopClient(0, count_plan, queries=2, think_time=50.0)
    metrics = run_workload(engine, [client])
    submits = sorted(r.submitted_at for r in metrics.results)
    assert submits[1] - submits[0] >= 50.0


def test_start_delay_staggers_clients():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    clients = [
        ClosedLoopClient(i, count_plan, queries=1, start_delay=i * 5.0)
        for i in range(3)
    ]
    metrics = run_workload(engine, clients)
    submits = sorted(r.submitted_at for r in metrics.results)
    assert submits == [0.0, 5.0, 10.0]


def test_metrics_throughput_and_response():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    clients = [ClosedLoopClient(i, count_plan, queries=2) for i in range(2)]
    metrics = run_workload(engine, clients)
    assert metrics.queries_completed == 4
    assert metrics.makespan > 0
    assert metrics.throughput_qph == pytest.approx(
        4 * 3600.0 / metrics.makespan
    )
    assert metrics.avg_response_time > 0
    assert metrics.max_response_time >= metrics.avg_response_time
    assert metrics.blocks_read > 0


def test_metrics_windowing_excludes_prior_io():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    first = run_workload(engine, [ClosedLoopClient(0, count_plan)])
    second = run_workload(engine, [ClosedLoopClient(1, count_plan)])
    # The second window counts only its own reads.
    assert second.blocks_read <= first.blocks_read


def test_percentile_response_time():
    host, sm = build_db()
    engine = PushEngine(sm)
    clients = [ClosedLoopClient(i, count_plan, queries=1) for i in range(4)]
    metrics = run_workload(engine, clients)
    assert metrics.percentile_response_time(0.0) <= (
        metrics.percentile_response_time(0.99)
    )


def _metrics_with_times(times):
    from repro.results import QueryResult
    from repro.workloads.metrics import WorkloadMetrics

    return WorkloadMetrics(
        results=[
            QueryResult(i, [], 0.0, 0.0, t) for i, t in enumerate(times)
        ]
    )


def test_percentile_nearest_rank_pinned():
    # Nearest rank: value at 1-based rank ceil(q * n).
    metrics = _metrics_with_times(
        [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    )
    assert metrics.percentile_response_time(0.50) == 50.0  # rank ceil(5)=5
    assert metrics.percentile_response_time(0.95) == 100.0  # rank ceil(9.5)=10
    assert metrics.percentile_response_time(1.00) == 100.0
    assert metrics.percentile_response_time(0.0) == 10.0
    # Odd-length list: p50 is the exact middle element.
    metrics = _metrics_with_times([3.0, 1.0, 2.0])
    assert metrics.percentile_response_time(0.50) == 2.0
    assert metrics.percentile_response_time(0.99) == 3.0
    # Singleton and empty edge cases.
    assert _metrics_with_times([7.0]).percentile_response_time(0.5) == 7.0
    assert _metrics_with_times([]).percentile_response_time(0.5) == 0.0


def test_mixed_factory_draws_varied_plans():
    factory = mixed_tpch_factory(
        [count_plan, lambda rng: Aggregate(
            TableScan("r", predicate=Col("grp") == rng.randrange(5)),
            [AggSpec("count", None, "n")],
        )]
    )
    rng = random.Random(4)
    plans = [factory(rng) for _ in range(10)]
    assert len({p.signature.__self__ if False else repr(p) for p in plans}) >= 1
    assert len(plans) == 10


def test_same_seed_same_workload():
    def run_once():
        host, sm = build_db()
        engine = QPipeEngine(sm)
        clients = [
            ClosedLoopClient(i, count_plan, queries=2) for i in range(3)
        ]
        return run_workload(engine, clients, seed=11).makespan

    assert run_once() == run_once()


def test_engines_interchangeable_in_driver():
    host, sm = build_db()
    for engine in (PushEngine(sm), QPipeEngine(sm)):
        metrics = run_workload(engine, [ClosedLoopClient(0, count_plan)])
        assert metrics.queries_completed == 1
