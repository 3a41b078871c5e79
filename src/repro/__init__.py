"""QPipe: a simultaneously pipelined relational query engine.

A from-scratch reproduction of Harizopoulos, Ailamaki & Shkapenyuk,
"QPipe: A Simultaneously Pipelined Relational Query Engine" (SIGMOD
2005), on a deterministic discrete-event-simulated host.

Typical use::

    from repro import (
        Host, HostConfig, StorageManager, QPipeEngine, QPipeConfig,
        Schema, TableScan, Aggregate, AggSpec, Col,
    )

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=128)
    sm.create_table("t", Schema.of("id:int", "v:float"))
    sm.load_table("t", [(i, float(i)) for i in range(1000)])

    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    rows = engine.run_query(
        Aggregate(TableScan("t"), [AggSpec("sum", Col("v"), "total")])
    )

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions (driven by :mod:`repro.harness`).
"""

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational import (
    AggSpec,
    Aggregate,
    AntiJoin,
    Col,
    Column,
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
    Project,
    Schema,
    SemiJoin,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.pushexec import PushEngine
from repro.results import QueryResult
from repro.storage.manager import StorageManager

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "Aggregate",
    "AntiJoin",
    "Col",
    "Column",
    "DeleteRows",
    "Distinct",
    "Filter",
    "GroupBy",
    "HashJoin",
    "Host",
    "HostConfig",
    "IndexScan",
    "InsertRows",
    "LeftOuterJoin",
    "Limit",
    "MergeJoin",
    "NLJoin",
    "Project",
    "PushEngine",
    "QPipeConfig",
    "QPipeEngine",
    "QueryResult",
    "Schema",
    "SemiJoin",
    "Sort",
    "StorageManager",
    "TableScan",
    "UpdateRows",
]
