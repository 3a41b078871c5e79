"""Coordinator-side evaluation of the suffix operators.

The distributed planner peels global operators (aggregation, sort,
limit...) off the per-shard fragment; after the gather, someone has to
apply them to the assembled stream.  Routing the stream back through a
full engine would work but double-charges scans; instead this module
applies each suffix operator directly, using the *same arithmetic* as
the pipeline breakers in :mod:`repro.pushexec.compiler`:

* sort and distinct run the bodies of :mod:`repro.relational.operators`;
* aggregates accumulate through the same batch kernels
  (:mod:`repro.relational.kernels`) in input order (float accumulation
  is order-sensitive -- this is where byte identity is won or lost);
* GroupBy emits ``sorted(groups.items())``;
* hash joins build left-to-right with ``setdefault`` and emit in probe
  order (``lrow + rrow``), matching the in-memory join path;
* every operator charges the host CPU with the compiled breaker's
  tuple counts and factors.

All evaluators are coroutines bound to an
:class:`~repro.pushexec.compiler.ExecContext`, so the virtual-time
cost lands on whichever host runs the merge (the coordinator for
suffixes, the owning shard for shuffle-stage grouping).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.pushexec.compiler import ExecContext
from repro.relational.kernels import (
    AggKernel,
    filter_kernel,
    join_keys,
    probe,
    project_kernel,
    split_groups,
)
from repro.relational.operators import distinct, sort_rows
from repro.relational.plans import (
    Aggregate,
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Sort,
)
from repro.relational.schema import Schema


def group_rows(
    plan: GroupBy,
    rows: Sequence[tuple],
    schema: Schema,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: the reference GroupBy over an in-memory row stream."""
    kernel = AggKernel(plan.aggs, schema, plan.group_cols)
    yield from ctx.cpu(len(rows) * max(1, len(kernel.specs)))
    groups: Dict[tuple, list] = {}
    kernel.update_groups(groups, rows)
    return kernel.group_results(groups)


def hash_join_rows(
    plan: HashJoin,
    lrows: Sequence[tuple],
    rrows: Sequence[tuple],
    lschema: Schema,
    rschema: Schema,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: the reference in-memory hash join over row streams.

    Build order is *lrows* order, probe order is *rrows* order --
    callers must assemble both in global (shard-order) sequence for the
    output to match the single-host join byte for byte.
    """
    yield from ctx.cpu(len(lrows))
    table = split_groups(join_keys(plan.left_key, lschema)(lrows), lrows)
    yield from ctx.cpu(len(rrows))
    return probe(table, join_keys(plan.right_key, rschema)(rrows), rrows)


def _apply_one(
    op: PlanNode, rows: List[tuple], catalog, ctx: ExecContext
) -> Generator:
    schema = op.children[0].output_schema(catalog)
    if isinstance(op, Filter):
        yield from ctx.cpu(len(rows))
        return filter_kernel(op.predicate, schema)(rows)
    if isinstance(op, Project):
        yield from ctx.cpu(len(rows))
        return project_kernel(op.names, op.exprs, schema)(rows)
    if isinstance(op, Sort):
        out = list(rows)
        yield from sort_rows(
            out, schema.projector(op.keys), op.descending, ctx.cpu,
            ctx.host.config.sort_cpu_factor,
        )
        return out
    if isinstance(op, Aggregate):
        kernel = AggKernel(op.aggs, schema)
        states = kernel.new_states()
        yield from ctx.cpu(len(rows) * len(states))
        kernel.update(states, rows)
        return [kernel.result(states)]
    if isinstance(op, GroupBy):
        out = yield from group_rows(op, rows, schema, ctx)
        return out
    if isinstance(op, Limit):
        return list(rows[op.offset:op.offset + op.count])
    if isinstance(op, Distinct):
        yield from ctx.cpu(len(rows))
        return distinct(set(), rows)
    raise TypeError(f"no merge evaluator for {type(op).__name__}")


def apply_suffix(
    suffix: Sequence[PlanNode],
    rows: List[tuple],
    catalog,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: apply the peeled operators (bottom-up order) to the
    assembled stream, charging *ctx*'s host for the work."""
    for op in suffix:
        rows = yield from _apply_one(op, rows, catalog, ctx)
    return rows
