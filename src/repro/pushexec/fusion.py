"""Streaming operator chains compiled to push-based stage closures.

A run of streaming operators between two pipeline breakers -- filter ->
project -> limit -> distinct, plus the probe side of semi/anti/outer
joins -- becomes a list of *stages*.  Each stage is a pair of pure
functions over a row batch:

* ``cost(batch)``  -- the tuple count the operator charges the simulated
  CPU for the batch (0 where it charges nothing, e.g. LIMIT), and
* ``apply(batch)`` -- the batch transformation itself.

The push driver in :mod:`repro.pushexec.compiler` interleaves the two,
so the simulated schedule is *independent* of how ``apply`` is built.
That independence is what lets the planner's cost rule pick between two
compilation modes per pipeline without ever perturbing a figure:

* **fused** (``fuse=True``): predicates and projections run as the
  shared whole-batch kernels of :mod:`repro.relational.kernels` -- the
  hot path, and the same code every other engine runs.
* **interpreted** (``fuse=False``): the reference semantics, walking the
  expression tree per row with no pre-binding -- cheaper to set up, and
  what the property tests compare the fused mode against row for row
  under varying batch boundaries.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.relational.expressions import (
    _ARITH_OPS,
    _CMP_OPS,
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
)
# ``_code_cache`` is re-exported: clearing ``fusion._code_cache`` must
# empty the one generated-code memo every engine shares.
from repro.relational.kernels import (  # noqa: F401
    _code_cache,
    filter_kernel,
    project_kernel,
)
from repro.relational.operators import distinct
from repro.relational.plans import Distinct, Filter, Limit, PlanNode, Project
from repro.relational.schema import Column, Schema

__all__ = [
    "Stage",
    "FilterStage",
    "ProjectStage",
    "LimitStage",
    "DistinctStage",
    "ProbeStage",
    "eval_expr",
    "build_stage",
    "compile_chain",
    "chain_output_schema",
    "push_batches",
]


# ---------------------------------------------------------------------------
# Interpreted expression evaluation (the unfused reference)
# ---------------------------------------------------------------------------
def eval_expr(expr: Expr, row: tuple, schema: Schema) -> Any:
    """Evaluate *expr* on *row* by walking the tree -- no pre-binding.

    This is the semantic reference the fused closures are differential-
    tested against; it deliberately re-resolves column indices and
    operator functions on every call.
    """
    if isinstance(expr, Col):
        return row[schema.index_of(expr.name)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Cmp):
        fn = _CMP_OPS[expr.op]
        return fn(
            eval_expr(expr.left, row, schema),
            eval_expr(expr.right, row, schema),
        )
    if isinstance(expr, Arith):
        fn = _ARITH_OPS[expr.op]
        return fn(
            eval_expr(expr.left, row, schema),
            eval_expr(expr.right, row, schema),
        )
    if isinstance(expr, And):
        return all(bool(eval_expr(t, row, schema)) for t in expr.terms)
    if isinstance(expr, Or):
        return any(bool(eval_expr(t, row, schema)) for t in expr.terms)
    if isinstance(expr, Not):
        return not eval_expr(expr.term, row, schema)
    if isinstance(expr, Between):
        return expr.lo <= eval_expr(expr.expr, row, schema) <= expr.hi
    if isinstance(expr, InList):
        return eval_expr(expr.expr, row, schema) in expr.values
    if isinstance(expr, Like):
        value = eval_expr(expr.expr, row, schema)
        pattern = expr.pattern
        if pattern.startswith("%") and pattern.endswith("%") and len(pattern) > 1:
            return pattern[1:-1] in value
        if pattern.endswith("%"):
            return value.startswith(pattern[:-1])
        if pattern.startswith("%"):
            return value.endswith(pattern[1:])
        return value == pattern
    if isinstance(expr, If):
        if eval_expr(expr.cond, row, schema):
            return eval_expr(expr.then, row, schema)
        return eval_expr(expr.otherwise, row, schema)
    raise TypeError(f"cannot interpret expression {expr!r}")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
class Stage:
    """One streaming operator compiled into the chain.

    ``cost`` is the operator's CPU charge for the batch; ``apply`` transforms the batch and may return ``[]``.
    ``finished`` turns True only for LIMIT once its quota is emitted,
    telling the driver to stop pulling the source.
    """

    __slots__ = ()

    finished = False

    def cost(self, batch: list) -> int:
        return len(batch)

    def apply(self, batch: list) -> list:
        raise NotImplementedError


class FilterStage(Stage):
    """Row selection; charges one tuple per input row."""

    __slots__ = ("batch_fn",)

    def __init__(self, predicate: Expr, schema: Schema, fuse: bool):
        if fuse:
            self.batch_fn = filter_kernel(predicate, schema)
        else:
            self.batch_fn = lambda rows: [
                row for row in rows if eval_expr(predicate, row, schema)
            ]

    def apply(self, batch):
        return self.batch_fn(batch)


class ProjectStage(Stage):
    """Column selection / computed expressions; charges one tuple per
    input row."""

    __slots__ = ("batch_fn",)

    def __init__(
        self,
        names: Sequence[str],
        exprs: Optional[Sequence[Expr]],
        schema: Schema,
        fuse: bool,
    ):
        if fuse:
            self.batch_fn = project_kernel(names, exprs, schema)
        elif exprs is None:
            self.batch_fn = lambda rows: [
                tuple(row[schema.index_of(n)] for n in names) for row in rows
            ]
        else:
            self.batch_fn = lambda rows: [
                tuple(eval_expr(e, row, schema) for e in exprs)
                for row in rows
            ]

    def apply(self, batch):
        return self.batch_fn(batch)


class LimitStage(Stage):
    """OFFSET/LIMIT; charges nothing."""

    __slots__ = ("skip", "remaining")

    def __init__(self, count: int, offset: int):
        self.skip = offset
        self.remaining = count

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def cost(self, batch):
        return 0

    def apply(self, batch):
        if self.skip:
            if self.skip >= len(batch):
                self.skip -= len(batch)
                return []
            batch = batch[self.skip:]
            self.skip = 0
        if len(batch) > self.remaining:
            batch = batch[: self.remaining]
        self.remaining -= len(batch)
        return batch


class DistinctStage(Stage):
    """Streaming duplicate elimination, first occurrence wins."""

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = set()

    def apply(self, batch):
        return distinct(self.seen, batch)


class ProbeStage(Stage):
    """Probe half of a semi/anti or left-outer join, fused into the left
    pipeline: ``probe(build, keys(batch), batch)``.  ``build`` (the
    right side's key set or rows by key) is filled by a build prelude
    (compiler) before the first batch arrives."""

    __slots__ = ("build", "keys", "probe")

    def __init__(self, keys, probe):
        self.build = None
        self.keys = keys
        self.probe = probe

    def apply(self, batch):
        return self.probe(self.build, self.keys(batch), batch)


# ---------------------------------------------------------------------------
# Chain compilation
# ---------------------------------------------------------------------------
def _out_schema(op: PlanNode, schema: Schema) -> Schema:
    """Output schema of one streaming *op* given its input *schema*.

    Mirrors ``PlanNode.output_schema`` without needing a catalog (the
    chain already knows its input layout)."""
    if isinstance(op, Project):
        if op.exprs is None:
            return schema.project(op.names)
        return Schema(Column(name, "float") for name in op.names)
    return schema


def build_stage(op: PlanNode, schema: Schema, fuse: bool = True) -> Stage:
    """Compile one streaming plan node into a :class:`Stage`."""
    if isinstance(op, Filter):
        return FilterStage(op.predicate, schema, fuse)
    if isinstance(op, Project):
        return ProjectStage(op.names, op.exprs, schema, fuse)
    if isinstance(op, Limit):
        return LimitStage(op.count, op.offset)
    if isinstance(op, Distinct):
        return DistinctStage()
    raise TypeError(f"{type(op).__name__} is not a streaming operator")


def compile_chain(
    ops: Sequence[PlanNode], schema: Schema, fuse: bool = True
) -> List[Stage]:
    """Compile a run of streaming operators into stages, threading the
    schema through projections."""
    stages = []
    for op in ops:
        stages.append(build_stage(op, schema, fuse))
        schema = _out_schema(op, schema)
    return stages


def chain_output_schema(ops: Sequence[PlanNode], schema: Schema) -> Schema:
    for op in ops:
        schema = _out_schema(op, schema)
    return schema


def push_batches(stages: Sequence[Stage], batches: Iterable[list]) -> list:
    """Drive *batches* through *stages* outside the simulator.

    The sim-free counterpart of the compiler's fused driver loop, used by
    the property tests to compare fused and interpreted chains under
    different batch boundaries."""
    out: list = []
    for batch in batches:
        rows = list(batch)
        for stage in stages:
            rows = stage.apply(rows)
            if not rows:
                break
        out.extend(rows)
        if any(stage.finished for stage in stages):
            break
    return out
