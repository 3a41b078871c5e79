"""Batch kernels: the one implementation of per-row work for every engine.

The packet engine's µEngines, the OSP circular scan, the push
pipelines, query folding and the shard merges all
filter, project and aggregate row batches.  They differ only in *when*
they run a batch (DESIGN.md section 12); the batch work itself comes
from here:

* **scan / filter / project kernels** -- an expression tree rendered as
  one Python expression and compiled into a whole-batch list
  comprehension (``rows -> [out for row in rows if test]``), so a page
  is filtered and projected in a single frame instead of one closure
  call per tree node per row;
* **aggregate updaters** -- one ``update(state, batch)`` per aggregate
  that folds a whole batch into an :class:`AggState` with C-level
  ``sum``/``min``/``max`` over ``map``;
* **the group split** -- a batch partitioned by group key, each key's
  rows in encounter order, so every group's states see the exact value
  sequence a per-row loop would feed them; the same split is a hash
  join's build step, next to the batch ``probe`` and grace
  ``partition``.

Equivalence contract: every kernel returns what the per-row reference
returns, value for value and bit for bit -- ``Expr.bind`` closures for
expressions, ``AggState.add`` for aggregates (tests/test_kernels.py).
``Expr.bind`` remains the fallback for an expression node the renderer
cannot emit; ``AggState.add`` remains the reference the updaters are
tested against.  Kernels never charge the simulated CPU: callers charge
from ``len(batch)`` before calling them, so virtual time cannot depend
on how a batch is computed.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add, itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.relational.expressions import (
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
from repro.relational.schema import Schema

__all__ = [
    "AggKernel",
    "batch_updater",
    "filter_kernel",
    "join_key",
    "join_keys",
    "partition",
    "probe",
    "project_kernel",
    "row_fn",
    "scan_kernel",
    "split_groups",
]

RowsFn = Callable[[list], list]


# ---------------------------------------------------------------------------
# Source rendering: expression trees compiled to flat Python code
# ---------------------------------------------------------------------------
# ``Expr.bind`` produces one closure per tree node, so evaluating the
# q6 predicate costs ~5 Python frames per row.  The generators below
# instead render the tree as a single Python expression string (column
# refs become ``row[i]`` tuple indexing, constants become names bound in
# the eval namespace) and ``eval`` it into ONE closure -- or, better,
# straight into a whole-batch list comprehension, so a scan filters a
# page in a single frame.  Because constants are never spelled in the
# source, every instance of a query template (q6 with any dates and
# discounts) shares one source string and one compiled code object.
#
# Value-for-value parity with ``bind`` is load-bearing (the property
# tests compare row for row): comparisons/arith map to the same Python
# operators ``_CMP_OPS``/``_ARITH_OPS`` name; ``and``/``or`` chains get a
# ``bool()`` wrapper only in *value* position (bind always returns bool
# there) and run bare in ``if`` position, where only truthiness matters;
# Between/Like/If mirror their bind closures shape for shape.  Constants
# travel by reference, so even values with no literal spelling (NaN,
# infinities, rich objects, IN-list sets) evaluate exactly as in bind.


class _Unsupported(Exception):
    """Raised when a tree has no flat-source rendering; callers fall
    back to the bound-closure path."""


def _const_src(value: Any, env: dict) -> str:
    name = f"_c{len(env)}"
    env[name] = value
    return name


def _expr_src(expr: Expr, schema: Schema, env: dict, cond: bool) -> str:
    """Render *expr* as a Python expression over the free variable
    ``row``.  ``cond`` marks boolean (``if``) position, where bind's
    ``bool()`` normalisation of and/or chains can be elided."""
    if isinstance(expr, Col):
        return f"row[{schema.index_of(expr.name)}]"
    if isinstance(expr, Const):
        return _const_src(expr.value, env)
    if isinstance(expr, (Cmp, Arith)):
        left = _expr_src(expr.left, schema, env, False)
        right = _expr_src(expr.right, schema, env, False)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, (And, Or)):
        joiner = " and " if isinstance(expr, And) else " or "
        inner = joiner.join(
            _expr_src(t, schema, env, cond) for t in expr.terms
        )
        if cond and len(expr.terms) > 1:
            return f"({inner})"
        return f"bool({inner})"
    if isinstance(expr, Not):
        return f"(not {_expr_src(expr.term, schema, env, True)})"
    if isinstance(expr, Between):
        lo = _const_src(expr.lo, env)
        hi = _const_src(expr.hi, env)
        mid = _expr_src(expr.expr, schema, env, False)
        return f"({lo} <= {mid} <= {hi})"
    if isinstance(expr, InList):
        value = _expr_src(expr.expr, schema, env, False)
        return f"({value} in {_const_src(expr.values, env)})"
    if isinstance(expr, Like):
        value = _expr_src(expr.expr, schema, env, False)
        pattern = expr.pattern
        if (
            pattern.startswith("%")
            and pattern.endswith("%")
            and len(pattern) > 1
        ):
            return f"({_const_src(pattern[1:-1], env)} in {value})"
        if pattern.endswith("%"):
            return f"{value}.startswith({_const_src(pattern[:-1], env)})"
        if pattern.startswith("%"):
            return f"{value}.endswith({_const_src(pattern[1:], env)})"
        return f"({value} == {_const_src(pattern, env)})"
    if isinstance(expr, If):
        then = _expr_src(expr.then, schema, env, False)
        test = _expr_src(expr.cond, schema, env, True)
        other = _expr_src(expr.otherwise, schema, env, False)
        return f"({then} if {test} else {other})"
    raise _Unsupported(type(expr).__name__)


def _tuple_src(parts: Sequence[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


#: Source -> code object, the one generated-code memo of every engine.
#: The same few sources recur on every cell of a figure grid, so code
#: objects are cached process-wide; each ``eval`` still binds a fresh
#: ``env``, so per-plan constants stay per-closure.
_code_cache: dict = {}


def _evaluate(src: str, env: dict):
    code = _code_cache.get(src)
    if code is None:
        # Designated impurity: a deterministic memo -- the cached code
        # object is a pure function of `src`, so cell results cannot
        # depend on whether the cache was warm.
        code = _code_cache[src] = compile(src, "<fused>", "eval")  # simlint: disable=IPR201
    return eval(code, env)


# ---------------------------------------------------------------------------
# Kernels (each falls back to ``Expr.bind`` for an unrenderable node)
# ---------------------------------------------------------------------------
def row_fn(expr: Expr, schema: Schema):
    """``row -> value`` for per-row sites (aggregate inputs, write
    predicates, SET expressions)."""
    env: dict = {}
    try:
        src = _expr_src(expr, schema, env, False)
    except _Unsupported:
        return expr.bind(schema)
    return _evaluate(f"lambda row: {src}", env)


def scan_kernel(
    predicate: Optional[Expr],
    project: Optional[Sequence[str]],
    schema: Schema,
) -> Optional[RowsFn]:
    """``rows -> [projected row for row in rows if predicate]`` -- a
    scan's post-processing; None when there is neither to apply."""
    if predicate is None and project is None:
        return None
    env: dict = {}
    out = "row"
    if project is not None:
        out = _tuple_src([f"row[{schema.index_of(n)}]" for n in project])
    test = ""
    if predicate is not None:
        try:
            test = f" if {_expr_src(predicate, schema, env, True)}"
        except _Unsupported:
            pred = predicate.bind(schema)
            if project is None:
                return lambda rows: [row for row in rows if pred(row)]
            proj = schema.projector(project)
            return lambda rows: [proj(row) for row in rows if pred(row)]
    return _evaluate(f"lambda rows: [{out} for row in rows{test}]", env)


def filter_kernel(predicate: Expr, schema: Schema) -> RowsFn:
    """``rows -> surviving rows`` in input order."""
    return scan_kernel(predicate, None, schema)


def project_kernel(
    names: Sequence[str],
    exprs: Optional[Sequence[Expr]],
    schema: Schema,
) -> RowsFn:
    """``rows -> projected rows``: the columns *names*, or the computed
    *exprs* when given (a Project node's two shapes)."""
    if exprs is None:
        return scan_kernel(None, names, schema)
    env: dict = {}
    try:
        parts = [_expr_src(e, schema, env, False) for e in exprs]
    except _Unsupported:
        fns = tuple(e.bind(schema) for e in exprs)
        return lambda rows: [tuple(f(row) for f in fns) for row in rows]
    return _evaluate(f"lambda rows: [{_tuple_src(parts)} for row in rows]", env)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
if sys.version_info >= (3, 12):
    # 3.12's sum() compensates float rounding (Neumaier), so it is no
    # longer the ``total += value`` left fold AggState.add performs.
    def _fold(values, start):
        return reduce(add, values, start)
else:
    _fold = sum


def batch_updater(spec, schema: Schema):
    """``update(state, batch)`` for one aggregate, equal bit for bit to
    running ``state.add(fn(row))`` over the batch.

    The input is an ``operator.itemgetter`` for a plain column (same
    value, C speed under ``map``), else one generated closure (the bound
    tree's operators in the same order, so identical values).  count is
    integer arithmetic.  sum/avg are the same left fold ``total +=
    value`` (``sum(it, start)`` is exactly that fold before Python 3.12,
    ``reduce(add, ...)`` on later versions), so running totals round
    identically.  min/max fold the batch *onto* the current best
    (``min(best, *values)``): ``min``/``max`` replace their running
    value only on a strict ``<``/``>``, the per-row compare, so ties
    keep the first extremum and an incomparable NaN is kept or skipped
    exactly as the per-row loop would.  Only the dispatch moves from
    per-row Python to per-batch C.
    """
    if spec.func == "count":
        def update(state, batch):
            state.count += len(batch)
        return update
    if type(spec.expr) is Col:
        fn = itemgetter(schema.index_of(spec.expr.name))
    else:
        fn = row_fn(spec.expr, schema)
    if spec.func in ("sum", "avg"):
        def update(state, batch):
            state.count += len(batch)
            state.total = _fold(map(fn, batch), state.total)
        return update
    pick = min if spec.func == "min" else max

    def update(state, batch):
        state.count += len(batch)
        if state.best is None:
            state.best = pick(map(fn, batch), default=None)
        elif batch:
            state.best = pick(state.best, *map(fn, batch))
    return update


def split_groups(
    keys: Sequence, rows: Sequence[tuple], groups: Optional[dict] = None
) -> dict:
    """Append each of *rows* to its key's list in *groups* (a new dict
    by default) and return it; each key's rows stay in encounter order.
    This is also a hash join's build step."""
    if groups is None:
        groups = {}
    for key, row in zip(keys, rows):
        members = groups.get(key)
        if members is None:
            groups[key] = [row]
        else:
            members.append(row)
    return groups


def join_key(col: str, schema: Schema) -> Callable[[tuple], Any]:
    """``row -> row[col]``: a bare join-key value.  Join keys only group
    and compare, where a scalar behaves exactly like the 1-tuple
    ``schema.projector`` gives, at C speed."""
    return itemgetter(schema.index_of(col))


def join_keys(col: str, schema: Schema) -> RowsFn:
    """``rows -> [row[col] ...]``: :func:`join_key` over a batch."""
    get = join_key(col, schema)
    return lambda rows: list(map(get, rows))


def probe(table: dict, keys: Sequence, rows: Sequence[tuple]) -> list:
    """Hash-join probe: ``match + row`` for each of *rows* in order and
    each of its key's build-side *table* matches in build order."""
    get = table.get
    return [
        match + row for key, row in zip(keys, rows) for match in get(key, ())
    ]


def partition(keys: Sequence, rows: Sequence[tuple], nparts: int) -> list:
    """Grace-join fan-out of *rows* (with their :func:`join_keys`) into
    ``nparts`` lists, each in input order.  Fan-out decides temp-file
    page counts, so it is simulated behaviour: rows go by the hash of
    the 1-tuple key, ``hash((key,)) % nparts``, as they always have."""
    buckets: List[list] = [[] for _ in range(nparts)]
    for key, row in zip(keys, rows):
        buckets[hash((key,)) % nparts].append(row)
    return buckets


class AggKernel:
    """Aggregates (optionally grouped) over one input schema, folded a
    batch at a time.

    ``update`` folds a batch into one state list (single aggregate);
    ``update_groups`` splits a batch by group key and folds each part
    into its group's states, creating groups on first sight.
    """

    __slots__ = ("specs", "updaters", "keys")

    def __init__(self, aggs, schema: Schema, group_cols=None):
        self.specs = list(aggs)
        self.updaters = [batch_updater(spec, schema) for spec in self.specs]
        self.keys = (
            None if group_cols is None
            else project_kernel(group_cols, None, schema)
        )

    def new_states(self) -> list:
        return [spec.make_state() for spec in self.specs]

    def update(self, states: list, batch: list) -> None:
        for state, update in zip(states, self.updaters):
            update(state, batch)

    def update_groups(self, groups: Dict[tuple, list], batch: list) -> None:
        updaters = self.updaters
        for key, rows in split_groups(self.keys(batch), batch).items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = self.new_states()
            for state, update in zip(states, updaters):
                update(state, rows)

    @staticmethod
    def result(states: list) -> tuple:
        return tuple(state.result() for state in states)

    @staticmethod
    def group_results(groups: Dict[tuple, list]) -> List[tuple]:
        """One output row per group, in key order."""
        return [
            key + tuple(state.result() for state in states)
            for key, states in sorted(groups.items())
        ]
