"""Vectorized (batch-at-a-time) evaluation over arena columns.

The third engine: where :mod:`repro.engine.physical` materializes rows
operator-by-operator and :mod:`repro.engine.pipeline` streams them
tuple-at-a-time through generators, this engine moves whole
:class:`~repro.engine.batch.Batch` objects — flat parallel columns with
``Tup`` materialization deferred to the operators that genuinely need
rows.  The wins, MonetDB/X100 style, come from three columnar fast
paths over the PR 3 arena:

- **scans**: an Υ over ``$d/child//tag`` paths resolves to the arena's
  per-tag pre lists (``tag_rows`` / ``descendants_by_tag``) — one bisect
  per context node instead of one generator hop plus ``Tup`` copy per
  output row;
- **selections**: a σ whose predicate is built from comparisons over
  attributes, constants and short child/descendant paths is compiled
  into a selection-vector pass — atomized value columns extracted once,
  compared in a tight loop (numpy when available and enabled, pure
  python otherwise);
- **order-by**: an :class:`~repro.nal.unary_ops.ElidedSort` whose PR 5
  sortedness certificate holds passes the *entire batch* through
  untouched — not even a row materialization.

Everything else falls back to the row algorithms *shared with the
physical engine* (``join_rows``, ``group_unary_rows``, …), so the two
engines cannot diverge on the hard semantics (NULL join keys, boolean
coercion, mixed-type sort keys); property-based tests assert
``run_vectorized`` ≡ physical ≡ pipelined ≡ reference regardless.

Invariants: batches are immutable (operators derive new ones, see
:mod:`repro.engine.batch`); selection vectors are scratch state owned by
a single operator invocation, drawn from the request-scoped
:class:`~repro.engine.batch.BatchBuffers` pool on the context; nested
subscript plans (quantifiers, :class:`~repro.nal.scalar.NestedPlan`)
are charged to their host operator.  In a σ predicate they go through
the pipelined engine's :func:`~repro.engine.pipeline.boolean_subscript`,
which stops at the first witness (nested plans holding a Ξ still run to
completion); in value positions they evaluate through the reference
semantics exactly as in the physical engine.
"""

from __future__ import annotations

import time

from repro.engine.batch import (
    Batch,
    BroadcastColumn,
    _PY_OPS,
    compare_columns,
    selection_vector,
)
from repro.engine.physical import (
    ROOT_PATH,
    distinct_rows,
    group_unary_rows,
    group_binary_rows,
    join_rows,
    outer_join_rows,
    self_group_rows,
    semi_anti_rows,
)
from repro.engine.pipeline import boolean_subscript
from repro.errors import EvaluationError
from repro.nal.algebra import Operator, bind_item, scalar_env
from repro.nal.construct import Construct, GroupConstruct
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.functions import call_function
from repro.nal.scalar import (
    And,
    AttrRef,
    Comparison,
    Const,
    DocAccess,
    FuncCall,
    Not,
    Or,
    PartitionedPath,
    PathApply,
    iter_path_items,
)
from repro.nal.unary_ops import (
    DistinctProject,
    ElidedSort,
    IndexScan,
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Singleton,
    Sort,
    Table,
    Unnest,
    UnnestMap,
)
from repro.nal.values import (
    EMPTY_TUPLE,
    NULL,
    Tup,
    effective_boolean,
    iter_items,
)
from repro.xmldb.node import Node, NodeKind, NodeSequence
from repro.xpath.ast import NameTest, Path


def run_vectorized(plan: Operator, ctx, env: Tup = EMPTY_TUPLE,
                   path: tuple[int, ...] = ROOT_PATH) -> list[Tup]:
    """Evaluate ``plan`` batch-at-a-time; returns materialized rows.

    Mirrors :func:`~repro.engine.physical.run_physical`: the same
    EXPLAIN ANALYZE recording keyed by tree position, the same
    per-operator spans and ``operator.*`` metrics — plus
    ``vectorized.<Operator>.batches`` counters and
    ``vectorized.<Operator>.rows_per_batch`` histograms, so a trace of
    a vectorized run stays honest about its unit of work.
    """
    return _run(plan, ctx, env, path).to_rows()


def _run(plan: Operator, ctx, env: Tup, path) -> Batch:
    handler = _DISPATCH.get(type(plan))
    if handler is None:
        raise EvaluationError(
            f"no vectorized implementation for {type(plan).__name__}")
    if ctx.deadline is not None:
        ctx.check_deadline()
    if ctx.tracer is None and ctx.metrics is None:
        batch = handler(plan, ctx, env, path)
    else:
        batch = _observed(handler, plan, ctx, env, path)
    counts = ctx.analyze_counts
    if counts is not None:
        calls, total = counts.get(path, (0, 0))
        counts[path] = (calls + 1, total + len(batch))
    return batch


def _observed(handler, plan: Operator, ctx, env: Tup, path) -> Batch:
    tracer, metrics = ctx.tracer, ctx.metrics
    span = None if tracer is None else \
        tracer.begin(plan.label(), "operator", path=list(path))
    start = time.perf_counter()
    batch = handler(plan, ctx, env, path)
    elapsed = time.perf_counter() - start
    if span is not None:
        span.finish()
    if metrics is not None:
        name = type(plan).__name__
        metrics.counter(f"operator.{name}.invocations").inc()
        metrics.counter(f"operator.{name}.rows_out").inc(len(batch))
        metrics.histogram(f"operator.{name}.seconds").observe(elapsed)
        metrics.counter(f"vectorized.{name}.batches").inc()
        metrics.histogram(f"vectorized.{name}.rows_per_batch") \
            .observe(len(batch))
    return batch


def _child(plan: Operator, i: int, ctx, env: Tup, path) -> Batch:
    return _run(plan.children[i], ctx, env, path + (i,))


def _child_rows(plan: Operator, i: int, ctx, env: Tup, path) -> list[Tup]:
    return _child(plan, i, ctx, env, path).to_rows()


# ----------------------------------------------------------------------
# Columnar path application (the arena scan kernel)
# ----------------------------------------------------------------------
def _compile_steps(path: Path) -> list[tuple[str, str]] | None:
    """``path`` as ``(axis, name)`` pairs, or None when it needs the
    full XPath evaluator (predicates, ``*``/``text()``, attribute or
    self axes, absolute paths)."""
    if path.absolute:
        return None
    steps: list[tuple[str, str]] = []
    for step in path.steps:
        if step.predicates or not isinstance(step.test, NameTest) \
                or step.axis not in ("child", "descendant"):
            return None
        steps.append((step.axis, step.test.name))
    return steps


def _apply_steps(node: Node, steps: list[tuple[str, str]]
                 ) -> list[int] | None:
    """The pre rows ``steps`` select from ``node``, in document order
    and duplicate-free, or None when the walk cannot guarantee that
    cheaply (nested tags mid-path) and must fall back.

    Soundness argument: the row set is kept an *antichain* (pairwise
    disjoint subtrees) in document order.  A ``child`` step from an
    antichain yields an antichain in document order; a ``descendant``
    step yields a sorted duplicate-free list always, but an antichain
    only when the tag is flat (``tag_is_flat``) — so a further step
    after a non-flat descendant step bails out.
    """
    arena = node.arena
    if arena is None:
        return None
    start = 0
    # The doc("x.xml")/root convenience: a leading child step naming
    # the document root collapses to self (see PathApply).
    if steps and steps[0][0] == "child" and node.parent is None \
            and steps[0][1] == node.name:
        start = 1
    rows = [node.pre]
    antichain = True
    for axis, name in steps[start:]:
        if not antichain:
            return None
        if axis == "descendant":
            if len(rows) == 1:
                rows = arena.descendants_by_tag(rows[0], name)
            else:
                hits: list[int] = []
                for r in rows:
                    hits.extend(arena.descendants_by_tag(r, name))
                rows = hits
            antichain = arena.tag_is_flat(name)
        else:
            name_id = arena._name_to_id.get(name)
            if name_id is None:
                return []
            name_ids, kinds = arena.name_ids, arena.kinds
            child_lists = arena.child_lists
            element = NodeKind.ELEMENT
            hits = []
            for r in rows:
                for c in child_lists[r]:
                    c_pre = c.pre
                    if name_ids[c_pre] == name_id \
                            and kinds[c_pre] is element:
                        hits.append(c_pre)
            rows = hits
    return rows


def _source_values(source, batch: Batch, env: Tup, ctx) -> list | None:
    """Per-row values of a path source (attribute column, outer-binding
    constant, or document root), or None when not columnar."""
    if isinstance(source, AttrRef):
        if source.name in batch.attrs:
            return batch.column(source.name)
        if source.name in env.attrs():
            return BroadcastColumn([env[source.name]] * len(batch))
        return None
    if isinstance(source, DocAccess):
        return BroadcastColumn(
            [ctx.store.get(source.name).root] * len(batch))
    return None


# ----------------------------------------------------------------------
# Scalar-expression compilation → value columns
# ----------------------------------------------------------------------
def _expr_column(expr, batch: Batch, env: Tup, ctx) -> list | None:
    """``expr`` as a raw-value column over the batch (one entry per
    row, exactly what ``expr.evaluate`` would return for that row), or
    None when the expression needs the scalar interpreter (nested
    plans, quantifiers, ``In``, unknown shapes)."""
    if isinstance(expr, Const):
        return BroadcastColumn([expr.value] * len(batch))
    if isinstance(expr, AttrRef):
        return _source_values(expr, batch, env, ctx)
    if isinstance(expr, PathApply):
        steps = _compile_steps(expr.path)
        if steps is None:
            return None
        sources = _source_values(expr.source, batch, env, ctx)
        if sources is None:
            return None
        column: list = []
        for value in sources:
            if isinstance(value, Node):
                rows = _apply_steps(value, steps)
                if rows is None:
                    return None
                handles = value.arena.nodes
                column.append(NodeSequence(handles[r] for r in rows))
            elif value is NULL:
                column.append(NodeSequence())
            else:
                return None
        return column
    if isinstance(expr, FuncCall):
        columns = []
        for arg in expr.args:
            column = _expr_column(arg, batch, env, ctx)
            if column is None:
                return None
            columns.append(column)
        name = expr.name
        if not columns:
            return [call_function(name, []) for _ in range(len(batch))]
        return [call_function(name, list(values))
                for values in zip(*columns)]
    return None


def _predicate_mask(pred, batch: Batch, env: Tup, ctx
                    ) -> list[bool] | None:
    """``pred`` as a boolean mask over the batch (one vectorized pass
    per comparison), or None when the predicate needs the row-at-a-time
    interpreter (quantifiers, nested plans, function calls...)."""
    if isinstance(pred, Const):
        return [effective_boolean(pred.value)] * len(batch)
    if isinstance(pred, And) or isinstance(pred, Or):
        masks = []
        for term in pred.terms:
            mask = _predicate_mask(term, batch, env, ctx)
            if mask is None:
                return None
            masks.append(mask)
        if isinstance(pred, And):
            return [all(row) for row in zip(*masks)] if masks \
                else [True] * len(batch)
        return [any(row) for row in zip(*masks)] if masks \
            else [False] * len(batch)
    if isinstance(pred, Not):
        mask = _predicate_mask(pred.term, batch, env, ctx)
        return None if mask is None else [not m for m in mask]
    if isinstance(pred, Comparison):
        left = _expr_column(pred.left, batch, env, ctx)
        if left is None:
            return None
        right = _expr_column(pred.right, batch, env, ctx)
        if right is None:
            return None
        return compare_columns(left, pred.op, right)
    return None


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
def _singleton(plan: Singleton, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows([EMPTY_TUPLE])


def _table(plan: Table, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(list(plan.rows))


def _index_scan(plan: IndexScan, ctx, env: Tup, path) -> Batch:
    nodes = list(ctx.store.indexes.probe(plan.probe, ctx.stats))
    return Batch.from_columns({plan.attr: nodes}, len(nodes))


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------
def _fusible_select_map(plan: Select, ctx):
    """Shape check for the fused select-over-map pass: recognize
    ``σ[attr op const](χ[attr:zero-or-one(src/path)](E))`` — the shape
    the normalizer produces for every simple ``where`` clause — and
    return the compiled ``(steps, source, op, const)``, or None.

    Fusion is disabled whenever observation is on (EXPLAIN ANALYZE,
    tracing, metrics), because it would hide the χ operator's
    per-operator record.
    """
    if ctx.analyze_counts is not None or ctx.tracer is not None \
            or ctx.metrics is not None:
        return None
    mapop = plan.children[0]
    expr = mapop.expr
    if not (isinstance(expr, FuncCall) and expr.name == "zero-or-one"
            and len(expr.args) == 1
            and isinstance(expr.args[0], PathApply)):
        return None
    pred = plan.pred
    if not isinstance(pred, Comparison):
        return None
    attr = mapop.attr
    if isinstance(pred.left, AttrRef) and pred.left.name == attr \
            and isinstance(pred.right, Const):
        op, const = pred.op, pred.right.value
    elif isinstance(pred.right, AttrRef) and pred.right.name == attr \
            and isinstance(pred.left, Const):
        op, const = _FLIP_OP[pred.op], pred.left.value
    else:
        return None
    if isinstance(const, bool) or not isinstance(const, (int, float)):
        return None
    if isinstance(const, int) and abs(const) > 2 ** 53:
        return None
    steps = _compile_steps(expr.args[0].path)
    if steps is None:
        return None
    return steps, expr.args[0].source, op, const


def _fused_select_map(plan: Select, fusion, batch: Batch, env: Tup,
                      ctx) -> Batch | None:
    """The fused pass over the already-computed child-of-χ batch:
    compute the comparison straight off arena string values and
    materialize the χ column *only for surviving rows*.

    Semantics-preserving by construction: the materialized column holds
    exactly what ``zero-or-one`` returns (the single node, or NULL), the
    numeric mask matches ``compare_columns`` (missing → False, same
    float conversion), and every shape the fast loop cannot reproduce
    bit-for-bit — multi-item path results (where zero-or-one raises),
    non-numeric text, non-node sources — returns None so the caller
    continues through the unfused operators over the same batch.
    """
    steps, source, op, const = fusion
    attr = plan.children[0].attr
    sources = _source_values(source, batch, env, ctx)
    if sources is None:
        return None
    single_child = steps[0][1] if len(steps) == 1 \
        and steps[0][0] == "child" else None
    nums: list[float | None] = []
    vals: list = []
    num_append, val_append = nums.append, vals.append
    arena_state: dict[int, tuple] = {}
    element, text_kind = NodeKind.ELEMENT, NodeKind.TEXT
    for value in sources:
        if value is NULL:
            num_append(None)
            val_append(NULL)
            continue
        if not isinstance(value, Node):
            return None
        arena = value.arena
        if arena is None:
            return None
        state = arena_state.get(id(arena))
        if state is None:
            state = (arena._name_to_id.get(single_child),
                     arena.name_ids, arena.kinds, arena.child_lists,
                     arena.nodes, arena.string_value, arena.ends,
                     arena.texts, arena.parents)
            arena_state[id(arena)] = state
        (name_id, name_ids, kinds, child_lists, handles, string_value,
         ends, texts, parents) = state
        if single_child is not None and parents[value.pre] >= 0:
            # The hot lane: one child step, resolved by scanning the
            # (short) child list without any per-row function calls.
            if name_id is None:
                num_append(None)
                val_append(NULL)
                continue
            pre = -1
            for c in child_lists[value.pre]:
                c_pre = c.pre
                if name_ids[c_pre] == name_id and kinds[c_pre] is element:
                    if pre >= 0:  # >1 item: zero-or-one would raise
                        return None
                    pre = c_pre
        else:
            rows = _apply_steps(value, steps)
            if rows is None or len(rows) > 1:
                return None
            pre = rows[0] if rows else -1
        if pre < 0:
            num_append(None)
            val_append(NULL)
            continue
        # String value straight off the columns: the overwhelmingly
        # common <tag>text</tag> shape is one text row at pre+1.
        if ends[pre] == pre + 2 and kinds[pre + 1] is text_kind:
            value_text = texts[pre + 1] or ""
        else:
            value_text = string_value(pre)
        try:
            num_append(float(value_text))
        except ValueError:
            return None
        val_append(handles[pre])
    compare = _PY_OPS[op]
    buffers = ctx.batch_buffers
    scratch = buffers.acquire()
    scratch.extend(i for i, n in enumerate(nums)
                   if n is not None and compare(n, const))
    selected = batch.take(selection_vector(scratch))
    column = [vals[i] for i in scratch]
    buffers.release(scratch)
    return selected.with_column(attr, column)


_FLIP_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}


def _select(plan: Select, ctx, env: Tup, path) -> Batch:
    fusion = None if type(plan.children[0]) is not Map \
        else _fusible_select_map(plan, ctx)
    if fusion is not None:
        mapop = plan.children[0]
        inner = _run(mapop.children[0], ctx, env, path + (0, 0))
        fused = _fused_select_map(plan, fusion, inner, env, ctx)
        if fused is not None:
            return fused
        # Data-dependent bail-out: finish unfused over the same batch
        # (never re-run the subtree — it may have been expensive).
        batch = _map_batch(mapop, inner, env, ctx)
    else:
        batch = _child(plan, 0, ctx, env, path)
    if len(batch) == 0:
        return batch
    mask = _predicate_mask(plan.pred, batch, env, ctx)
    if mask is not None:
        buffers = ctx.batch_buffers
        scratch = buffers.acquire()
        scratch.extend(i for i, keep in enumerate(mask) if keep)
        result = batch.take(selection_vector(scratch))
        buffers.release(scratch)
        return result
    # Row-at-a-time fallback (quantifiers, exists()/empty(), nested
    # plans): the pipelined engine's short-circuit evaluator stops each
    # nested plan at its first witness instead of draining it.
    return Batch.from_rows(
        [t for t in batch.to_rows()
         if boolean_subscript(plan.pred, scalar_env(env, t), ctx)])


def _project(plan: Project, ctx, env: Tup, path) -> Batch:
    return _child(plan, 0, ctx, env, path).project(
        tuple(plan.attributes))


def _project_away(plan: ProjectAway, ctx, env: Tup, path) -> Batch:
    return _child(plan, 0, ctx, env, path).project_away(
        tuple(plan.attributes))


def _rename(plan: Rename, ctx, env: Tup, path) -> Batch:
    return _child(plan, 0, ctx, env, path).rename(plan.mapping)


def _distinct(plan: DistinctProject, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(
        distinct_rows(plan, _child_rows(plan, 0, ctx, env, path)))


def _map(plan: Map, ctx, env: Tup, path) -> Batch:
    return _map_batch(plan, _child(plan, 0, ctx, env, path), env, ctx)


def _map_batch(plan: Map, batch: Batch, env: Tup, ctx) -> Batch:
    values = _expr_column(plan.expr, batch, env, ctx)
    if values is not None:
        return batch.with_column(plan.attr, values)
    result = []
    for t in batch.to_rows():
        value = plan.expr.evaluate(scalar_env(env, t), ctx)
        result.append(t.extend(plan.attr, value))
    return Batch.from_rows(result)


def _unnest_map(plan: UnnestMap, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    if isinstance(plan.expr, PartitionedPath):
        fast = _unnest_map_partitioned(plan, batch, env, ctx)
        if fast is not None:
            return fast
    if isinstance(plan.expr, PathApply):
        fast = _unnest_map_fast(plan, batch, env, ctx)
        if fast is not None:
            return fast
        result = []
        for t in batch.to_rows():
            for item in iter_path_items(plan.expr, scalar_env(env, t),
                                        ctx):
                result.append(t.extend(plan.attr, bind_item(item)))
        return Batch.from_rows(result)
    result = []
    for t in batch.to_rows():
        for item in iter_items(plan.expr.evaluate(scalar_env(env, t),
                                                  ctx)):
            result.append(t.extend(plan.attr, bind_item(item)))
    return Batch.from_rows(result)


def _unnest_map_fast(plan: UnnestMap, batch: Batch, env: Tup,
                     ctx) -> Batch | None:
    """Υ over a compilable path: resolve each input row's context node
    to a pre list straight off the arena, then build the output batch
    as replicated input columns plus one node column — no per-row
    generator hops, no intermediate ``Tup`` copies."""
    steps = _compile_steps(plan.expr.path)
    if steps is None:
        return None
    sources = _source_values(plan.expr.source, batch, env, ctx)
    if sources is None:
        return None
    indices: list[int] = []
    nodes: list[Node] = []
    for i, value in enumerate(sources):
        if value is NULL:
            continue
        if not isinstance(value, Node):
            return None
        rows = _apply_steps(value, steps)
        if rows is None:
            return None
        handles = value.arena.nodes
        indices.extend([i] * len(rows))
        nodes.extend(handles[r] for r in rows)
    return batch.replicate(indices, plan.attr, nodes)


def _unnest_map_partitioned(plan: UnnestMap, batch: Batch, env: Tup,
                            ctx) -> Batch | None:
    """Υ over a :class:`PartitionedPath` (a worker's slice of the
    parallel engine's range-partitioned driving scan): the first
    ``descendant::tag`` step is the arena's pre-list slice, further
    steps reuse the compiled-step walk — so parallel plan fragments
    scan at the same columnar speed as the serial engine they shard."""
    expr = plan.expr
    rest = _compile_steps(Path(expr.inner.path.steps[1:],
                               absolute=False))
    if rest is None:
        return None
    indices: list[int] = []
    nodes: list[Node] = []
    for i, t in enumerate(batch.to_rows()):
        context, eff_path = expr.context_node(scalar_env(env, t), ctx)
        arena = context.arena
        if arena is None:
            return None
        first = eff_path.steps[0]
        rows = arena.descendants_by_tag(context.pre,
                                        first.test.name)
        rows = rows[expr.start:expr.stop]
        if ctx.stats is not None:
            ctx.stats.record_scan(arena.document.name)
            ctx.stats.record_visits(len(rows))
        handles = arena.nodes
        if not rest:
            indices.extend([i] * len(rows))
            nodes.extend(handles[r] for r in rows)
            continue
        for r in rows:
            hits = _apply_steps(handles[r], rest)
            if hits is None:
                return None
            indices.extend([i] * len(hits))
            nodes.extend(handles[h] for h in hits)
    return batch.replicate(indices, plan.attr, nodes)


def _unnest(plan: Unnest, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(
        plan.evaluate_rows(_child_rows(plan, 0, ctx, env, path)))


def _sort(plan: Sort, ctx, env: Tup, path) -> Batch:
    rows = _child_rows(plan, 0, ctx, env, path)
    return Batch.from_rows(sorted(rows, key=plan.sort_tuple))


def _elided_sort(plan: ElidedSort, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    if plan.proof_holds(ctx) and not plan._debug():
        # The sortedness certificate covers the whole batch: pass it
        # through without even materializing rows.
        plan._record_elision(ctx, taken=True)
        return batch
    return Batch.from_rows(plan.checked_rows(batch.to_rows(), ctx))


# ----------------------------------------------------------------------
# Binary and grouping operators (shared row algorithms)
# ----------------------------------------------------------------------
def _cross(plan: Cross, ctx, env: Tup, path) -> Batch:
    left = _child_rows(plan, 0, ctx, env, path)
    right = _child_rows(plan, 1, ctx, env, path)
    return Batch.from_rows([l.concat(r) for l in left for r in right])


def _join(plan: Join, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(join_rows(
        plan, _child_rows(plan, 0, ctx, env, path),
        _child_rows(plan, 1, ctx, env, path), env, ctx))


def _semi_join(plan: SemiJoin, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(semi_anti_rows(
        plan, _child_rows(plan, 0, ctx, env, path),
        _child_rows(plan, 1, ctx, env, path), env, ctx,
        keep_matched=True))


def _anti_join(plan: AntiJoin, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(semi_anti_rows(
        plan, _child_rows(plan, 0, ctx, env, path),
        _child_rows(plan, 1, ctx, env, path), env, ctx,
        keep_matched=False))


def _outer_join(plan: OuterJoin, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(outer_join_rows(
        plan, _child_rows(plan, 0, ctx, env, path),
        _child_rows(plan, 1, ctx, env, path), env, ctx))


def _group_unary(plan: GroupUnary, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(group_unary_rows(
        plan, _child_rows(plan, 0, ctx, env, path), env, ctx))


def _group_binary(plan: GroupBinary, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(group_binary_rows(
        plan, _child_rows(plan, 0, ctx, env, path),
        _child_rows(plan, 1, ctx, env, path), env, ctx))


def _self_group(plan: SelfGroup, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(self_group_rows(
        plan, _child_rows(plan, 0, ctx, env, path), env, ctx))


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _construct(plan: Construct, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    for row in batch.to_rows():
        bound = scalar_env(env, row)
        for command in plan.commands:
            command.emit(bound, ctx)
    return batch


def _group_construct(plan: GroupConstruct, ctx, env: Tup, path) -> Batch:
    rows = _child_rows(plan, 0, ctx, env, path)
    return Batch.from_rows(plan.emit_rows(rows, env, ctx))


_DISPATCH = {
    Singleton: _singleton,
    Table: _table,
    IndexScan: _index_scan,
    Select: _select,
    Project: _project,
    ProjectAway: _project_away,
    Rename: _rename,
    DistinctProject: _distinct,
    Map: _map,
    UnnestMap: _unnest_map,
    Unnest: _unnest,
    Sort: _sort,
    ElidedSort: _elided_sort,
    Cross: _cross,
    Join: _join,
    SemiJoin: _semi_join,
    AntiJoin: _anti_join,
    OuterJoin: _outer_join,
    GroupUnary: _group_unary,
    GroupBinary: _group_binary,
    SelfGroup: _self_group,
    Construct: _construct,
    GroupConstruct: _group_construct,
}
