"""The ``execute`` entry point: run a plan, collect rows, the constructed
XML output and the scan statistics."""

from __future__ import annotations

import time

from repro.engine.context import EvalContext
from repro.engine.physical import ROOT_PATH, run_physical
from repro.engine.pipeline import run_pipelined
from repro.engine.vectorized import run_vectorized
from repro.errors import UnsupportedModeError
from repro.nal.algebra import Operator
from repro.nal.values import Tup
from repro.xmldb.document import DocumentStore, ScanStats

#: execution modes accepted by :func:`execute` (``"auto"`` resolves to
#: pipelined or vectorized — or parallel, when workers are enabled and
#: the cost model's startup-vs-speedup estimate favors it)
MODES = ("physical", "pipelined", "vectorized", "reference", "auto",
         "parallel")


def resolve_workers(workers: int | None,
                    explicit_parallel: bool = False,
                    analyze: bool = False) -> int | None:
    """The effective worker count for one execution: the explicit
    argument wins, then the ``REPRO_WORKERS`` environment override;
    an explicit ``mode="parallel"`` with neither defaults to the
    machine's cores, while ``mode="auto"`` leaves parallelism off
    unless someone asked for workers.  ``analyze=True`` turns it off
    too, so ``auto`` picks a serial engine: EXPLAIN ANALYZE counts
    cannot come back from worker processes."""
    import os

    from repro.engine.parallel import DEFAULT_WORKERS, WORKERS_ENV

    if analyze:
        return None
    if workers is not None:
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_WORKERS if explicit_parallel else None


class ExecutionResult:
    """Outcome of one plan execution."""

    def __init__(self, rows: list[Tup], output: str, stats: dict,
                 elapsed: float,
                 operator_counts: dict[tuple, tuple[int, int]]
                 | None = None,
                 trace=None, metrics=None, cached: bool = False,
                 mode: str | None = None):
        #: the operator tree's result sequence
        self.rows = rows
        #: the XML text the Ξ operators constructed
        self.output = output
        #: scan-statistics snapshot (document scans, node visits) —
        #: collected request-scoped, so it describes exactly this
        #: execution even when other executions ran concurrently
        self.stats = stats
        #: wall-clock seconds
        self.elapsed = elapsed
        #: EXPLAIN ANALYZE data: tree position -> (invocations, rows).
        #: A tree position is the pre-order path of child indices from
        #: the root — ``()`` for the root operator, ``(0, 1)`` for the
        #: second child of the first child.  None unless execute() ran
        #: with analyze=True.
        self.operator_counts = operator_counts
        #: the :class:`~repro.obs.trace.Tracer` the execution recorded
        #: spans into (None unless one was passed to execute())
        self.trace = trace
        #: the :class:`~repro.obs.metrics.MetricsRegistry` holding this
        #: request's counters/histograms (None unless one was passed)
        self.metrics = metrics
        #: True when the rows/output were served from a session's
        #: result cache (``stats`` then snapshots the populating run,
        #: with ``result_cache_hit`` set; see :mod:`repro.session`)
        self.cached = cached
        #: the engine that ran the plan: ``"auto"`` is reported as the
        #: mode it resolved to (pipelined, vectorized or parallel)
        self.mode = mode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionResult rows={len(self.rows)} "
                f"output={len(self.output)} chars "
                f"scans={self.stats['document_scans']} "
                f"elapsed={self.elapsed:.4f}s>")


def execute(plan: Operator, store: DocumentStore,
            mode: str = "auto",
            reset_stats: bool = True,
            analyze: bool = False,
            tracer=None, metrics=None,
            timeout: float | None = None,
            workers: int | None = None) -> ExecutionResult:
    """Execute a plan against a document store (or an already-pinned
    :class:`~repro.xmldb.document.StoreSnapshot`).

    The execution runs against a snapshot taken at entry: concurrent
    ``DocumentStore.update()`` calls publish new document versions, but
    this query keeps reading the versions it pinned (MVCC snapshot
    isolation — see ``docs/updates.md``).

    ``mode="auto"`` (the default) resolves to pipelined or vectorized
    via the cost model's per-batch/per-tuple split — or to parallel,
    when a worker budget is set and the startup-vs-speedup estimate
    favors it (:func:`repro.optimizer.cost.preferred_mode`); the
    result's ``mode`` names the engine that ran.
    ``mode="pipelined"`` uses the generator-based engine of
    :mod:`repro.engine.pipeline` — operators yield tuples on demand and
    quantifier subscripts stop at the first witness;
    ``mode="vectorized"`` uses the batch-at-a-time engine of
    :mod:`repro.engine.vectorized` — columns move through operators as
    flat arrays with selection-vector passes over the arena, and σ
    quantifiers stop at the first witness too; ``mode="physical"`` uses
    the hash-based engine that materializes every operator's output —
    the all-tuples baseline the paper's scan-count tables and the
    pipeline benchmark measure; ``mode="reference"`` uses the
    definitional semantics (useful for differential testing).
    See ``docs/execution-modes.md`` for the full decision table.
    ``analyze=True`` (any mode but reference and parallel; ``auto``
    then chooses among the serial engines) additionally records
    per-operator invocation and row counts keyed by tree position —
    render them with :func:`~repro.engine.executor.analyze_to_string`;
    under ``mode="reference"`` it raises
    :class:`~repro.errors.UnsupportedModeError` (the definitional
    evaluator has no measurement hooks).

    Scan statistics are collected *request-scoped*: each call gets a
    fresh :class:`~repro.xmldb.document.ScanStats`, so interleaved
    executions against one store cannot cross-contaminate counters.
    The store's shared ``stats`` keeps a cumulative process-wide tally
    (each request is absorbed into it on completion);
    ``reset_stats=False`` opts into recording *directly* against those
    shared counters, accumulating across calls.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records an
    ``execute[mode]`` span plus one nested span per operator
    invocation in the physical/pipelined engines; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) collects per-operator
    rows/time and the scan statistics as counters.  Both default to
    off and cost nothing when absent.

    ``timeout`` (seconds) sets a *cooperative* per-request deadline:
    the engines check it at operator boundaries (per pulled tuple in
    the pipelined engine) and abandon the execution with
    :class:`~repro.errors.DeadlineExceededError` once it passes.  The
    reference evaluator has no hooks, so under ``mode="reference"``
    only the pre-execution check applies.
    """
    if mode not in MODES:
        raise ValueError(f"unknown execution mode {mode!r}")
    workers = resolve_workers(workers,
                              explicit_parallel=(mode == "parallel"),
                              analyze=analyze)
    # Pin a snapshot for the whole execution: every document name the
    # plan touches resolves to the version current *now*, so concurrent
    # DocumentStore.update() calls cannot tear this query across
    # versions.  (An already-pinned StoreSnapshot pins to itself.)
    store = store.snapshot()
    if mode == "auto":
        from repro.optimizer.cost import preferred_mode
        mode = preferred_mode(plan, store, workers=workers)
    if analyze and mode == "reference":
        raise UnsupportedModeError(
            "analyze=True is not supported under mode='reference': the "
            "definitional evaluator has no per-operator measurement "
            "hooks, so EXPLAIN ANALYZE would silently return nothing — "
            "use mode='physical' or mode='pipelined'")
    if analyze and mode == "parallel":
        raise UnsupportedModeError(
            "analyze=True is not supported under mode='parallel': "
            "operator counts live in the worker processes and tree "
            "positions of plan fragments do not line up with the "
            "original plan — use a serial mode for EXPLAIN ANALYZE")
    stats = ScanStats() if reset_stats else store.stats
    deadline = None if timeout is None else time.monotonic() + timeout
    ctx = EvalContext(store, stats=stats, tracer=tracer, metrics=metrics,
                      deadline=deadline, deadline_budget=timeout)
    if deadline is not None:
        ctx.check_deadline()
    if analyze:
        ctx.analyze_counts = {}
    span = None if tracer is None \
        else tracer.begin(f"execute[{mode}]", "lifecycle", mode=mode)
    start = time.perf_counter()
    if mode == "physical":
        rows = run_physical(plan, ctx)
    elif mode == "parallel":
        from repro.engine.parallel import run_parallel
        rows = run_parallel(plan, ctx, workers or 2)
    elif mode == "pipelined":
        rows = list(run_pipelined(plan, ctx, path=ROOT_PATH))
    elif mode == "vectorized":
        rows = run_vectorized(plan, ctx)
    else:
        rows = plan.evaluate(ctx)
    elapsed = time.perf_counter() - start
    if span is not None:
        span.finish()
    if stats is not store.stats:
        # Keep the shared counters meaningful as a process-wide total
        # without ever reading them for a result (serialized against
        # concurrent request completions by the store lock).
        store.absorb_stats(stats)
    if metrics is not None:
        _scan_stats_to_metrics(stats, metrics)
        metrics.gauge("execution.rows").set(len(rows))
        metrics.gauge("execution.seconds").set(elapsed)
    return ExecutionResult(rows, ctx.output_text(),
                           stats.snapshot(), elapsed,
                           operator_counts=ctx.analyze_counts,
                           trace=tracer, metrics=metrics, mode=mode)


def _scan_stats_to_metrics(stats: ScanStats, metrics) -> None:
    """Fold a request's scan statistics into its metrics registry."""
    metrics.counter("scan.document_scans").inc(stats.total_scans)
    metrics.counter("scan.node_visits").inc(stats.node_visits)
    metrics.counter("index.probes").inc(stats.total_probes)
    metrics.counter("xpath.order_fastpath_hits").inc(
        stats.order_fastpath_hits)
    metrics.counter("xpath.order_dedup_passes").inc(
        stats.order_dedup_passes)


def analyze_to_string(plan: Operator,
                      result: ExecutionResult) -> str:
    """EXPLAIN ANALYZE rendering: the plan tree annotated with each
    operator's invocation count and emitted rows, matched by tree
    position (so an operator instance shared between two positions of a
    rewritten tree reports each position separately).

    Operators inside nested subscripts run through the reference (or
    unmeasured pipelined) evaluator and show as ``(not measured)`` —
    their work is charged to the host operator, which is exactly the
    nested-loop cost the unnesting equivalences eliminate.  Under
    ``mode="pipelined"`` the row counts are the tuples actually
    *pulled*: an operator a short-circuit never reached also shows
    ``(not measured)``.
    """
    counts = result.operator_counts
    if counts is None:
        raise ValueError("result was not executed with analyze=True")
    lines: list[str] = []

    def walk(op: Operator, depth: int, path: tuple) -> None:
        pad = "  " * depth
        entry = counts.get(path)
        if entry is None:
            note = "(not measured)"
        else:
            calls, rows = entry
            note = f"[calls={calls} rows={rows}]"
        lines.append(f"{pad}{op.label()}  {note}")
        from repro.nal.pretty import _nested_plans
        for expr in op.scalar_exprs():
            for nested in _nested_plans(expr):
                lines.append(f"{pad}  ⟨nested⟩")
                # Nested subscript plans are never measured; give them a
                # path no engine records under.
                walk(nested, depth + 2, path + ("nested",))
        for index, child in enumerate(op.children):
            walk(child, depth + 1, path + (index,))

    walk(plan, 0, ROOT_PATH)
    return "\n".join(lines)


def operators_by_path(plan: Operator) -> dict[tuple, Operator]:
    """Tree position → operator, for every position the engines can
    record under (nested subscript plans excluded — they are never
    measured).  The companion of ``ExecutionResult.operator_counts``
    for reconciling EXPLAIN ANALYZE with the metrics registry."""
    out: dict[tuple, Operator] = {}

    def walk(op: Operator, path: tuple) -> None:
        out[path] = op
        for index, child in enumerate(op.children):
            walk(child, path + (index,))

    walk(plan, ROOT_PATH)
    return out
