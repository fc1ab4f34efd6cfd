"""``read-update``: writes beside reads.  Closed loop, one client,
in-process ``Session`` over ``Database(index_mode="eager")``.

``items.xml`` (4000 items, the q14 scale) is updated; ``bids.xml`` (the
q12 scale) never changes.  Each cycle applies one ``Replace``,
``Insert`` or ``Delete`` of an ``itemtuple`` (in that rotation, so the
document size stays steady) and then four reads, two on each document.
Literals come from small seeded populations, so the plan and result
caches would serve most reads if updates did not invalidate them.

Correctness: every reply is compared with the output a plain-Python
model of the current document version gives (:mod:`e2e.queries`), and
every ``CHECK_EVERY`` updates and at the end the live store is checked
against a re-parse of the current version's serialization (the q14
differential, re-parsed in a child process).  Checks run with the
window's clock paused."""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import time

from e2e.common import (SRC, WORK, OutputMismatch, RunResult, Window,
                        end_to_end, hit_rates, median, path_shares,
                        peak_rss_mb, percentile, timed_setups)
from e2e.queries import bid_rows, expected, item_rows, query

NAME = "read-update"
ITEMS = 4000
BIDS, BID_ITEMS = 500, 100
CHECK_EVERY = 250
#: the reads of one cycle, in order
CYCLE_READS = ("items-scan", "bids-scan", "seller-items", "popular-items")
OPS = ("replace", "insert", "delete")


def populations(seed: int) -> dict:
    """Eight literals per template, drawn from the seed."""
    rng = random.Random(seed * 7919 + 1)
    return {
        "items-scan": sorted(rng.sample(range(450, 500), 8)),
        "bids-scan": sorted(rng.sample(range(940, 1000), 8)),
        "seller-items": [f"U{n:05d}" for n in
                         sorted(rng.sample(range(1, 101), 8))],
        "popular-items": sorted(rng.sample(range(5, 12), 4)),
    }


class System:
    def __init__(self, seed: int):
        from repro.api import Database
        from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
            generate_items
        start = time.perf_counter()
        items = generate_items(ITEMS, seed=seed)
        bids = generate_bids(BIDS, items=BID_ITEMS, seed=seed)
        self.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        self.db = Database(index_mode="eager")
        self.db.register_tree("items.xml", items, dtd_text=ITEMS_DTD)
        self.db.register_tree("bids.xml", bids, dtd_text=BIDS_DTD)
        self.register_s = time.perf_counter() - start
        self.session = self.db.session()
        self.population = populations(seed)
        # First compile of each template.
        for template, literals in self.population.items():
            self.session.prepare(query(template, literals[0]))

    def close(self) -> None:
        self.session.close()
        self.db.close()


class Model:
    """The items document as plain tuples, updated beside the store."""

    def __init__(self, rows):
        self.rows = list(rows)

    def expected(self, template: str, lit, bids) -> str:
        return expected(template, lit, items=[self.rows], bids=bids)


def _new_item(k: int, rng):
    from repro.xmldb.node import element
    seller = f"U{rng.randrange(1, 101):05d}"
    price = rng.randrange(10, 500) if rng.random() < 0.5 else None
    children = [element("itemno", f"N{k:06d}"),
                element("description", f"updated item {k}"),
                element("offered_by", seller)]
    if price is not None:
        children.append(element("reserveprice", str(price)))
    return element("itemtuple", *children), (f"N{k:06d}",
                                              None if price is None
                                              else float(price), seller)


def _update(system: System, model: Model, k: int, rng):
    """The ``k``-th delta op, applied to the model; returns the op."""
    from repro.xmldb.delta import Delete, Insert, Replace
    arena = system.db.store.get("items.xml").arena
    rows = arena.tag_rows("itemtuple")
    kind = OPS[k % len(OPS)]
    if kind == "insert":
        index = rng.randrange(len(rows) + 1)
        tree, row = _new_item(k, rng)
        model.rows.insert(index, row)
        return Insert(arena.tag_rows("items")[0], index, tree)
    index = rng.randrange(len(rows))
    if kind == "delete":
        del model.rows[index]
        return Delete(rows[index])
    tree, row = _new_item(k, rng)
    model.rows[index] = row
    return Replace(rows[index], tree)


def _differential(system: System, model: Model) -> None:
    """The live store against a fresh re-parse of the current version
    (in a child process, :mod:`e2e.reparse`): serialization, the
    model, and every items read."""
    from repro.xmldb.serialize import serialize
    text = serialize(system.db.store.get("items.xml").root)
    queries = [query(template, lit)
               for template in ("items-scan", "seller-items")
               for lit in system.population[template]]
    child = subprocess.run(
        [sys.executable, "-m", "e2e.reparse"],
        input=json.dumps({"text": text, "queries": queries}),
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(SRC), str(pathlib.Path(__file__).parents[1])))))
    fresh = json.loads(child.stdout)
    rows = [tuple(row) for row in fresh["rows"]]
    if not fresh["same_text"] or rows != model.rows:
        raise OutputMismatch(f"{NAME}: updated items.xml diverged from "
                             f"its re-parse")
    for text_q, want in zip(queries, fresh["outputs"]):
        if system.session.execute(text_q).output != want:
            raise OutputMismatch(
                f"{NAME}: live store differs from a re-parse of the "
                f"current version on {text_q!r}")


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    system, setups = timed_setups(lambda: System(seed),
                                  lambda s: s.close())
    try:
        _run(system, setups, seed, seconds, trace, result)
    finally:
        system.close()
    return result


class _Samples:
    def __init__(self):
        self.reads: list[float] = []
        self.updates: list[float] = []
        self.after_update: list[float] = []
        self.plain_cycles: list[float] = []
        self.traced_cycles: list[float] = []
        self.paths = {"result_hit": 0, "plan_hit": 0, "cold": 0}
        self.cold_texts: list[str] = []
        #: (node visits, document scans, index probes, rows) of each
        #: executed (not result-cached) read; replies themselves are
        #: not kept, since they pin superseded document versions
        self.work: list[tuple] = []


def _read(system, text, spans, samples: _Samples):
    """One read through the session; classifies the path it took."""
    session = system.session
    before = session.cache_stats()["plan_cache"]["misses"]
    start = time.perf_counter()
    if spans is None:
        reply = session.execute(text)
    else:
        with spans.span("read", "bench", rid=spans.new_request()):
            with spans.span("Session.prepare", "session"):
                prepared = session.prepare(text)
            with spans.span("PreparedQuery.execute", "session"):
                reply = prepared.execute()
                end = time.perf_counter()
                if not reply.cached:
                    spans.add("engine.run", "engine",
                              end - reply.elapsed, end)
    elapsed = time.perf_counter() - start
    compiled = session.cache_stats()["plan_cache"]["misses"] > before
    if reply.cached:
        samples.paths["result_hit"] += 1
    elif compiled:
        samples.paths["cold"] += 1
    else:
        samples.paths["plan_hit"] += 1
    if compiled and spans is not None:
        samples.cold_texts.append(text)
    return elapsed, reply


def _loop(system, model, bids, result, window: Window, seed: int,
          spans=None) -> _Samples:
    """Cycles until the window closes; with ``spans``, every second
    cycle is traced, so traced and untraced cycles see the same
    machine."""
    samples = _Samples()
    rng = random.Random(seed * 104729)
    k = 0
    window.start()
    while window.open():
        tracing = spans is not None and k % 2 == 1
        op = _update(system, model, k, rng)
        k += 1
        result.attempted += 1
        start = time.perf_counter()
        try:
            if not tracing:
                system.db.update("items.xml", op)
            else:
                with spans.span("update", "bench",
                                rid=spans.new_request()):
                    with spans.span("Database.update", "xmldb"):
                        system.db.update("items.xml", op)
        except Exception as exc:  # counted; the model no longer matches
            result.failed += 1
            raise OutputMismatch(f"{NAME}: update {k} failed: {exc!r}")
        cycle = time.perf_counter() - start
        samples.updates.append(cycle)
        for position, template in enumerate(CYCLE_READS):
            lit = rng.choice(system.population[template])
            text = query(template, lit)
            result.attempted += 1
            try:
                elapsed, reply = _read(system, text,
                                       spans if tracing else None, samples)
            except Exception as exc:  # counted; the run goes on
                result.failed += 1
                result.report.append(f"error in {template}: {exc!r}")
                continue
            samples.reads.append(elapsed)
            cycle += elapsed
            if position == 0:
                samples.after_update.append(elapsed)
            if not reply.cached:
                stats = reply.stats
                samples.work.append((stats["node_visits"],
                                     stats["total_scans"],
                                     stats["total_probes"],
                                     len(reply.rows)))
            with window.paused():
                want = model.expected(template, lit, bids)
                if reply.output != want:
                    raise OutputMismatch(
                        f"{NAME} {template}({lit}) after update {k}: "
                        f"output differs from the model")
        (samples.traced_cycles if tracing
         else samples.plain_cycles).append(cycle)
        if k % CHECK_EVERY == 0:
            with window.paused():
                _differential(system, model)
    with window.paused():
        _differential(system, model)
    return samples


def _run(system: System, setups, seed, seconds, trace, result) -> None:
    store = system.db.store
    model = Model(item_rows(store.get("items.xml").root))
    bids = bid_rows(store.get("bids.xml").root)
    result.report.append(
        f"  distinct read texts {sum(map(len, system.population.values()))}"
        f" (plan cache 128, result cache 256 entries)")
    if not trace:
        window = Window(seconds)
        samples = _loop(system, model, bids, result, window, seed)
        elapsed = window.elapsed()
        reads, updates = samples.reads, samples.updates
        end_to_end(result, setups, reads, len(reads) + len(updates),
                   elapsed, peak_rss_mb())
        result.e2e("update_p50_ms", median(updates) * 1e3, "ms",
                   len(updates))
        result.e2e("update_p95_ms", percentile(updates, 95) * 1e3, "ms",
                   len(updates))
        path_shares(result, samples.paths)
        return

    from e2e import analysis
    from e2e.spans import SpanLog
    spans = SpanLog()
    indexes = store.indexes
    before = (system.session.cache_stats(), indexes.incremental_applies,
              indexes.full_builds, len(store.get("items.xml").arena.kinds))
    samples = _loop(system, model, bids, result, Window(seconds), seed,
                    spans)
    after = system.session.cache_stats()
    updates = len(samples.updates)

    def delta(cache, key):
        return after[cache][key] - before[0][cache][key]

    hit_rates(result, before[0], after)
    path_shares(result, samples.paths)
    result.layer("session.plan_misses_per_update",
                 delta("plan_cache", "misses") / updates, "count", updates)
    result.layer("session.read_after_update_ms",
                 median(samples.after_update) * 1e3, "ms",
                 len(samples.after_update))
    result.layer("xmldb.update_ms", median(samples.updates) * 1e3, "ms",
                 updates)
    result.layer("index.incremental_applies",
                 (indexes.incremental_applies - before[1]) / updates,
                 "count", updates)
    result.layer("index.full_builds", indexes.full_builds - before[2],
                 "count")
    document = store.get("items.xml")
    result.layer("xmldb.chain_length",
                 document.version_stats()["chain_length"], "count")
    result.layer("xmldb.arena_rows", len(document.arena.kinds) / before[3],
                 "ratio")
    executed = samples.work
    executes = [s.duration for s in spans.tracer.spans
                if s.name == "engine.run"]
    result.layer("engine.execute_ms",
                 median(executes) * 1e3 if executes else 0.0, "ms",
                 len(executes))
    if executed:
        visits, scans, probes, rows = (sum(column)
                                       for column in zip(*executed))
        n = len(executed)
        result.layer("engine.node_visits", visits / n, "count", n)
        result.layer("engine.document_scans", scans / n, "count", n)
        result.layer("index.probes", probes / n, "count", n)
        result.layer("engine.visits_per_row", visits / max(1, rows),
                     "ratio")
    analysis.replay_metrics(result, samples.cold_texts[:200], store)
    result.layer("engine.operator_rows", analysis.mean_operator_rows(
        system.session, [query(template, literals[0]) for template, literals
                         in system.population.items()]), "count")
    result.layer("datagen.generate_ms", system.generate_s * 1e3, "ms")
    result.layer("xmldb.register_ms", system.register_s * 1e3, "ms")
    plain, traced = samples.plain_cycles, samples.traced_cycles
    result.layer("trace.overhead_pct",
                 (sum(traced) / len(traced) / (sum(plain) / len(plain)) - 1)
                 * 100, "%", len(traced))
    result.report.extend(analysis.self_time_lines(
        spans, len(traced) * (1 + len(CYCLE_READS))))
    spans.write(WORK / f"trace-{NAME}-{seed}.json")

