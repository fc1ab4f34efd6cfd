"""The closed-loop, round-robin loop shared by ``paper-analytics`` and
``corpus-scan``: one client runs a fixed list of queries in order, on
each query's best plan, under its session's default mode, with the
result cache bypassed.

Latency samples come from complete rounds only (the window is checked
between rounds), so every query contributes the same number of samples
and the median does not jump between queries' clusters from run to
run."""

from __future__ import annotations

import time

from e2e import analysis
from e2e.common import (WORK, OutputMismatch, RunResult, Window,
                        end_to_end, hit_rates, median, path_shares,
                        peak_rss_mb, timed_setups)


def run(name: str, make_system, seed: int, seconds: float,
        trace: bool) -> RunResult:
    """``make_system()`` builds a system with ``order`` (query keys),
    ``texts``, ``session_of``, ``prepared``, ``workers``,
    ``generate_s``/``register_s``, ``expected()``, ``same(key, output,
    expected)`` and ``close()``."""
    result = RunResult()
    system, setups = timed_setups(make_system, lambda s: s.close())
    try:
        _run(name, system, setups, seed, seconds, trace, result)
    finally:
        system.close()
    return result


def _read(system, key: str):
    start = time.perf_counter()
    reply = system.session_of[key].execute(system.texts[key],
                                           use_result_cache=False)
    return time.perf_counter() - start, reply


def _traced_read(system, key: str, spans):
    session = system.session_of[key]
    start = time.perf_counter()
    with spans.span(f"read {key}", "bench", rid=spans.new_request()):
        with spans.span("Session.prepare", "session"):
            prepared = session.prepare(system.texts[key])
        with spans.span("PreparedQuery.execute", "session", query=key):
            reply = prepared.execute(use_result_cache=False)
            end = time.perf_counter()
            spans.add("engine.run", "engine", end - reply.elapsed, end)
    return time.perf_counter() - start, reply


def _loop(name, system, expected, result, window: Window, spans=None):
    """Rounds until the window closes; with ``spans``, every second
    round is traced, so traced and untraced rounds see the same
    machine.  Returns per-query latencies of the untraced and of the
    traced rounds, the last reply per query and the window's length."""
    plain: dict[str, list[float]] = {k: [] for k in system.order}
    traced: dict[str, list[float]] = {k: [] for k in system.order}
    replies: dict[str, object] = {}
    #: the last output per query that passed the check
    verified: dict[str, str] = {}
    rounds = 0
    window.start()
    while window.open():
        tracing = spans is not None and rounds % 2 == 1
        rounds += 1
        for key in system.order:
            result.attempted += 1
            try:
                if tracing:
                    elapsed, reply = _traced_read(system, key, spans)
                else:
                    elapsed, reply = _read(system, key)
            except Exception as exc:  # counted; the run goes on
                result.failed += 1
                result.report.append(f"error in {key}: {exc!r}")
                continue
            (traced if tracing else plain)[key].append(elapsed)
            replies[key] = reply
            with window.paused():
                if reply.output != verified.get(key):
                    if not system.same(key, reply.output, expected[key]):
                        raise OutputMismatch(f"{name} {key}: output "
                                             f"differs from the expected "
                                             f"output")
                    verified[key] = reply.output
    return plain, traced, replies, window.elapsed()


def _run(name, system, setups, seed, seconds, trace, result) -> None:
    expected = system.expected()
    if not trace:
        latencies, _, _, elapsed = _loop(name, system, expected, result,
                                         Window(seconds))
        reads = [x for values in latencies.values() for x in values]
        end_to_end(result, setups, reads, len(reads), elapsed,
                   peak_rss_mb())
        for key in system.order:
            result.report.append(
                f"  {key:14s} p50 {median(latencies[key]) * 1e3:8.2f} ms "
                f"over {len(latencies[key])} reads")
        return

    from e2e.spans import SpanLog
    spans = SpanLog()
    sessions = list({id(s): s for s in system.session_of.values()}.values())
    before = _cache_totals(sessions)
    plain, traced, replies, _ = _loop(name, system, expected, result,
                                      Window(seconds), spans)
    after = _cache_totals(sessions)
    hit_rates(result, before, after)
    # Every read looks the plan cache up once and bypasses the result
    # cache, so a plan-cache hit is the read's whole path.
    path_shares(result, {
        "result_hit": 0,
        "plan_hit": after["plan_cache"]["hits"]
        - before["plan_cache"]["hits"],
        "cold": after["plan_cache"]["misses"]
        - before["plan_cache"]["misses"]})
    layer_metrics(system, result, traced, replies, spans)
    result.layer("trace.overhead_pct", overhead_pct(plain, traced), "%",
                 sum(map(len, traced.values())))
    spans.write(WORK / f"trace-{name}-{seed}.json")


def _cache_totals(sessions) -> dict:
    """``cache_stats()`` hit and miss counts summed over sessions."""
    totals = {cache: {"hits": 0, "misses": 0}
              for cache in ("plan_cache", "result_cache")}
    for session in sessions:
        stats = session.cache_stats()
        for cache, counts in totals.items():
            for key in counts:
                counts[key] += stats[cache][key]
    return totals


def overhead_pct(plain: dict, traced: dict) -> float:
    """Mean read time of the traced rounds over that of the untraced
    ones, as a percentage above 1."""
    def mean(samples):
        values = [x for v in samples.values() for x in v]
        return sum(values) / len(values)
    return (mean(traced) / mean(plain) - 1) * 100


def layer_metrics(system, result: RunResult, latencies, replies,
                  spans) -> None:
    order = system.order
    executes = spans.durations("PreparedQuery.execute")
    result.layer("engine.execute_ms", median(executes) * 1e3, "ms",
                 len(executes))
    visits = scans = probes = rows = 0
    result.report.append("per query (traced window, last execution)")
    for key in order:
        stats = replies[key].stats
        visits += stats["node_visits"]
        scans += stats["total_scans"]
        probes += stats["total_probes"]
        rows += len(replies[key].rows)
        executes = [span.duration for span in spans.tracer.spans
                    if span.name == "PreparedQuery.execute"
                    and span.args.get("query") == key]
        result.report.append(
            f"  {key:14s} engine.execute_ms p50 "
            f"{median(executes) * 1e3:8.2f}  node_visits "
            f"{stats['node_visits']:8d}  document_scans "
            f"{stats['total_scans']:3d}  index.probes "
            f"{stats['total_probes']:4d}  rows {len(replies[key].rows)}")
    result.layer("engine.node_visits", visits / len(order), "count")
    result.layer("engine.document_scans", scans / len(order), "count")
    result.layer("index.probes", probes / len(order), "count")
    result.layer("engine.visits_per_row", visits / max(1, rows), "ratio")

    used = {}
    for key in order:
        session = system.session_of[key]
        used[key] = system.prepared[key].resolve_mode(
            session.default_mode, system.prepared[key].best(),
            workers=system.workers)
    if any(session.default_mode == "auto"
           for session in system.session_of.values()):
        resolutions = [analysis.mode_ms(system.prepared[key],
                                        system.prepared[key].best(),
                                        system.workers)
                       for key in order]
        result.layer("optimizer.mode_ms", median(resolutions) * 1e3,
                     "ms", len(order))

    regrets, times, lines = analysis.regret_table(system.prepared, used,
                                                  system.workers)
    result.report.extend(lines)
    result.layer("optimizer.mode_regret", max(regrets.values()), "ratio",
                 len(regrets))
    operator_rows = sum(
        analysis.operator_rows(system.prepared[key], used[key],
                               system.workers) for key in order)
    result.layer("engine.operator_rows", operator_rows / len(order),
                 "count")
    result.layer("datagen.generate_ms", system.generate_s * 1e3, "ms")
    result.layer("xmldb.register_ms", system.register_s * 1e3, "ms")
    if hasattr(system, "parallel_metrics"):
        system.parallel_metrics(result, used, times)
    result.report.extend(analysis.self_time_lines(
        spans, sum(map(len, latencies.values()))))
