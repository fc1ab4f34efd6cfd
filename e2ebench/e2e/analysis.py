"""Post-window measurements shared by the traced runs: the front-end
replay of cold compiles, the mode-regret table, EXPLAIN ANALYZE row
sums and the per-layer self-time table."""

from __future__ import annotations

import time

from e2e.common import median


def compile_replay(text: str, store) -> dict:
    """Time each compile stage on ``text`` by calling the stage
    functions directly: the split of one cold compile."""
    from repro.optimizer.rewriter import unnest_plan
    from repro.xquery.normalize import normalize
    from repro.xquery.parser import parse_xquery
    from repro.xquery.translate import translate

    t0 = time.perf_counter()
    ast = parse_xquery(text)
    t1 = time.perf_counter()
    normalized = normalize(ast)
    t2 = time.perf_counter()
    plan = translate(normalized, store).plan
    t3 = time.perf_counter()
    alternatives = unnest_plan(plan, store)
    t4 = time.perf_counter()
    return {"parse": t1 - t0, "normalize": t2 - t1, "translate": t3 - t2,
            "unnest": t4 - t3, "alternatives": len(alternatives)}


def replay_metrics(result, texts, store) -> None:
    """``xquery.*`` and ``optimizer.unnest_ms``/``alternatives`` as
    p50 over the cold compiles of ``texts`` (0 with no cold reads)."""
    stages = {"parse": [], "normalize": [], "translate": [], "unnest": [],
              "alternatives": []}
    for text in texts:
        timing = compile_replay(text, store)
        for key, value in timing.items():
            stages[key].append(value)
    n = len(texts)

    def p50(key, scale=1e3):
        return median(stages[key]) * scale if stages[key] else 0.0

    result.layer("xquery.parse_ms", p50("parse"), "ms", n)
    result.layer("xquery.normalize_ms", p50("normalize"), "ms", n)
    result.layer("xquery.translate_ms", p50("translate"), "ms", n)
    result.layer("optimizer.unnest_ms", p50("unnest"), "ms", n)
    result.layer("optimizer.alternatives", p50("alternatives", 1), "count",
                 n)


def mode_ms(prepared, alt, workers, repeat: int = 20) -> float:
    """p50 seconds of one ``preferred_mode`` resolution."""
    from repro.optimizer.cost import preferred_mode
    store = prepared.session.database.store
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        preferred_mode(alt.plan, store, workers=workers)
        times.append(time.perf_counter() - start)
    return median(times)


def time_mode(prepared, mode: str, workers, budget: float = 1.0) -> float:
    """Best-of-three seconds of the best plan under ``mode`` (one run
    when the first exceeds ``budget`` seconds)."""
    best = float("inf")
    for attempt in range(3):
        start = time.perf_counter()
        prepared.execute(mode=mode, use_result_cache=False,
                         workers=workers, timeout=None)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if elapsed > budget:
            break
    return best


def regret_table(prepared_by_query: dict, used_mode: dict,
                 workers) -> tuple[dict, dict, list[str]]:
    """Every query against every mode in ``MODES`` (read at runtime).
    Returns ``({query: regret}, {query: {mode: seconds}}, report
    lines)``; regret is the time under the mode the workload used over
    the fastest mode's time.
    ``parallel`` runs with ``workers`` or, when the workload has none,
    ``nproc`` workers."""
    from repro.engine.executor import MODES

    from e2e.common import cpus
    regrets: dict[str, float] = {}
    table: dict[str, dict] = {}
    header = f"  {'query':14s}" + "".join(f"{m:>12s}" for m in MODES) \
        + f"{'used':>12s}{'auto pick':>12s}{'regret':>9s}"
    lines = ["mode-regret table (ms, best plan, best of 3)", header]
    for name, prepared in prepared_by_query.items():
        times = {mode: time_mode(prepared, mode,
                                 workers or cpus() if mode == "parallel"
                                 else workers)
                 for mode in MODES}
        used = used_mode[name]
        pick = prepared.resolve_mode("auto", prepared.best(),
                                     workers=workers)
        table[name] = times
        fastest = min(times.values())
        regrets[name] = times[used] / fastest
        lines.append(f"  {name:14s}" + "".join(
            f"{times[m] * 1e3:12.1f}" for m in MODES)
            + f"{used:>12s}{pick:>12s}{regrets[name]:9.2f}")
    return regrets, table, lines


def operator_rows(prepared, mode: str, workers) -> int:
    """Sum of per-operator rows of one EXPLAIN ANALYZE execution (a
    serial mode: ``analyze`` is unsupported under reference and
    parallel)."""
    if mode in ("reference", "parallel"):
        mode = "pipelined"
    result = prepared.execute(mode=mode, analyze=True,
                              use_result_cache=False, workers=workers)
    return sum(rows for _, rows in result.operator_counts.values())


def mean_operator_rows(session, texts) -> float:
    """Mean :func:`operator_rows` of ``texts`` on their best plans under
    the session's default mode."""
    return sum(operator_rows(session.prepare(text), session.default_mode,
                             None) for text in texts) / len(texts)


def self_time_lines(spans, ops: int) -> list[str]:
    totals = spans.self_times()
    whole = sum(totals.values()) or 1.0
    lines = ["self time per layer (traced window)"]
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:18s}{seconds * 1e3 / max(1, ops):10.3f} "
                     f"ms/op {100 * seconds / whole:6.1f}%")
    return lines
