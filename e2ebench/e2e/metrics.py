"""The metric names the benchmark reports; ``BENCHMARK.json`` at the
repository root lists the same names."""

#: end-to-end metrics of the result line: (name, unit), every workload
#: reports each one.  ``update_p50_ms``/``update_p95_ms`` (read-update
#: only) and ``error_rate`` (0 on a healthy run; ``failed``/``attempted``
#: carry it) appear in the report lines only.
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: per-layer metrics of the traced run: (name, unit).  A workload in
#: which a layer does not run reports it as 0.
PER_LAYER = (
    ("xquery.parse_ms", "ms"),
    ("xquery.normalize_ms", "ms"),
    ("xquery.translate_ms", "ms"),
    ("optimizer.unnest_ms", "ms"),
    ("optimizer.alternatives", "count"),
    ("optimizer.mode_ms", "ms"),
    ("optimizer.mode_regret", "ratio"),
    ("session.plan_cache.hit_rate", "fraction"),
    ("session.result_cache.hit_rate", "fraction"),
    ("session.path_share.result_hit", "fraction"),
    ("session.path_share.plan_hit", "fraction"),
    ("session.path_share.cold", "fraction"),
    ("session.plan_misses_per_update", "count"),
    ("session.read_after_update_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.node_visits", "count"),
    ("engine.document_scans", "count"),
    ("engine.visits_per_row", "ratio"),
    ("engine.operator_rows", "count"),
    ("index.probes", "count"),
    ("index.incremental_applies", "count"),
    ("index.full_builds", "count"),
    ("parallel.warmup_ms", "ms"),
    ("parallel.speedup", "ratio"),
    ("parallel.tasks", "count"),
    ("parallel.fallbacks", "count"),
    ("xmldb.update_ms", "ms"),
    ("xmldb.chain_length", "count"),
    ("xmldb.arena_rows", "ratio"),
    ("datagen.generate_ms", "ms"),
    ("xmldb.register_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("server.rejected", "count"),
    ("server.timeouts", "count"),
    ("server.coalesced", "count"),
    ("trace.overhead_pct", "%"),
)

#: ``code.lines.<module>`` is added per module of ``src/repro``; the
#: traced run fails when the modules found on disk differ from these
CODE_MODULES = ("__init__", "__main__", "api", "bench", "datagen",
                "engine", "errors", "index", "nal", "obs", "optimizer",
                "server", "session", "xmldb", "xpath", "xquery", "total")
