"""End-to-end benchmark of the repro XQuery engine: four seeded
workloads, an untraced run for end-to-end metrics and a traced run for
per-layer metrics.  See ``e2ebench/README.md``."""
