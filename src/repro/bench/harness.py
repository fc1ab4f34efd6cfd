"""Measurement harness: run every plan variant of a paper query and
collect times, scan counts and outputs.

Besides the human-readable tables of :mod:`repro.bench.tables`, the
harness can serialize measurements as JSON (``python -m repro.bench
--json out.json``) so successive PRs can track a machine-readable
``BENCH_*.json`` performance trajectory instead of diffing prose.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.api import Database, compile_query
from repro.bench.queries import PAPER_QUERIES


@dataclass
class MeasuredPlan:
    label: str
    applied: tuple[str, ...]
    seconds: float
    document_scans: dict[str, int]
    output: str
    index_probes: dict[str, int] | None = None
    #: total arena rows touched (deterministic on seeded documents, so
    #: the perf-trajectory gate can compare it exactly across machines)
    node_visits: int = 0
    #: request-scoped counter snapshot from :mod:`repro.obs.metrics`
    #: (filled when :func:`measure_query` ran with capture_metrics)
    metrics: dict | None = None

    @property
    def total_scans(self) -> int:
        return sum(self.document_scans.values())

    @property
    def total_probes(self) -> int:
        return sum((self.index_probes or {}).values())

    def to_record(self) -> dict:
        """A JSON-serializable summary (the output text is reduced to
        its length — results can be megabytes)."""
        record = {
            "label": self.label,
            "applied": list(self.applied),
            "seconds": self.seconds,
            "document_scans": dict(self.document_scans),
            "total_scans": self.total_scans,
            "index_probes": dict(self.index_probes or {}),
            "total_probes": self.total_probes,
            "node_visits": self.node_visits,
            "output_chars": len(self.output),
        }
        if self.metrics is not None:
            record["metrics"] = self.metrics
        return record


def measure_query(key: str, repeat: int = 1,
                  labels: tuple[str, ...] | None = None,
                  capture_metrics: bool = False,
                  **db_params) -> list[MeasuredPlan]:
    """Compile one of the paper's queries against a freshly generated
    database and execute each plan variant ``repeat`` times under the
    materializing ``physical`` engine (reporting the minimum, as the
    paper's timings do; its document-scan counts are the paper's §5
    tables).

    ``capture_metrics=True`` attaches a request-scoped
    :class:`~repro.obs.metrics.MetricsRegistry` to one extra,
    *untimed* execution per plan and stores its counter snapshot on
    :attr:`MeasuredPlan.metrics` — per-operator invocation/row counts
    ride along without instrumentation overhead touching the timings."""
    spec = PAPER_QUERIES[key]
    db = spec.build_db(**db_params)
    compiled = compile_query(spec.text, db)
    wanted = labels if labels is not None else spec.plan_labels
    measured: list[MeasuredPlan] = []
    for label in wanted:
        alt = compiled.plan_named(label)
        best = float("inf")
        result = None
        for _ in range(max(1, repeat)):
            result = db.execute(alt.plan, mode="physical")
            best = min(best, result.elapsed)
        assert result is not None
        metrics_snapshot = None
        if capture_metrics:
            from repro.obs.metrics import MetricsRegistry
            registry = MetricsRegistry()
            db.execute(alt.plan, mode="physical", metrics=registry)
            metrics_snapshot = registry.snapshot()["counters"]
        measured.append(MeasuredPlan(label, alt.applied, best,
                                     result.stats["document_scans"],
                                     result.output,
                                     result.stats.get("index_probes"),
                                     result.stats.get("node_visits", 0),
                                     metrics_snapshot))
    return measured


def time_plan(db: Database, plan, repeat: int = 1) -> float:
    """Minimum wall-clock seconds over ``repeat`` physical-mode
    executions."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        db.execute(plan, mode="physical")
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Machine-readable results
# ----------------------------------------------------------------------
def measurements_to_json(measurements: dict, meta: dict | None = None
                         ) -> dict:
    """Convert ``{key: {param-tuple-or-str: [MeasuredPlan, ...]}}`` (or
    ``{key: [MeasuredPlan, ...]}``) into a JSON-serializable payload.

    The measurement pass that fills the shape is
    :func:`repro.bench.tables.all_tables` with ``collect=`` (what the
    CLI's ``--json`` uses) or a :meth:`~repro.bench.tables.QueryTable.
    to_measurements` call — one pass feeds both report and JSON."""
    queries: dict[str, list] = {}
    for key, per_query in measurements.items():
        records: list[dict] = []
        if isinstance(per_query, dict):
            for params, plans in per_query.items():
                for plan in plans:
                    record = plan.to_record()
                    record["params"] = params if isinstance(params, (
                        str, int)) else list(params)
                    records.append(record)
        else:
            records.extend(p.to_record() for p in per_query)
        queries[key] = records
    return {"schema": "repro-bench/1", "meta": meta or {},
            "queries": queries}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
