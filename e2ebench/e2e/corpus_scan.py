"""``corpus-scan``: closed loop, one client, in-process
``Session(default_mode="auto", default_workers=nproc)``, result cache
bypassed (:mod:`e2e.roundrobin`).

The only workload on which ``engine.parallel`` and ``xmldb.shm`` run,
and the only one on the ``auto`` path with workers enabled: the q13
``collection("shard-*.xml")`` scan (k-way merge), the q13
single-document range scan (concat merge), and a small-input scan the
cost gate should keep serial.  Set-up includes the worker pool's
warm-up (the first parallel query)."""

from __future__ import annotations

import time

from e2e import roundrobin
from e2e.common import cpus, median
from e2e.queries import expected, item_rows, query

NAME = "corpus-scan"
SHARDS = 4
PER_SHARD = 2000
#: the range-scanned document holds as many items as the whole corpus
RANGE_ITEMS = SHARDS * PER_SHARD
SMALL_ITEMS = 50
LITERALS = {"shards-scan": 490, "range-scan": 490, "small-scan": 250}


class System:
    order = ("shards-scan", "range-scan", "small-scan")

    def __init__(self, seed: int):
        from repro.api import Database
        from repro.datagen import ITEMS_DTD, generate_items
        self.workers = cpus()
        start = time.perf_counter()
        docs = [(f"shard-{n}.xml", generate_items(PER_SHARD,
                                                   seed=seed + n))
                for n in range(SHARDS)]
        docs.append(("range.xml", generate_items(RANGE_ITEMS,
                                                 seed=seed + SHARDS)))
        docs.append(("small.xml", generate_items(SMALL_ITEMS,
                                                 seed=seed + SHARDS + 1)))
        self.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        self.db = Database()
        for name, tree in docs:
            self.db.register_tree(name, tree, dtd_text=ITEMS_DTD)
        self.register_s = time.perf_counter() - start
        self.session = self.db.session(default_mode="auto",
                                       default_workers=self.workers)
        self.session_of = {key: self.session for key in self.order}
        self.texts = {key: query(key, LITERALS[key]) for key in self.order}
        # First compile of each template, then one execution each: the
        # first parallel query spawns and warms the worker pool.
        self.prepared = {key: self.session.prepare(text)
                         for key, text in self.texts.items()}
        self.first_ms = {}
        for key in self.order:
            start = time.perf_counter()
            self.prepared[key].execute(use_result_cache=False)
            self.first_ms[key] = (time.perf_counter() - start) * 1e3

    def expected(self) -> dict:
        store = self.db.store
        shards = [item_rows(store.get(f"shard-{n}.xml").root)
                  for n in range(SHARDS)]
        docs = {"shards-scan": shards,
                "range-scan": [item_rows(store.get("range.xml").root)],
                "small-scan": [item_rows(store.get("small.xml").root)]}
        return {key: expected(key, LITERALS[key], items=docs[key])
                for key in self.order}

    @staticmethod
    def same(key: str, output: str, want: str) -> bool:
        return output == want

    def parallel_metrics(self, result, used: dict, times: dict) -> None:
        """``parallel.*``: warm-up, speedup over the best serial mode,
        and the scatter/fallback counters of one execution per query."""
        from repro.obs.metrics import MetricsRegistry
        parallel = [key for key in self.order if used[key] == "parallel"]
        result.layer("parallel.warmup_ms",
                     self.first_ms[parallel[0]] if parallel else 0.0, "ms")
        serial = ("physical", "pipelined", "vectorized")
        speedups = {}
        for key in self.order:
            best_serial = min(times[key][m] for m in serial
                              if m in times[key])
            speedups[key] = best_serial / times[key]["parallel"]
            result.report.append(f"  parallel.speedup.{key}: "
                                 f"{speedups[key]:.2f} (used "
                                 f"{used[key]})")
        result.layer("parallel.speedup",
                     median([speedups[k] for k in parallel])
                     if parallel else 0.0, "ratio", len(parallel))
        tasks = fallbacks = 0
        for key in self.order:
            registry = MetricsRegistry()
            self.prepared[key].execute(use_result_cache=False,
                                       metrics=registry)
            counters = registry.snapshot()["counters"]
            tasks += counters.get("parallel.tasks", 0)
            fallbacks += counters.get("parallel.fallback", 0)
        result.layer("parallel.tasks", tasks / len(self.order), "count")
        result.layer("parallel.fallbacks", fallbacks, "count")

    def close(self) -> None:
        self.session.close()
        self.db.close()


def run(seed: int, seconds: float, trace: bool):
    return roundrobin.run(NAME, lambda: System(seed), seed, seconds, trace)
