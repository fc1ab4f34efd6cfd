"""``serve-param``: closed loop against ``python -m repro serve`` in
its own process, so the load generator does not share the server's GIL.

The server holds seeded auction documents at the q12 scale (100 items,
500 bids) with ``--index-mode lazy`` and ``--workers`` = ``nproc``.
One generator process sends the q12 ``bids-scan``, ``items-scan`` and
``popular-items`` templates from one seeded request sequence over
``CONNECTIONS`` connections (one thread each); each sends its next
request as soon as its last reply arrives.  Literals are drawn
Zipf-like from populations of distinct texts (``POPULATION``) far
larger than the plan cache (128) and the result cache (256), so reads
hit the result cache or compile cold.  Latency is timed from each
request's send.

The design called for an open loop at a fixed offered rate.  On a
2-CPU VM whose speed swings by up to 2x within seconds, open-loop
latency charges every stall to the requests queued behind it, and its
p95 spread from run to run (0.4-0.9 of the median) was far beyond the
benchmark's bound.  The closed loop measures the same layers without
the queue.

Expected outputs come from the plain-Python oracle of
:mod:`e2e.queries`, checked after the window."""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import OrderedDict

from e2e.common import (SRC, WORK, OutputMismatch, RunResult, Window, Zipf,
                        cpus, end_to_end, hit_rates, median, path_shares,
                        peak_rss_mb, timed_setups)
from e2e.queries import bid_rows, expected, item_rows, query

NAME = "serve-param"
ITEMS, BIDS = 100, 500
#: the mix: template -> share of requests
MIX = {"bids-scan": 0.45, "items-scan": 0.45, "popular-items": 0.10}
#: distinct literals per template.  The scans draw from far more texts
#: than the plan cache (128) and the result cache (256) hold.
#: popular-items executes for ~18 ms where a scan takes ~0.3 ms, so its
#: four thresholds are drawn often enough to stay cached: the front end,
#: the caches and HTTP carry this workload, not the engine.
POPULATION = {"bids-scan": 1000, "items-scan": 1000, "popular-items": 4}
#: the Zipf exponent of the literal draw: about two thirds of the reads
#: hit the result cache and the rest compile cold.  A plan-cache-only
#: hit needs a text's plan cached but not its result, which an LRU
#: result cache twice the plan cache's size, keyed per plan, rarely
#: allows.
ZIPF_S = 1.05
#: load-generating connections, one thread each, at most ``nproc``.
#: One: on a 2-CPU box the server's event loop and thread pool already
#: fill both CPUs, and a second client thread only adds contention.
CONNECTIONS = 1
SERVER_START_TIMEOUT = 60.0
#: a literal per template that no drawn request uses, for the first
#: compile of each template during set-up
WARM_LITERAL = {"bids-scan": "1000.5", "items-scan": "500.5",
                "popular-items": "1000.5"}


def literal(template: str, rank: int, permutation: list) -> str:
    """The literal of a template's ``rank``-th most popular text."""
    value = permutation[rank]
    if template == "bids-scan":
        return f"{900 + value / 10:.1f}"
    if template == "items-scan":
        return f"{400 + value / 10:.1f}"
    return f"{1 + value / 2:g}"


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` over documents written to ``docs``."""

    def __init__(self, docs, log):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_path = log
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--docs", str(docs), "--index-mode", "lazy",
             "--workers", str(cpus())],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log,
            cwd=str(WORK))
        try:
            self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: "
                                   f"{self.log_path.read_text()[-2000:]}")
            for line in self.log_path.read_text().splitlines():
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("server did not start listening")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")["status"] == "ok":
                    return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def post(self, payload: dict) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a benchmark started as a background
            # job passes SIGINT on ignored, and the server would then
            # stop only at the kill after the timeout.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class System:
    def __init__(self, seed: int, directory):
        from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
            generate_items
        from repro.xmldb.serialize import serialize
        start = time.perf_counter()
        self.items = generate_items(ITEMS, seed=seed)
        self.bids = generate_bids(BIDS, items=ITEMS, seed=seed)
        self.generate_s = time.perf_counter() - start
        docs = directory / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        for name, tree, dtd in (("items", self.items, ITEMS_DTD),
                                ("bids", self.bids, BIDS_DTD)):
            (docs / f"{name}.xml").write_text(serialize(tree))
            (docs / f"{name}.dtd").write_text(dtd)
        self.docs = docs
        start = time.perf_counter()
        self.server = Server(docs, directory / "server.log")
        self.start_s = time.perf_counter() - start
        # First compile of each template.
        for template in MIX:
            status, _ = self.server.post(
                {"query": query(template, WARM_LITERAL[template])})
            if status != 200:
                self.server.stop()
                raise RuntimeError(f"warm-up {template}: HTTP {status}")

    def close(self) -> None:
        self.server.stop()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def requests(seed: int):
    """The seeded, endless request sequence: ``(template, literal)``
    pairs, the same for the same seed."""
    rng = random.Random(seed * 31337 + 17)
    zipfs = {template: Zipf(size, ZIPF_S)
             for template, size in POPULATION.items()}
    permutations = {}
    for template, size in POPULATION.items():
        permutation = list(range(size))
        rng.shuffle(permutation)
        permutations[template] = permutation
    templates, weights = list(MIX), list(MIX.values())
    while True:
        template = rng.choices(templates, weights)[0]
        yield template, literal(template, zipfs[template].draw(rng),
                                permutations[template])


class Sample:
    __slots__ = ("index", "template", "lit", "sent", "done", "status",
                 "body", "size", "traced")


def generate(server: Server, sequence, window: Window,
             spans=None) -> list[Sample]:
    """Send requests from ``sequence`` over ``CONNECTIONS`` connections
    until the window closes; each thread takes the next request, sends
    it and waits for the reply.  With ``spans``, every second request is
    traced, so traced and untraced requests see the same machine."""
    samples = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))

    def worker():
        while True:
            with lock:
                if not window.open():
                    return
                index = next(counter)
                template, lit = next(sequence)
            sample = Sample()
            sample.index, sample.template, sample.lit = index, template, lit
            sample.traced = spans is not None and index % 2 == 1
            payload = {"query": query(template, lit)}
            sample.sent = time.perf_counter()
            try:
                if not sample.traced:
                    sample.status, sample.body = server.post(payload)
                else:
                    with spans.span("request", "bench",
                                    rid=spans.new_request()):
                        with spans.span("POST /query", "server"):
                            sample.status, sample.body = \
                                server.post(payload)
                            end = time.perf_counter()
                            if sample.status == 200:
                                # the server's own execution time, as
                                # a child placed at the reply's end
                                elapsed = json.loads(
                                    sample.body)["elapsed"]
                                spans.add("execute (server-reported)",
                                          "engine", end - elapsed, end)
            except OSError as exc:
                sample.status, sample.body = 0, repr(exc).encode()
            sample.done = time.perf_counter()
            sample.size = len(sample.body)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=worker)
               for _ in range(min(CONNECTIONS, cpus()))]
    window.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples


def shadow_paths(samples) -> dict:
    """Classify each read by the path the server's caches give it,
    replaying the request order through LRU maps of the server's
    default capacities (plan cache by text, result cache by plan); the
    server's own ``/stats`` counters check the replay."""
    plan, result = OrderedDict(), OrderedDict()
    paths = {"result_hit": 0, "plan_hit": 0, "cold": 0}
    compiles = 0

    def touch(cache, key, capacity):
        hit = key in cache
        cache[key] = True
        cache.move_to_end(key)
        if len(cache) > capacity:
            cache.popitem(last=False)
        return hit

    for sample in samples:
        key = (sample.template, sample.lit)
        plan_hit = touch(plan, key, 128)
        result_hit = touch(result, key, 256)
        compiles += not plan_hit
        paths["result_hit" if result_hit else
              "plan_hit" if plan_hit else "cold"] += 1
    return {"paths": paths, "compiles": compiles}


def _check(samples, oracle_docs, result: RunResult):
    """Count failures and compare every 200 reply with the oracle."""
    cache = {}
    ok = []
    for sample in samples:
        result.attempted += 1
        if sample.status != 200:
            result.failed += 1
            continue
        reply = json.loads(sample.body)
        key = (sample.template, sample.lit)
        if key not in cache:
            cache[key] = expected(sample.template, sample.lit,
                                  **oracle_docs)
        if reply["output"] != cache[key]:
            raise OutputMismatch(f"{NAME} {sample.template}"
                                 f"({sample.lit}): output differs from "
                                 f"the oracle's")
        ok.append((sample, reply))
    return ok


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    directory = WORK / f"{NAME}-{seed}-{os.getpid()}"
    system, setups = timed_setups(lambda: System(seed, directory),
                                  lambda s: s.close())
    try:
        _run(system, setups, seed, seconds, trace, result)
    finally:
        system.close()
        shutil.rmtree(directory, ignore_errors=True)
    return result


def _window(system, seed, seconds, spans=None):
    before = system.server.get("/stats")
    window = Window(seconds)
    samples = generate(system.server, requests(seed), window, spans)
    elapsed = window.elapsed()
    after = system.server.get("/stats")
    return samples, elapsed, before, after


def _run(system: System, setups, seed, seconds, trace, result) -> None:
    oracle_docs = {"items": [item_rows(system.items)],
                   "bids": bid_rows(system.bids)}
    if not trace:
        samples, elapsed, before, after = _window(system, seed, seconds)
        ok = _check(samples, oracle_docs, result)
        reads = [s.done - s.sent for s, _ in ok]
        end_to_end(result, setups, reads, len(ok), elapsed,
                   system.server.peak_rss_mb())
        _shares(result, samples, before, after)
        return

    from e2e.spans import SpanLog
    spans = SpanLog()
    samples, elapsed, before, after = _window(system, seed, seconds,
                                              spans)
    ok = _check(samples, oracle_docs, result)
    _layer_metrics(system, result, samples, ok, before, after, spans)
    plain = [s.done - s.sent for s, _ in ok if not s.traced]
    traced = [s.done - s.sent for s, _ in ok if s.traced]
    result.layer("trace.overhead_pct",
                 (median(traced) / median(plain) - 1) * 100, "%",
                 len(traced))
    spans.write(WORK / f"trace-{NAME}-{seed}.json")


def _shares(result: RunResult, samples, before, after) -> None:
    shadow = shadow_paths(samples)
    path_shares(result, shadow["paths"])
    compiles = (after["plan_cache"]["misses"]
                - before["plan_cache"]["misses"])
    result.report.append(
        f"  distinct texts {len({(s.template, s.lit) for s in samples})} "
        f"of {sum(POPULATION.values())} (plan cache 128, result cache 256); "
        f"compiles: replay {shadow['compiles']}, server {compiles}")


def _layer_metrics(system, result, samples, ok, before, after,
                   spans) -> None:
    from repro.api import Database
    from repro.datagen import BIDS_DTD, ITEMS_DTD

    from e2e import analysis

    hit_rates(result, before, after)
    _shares(result, samples, before, after)
    for name, key in (("rejected", "rejected_total"),
                      ("timeouts", "timeouts_total"),
                      ("coalesced", "coalesced_total")):
        result.layer(f"server.{name}",
                     after["server"][key] - before["server"][key], "count")
    hits = [(s.done - s.sent) - r["elapsed"] for s, r in ok if r["cached"]]
    result.layer("server.overhead_ms", median(hits) * 1e3 if hits else 0.0,
                 "ms", len(hits))
    result.layer("server.response_bytes",
                 sum(s.size for s in samples) / max(1, len(samples)),
                 "bytes", len(samples))
    executed = [r for _, r in ok if not r["cached"]]
    if executed:
        n = len(executed)
        visits = sum(r["stats"]["node_visits"] for r in executed)
        result.layer("engine.execute_ms",
                     median([r["elapsed"] for r in executed]) * 1e3, "ms", n)
        result.layer("engine.node_visits", visits / n, "count", n)
        result.layer("engine.document_scans", sum(
            r["stats"]["total_scans"] for r in executed) / n, "count", n)
        result.layer("index.probes", sum(
            r["stats"]["total_probes"] for r in executed) / n, "count", n)
        result.layer("engine.visits_per_row",
                     visits / max(1, sum(r["rows"] for r in executed)),
                     "ratio")
    # The front end's split, replayed in this process on texts the
    # server certainly compiled cold: their first requests in the run.
    local = Database(index_mode="lazy")
    start = time.perf_counter()
    local.register_text("items.xml", (system.docs / "items.xml")
                        .read_text(), dtd_text=ITEMS_DTD)
    local.register_text("bids.xml", (system.docs / "bids.xml")
                        .read_text(), dtd_text=BIDS_DTD)
    result.layer("xmldb.register_ms", (time.perf_counter() - start) * 1e3,
                 "ms")
    first = list(dict.fromkeys(query(s.template, s.lit) for s in samples))
    analysis.replay_metrics(result, first[:200], local.store)
    with local.session() as session:
        result.layer("engine.operator_rows", analysis.mean_operator_rows(
            session, [query(t, WARM_LITERAL[t]) for t in MIX]), "count")
    local.close()
    result.layer("datagen.generate_ms", system.generate_s * 1e3, "ms")
    result.report.append(f"  server start to /healthz "
                         f"{system.start_s * 1e3:.0f} ms")
    result.report.extend(analysis.self_time_lines(
        spans, sum(s.traced for s in samples)))
