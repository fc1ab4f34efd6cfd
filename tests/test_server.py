"""Tests for the query server (:mod:`repro.server`): HTTP contract,
error → status mapping, admission control, and the CLI's ``--server``
client mode with its exit codes."""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.__main__ import (
    EXIT_BAD_DOCUMENT,
    EXIT_BAD_QUERY,
    EXIT_SERVER_SATURATED,
    main,
)
from repro.api import Database
from repro.datagen import BIB_DTD, generate_bib
from repro.server.app import AdmissionController, QueryServer, \
    ServerConfig

TITLES_QUERY = 'for $t in doc("bib.xml")//title return $t'


class ServerHandle:
    """A QueryServer running on its own event-loop thread (port 0)."""

    def __init__(self, **config):
        self.db = Database(index_mode="lazy")
        self.db.register_tree("bib.xml", generate_bib(10, 2, seed=5),
                              dtd_text=BIB_DTD)
        self.session = self.db.session(default_timeout=30.0)
        self.server = QueryServer(self.session,
                                  ServerConfig(port=0, **config))
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        async def run() -> None:
            await self.server.start()
            ready.set()
            await self.server.serve_forever()

        def runner() -> None:
            try:
                self.loop.run_until_complete(run())
            except asyncio.CancelledError:
                pass

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert ready.wait(10), "server did not start"
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(
            lambda: [task.cancel()
                     for task in asyncio.all_tasks(self.loop)])
        self.thread.join(timeout=5)
        self.session.close()

    # -- tiny HTTP client ------------------------------------------------
    def get(self, path: str) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(self.base + path,
                                        timeout=10) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, payload, path: str = "/query",
             raw: bytes | None = None) -> tuple[int, dict, dict]:
        body = raw if raw is not None \
            else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=body,
            headers={"Content-Type": "application/json"},
            method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return (reply.status, json.loads(reply.read()),
                        dict(reply.headers))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle(max_concurrency=2, queue_depth=0)
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
def test_healthz(server):
    assert server.get("/healthz") == (200, {"status": "ok"})


def test_query_roundtrip_and_result_cache(server):
    status, first, _ = server.post({"query": TITLES_QUERY})
    assert status == 200
    assert first["rows"] == 10
    assert "<title>" in first["output"]
    # The default mode is "auto"; the reply names the engine it
    # resolved to (a ten-book scan is too small to amortize batches).
    assert first["mode"] == "pipelined"
    status, second, _ = server.post({"query": TITLES_QUERY})
    assert status == 200
    assert second["cached"] is True
    assert second["output"] == first["output"]
    assert second["mode"] == "pipelined"


def test_query_reply_names_an_explicit_mode(server):
    status, reply, _ = server.post({"query": TITLES_QUERY,
                                    "mode": "vectorized"})
    assert status == 200
    assert reply["mode"] == "vectorized"


def test_stats_endpoint(server):
    status, stats = server.get("/stats")
    assert status == 200
    assert stats["server"]["requests_total"] >= 1
    assert stats["server"]["max_concurrency"] == 2
    assert "plan_cache" in stats and "result_cache" in stats


def test_unknown_route_and_wrong_method(server):
    assert server.get("/nope")[0] == 404
    assert server.get("/query")[0] == 405


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_malformed_body_is_bad_query(server):
    status, payload, _ = server.post(None, raw=b"not json")
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"mode": "physical"})
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "timeout": "soon"})
    assert (status, payload["kind"]) == (400, "bad-query")


def test_parse_error_is_bad_query(server):
    status, payload, _ = server.post({"query": "for $x in ("})
    assert (status, payload["kind"]) == (400, "bad-query")


def test_unknown_document_is_bad_document(server):
    status, payload, _ = server.post(
        {"query": 'for $x in doc("no.xml")//a return $x'})
    assert (status, payload["kind"]) == (404, "bad-document")
    assert "unknown document" in payload["error"]


def test_unknown_mode_and_plan_are_bad_query(server):
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "mode": "bogus"})
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "plan": "hashjoin"})
    assert (status, payload["kind"]) == (400, "bad-query")


def test_deadline_is_gateway_timeout(server):
    nested = '''
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ let $d2 := doc("bib.xml")
                for $b2 in $d2/book[$a1 = author]
                return $b2/title }</a>
    '''
    status, payload, _ = server.post({"query": nested,
                                      "timeout": 1e-9})
    assert (status, payload["kind"]) == (504, "deadline")
    _, stats = server.get("/stats")
    assert stats["server"]["timeouts_total"] >= 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_saturation_rejects_with_503_and_retry_after(server):
    gate = threading.Event()
    server.server.before_execute = lambda: gate.wait(15)
    try:
        results: list[tuple] = []
        # Structurally distinct queries: identical plans would now
        # single-flight coalesce instead of occupying two workers.
        occupiers = [TITLES_QUERY,
                     'for $a in doc("bib.xml")//author return $a']

        def occupy(i: int) -> None:
            results.append(server.post(
                {"query": occupiers[i], "timeout": None}))

        workers = [threading.Thread(target=occupy, args=(i,))
                   for i in range(2)]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10
        while server.server.admission.active < 2:
            assert time.monotonic() < deadline, \
                "workers never became busy"
            time.sleep(0.01)
        status, payload, headers = server.post({"query": TITLES_QUERY})
        assert (status, payload["kind"]) == (503, "saturated")
        assert headers.get("Retry-After") == "1"
        assert "saturated" in payload["error"]
    finally:
        gate.set()
        for worker in workers:
            worker.join(timeout=15)
        server.server.before_execute = None
    assert all(result[0] == 200 for result in results), \
        "occupying requests must complete once the gate opens"
    _, stats = server.get("/stats")
    assert stats["server"]["rejected_total"] >= 1


def test_single_flight_coalescing(server):
    """Identical in-flight requests (same plan digest + document
    versions) execute once: followers share the leader's outcome and
    show up in the ``coalesced_total`` counter."""
    gate = threading.Event()
    entered = threading.Event()

    def hold() -> None:
        entered.set()
        gate.wait(15)

    server.server.before_execute = hold
    # Result-cache-cold shape; trailing comment makes the *text*
    # differ per follower while the plan digest stays identical —
    # coalescing keys on the work, not the bytes.
    query = ('for $t in doc("bib.xml")//title '
             'return <coalesce>{$t}</coalesce>')
    base = server.server.coalesced_total
    results: list[tuple] = []
    threads = [threading.Thread(
        target=lambda q=q: results.append(server.post({"query": q})))
        for q in (query, query, query + " (: follower :)")]
    try:
        threads[0].start()
        assert entered.wait(10), "leader never reached execution"
        # Fire followers one at a time so the short acquire→coalesce→
        # release window never overlaps (queue_depth=0 would 503).
        for count, thread in enumerate(threads[1:], start=1):
            thread.start()
            deadline = time.monotonic() + 10
            while server.server.coalesced_total < base + count:
                assert time.monotonic() < deadline, \
                    "request did not coalesce"
                time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(timeout=15)
    finally:
        gate.set()
        server.server.before_execute = None
    assert len(results) == 3
    assert all(status == 200 for status, _, _ in results)
    assert len({payload["output"] for _, payload, _ in results}) == 1
    _, stats = server.get("/stats")
    assert stats["server"]["coalesced_total"] >= base + 2


def test_admission_controller_counts():
    from repro.errors import ServerSaturatedError

    async def scenario() -> None:
        admission = AdmissionController(max_concurrency=1,
                                        queue_depth=0)
        await admission.acquire()
        assert (admission.active, admission.queued) == (1, 0)
        with pytest.raises(ServerSaturatedError):
            await admission.acquire()
        assert admission.rejected_total == 1
        admission.release()
        await admission.acquire()
        assert admission.admitted_total == 2
        admission.release()

    asyncio.run(scenario())


def test_admission_controller_validates_arguments():
    with pytest.raises(ValueError):
        AdmissionController(0, 4)
    with pytest.raises(ValueError):
        AdmissionController(1, -1)


# ----------------------------------------------------------------------
# CLI client mode (--server) and serve wiring
# ----------------------------------------------------------------------
def test_cli_client_mode_roundtrip(server, capsys):
    code = main(["--query", TITLES_QUERY, "--server", server.base,
                 "--stats"])
    assert code == 0
    captured = capsys.readouterr()
    assert "<title>" in captured.out
    assert "# plan:" in captured.err


def test_cli_client_mode_exit_codes(server, capsys):
    assert main(["--query", "for $x in (",
                 "--server", server.base]) == EXIT_BAD_QUERY
    assert main(["--query", 'for $x in doc("no.xml")//a return $x',
                 "--server", server.base]) == EXIT_BAD_DOCUMENT
    assert "unknown document" in capsys.readouterr().err


def test_cli_client_mode_saturated_exit_code(server, capsys):
    gate = threading.Event()
    server.server.before_execute = lambda: gate.wait(15)
    try:
        occupiers = [TITLES_QUERY,
                     'for $a in doc("bib.xml")//author return $a']
        workers = [threading.Thread(
            target=lambda i=i: server.post(
                {"query": occupiers[i], "timeout": None}))
            for i in range(2)]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10
        while server.server.admission.active < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        code = main(["--query", TITLES_QUERY,
                     "--server", server.base])
        assert code == EXIT_SERVER_SATURATED
        assert "saturated" in capsys.readouterr().err
    finally:
        gate.set()
        for worker in workers:
            worker.join(timeout=15)
        server.server.before_execute = None


def test_cli_client_mode_unreachable_server(capsys):
    code = main(["--query", TITLES_QUERY,
                 "--server", "http://127.0.0.1:1"])
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err


def test_build_server_from_cli_args(tmp_path):
    from repro.server.cli import build_serve_arg_parser, build_server
    from repro.xmldb.serialize import serialize
    (tmp_path / "bib.xml").write_text(
        serialize(generate_bib(5, 2, seed=4)))
    (tmp_path / "bib.dtd").write_text(BIB_DTD)
    args = build_serve_arg_parser().parse_args(
        ["--docs", str(tmp_path), "--port", "0", "--workers", "3",
         "--queue-depth", "5", "--timeout", "0", "--mode", "pipelined"])
    server = build_server(args)
    assert server.config.max_concurrency == 3
    assert server.config.queue_depth == 5
    assert server.config.default_timeout is None
    assert server.session.default_mode == "pipelined"
    assert server.session.database.list_documents() == ["bib.xml"]
