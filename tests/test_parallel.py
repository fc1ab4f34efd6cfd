"""Tests for multi-process parallel execution (:mod:`repro.engine.
parallel`) and the shared-memory arena transport (:mod:`repro.xmldb.
shm`): differential identity against every serial engine across worker
counts and both partitioning strategies, merge-path selection, the
cost gate that keeps small inputs serial, crash self-healing, and
deterministic segment lifecycle."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.api import Database, compile_query
from repro.engine import parallel
from repro.errors import ParallelExecutionError, UnsupportedModeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimizer.cost import preferred_mode

SERIAL_MODES = ("physical", "pipelined", "vectorized", "reference")


def shard_xml(shard: int, items: int) -> str:
    rows = "".join(
        f"<item id='i{shard}-{j}'><name>n{shard}-{j}</name>"
        f"<price>{(j * 7 + shard) % 13}</price></item>"
        for j in range(items))
    return f"<items>{rows}</items>"


@pytest.fixture(scope="module")
def corpus():
    db = Database()
    for shard in range(8):
        db.register_text(f"shard-{shard}.xml", shard_xml(shard, 30))
    yield db
    db.close()


DOCS_QUERIES = {
    "scan": 'for $i in collection("shard-*.xml")//item return $i/name',
    "where": ('for $i in collection("shard-*.xml")//item '
              'where $i/price > 6 return $i/name'),
    "sorted": ('for $i in collection("shard-*.xml")//item '
               'order by $i/price return <r>{$i/name}</r>'),
}
RANGE_QUERIES = {
    "scan": 'for $i in doc("shard-0.xml")//item return $i/name',
    "where": ('for $i in doc("shard-0.xml")//item '
              'where $i/price > 6 return $i/name'),
    "sorted": ('for $i in doc("shard-0.xml")//item '
               'order by $i/price return <r>{$i/name}</r>'),
}


def best_plan(db: Database, query: str):
    return compile_query(query, db).best().plan


# ----------------------------------------------------------------------
# Differential identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DOCS_QUERIES))
def test_docs_strategy_matches_every_serial_engine(corpus, name):
    plan = best_plan(corpus, DOCS_QUERIES[name])
    references = {mode: corpus.execute(plan, mode=mode)
                  for mode in SERIAL_MODES}
    for workers in (1, 2, 4):
        par = corpus.execute(plan, mode="parallel", workers=workers)
        for mode, ref in references.items():
            assert par.output == ref.output, (name, workers, mode)
            assert par.rows == ref.rows, (name, workers, mode)


@pytest.mark.parametrize("name", sorted(RANGE_QUERIES))
def test_range_strategy_matches_every_serial_engine(corpus, name):
    plan = best_plan(corpus, RANGE_QUERIES[name])
    references = {mode: corpus.execute(plan, mode=mode)
                  for mode in SERIAL_MODES}
    for workers in (1, 2, 4):
        par = corpus.execute(plan, mode="parallel", workers=workers)
        for mode, ref in references.items():
            assert par.output == ref.output, (name, workers, mode)
            assert par.rows == ref.rows, (name, workers, mode)


def test_parallel_spans_and_task_metrics(corpus):
    plan = best_plan(corpus, DOCS_QUERIES["scan"])
    tracer, metrics = Tracer(), MetricsRegistry()
    corpus.execute(plan, mode="parallel", workers=4,
                   tracer=tracer, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters["parallel.tasks"] == 4
    names = {span.name for span in tracer.spans}
    assert "parallel.scatter-gather" in names
    assert {f"parallel.task[{i}]" for i in range(4)} <= names


# ----------------------------------------------------------------------
# Merge paths
# ----------------------------------------------------------------------
def merge_counters(db, query, workers=4) -> dict:
    metrics = MetricsRegistry()
    plan = best_plan(db, query)
    db.execute(plan, mode="parallel", workers=workers, metrics=metrics)
    return {key: value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("parallel.")}


def test_docs_strategy_kway_merges_when_order_certified(corpus):
    counters = merge_counters(corpus, DOCS_QUERIES["where"])
    assert counters["parallel.merge.kway"] == 1
    assert counters["parallel.tasks"] == 4


def test_range_strategy_concatenates_contiguous_slices(corpus):
    counters = merge_counters(corpus, RANGE_QUERIES["where"])
    assert counters["parallel.merge.concat"] == 1


def test_range_strategy_with_peeled_sort_is_gather_sort(corpus):
    counters = merge_counters(corpus, RANGE_QUERIES["sorted"])
    assert counters["parallel.merge.gather-sort"] == 1


# ----------------------------------------------------------------------
# Fallbacks and the cost gate
# ----------------------------------------------------------------------
def test_ineligible_plan_falls_back_to_serial(corpus):
    # child-axis path: no partitionable descendant scan
    query = 'for $i in doc("shard-0.xml")/items/item return $i/name'
    plan = best_plan(corpus, query)
    metrics = MetricsRegistry()
    par = corpus.execute(plan, mode="parallel", workers=4,
                         metrics=metrics)
    assert metrics.snapshot()["counters"]["parallel.fallback"] == 1
    assert par.output == corpus.execute(plan, mode="physical").output


def test_single_worker_falls_back_to_serial(corpus):
    plan = best_plan(corpus, DOCS_QUERIES["scan"])
    metrics = MetricsRegistry()
    corpus.execute(plan, mode="parallel", workers=1, metrics=metrics)
    assert metrics.snapshot()["counters"]["parallel.fallback"] == 1


def test_cost_gate_keeps_small_inputs_serial():
    db = Database()
    for shard in range(2):
        db.register_text(f"shard-{shard}.xml", shard_xml(shard, 3))
    plan = best_plan(db, DOCS_QUERIES["scan"])
    mode = preferred_mode(plan, db.store, workers=4)
    assert mode != "parallel", \
        "startup cost must dominate on a 6-item corpus"
    # and with no worker budget at all, parallel is never on the table
    assert preferred_mode(plan, db.store) in ("pipelined", "vectorized")


def test_cost_gate_opens_for_large_inputs():
    db = Database()
    for shard in range(8):
        db.register_text(f"shard-{shard}.xml", shard_xml(shard, 700))
    plan = best_plan(db, DOCS_QUERIES["scan"])
    assert preferred_mode(plan, db.store, workers=4) == "parallel"
    # without a worker budget the parallel alternative never competes
    assert preferred_mode(plan, db.store) != "parallel"
    db.close()


def test_analyze_under_auto_runs_a_serial_engine():
    """EXPLAIN ANALYZE cannot collect counts from worker processes, so
    ``auto`` with a worker budget picks a serial engine for it instead
    of raising; an explicit ``mode="parallel"`` still raises."""
    db = Database()
    db.register_text("big.xml", shard_xml(0, 8000))
    query = 'for $i in doc("big.xml")//item where $i/price > 6 ' \
            'return $i/name'
    plan = best_plan(db, query)
    assert preferred_mode(plan, db.store, workers=2) == "parallel"
    with db.session(default_mode="auto", default_workers=2) as session:
        result = session.execute(query, analyze=True)
    assert result.mode in ("pipelined", "vectorized")
    assert result.operator_counts
    result = db.execute(plan, workers=2, analyze=True)
    assert result.mode in ("pipelined", "vectorized")
    with pytest.raises(UnsupportedModeError, match="parallel"):
        db.execute(plan, mode="parallel", workers=2, analyze=True)
    db.close()


# ----------------------------------------------------------------------
# Crash injection and pool self-healing
# ----------------------------------------------------------------------
def test_worker_crash_raises_clean_error_and_pool_heals(corpus):
    plan = best_plan(corpus, DOCS_QUERIES["scan"])
    serial = corpus.execute(plan, mode="physical")
    with parallel.inject_crash(1):
        with pytest.raises(ParallelExecutionError):
            corpus.execute(plan, mode="parallel", workers=4)
    healed = corpus.execute(plan, mode="parallel", workers=4)
    assert healed.output == serial.output


def test_worker_error_is_marshalled_not_fatal(corpus):
    # A plan that explodes inside the worker (unknown doc joined on
    # the right side is caught pre-dispatch, so force an evaluation
    # error instead: division by zero inside a predicate).
    query = ('for $i in collection("shard-*.xml")//item '
             'where $i/price > 100 return $i/name')
    plan = best_plan(corpus, query)
    par = corpus.execute(plan, mode="parallel", workers=2)
    assert par.rows == corpus.execute(plan, mode="physical").rows


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
def test_unregister_unlinks_segment_and_close_unlinks_all():
    from multiprocessing import shared_memory

    db = Database()
    for shard in range(4):
        db.register_text(f"shard-{shard}.xml", shard_xml(shard, 30))
    plan = best_plan(db, DOCS_QUERIES["scan"])
    db.execute(plan, mode="parallel", workers=2)
    pool = parallel.get_pool(db.store)
    # export keys are (document name, version seq) pairs
    segments = {key[0]: export.manifest["segment"]
                for key, export in pool._exports.items()}
    assert segments, "parallel run must have exported documents"

    victim = "shard-1.xml"
    db.unregister(victim)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segments[victim], create=False)
    # the others are still attached and queryable
    remaining = best_plan(db, DOCS_QUERIES["scan"])
    par = db.execute(remaining, mode="parallel", workers=2)
    assert par.output == db.execute(remaining, mode="physical").output

    db.close()
    for name, segment in segments.items():
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment, create=False)


def test_no_resource_tracker_warnings_at_exit(tmp_path):
    """A full export/execute/exit cycle must leave no leaked segments
    and no resource-tracker stderr noise — the regression test for the
    double-unregister and lingering-view bugs."""
    script = tmp_path / "lifecycle.py"
    script.write_text(textwrap.dedent("""\
        from repro.api import Database, compile_query

        def main():
            db = Database()
            for shard in range(4):
                rows = "".join(f"<item><price>{j}</price></item>"
                               for j in range(30))
                db.register_text(f"shard-{shard}.xml",
                                 f"<items>{rows}</items>")
            query = ('for $i in collection("shard-*.xml")//item '
                     'where $i/price > 6 return $i/price')
            plan = compile_query(query, db).best().plan
            serial = db.execute(plan, mode="physical")
            par = db.execute(plan, mode="parallel", workers=2)
            assert par.output == serial.output
            db.unregister("shard-0.xml")
            # exit WITHOUT close(): the atexit hook must clean up

        if __name__ == "__main__":
            main()
    """))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr


def test_shm_roundtrip_is_byte_identical():
    from repro.xmldb.serialize import serialize
    from repro.xmldb.shm import attach_document, export_document

    db = Database()
    db.register_text("doc.xml", shard_xml(0, 25))
    document = db.store.get("doc.xml")
    export = export_document(document)
    try:
        twin = attach_document(export.manifest)
        assert serialize(twin.root) == serialize(document.root)
        assert twin.seq == document.seq
        assert len(twin.arena) == len(document.arena)
        # list() immediately: keeping the raw slice (a memoryview on
        # the shm arena) alive past detach() would pin the mapping
        assert list(twin.arena.descendants_by_tag(0, "item")) \
            == document.arena.descendants_by_tag(0, "item")
        twin.arena.detach()
    finally:
        export.close()


# ----------------------------------------------------------------------
# collection() surface
# ----------------------------------------------------------------------
def test_collection_matches_in_registration_order():
    db = Database()
    db.register_text("b.xml", "<d><v>2</v></d>")
    db.register_text("a.xml", "<d><v>1</v></d>")
    query = 'for $v in collection("*.xml")//v return $v'
    result = db.execute(best_plan(db, query), mode="physical")
    assert result.output == "<v>2</v><v>1</v>", \
        "collection order is registration (seq) order, not name order"
    db.close()


def test_collection_unmatched_pattern_is_empty(corpus):
    query = 'for $i in collection("nope-*.xml")//item return $i'
    result = corpus.execute(best_plan(corpus, query), mode="physical")
    assert result.rows == []
    assert result.output == ""


def test_collection_differential_across_engines(corpus):
    query = ('for $i in collection("shard-*.xml")//item '
             'where $i/price = 7 return <hit>{$i/name}</hit>')
    plan = best_plan(corpus, query)
    outputs = {mode: corpus.execute(plan, mode=mode).output
               for mode in SERIAL_MODES}
    assert len(set(outputs.values())) == 1, outputs


def test_collection_in_nested_flwor(corpus):
    query = ('for $i in collection("shard-[0-3]*.xml")//item '
             'where $i/price > 9 return <r>{$i/name}</r>')
    plan = best_plan(corpus, query)
    outputs = {mode: corpus.execute(plan, mode=mode).output
               for mode in SERIAL_MODES}
    assert len(set(outputs.values())) == 1, outputs
    par = corpus.execute(plan, mode="parallel", workers=2)
    assert par.output == outputs["physical"]


def test_result_cache_invalidates_on_membership_change():
    db = Database()
    db.register_text("shard-0.xml", shard_xml(0, 5))
    session = db.session()
    query = 'for $i in collection("shard-*.xml")//item return $i/name'
    first = session.execute(query)
    assert session.execute(query).cached
    db.register_text("shard-1.xml", shard_xml(1, 5))
    fresh = session.execute(query)
    assert not fresh.cached
    assert len(fresh.rows) == len(first.rows) * 2
    session.close()
    db.close()
