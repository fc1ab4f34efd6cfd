"""E7 — index subsystem: selective value predicate on the auction items.

Not a paper table: the paper's engine (Natix) has real access paths and
its experiments presuppose them; this benchmark shows our index
subsystem supplying the same ingredient.  Q7 selects the few items with
a high reserve price:

    for $i1 in doc("items.xml")//itemtuple
    where $i1/reserveprice > 480 ...

The scan plan walks all of items.xml per execution; the ``nested+index``
plan answers the predicate with one sorted value-index probe (plus the
ancestor lift back to the qualifying ``itemtuple`` elements).  Run
directly for the speedup check at scale::

    PYTHONPATH=src python benchmarks/bench_q7_index.py [items] [out.json]

which asserts the ≥5× speedup this PR's acceptance criterion names
(comfortably >100× at the default 10000 items).
"""

from __future__ import annotations

import sys

import pytest

from repro.api import CompiledQuery, Database, compile_query
from repro.bench.harness import time_plan, write_json
from repro.datagen import ITEMS_DTD, generate_items

Q7_INDEX = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice > 480
return
  <expensive>
    { $i1/itemno }
  </expensive>
'''

SIZES = (100, 1000)

_CACHE: dict[int, tuple[Database, CompiledQuery]] = {}


def compiled(items: int, seed: int = 7) -> tuple[Database, CompiledQuery]:
    if items not in _CACHE:
        db = Database(index_mode="eager")
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        _CACHE[items] = (db, compile_query(Q7_INDEX, db))
    return _CACHE[items]


@pytest.mark.parametrize("items", SIZES)
@pytest.mark.parametrize("plan", ("nested", "nested+index"))
def test_q7_by_size(benchmark, plan, items):
    db, query = compiled(items)
    physical = query.plan_named(plan).plan
    benchmark.group = f"q7 value predicate, items={items}"
    benchmark(lambda: db.execute(physical, mode="physical").output)


def speedup_at(items: int, repeat: int = 3, seed: int = 7) -> dict:
    """Measure scan vs probe at one scale; returns the comparison."""
    db, query = compiled(items, seed=seed)
    scan_plan = query.plan_named("nested").plan
    index_plan = query.plan_named("nested+index").plan
    scan_result = db.execute(scan_plan, mode="physical")
    index_result = db.execute(index_plan, mode="physical")
    assert index_result.output == scan_result.output, \
        "index plan must be byte-identical to the scan plan"
    scan_s = time_plan(db, scan_plan, repeat=repeat)
    index_s = time_plan(db, index_plan, repeat=repeat)
    return {
        "items": items,
        "matches": index_result.output.count("<expensive>"),
        "scan_seconds": scan_s,
        "index_seconds": index_s,
        "speedup": scan_s / index_s if index_s else float("inf"),
        "scan_node_visits": scan_result.stats["node_visits"],
        "index_node_visits": index_result.stats["node_visits"],
        "index_probes": index_result.stats["total_probes"],
        "document_scans_indexed": index_result.stats["total_scans"],
    }


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 10000
    comparison = speedup_at(items)
    print(f"Q7 (selective value predicate), items={items}, "
          f"matches={comparison['matches']}")
    print(f"  full scan : {comparison['scan_seconds']:.4f}s "
          f"({comparison['scan_node_visits']} node visits)")
    print(f"  IndexScan : {comparison['index_seconds']:.4f}s "
          f"({comparison['index_node_visits']} node visits, "
          f"{comparison['index_probes']} probe, "
          f"{comparison['document_scans_indexed']} document scans)")
    print(f"  speedup   : {comparison['speedup']:.1f}x")
    if len(argv) > 1:
        write_json(argv[1], {"schema": "repro-bench/1",
                             "queries": {"q7_index": [comparison]}})
        print(f"  JSON written to {argv[1]}")
    assert comparison["speedup"] >= 5.0, \
        f"expected >=5x speedup, got {comparison['speedup']:.1f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
