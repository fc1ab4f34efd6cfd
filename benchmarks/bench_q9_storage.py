"""E9 — arena storage: interval-encoded descendant axes vs. tree walks.

Not a paper table: this measures the storage-layer refactor itself.
Registered documents are finalized into an interval-encoded arena
(pre/post/level columns with per-tag row lists), so a ``//tag`` step is
a binary search plus a contiguous slice over exactly the result rows.
The baseline — toggled via ``repro.xmldb.arena.acceleration(False)`` on
the *same* documents and plans — is the pointer-chasing recursive walk
the object-graph storage used, which touches every element and text
node of the document per descendant step.

Q9 is a descendant-heavy auction digest: four ``//tag`` aggregations
over items.xml and bids.xml (every leg scans a whole document in the
baseline), plus a selective reserve-price filter reported alongside::

    PYTHONPATH=src python benchmarks/bench_q9_storage.py \\
        [items] [bids] [out.json]

which asserts the ≥5× speedup this PR's acceptance criterion names
(comfortably >10× at the default 4000 items × 20000 bids).
"""

from __future__ import annotations

import sys

import pytest

from repro.api import CompiledQuery, Database, compile_query
from repro.bench.harness import write_json
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items
from repro.xmldb import arena

Q9_DIGEST = '''
let $d1 := doc("items.xml")
let $b1 := doc("bids.xml")
return
  <digest>
    <items>{ count($d1//itemno) }</items>
    <bids>{ count($b1//bid) }</bids>
    <bid-days>{ count($b1//biddate) }</bid-days>
    <reserve-prices>{ count($d1//reserveprice) }</reserve-prices>
  </digest>
'''

Q9_FILTER = '''
let $d1 := doc("items.xml")
for $r1 in $d1//reserveprice
where $r1 >= 400
return <pricey> { $r1 } </pricey>
'''

SIZES = ((500, 2500), (2000, 10000))

_CACHE: dict[tuple[int, int], Database] = {}


def database(items: int, bids: int, seed: int = 7) -> Database:
    key = (items, bids)
    if key not in _CACHE:
        db = Database()
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        db.register_tree("bids.xml",
                         generate_bids(bids, items=items, seed=seed),
                         dtd_text=BIDS_DTD)
        _CACHE[key] = db
    return _CACHE[key]


def compiled(db: Database, text: str) -> CompiledQuery:
    return compile_query(text, db)


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("accelerated", (False, True),
                         ids=("walk", "arena"))
def test_q9_by_size(benchmark, accelerated, items, bids):
    db = database(items, bids)
    plan = compiled(db, Q9_DIGEST).best().plan
    benchmark.group = f"q9 storage, items={items} bids={bids}"

    def run():
        with arena.acceleration(accelerated):
            return db.execute(plan, mode="physical").output

    benchmark(run)


def _best_of(db: Database, plan, accelerated: bool,
             repeat: int) -> tuple[float, object]:
    elapsed = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        with arena.acceleration(accelerated):
            result = db.execute(plan, mode="physical")
        elapsed = min(elapsed, result.elapsed)
    return elapsed, result


def speedup_at(items: int, bids: int, query_text: str, label: str,
               repeat: int = 3, seed: int = 7) -> dict:
    """Time one query with and without arena acceleration; identical
    documents, identical plan, byte-identical output required."""
    db = database(items, bids, seed=seed)
    plan = compiled(db, query_text).best().plan
    walk_s, walk_result = _best_of(db, plan, False, repeat)
    arena_s, arena_result = _best_of(db, plan, True, repeat)
    assert arena_result.output == walk_result.output, \
        "arena range scans must be byte-identical to tree walks"
    return {
        "query": label,
        "items": items,
        "bids": bids,
        "walk_seconds": walk_s,
        "arena_seconds": arena_s,
        "speedup": walk_s / arena_s if arena_s else float("inf"),
        "walk_node_visits": walk_result.stats["node_visits"],
        "arena_node_visits": arena_result.stats["node_visits"],
    }


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 4000
    bids = int(argv[1]) if len(argv) > 1 else items * 5
    rows = [speedup_at(items, bids, Q9_DIGEST, "q9_digest"),
            speedup_at(items, bids, Q9_FILTER, "q9_filter")]
    print(f"Q9 (arena storage), items={items}, bids={bids}")
    for row in rows:
        print(f"  {row['query']}:")
        print(f"    walk  : {row['walk_seconds']:.4f}s "
              f"({row['walk_node_visits']} node visits)")
        print(f"    arena : {row['arena_seconds']:.4f}s "
              f"({row['arena_node_visits']} node visits)")
        print(f"    speedup: {row['speedup']:.1f}x")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q9_storage": rows}})
        print(f"  JSON written to {argv[2]}")
    digest = rows[0]
    assert digest["speedup"] >= 5.0, \
        f"expected >=5x speedup, got {digest['speedup']:.1f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
