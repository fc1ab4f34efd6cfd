"""E10 — order-property elision: proven order vs. forced sorts/dedups.

Not a paper table: this measures the order-property subsystem itself.
Document order is a semantic obligation of every query here, and after
the interval-encoded arena most of it comes for free — ``//tag`` slices
are born ordered and duplicate-free, and a column like the auction's
``itemno`` is non-decreasing in document order (a fact the optimizer
*checks* once against the frozen document and caches).  The baseline —
toggled via ``repro.optimizer.properties.elision(False)`` — forces the
legacy behaviour on the *same query, plan shape and engine*: every
``order by`` Sort executes and every XPath evaluation pays the
materialize-dedup-sort pass.

Q10 is an order-by-heavy auction report: items in ``itemno`` order,
each carrying two market-wide denominators (total bids / bid days, used
to put the item's own numbers in proportion).  The *nested* plan — the
translation every query starts from — re-evaluates the ``//bid`` and
``//biddate`` paths once per item, which is exactly the nested-loop
redundancy of the paper's experiments; with the order subsystem on,
each of those evaluations is a bare arena slice (the dedup pass is
provably redundant) and the ``order by`` Sort is elided outright
(``itemno`` is born sorted)::

    PYTHONPATH=src python benchmarks/bench_q10_order.py \\
        [items] [bids] [out.json]

which asserts the ≥5× speedup this PR's acceptance criterion names.  A
second leg (``q10_orderonly``, no per-item denominators) isolates the
Sort elision itself and is reported alongside.  Outputs must be
byte-identical between the two configurations — a stable sort over an
already-sorted stream is the identity, and the skipped dedup passes
were provably no-ops.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import Database, compile_query
from repro.bench.harness import write_json
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items
from repro.optimizer import properties
from repro.optimizer.elide_order import elided_sorts

Q10_REPORT = '''
let $d1 := doc("items.xml")
let $b1 := doc("bids.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item><no>{ $n1 }</no>
  <market-bids>{ count($b1//bid) }</market-bids>
  <market-days>{ count($b1//biddate) }</market-days></item>
'''

Q10_ORDERONLY = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item><no>{ $n1 }</no><d>{ $i1/description }</d></item>
'''

SIZES = ((200, 1000), (600, 3000))

_CACHE: dict[tuple[int, int, int], Database] = {}


def database(items: int, bids: int, seed: int = 7) -> Database:
    key = (items, bids, seed)
    if key not in _CACHE:
        db = Database()
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        db.register_tree("bids.xml",
                         generate_bids(bids, items=items, seed=seed),
                         dtd_text=BIDS_DTD)
        _CACHE[key] = db
    return _CACHE[key]


def compiled(db: Database, text: str, elision: bool):
    """The nested plan, compiled with the order subsystem on or off."""
    with properties.elision(elision):
        return compile_query(text, db).plan_named("nested").plan


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("elision", (False, True),
                         ids=("forced-sort", "elided"))
def test_q10_by_size(benchmark, elision, items, bids):
    db = database(items, bids)
    plan = compiled(db, Q10_REPORT, elision)
    benchmark.group = f"q10 order, items={items} bids={bids}"

    def run():
        with properties.elision(elision):
            return db.execute(plan, mode="physical").output

    benchmark(run)


def _best_of(db: Database, plan, elision: bool,
             repeat: int) -> tuple[float, object]:
    elapsed = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        with properties.elision(elision):
            result = db.execute(plan, mode="physical")
        elapsed = min(elapsed, result.elapsed)
    return elapsed, result


def speedup_at(items: int, bids: int, query_text: str, label: str,
               repeat: int = 3, seed: int = 7) -> dict:
    """Time one query with the order subsystem on and off; identical
    documents, same (nested) plan shape, byte-identical output
    required.  The elided plan must actually contain an elided Sort —
    the itemno guarantee is data-derived, so this also pins that the
    check fired."""
    db = database(items, bids, seed=seed)
    forced_plan = compiled(db, query_text, elision=False)
    elided_plan = compiled(db, query_text, elision=True)
    assert not elided_sorts(forced_plan), "baseline must force its sorts"
    assert elided_sorts(elided_plan), \
        "the order-by Sort on itemno should have been elided"
    forced_s, forced_result = _best_of(db, forced_plan, False, repeat)
    elided_s, elided_result = _best_of(db, elided_plan, True, repeat)
    assert elided_result.output == forced_result.output, \
        "elided plans must be byte-identical to forced-sort plans"
    return {
        "query": label,
        "items": items,
        "bids": bids,
        "forced_seconds": forced_s,
        "elided_seconds": elided_s,
        "speedup": forced_s / elided_s if elided_s else float("inf"),
        "elided_sorts": [op.label() for op in elided_sorts(elided_plan)],
    }


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 1000
    bids = int(argv[1]) if len(argv) > 1 else items * 5
    rows = [speedup_at(items, bids, Q10_REPORT, "q10_report"),
            speedup_at(items, bids, Q10_ORDERONLY, "q10_orderonly")]
    print(f"Q10 (order-property elision), items={items}, bids={bids}")
    for row in rows:
        print(f"  {row['query']}:")
        print(f"    forced sorts : {row['forced_seconds']:.4f}s")
        print(f"    elided       : {row['elided_seconds']:.4f}s "
              f"({', '.join(row['elided_sorts'])})")
        print(f"    speedup: {row['speedup']:.1f}x")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q10_order": rows}})
        print(f"  JSON written to {argv[2]}")
    report = rows[0]
    assert report["speedup"] >= 5.0, \
        f"expected >=5x speedup, got {report['speedup']:.1f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
