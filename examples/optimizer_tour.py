"""A tour of the paper's nine unnesting equivalences.

For each equivalence of Fig. 4 (plus Eqv. 8/9) this example shows a
query that triggers it, the plan before and after, and — for the side
conditions — a counter-example where the optimizer must *refuse* the
rewrite (the DBLP case of §5.1, the missing condition in Paparizos et
al. that the paper corrects).

Three final sections show the other engine axes this repository adds:

- access-path selection — the same query explained against a store
  without indexes (every leaf is a document scan) and against one with
  ``index_mode="eager"``, where the cost model swaps the scan for an
  ``IdxScan`` value-index probe — zero document scans at execution time;
- execution modes — the same exists-query run under ``mode="physical"``
  and ``mode="pipelined"``, with the scan statistics and per-operator
  EXPLAIN ANALYZE row counts side by side (the full mode decision
  table, including ``vectorized`` and ``auto``, lives in
  ``docs/execution-modes.md``);
- arena storage — registered documents are finalized into an
  interval-encoded arena (pre/post/level columns, interned tag names),
  so a ``//tag`` step is a binary search over a contiguous row range;
  the section prints the arena's statistics and the same descendant
  query's EXPLAIN ANALYZE under the range scan vs. the legacy pointer
  walk.

Run with::

    python examples/optimizer_tour.py
"""

from __future__ import annotations

from repro import Database, compile_query
from repro.datagen import (
    BIB_DTD,
    BIDS_DTD,
    DBLP_DTD,
    PRICES_DTD,
    REVIEWS_DTD,
    generate_bib,
    generate_bids,
    generate_dblp,
    generate_prices,
    generate_reviews,
)

SEPARATOR = "-" * 68


def show(title: str, db: Database, text: str, note: str = "") -> None:
    query = compile_query(text, db)
    print(SEPARATOR)
    print(title)
    if note:
        print(f"  note: {note}")
    labels = [(a.label, "+".join(a.applied) or "-") for a in query.plans()]
    print(f"  alternatives: {labels}")
    best = query.best()
    # physical: the materializing engine whose scan counts the paper
    # reports
    nested = db.execute(query.plan_named("nested").plan, mode="physical")
    chosen = db.execute(best.plan, mode="physical")
    print(f"  nested plan : "
          f"{sum(nested.stats['document_scans'].values())} document scans")
    print(f"  chosen plan : {best.label}, "
          f"{sum(chosen.stats['document_scans'].values())} document scans")
    print()


def main() -> None:
    bib_db = Database()
    bib_db.register_tree("bib.xml", generate_bib(60, 2, seed=3),
                         dtd_text=BIB_DTD)
    bib_db.register_tree("reviews.xml", generate_reviews(30, seed=3),
                         dtd_text=REVIEWS_DTD)

    prices_db = Database()
    prices_db.register_tree("prices.xml", generate_prices(60, seed=3),
                            dtd_text=PRICES_DTD)

    bids_db = Database()
    bids_db.register_tree("bids.xml", generate_bids(100, items=20,
                                                    seed=3),
                          dtd_text=BIDS_DTD)

    dblp_db = Database()
    dblp_db.register_tree("bib.xml", generate_dblp(40, 120, seed=3),
                          dtd_text=DBLP_DTD)

    # Eqv. 1 (binary grouping / nest-join) + Eqv. 2 (outer join) +
    # Eqv. 3 (unary grouping): a θ-correlated aggregate.  All three
    # apply; 3 wins because titles occur only under book.
    show("Eqv. 1/2/3 — correlated aggregate (min price per title)",
         prices_db, """
let $d1 := doc("prices.xml")
for $t1 in distinct-values($d1//book/title)
let $m1 := min(for $b2 in doc("prices.xml")//book
               let $t2 := $b2/title
               let $p2 := decimal($b2/price)
               where $t1 = $t2
               return $p2)
return <minprice title="{ $t1 }"><price> { $m1 } </price></minprice>
""")

    # Eqv. 4 (outer join over membership) + Eqv. 5 (grouping over
    # membership): the correlation '$a1 = author' is existential
    # because books have several authors.
    show("Eqv. 4/5 — membership correlation (books per author)",
         bib_db, """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
""")

    # The DBLP counter-example: articles also have authors, so
    # e1 (all authors) != authors-of-books and Eqv. 5 must be refused;
    # Eqv. 4 (outer join) remains, exactly as in §5.1's DBLP paragraph.
    show("Eqv. 5 refused on DBLP-shaped data (the Paparizos condition)",
         dblp_db, """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
""", note="grouping must NOT appear among the alternatives")

    # Eqv. 6: existential quantifier -> order-preserving semijoin.
    show("Eqv. 6 — existential quantifier (books with a review)",
         bib_db, """
let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where some $t2 in document("reviews.xml")//entry/title
      satisfies $t1 = $t2
return <book-with-review> { $t1 } </book-with-review>
""")

    # Eqv. 7 + Eqv. 9: universal quantifier -> anti-semijoin; with the
    # schema condition, the count-based grouping that saves a scan.
    show("Eqv. 7/9 — universal quantifier (authors all after 1993)",
         bib_db, """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > 1993
return <new-author> { $a1 } </new-author>
""")

    # Eqv. 8: existential via exists() on a self-correlation -> the
    # count-grouping plan that scans the document once.
    show("Eqv. 6/8 — exists() self-correlation (authors of Suciu books)",
         bib_db, """
let $d1 := doc("bib.xml")
for $b1 in $d1//book, $a1 in $b1/author
where exists(for $b2 in $d1//book, $a2 in $b2/author
             where contains($a2, "Ullman") and $b1 = $b2
             return $b2)
return <book> { $a1 } </book>
""")

    # Eqv. 3 again, in its having-clause shape (§5.6).
    show("Eqv. 3 — aggregation in the where clause (popular items)",
         bids_db, """
let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= 3
return <popular-item> { $i1 } </popular-item>
""")

    show_access_paths()
    show_pipelined_execution()
    show_arena_storage()
    show_order_properties()
    show_observability()


def show_access_paths() -> None:
    """The same query planned without and with indexes: the plan texts
    differ in exactly one leaf (scan → IdxScan) and the executed scan
    statistics move from document_scans to index_probes."""
    from repro.datagen import ITEMS_DTD, generate_items

    query_text = """
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice > 400
return <expensive> { $i1/itemno } </expensive>
"""
    print(SEPARATOR)
    print("Access-path selection — scans vs. index probes")
    for mode in ("off", "eager"):
        db = Database(index_mode=mode)
        db.register_tree("items.xml", generate_items(120, seed=3),
                         dtd_text=ITEMS_DTD)
        query = compile_query(query_text, db)
        best = query.best()
        result = db.execute(best.plan, mode="physical")
        print(f"  index_mode={mode!r}: best plan is {best.label!r}")
        for line in query.explain(best.label).splitlines():
            print(f"    {line}")
        print(f"    stats: document_scans="
              f"{result.stats['document_scans']} "
              f"index_probes={result.stats['index_probes']} "
              f"node_visits={result.stats['node_visits']}")
    print()


def show_pipelined_execution() -> None:
    """The same exists-query executed by the materializing physical
    engine and by the pipelined engine: identical output, but the
    pipelined run stops each inner scan at the first witness — compare
    the node visits and the per-operator row counts."""
    from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
        generate_items
    from repro.engine.executor import analyze_to_string

    query_text = """
let $d1 := doc("items.xml")
for $i1 in $d1/items/itemtuple
where exists(
  for $b2 in doc("bids.xml")/bids/bidtuple
  where $b2/itemno = $i1/itemno
  return $b2)
return <hot-item> { $i1/itemno } </hot-item>
"""
    db = Database()
    db.register_tree("bids.xml", generate_bids(600, items=20, seed=3),
                     dtd_text=BIDS_DTD)
    db.register_tree("items.xml", generate_items(20, seed=3),
                     dtd_text=ITEMS_DTD)
    query = compile_query(query_text, db)
    plan = query.plan_named("nested").plan
    print(SEPARATOR)
    print("Pipelined execution — first-witness vs. all-tuples cost")
    outputs = {}
    for mode in ("physical", "pipelined"):
        result = db.execute(plan, mode=mode, analyze=True)
        outputs[mode] = result.output
        print(f"  mode={mode!r}: {result.elapsed:.4f}s, "
              f"node_visits={result.stats['node_visits']}, "
              f"document_scans="
              f"{sum(result.stats['document_scans'].values())}")
        for line in analyze_to_string(plan, result).splitlines():
            print(f"    {line}")
    assert outputs["physical"] == outputs["pipelined"]
    print("  outputs are byte-identical; the pipelined run stopped each"
          " inner bid scan at the first witness.")
    print()


def show_arena_storage() -> None:
    """The interval-encoded document store: registration freezes the
    tree into struct-of-arrays columns with pre/post/level numbering,
    so structural containment is one integer comparison and every
    ``//tag`` step is a binary search plus a contiguous range scan
    over exactly the matching rows — compare the node visits in the
    two EXPLAIN ANALYZE runs below (same plan, same documents; the
    ``walk`` run disables arena acceleration, which is the legacy
    object-graph behaviour)."""
    from repro.datagen import ITEMS_DTD, generate_items
    from repro.engine.executor import analyze_to_string
    from repro.xmldb import arena

    db = Database()
    db.register_tree("items.xml", generate_items(300, seed=3),
                     dtd_text=ITEMS_DTD)
    document = db.store.get("items.xml")
    stats = document.arena.stats()
    print(SEPARATOR)
    print("Arena storage — interval-encoded descendant range scans")
    print(f"  arena of 'items.xml': {stats['rows']} rows "
          f"({stats['kinds']['element']} elements, "
          f"{stats['kinds']['text']} text), "
          f"{stats['distinct_names']} interned names, "
          f"max depth {stats['max_depth']}")
    top_tags = list(stats["tag_counts"].items())[:4]
    print(f"  tag counts (top): "
          + ", ".join(f"{t}={c}" for t, c in top_tags))
    query = compile_query("""
let $d1 := doc("items.xml")
for $r1 in $d1//reserveprice
where $r1 >= 400
return <pricey> { $r1 } </pricey>
""", db)
    plan = query.best().plan
    outputs = {}
    for label, accelerated in (("walk (pointer-chasing baseline)",
                                False),
                               ("arena (range scan)", True)):
        with arena.acceleration(accelerated):
            result = db.execute(plan, mode="physical", analyze=True)
        outputs[label] = result.output
        print(f"  {label}: {result.elapsed:.4f}s, "
              f"node_visits={result.stats['node_visits']}")
        for line in analyze_to_string(plan, result).splitlines():
            print(f"    {line}")
    assert len(set(outputs.values())) == 1
    print("  outputs are byte-identical; the range scan touched only"
          " the reserveprice rows inside the scanned interval.")
    print()


def show_order_properties() -> None:
    """Sort elision: the order-property subsystem annotates every
    operator with what is already known about its output order —
    sources read arena guarantees, σ/Π/χ preserve, Sort/ΠD establish —
    and removes Sorts whose requirement provably holds.  The auction's
    itemno column is non-decreasing in document order (a fact the
    optimizer *checks once* against the frozen document and caches),
    so ``order by $i/itemno`` compiles to a ``Sort[elided: …]`` no-op;
    the same analysis lets the XPath evaluator skip its dedup-sort
    pass on provably ordered step sequences.  Set
    ``REPRO_ORDER_DEBUG=1`` (or ``properties.debug_checks(True)``) to
    have both engines re-verify every elided sort differentially at
    runtime."""
    from repro.datagen import ITEMS_DTD, generate_items
    from repro.optimizer import properties
    from repro.optimizer.properties import properties_to_string

    db = Database()
    db.register_tree("items.xml", generate_items(300, seed=3),
                     dtd_text=ITEMS_DTD)
    text = """
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item>{ $n1 }</item>
"""
    print(SEPARATOR)
    print("Order properties — sort elision over proven document order")
    outputs = {}
    for label, enabled in (("forced sorts (elision off)", False),
                           ("elided (order subsystem on)", True)):
        with properties.elision(enabled):
            query = compile_query(text, db)
            plan = query.plan_named("nested").plan
            result = db.execute(plan)
        outputs[label] = result.output
        print(f"  {label}: {result.elapsed:.4f}s")
        for line in properties_to_string(plan, db.store).splitlines():
            print(f"    {line}")
    assert len(set(outputs.values())) == 1
    print("  outputs are byte-identical: a stable sort over an input"
          " the inference proved")
    print("  already sorted is the identity — the elided plan just"
          " stopped paying for it.")
    print()


def show_observability() -> None:
    """The same machinery the CLI's ``trace`` subcommand and
    ``--timing`` flag use: one trace covering the whole query
    lifecycle, one request-scoped metrics registry."""
    from repro.api import trace_query
    from repro.datagen import ITEMS_DTD, generate_items

    db = Database()
    db.register_tree("items.xml", generate_items(50, seed=3),
                     dtd_text=ITEMS_DTD)
    text = """
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice > 300
return <pricey>{ $i1/itemno }</pricey>
"""
    print(SEPARATOR)
    print("Observability — lifecycle trace and per-operator metrics")
    print("(`python -m repro trace query.xq --docs … --out trace.json`"
          " from the CLI)")
    alt, result = trace_query(text, db, mode="pipelined")
    print(f"  plan: {alt.label}, {len(result.rows)} rows")
    for line in result.trace.to_pretty().splitlines():
        print(f"  {line}")
    print("  -- request-scoped metrics --")
    for line in result.metrics.to_pretty().splitlines():
        print(f"  {line}")
    print("  result.trace.chrome_json() exports the same spans as")
    print("  Chrome trace_event JSON for chrome://tracing / Perfetto.")
    print()


if __name__ == "__main__":
    main()
