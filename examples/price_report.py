"""A price report: the library's extensions working together.

Builds the XMP ``prices.xml`` document and produces a report of the
cheapest offer per title, *ordered by price descending* — a query that
combines the paper's Eqv. 3 unnesting with the ``order by`` extension —
then shows the cost-based ranking and an EXPLAIN ANALYZE of the chosen
plan.

Run with::

    python examples/price_report.py
"""

from __future__ import annotations

from repro import Database, compile_query
from repro.datagen import PRICES_DTD, generate_prices
from repro.engine.executor import analyze_to_string

REPORT = """
let $d1 := doc("prices.xml")
for $t1 in distinct-values($d1//book/title)
let $m1 := min(let $d2 := doc("prices.xml")
               for $b2 in $d2//book
               let $t2 := $b2/title
               let $c2 := decimal($b2/price)
               where $t1 = $t2
               return $c2)
order by $m1 descending
return
  <offer>
    <title> { $t1 } </title>
    <best> { $m1 } </best>
  </offer>
"""


def main() -> None:
    db = Database()
    db.register_tree("prices.xml", generate_prices(40, seed=21),
                     dtd_text=PRICES_DTD)

    query = compile_query(REPORT, db, ranking="cost")

    print("=== plan alternatives (cost-ranked) ===")
    for alt in query.plans():
        rules = "+".join(alt.applied) if alt.applied else "-"
        print(f"  {alt.label:<10} [{rules:<12}] "
              f"estimated cost ≈ {alt.cost.total:>10.0f}")
    print()

    best = query.best()
    result = db.execute(best.plan, mode="physical", analyze=True)
    print(f"=== EXPLAIN ANALYZE ({best.label}) ===")
    print(analyze_to_string(best.plan, result))
    print()

    print("=== top of the report (price descending) ===")
    blocks = result.output.split("<offer>")[1:]
    for block in blocks[:5]:
        title = block.split("<title>")[1].split("</title>")[0].strip()
        price = block.split("<best>")[1].split("</best>")[0].strip()
        print(f"  {price:>8}  {title}")
    print(f"  … {len(blocks) - 5} more titles")

    prices = [float(b.split("<best>")[1].split("</best>")[0])
              for b in blocks]
    assert prices == sorted(prices, reverse=True), "report out of order!"
    print()
    nested = db.execute(query.plan_named("nested").plan, mode="physical")
    scans = sum(nested.stats["document_scans"].values())
    best_scans = sum(result.stats["document_scans"].values())
    print(f"document scans: nested plan {scans}, "
          f"chosen plan {best_scans}")


if __name__ == "__main__":
    main()
