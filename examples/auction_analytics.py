"""Auction analytics over the XQuery use case "R" documents.

The paper's §5.6 motivates nested aggregation in the where clause (the
SQL HAVING analogue) on an auction database of users, items and bids.
This example runs three analytics queries and shows, for each, the plan
the optimizer picks and the document-scan savings:

1. popular items — items with at least three bids (paper Q1.4.4.14,
   Eqv. 3: grouping with count);
2. items in demand — items some bid on which exceeds 100
   (existential quantifier, Eqv. 6: semijoin);
3. cautious users — users all of whose bids stay at or below 200
   (universal quantifier, Eqv. 7/9: anti-semijoin or count-grouping).

Run with::

    python examples/auction_analytics.py
"""

from repro import Database, compile_query
from repro.datagen import (
    BIDS_DTD,
    ITEMS_DTD,
    USERS_DTD,
    generate_bids,
    generate_items,
    generate_users,
)

POPULAR_ITEMS = """
let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= 3
return
  <popular-item> { $i1 } </popular-item>
"""

ITEMS_IN_DEMAND = """
let $d1 := document("items.xml")
for $i1 in $d1//itemtuple/itemno
where some $b2 in document("bids.xml")//bidtuple[itemno = $i1]
      satisfies $b2/bid > 100
return
  <in-demand> { $i1 } </in-demand>
"""

CAUTIOUS_USERS = """
let $d1 := document("users.xml")
for $u1 in $d1//usertuple/userid
where every $b2 in document("bids.xml")//bidtuple[userid = $u1]
      satisfies $b2/bid <= 200
return
  <cautious-user> { $u1 } </cautious-user>
"""


def build_database(bids: int = 120, seed: int = 11) -> Database:
    db = Database()
    items = max(1, bids // 5)
    db.register_tree("bids.xml", generate_bids(bids, items=items,
                                               seed=seed),
                     dtd_text=BIDS_DTD)
    db.register_tree("items.xml", generate_items(items, seed=seed),
                     dtd_text=ITEMS_DTD)
    db.register_tree("users.xml", generate_users(60, seed=seed),
                     dtd_text=USERS_DTD)
    return db


def run(db: Database, title: str, text: str,
        show_rows: int = 4) -> None:
    query = compile_query(text, db)
    print(f"=== {title} ===")
    for alt in query.plans():
        # physical: the materializing engine whose scan counts the
        # paper reports
        result = db.execute(alt.plan, mode="physical")
        rules = "+".join(alt.applied) if alt.applied else "-"
        scans = sum(result.stats["document_scans"].values())
        print(f"  {alt.label:<10} [{rules:<18}] "
              f"{result.elapsed * 1000:8.2f} ms  scans={scans}")
    best = db.execute(query.best().plan)
    lines = [line for line in best.output.replace("><", ">\n<")
             .splitlines() if line.strip()]
    for line in lines[:show_rows]:
        print(f"    {line}")
    if len(lines) > show_rows:
        print(f"    … {len(lines) - show_rows} more rows")
    print()


def main() -> None:
    db = build_database()
    run(db, "popular items (>= 3 bids)", POPULAR_ITEMS)
    run(db, "items in demand (some bid > 100)", ITEMS_IN_DEMAND)
    run(db, "cautious users (every bid <= 200)", CAUTIOUS_USERS)


if __name__ == "__main__":
    main()
