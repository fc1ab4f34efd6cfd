"""Query templates of the serving, update and corpus workloads, and an
oracle that computes their expected outputs in plain Python from the
generated documents — independent of the engine under test.

Each template holds one ``{lit}`` literal.  The shapes are those of
``benchmarks/bench_q12_serve.py`` (bids-scan, items-scan,
popular-items) and ``benchmarks/bench_q13_parallel.py`` (the shard and
range scans); ``seller-items`` adds an equality lookup the value index
answers."""

from __future__ import annotations

from collections import Counter

TEMPLATES = {
    "bids-scan": '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= {lit}
return <big>{{ $b1/itemno }}</big>
''',
    "items-scan": '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= {lit}
return <pricey>{{ $i1/itemno }}</pricey>
''',
    "popular-items": '''
let $d1 := doc("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= {lit}
return <popular-item>{{ $i1 }}</popular-item>
''',
    "seller-items": '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/offered_by = "{lit}"
return <offer>{{ $i1/itemno }}</offer>
''',
    "shards-scan": '''
for $i1 in collection("shard-*.xml")//itemtuple
where $i1/reserveprice >= {lit}
return <pricey>{{ $i1/itemno }}</pricey>
''',
    "range-scan": '''
let $d1 := doc("range.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= {lit}
return <pricey>{{ $i1/itemno }}</pricey>
''',
    "small-scan": '''
let $d1 := doc("small.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= {lit}
return <pricey>{{ $i1/itemno }}</pricey>
''',
}


def query(template: str, lit) -> str:
    return TEMPLATES[template].format(lit=lit)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _child_text(node, name: str):
    for child in node.children:
        if child.name == name:
            return child.string_value()
    return None


def item_rows(root) -> list[tuple]:
    """``(itemno, reserveprice or None, offered_by)`` per itemtuple of
    an items document, in document order."""
    rows = []
    for item in root.children:
        if item.name != "itemtuple":
            continue
        price = _child_text(item, "reserveprice")
        rows.append((_child_text(item, "itemno"),
                     None if price is None else float(price),
                     _child_text(item, "offered_by")))
    return rows


def bid_rows(root) -> list[tuple]:
    """``(itemno, bid)`` per bidtuple of a bids document."""
    return [(_child_text(b, "itemno"), float(_child_text(b, "bid")))
            for b in root.children if b.name == "bidtuple"]


def expected(template: str, lit, items=None, bids=None) -> str:
    """The exact output text ``query(template, lit)`` must produce over
    documents holding ``items`` (list of :func:`item_rows` lists, one
    per document in collection order) or ``bids``."""
    if template == "bids-scan":
        return "".join(f"<big><itemno>{no}</itemno></big>"
                       for no, bid in bids if bid >= float(lit))
    if template == "popular-items":
        counts = Counter(no for no, _ in bids)
        return "".join(f"<popular-item>{no}</popular-item>"
                       for no in dict.fromkeys(no for no, _ in bids)
                       if counts[no] >= float(lit))
    if template == "seller-items":
        return "".join(f"<offer><itemno>{no}</itemno></offer>"
                       for doc in items for no, _, seller in doc
                       if seller == lit)
    return "".join(f"<pricey><itemno>{no}</itemno></pricey>"
                   for doc in items for no, price, _ in doc
                   if price is not None and price >= float(lit))
