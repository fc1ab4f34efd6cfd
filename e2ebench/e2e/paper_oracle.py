"""Expected outputs of the ``paper-analytics`` queries, computed in
plain Python from the registered documents — independent of the
translation, the rewriter and the engines under test.

A rewrite that changed a result (the paper's claim is that Eqv. 1–9
never do) fails the run against this oracle.  The grouping rewrites
may order the groups of a ``distinct-values`` query differently from
the nested plan, so for those queries the oracle fixes the multiset of
top-level blocks and :func:`same_output` compares them unordered; the
other queries are compared exactly, in document order."""

from __future__ import annotations

import re
from collections import Counter

#: query -> the tag of its top-level output blocks
BLOCK_TAG = {"q1": "author", "q2": "minprice", "q3": "book-with-review",
             "q4": "book", "q5": "new-author", "q6": "popular-item",
             "q8": "hot-item"}
#: queries whose group order follows ``distinct-values`` and may differ
#: between plans
UNORDERED = frozenset({"q1", "q2", "q5", "q6"})


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def _copy(node) -> str:
    """The serialization of an element copied into the output."""
    if node.name is None:
        return _escape(node.text or "")
    attrs = "".join(
        f' {a.name}="{_escape(a.text or "").replace(chr(34), "&quot;")}"'
        for a in node.attributes)
    inner = "".join(_copy(child) for child in node.children)
    if not inner:
        return f"<{node.name}{attrs}/>"
    return f"<{node.name}{attrs}>{inner}</{node.name}>"


def _elements(node, name: str) -> list:
    return [c for c in node.children if c.name == name]


def _descendants(root, name: str) -> list:
    return [n for n in root.iter_descendants(include_self=True)
            if n.name == name]


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _q1(bib) -> list[str]:
    books = _elements(bib, "book")
    authors = {id(b): {a.string_value() for a in _elements(b, "author")}
               for b in books}
    blocks = []
    for name in dict.fromkeys(a.string_value()
                              for a in _descendants(bib, "author")):
        titles = "".join(_copy(t) for b in books if name in authors[id(b)]
                         for t in _elements(b, "title"))
        blocks.append(f"<author><name>{_escape(name)}</name>{titles}"
                      f"</author>")
    return blocks


def _q2(prices) -> list[str]:
    lowest: dict[str, float] = {}
    for book in _descendants(prices, "book"):
        for title in _elements(book, "title"):
            for price in _elements(book, "price"):
                value = float(price.string_value())
                key = title.string_value()
                lowest[key] = min(lowest.get(key, value), value)
    blocks = []
    for title in dict.fromkeys(t.string_value() for b in
                               _descendants(prices, "book")
                               for t in _elements(b, "title")):
        escaped = _escape(title).replace('"', "&quot;")
        blocks.append(f'<minprice title="{escaped}"><price>'
                      f'{_number(lowest[title])}</price></minprice>')
    return blocks


def _q3(bib, reviews) -> list[str]:
    reviewed = {t.string_value() for e in _descendants(reviews, "entry")
                for t in _elements(e, "title")}
    return [f"<book-with-review>{_copy(t)}</book-with-review>"
            for b in _descendants(bib, "book")
            for t in _elements(b, "title") if t.string_value() in reviewed]


def _q4(bib) -> list[str]:
    books = _descendants(bib, "book")
    suciu = {b.string_value() for b in books
             if any("Suciu" in a.string_value()
                    for a in _elements(b, "author"))}
    return [f"<book>{_copy(a)}</book>" for b in books
            if b.string_value() in suciu for a in _elements(b, "author")]


def _q5(bib) -> list[str]:
    new = {}
    for book in _descendants(bib, "book"):
        year = book.attribute("year")
        recent = year is not None and float(year.text) > 1993
        for author in _elements(book, "author"):
            name = author.string_value()
            new[name] = new.get(name, True) and recent
    return [f"<new-author>{_escape(name)}</new-author>"
            for name in dict.fromkeys(a.string_value() for a in
                                      _descendants(bib, "author"))
            if new.get(name, True)]


def _q6(bids) -> list[str]:
    counts = Counter(i.string_value() for b in _descendants(bids, "bidtuple")
                     for i in _elements(b, "itemno"))
    return [f"<popular-item>{_escape(no)}</popular-item>"
            for no in dict.fromkeys(i.string_value() for i in
                                    _descendants(bids, "itemno"))
            if counts[no] >= 3]


def _q8(items, bids) -> list[str]:
    bid_items = {i.string_value() for b in _descendants(bids, "bidtuple")
                 for i in _elements(b, "itemno")}
    return [f"<hot-item>{_copy(no)}</hot-item>"
            for item in _elements(items, "itemtuple")
            for no in _elements(item, "itemno")
            if no.string_value() in bid_items]


def expected_blocks(main_store, q8_store) -> dict[str, list[str]]:
    """Each query's top-level output blocks, in the nested plan's
    order."""
    def root(store, name):
        return store.get(name).root
    bib = root(main_store, "bib.xml")
    return {
        "q1": _q1(bib),
        "q2": _q2(root(main_store, "prices.xml")),
        "q3": _q3(bib, root(main_store, "reviews.xml")),
        "q4": _q4(bib),
        "q5": _q5(bib),
        "q6": _q6(root(main_store, "bids.xml")),
        "q8": _q8(root(q8_store, "items.xml"), root(q8_store, "bids.xml")),
    }


def blocks(key: str, text: str) -> list[str] | None:
    """``text`` split into its top-level ``BLOCK_TAG[key]`` elements,
    or None when anything lies outside them."""
    tag = BLOCK_TAG[key]
    found = re.findall(rf"<{tag}(?:[ >].*?</{tag}>|/>)", text)
    return found if sum(map(len, found)) == len(text) else None


def same_output(key: str, text: str, want: list[str]) -> bool:
    """Whether a reply's output equals the oracle's blocks: exactly, or
    as a multiset for the :data:`UNORDERED` queries."""
    if key not in UNORDERED:
        return text == "".join(want)
    got = blocks(key, text)
    return got is not None and sorted(got) == sorted(want)
