"""Quickstart: compile, unnest and run a nested XQuery.

Reproduces the paper's opening example (§5.1, XMP use case Q1.1.9.4):
books grouped by author.  The query nests a FLWR expression inside the
return clause; evaluated naively, the inner block rescans ``bib.xml``
once per author.  The optimizer rewrites it — order-preservingly — into
a single-scan grouping plan.

Run with::

    python examples/quickstart.py
"""

from repro import Database, compile_query

BIB = """
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann</publisher><price>39.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price>
  </book>
</bib>
"""

BIB_DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title, (author+ | editor+), publisher, price)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT author (last, first)>
<!ELEMENT editor (last, first, affiliation)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ELEMENT first (#PCDATA)>
<!ELEMENT affiliation (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

QUERY = """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author>
    <name> { $a1 } </name>
    {
      let $d2 := doc("bib.xml")
      for $b2 in $d2/book[$a1 = author]
      return $b2/title
    }
  </author>
"""


def main() -> None:
    db = Database()
    db.register_text("bib.xml", BIB, dtd_text=BIB_DTD)

    query = compile_query(QUERY, db)

    print("=== nested (translated) plan ===")
    print(query.explain())

    print("=== plan alternatives, best first ===")
    for alt in query.plans():
        rules = "+".join(alt.applied) if alt.applied else "(none)"
        print(f"  {alt.label:<10} via {rules}")
    print()

    for label in ("nested", query.best().label):
        result = db.execute(query.plan_named(label).plan,
                            mode="physical")
        scans = result.stats["document_scans"]
        print(f"--- {label}: {result.elapsed * 1000:.2f} ms, "
              f"document scans {scans} ---")

    print()
    print("=== query result (best plan) ===")
    print(db.execute(query.best().plan).output)


if __name__ == "__main__":
    main()
