"""Tests for the high-level public API (`repro.api`)."""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, generate_bib
from repro.engine.executor import ExecutionResult

SIMPLE = """
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
return <t> { $t1 } </t>
"""

NESTED = """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
"""


@pytest.fixture
def db() -> Database:
    database = Database()
    database.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                           dtd_text=BIB_DTD)
    return database


def test_register_text_with_doctype_dtd():
    db = Database()
    doc = db.register_text("tiny.xml", """
<!DOCTYPE r [
<!ELEMENT r (x*)>
<!ELEMENT x (#PCDATA)>
]>
<r><x>1</x><x>2</x></r>
""")
    assert doc.dtd is not None
    assert "x" in doc.dtd.elements


def test_register_text_explicit_dtd_overrides_none():
    db = Database()
    doc = db.register_text("tiny.xml", "<r><x>1</x></r>",
                           dtd_text="<!ELEMENT r (x*)>\n"
                                    "<!ELEMENT x (#PCDATA)>")
    assert doc.dtd is not None


def test_compile_and_run_best(db):
    query = compile_query(NESTED, db)
    result = query.run(mode="physical")
    assert isinstance(result, ExecutionResult)
    assert "<author>" in result.output
    assert result.stats["document_scans"]["bib.xml"] <= 2


def test_default_mode_is_auto_and_reports_the_engine(db):
    plan = compile_query(NESTED, db).best().plan
    default = db.execute(plan)
    assert default.mode in ("pipelined", "vectorized", "parallel")
    explicit = db.execute(plan, mode=default.mode)
    assert explicit.mode == default.mode
    assert explicit.output == default.output
    for mode in ("physical", "reference"):
        assert db.execute(plan, mode=mode).mode == mode


def test_run_specific_label(db):
    query = compile_query(NESTED, db)
    nested = query.run("nested", mode="physical")
    best = query.run(mode="physical")
    # nested rescans once per distinct author; best does not
    assert nested.stats["document_scans"]["bib.xml"] > \
        best.stats["document_scans"]["bib.xml"]


def test_plans_order_and_nested_last(db):
    query = compile_query(NESTED, db)
    plans = query.plans()
    assert plans[-1].label == "nested"
    assert plans[0].rank <= plans[-1].rank
    assert all(p.applied == () for p in plans if p.label == "nested")


def test_plans_are_cached(db):
    query = compile_query(NESTED, db)
    assert query.plans() is query.plans()


def test_plan_named_unknown_label_raises(db):
    query = compile_query(NESTED, db)
    with pytest.raises(KeyError, match="available"):
        query.plan_named("hashjoin")


def test_explain_mentions_operators(db):
    query = compile_query(NESTED, db)
    text = query.explain()
    assert "Ξ" in text and "χ" in text
    best_text = query.explain(query.best().label)
    assert best_text != text


def test_unnestable_query_still_has_nested_plan(db):
    query = compile_query(SIMPLE, db)
    labels = [p.label for p in query.plans()]
    assert "nested" in labels


def test_execute_rejects_unknown_mode(db):
    query = compile_query(SIMPLE, db)
    with pytest.raises(ValueError, match="unknown execution mode"):
        db.execute(query.plan, mode="turbo")


def test_reference_and_physical_agree(db):
    query = compile_query(NESTED, db)
    for alt in query.plans():
        physical = db.execute(alt.plan, mode="physical")
        reference = db.execute(alt.plan, mode="reference")
        assert physical.output == reference.output, alt.label


def test_execution_result_repr(db):
    query = compile_query(SIMPLE, db)
    result = query.run()
    text = repr(result)
    assert "rows=" in text and "elapsed=" in text


# ---------------------------------------------------------------------------
# Store management: list_documents / unregister / index_mode
# ---------------------------------------------------------------------------

def test_list_documents(db):
    assert db.list_documents() == ["bib.xml"]
    db.register_text("a.xml", "<a/>")
    assert db.list_documents() == ["a.xml", "bib.xml"]


def test_unregister_removes_document(db):
    db.unregister("bib.xml")
    assert db.list_documents() == []
    # the name is free again: stores stay append-only per name in use
    db.register_tree("bib.xml", generate_bib(2, 1, seed=5),
                     dtd_text=BIB_DTD)
    assert db.list_documents() == ["bib.xml"]


def test_unregister_unknown_raises(db):
    from repro.errors import UnknownDocumentError
    with pytest.raises(UnknownDocumentError, match="nope.xml"):
        db.unregister("nope.xml")


def test_unregister_drops_indexes_and_stats():
    db = Database(index_mode="eager")
    db.register_tree("bib.xml", generate_bib(4, 2, seed=2),
                     dtd_text=BIB_DTD)
    assert db.store.indexes.built("bib.xml")
    compile_query(SIMPLE, db).run()
    db.unregister("bib.xml")
    assert not db.store.indexes.built("bib.xml")
    assert "bib.xml" not in db.store.stats.document_scans
    assert "bib.xml" not in db.store.stats.index_probes


def test_default_index_mode_is_off(db):
    assert db.index_mode == "off"
    assert not db.store.indexes.enabled
    labels = [p.label for p in compile_query(SIMPLE, db).plans()]
    assert all(not label.endswith("+index") for label in labels)


def test_indexed_database_runs_index_plan():
    db = Database(index_mode="lazy")
    db.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                     dtd_text=BIB_DTD)
    query = compile_query(SIMPLE, db)
    assert query.best().label == "nested+index"
    result = query.run()
    assert result.stats["total_probes"] >= 1
    assert result.stats["document_scans"] == {}
    scan_db = Database()
    scan_db.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                          dtd_text=BIB_DTD)
    assert result.output == compile_query(SIMPLE, scan_db).run().output
