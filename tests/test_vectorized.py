"""Unit and integration tests for the vectorized engine's batch layer.

The differential suite (``test_engine_differential.py``) already pins
vectorized ≡ pipelined ≡ physical ≡ reference on randomized operator
trees; this file tests the batch machinery itself — ``Batch``
immutability and lazy caching, the numeric-column kernels and their
numpy/pure-python parity, the fused select-over-map pass (that it
engages on the normalizer's ``where`` shape, bails out on
non-reproducible data, and stays disabled under observation), the
``auto`` mode dispatch, and the first-witness evaluation of σ
quantifiers over nested plans.
"""

from __future__ import annotations

import pytest

from repro.api import Database, compile_query, trace_query
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items
from repro.engine.batch import (
    Batch,
    BatchBuffers,
    BroadcastColumn,
    compare_columns,
    numeric_column,
    numpy_available,
    numpy_enabled,
    selection_vector,
    use_numpy,
)
from repro.engine.executor import execute
from repro.nal import NULL, Construct, Lit, Select, Table, Tup
from repro.nal.scalar import (
    And,
    AttrRef,
    Comparison,
    Exists,
    Forall,
    FuncCall,
    NestedPlan,
    Not,
)
from repro.optimizer.cost import preferred_mode
from repro.xmldb.document import DocumentStore

BIDS_QUERY = '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= 900
return <big>{ $b1/itemno }</big>
'''


@pytest.fixture
def bids_db() -> Database:
    db = Database()
    db.register_tree("bids.xml", generate_bids(300, items=60, seed=7),
                     dtd_text=BIDS_DTD)
    return db


# ----------------------------------------------------------------------
# Batch representation
# ----------------------------------------------------------------------
def test_batch_row_column_roundtrip():
    rows = [Tup({"A": i, "B": i * 10}) for i in range(4)]
    batch = Batch.from_rows(rows)
    assert not batch.is_columnar
    assert batch.column("B") == [0, 10, 20, 30]
    again = Batch.from_columns({"A": batch.column("A"),
                                "B": batch.column("B")}, len(batch))
    assert again.is_columnar
    assert again.to_rows() == rows


def test_batch_to_rows_is_cached():
    batch = Batch.from_columns({"A": [1, 2]}, 2)
    assert batch.to_rows() is batch.to_rows()


def test_take_preserves_the_source_batch():
    batch = Batch.from_columns({"A": [0, 1, 2, 3]}, 4)
    taken = batch.take(selection_vector([3, 1]))
    assert taken.column("A") == [3, 1]
    assert len(taken) == 2
    # the source is untouched (batch immutability)
    assert batch.column("A") == [0, 1, 2, 3]
    assert len(batch) == 4


def test_with_column_appends_without_mutating():
    batch = Batch.from_columns({"A": [1, 2]}, 2)
    extended = batch.with_column("B", ["x", "y"])
    assert extended.attrs == ("A", "B")
    assert extended.to_rows() == [Tup({"A": 1, "B": "x"}),
                                  Tup({"A": 2, "B": "y"})]
    assert batch.attrs == ("A",)


def test_replicate_builds_the_unnest_shape():
    batch = Batch.from_columns({"A": [10, 20]}, 2)
    out = batch.replicate([0, 0, 1], "v", ["a", "b", "c"])
    assert out.to_rows() == [Tup({"A": 10, "v": "a"}),
                             Tup({"A": 10, "v": "b"}),
                             Tup({"A": 20, "v": "c"})]


def test_project_and_rename():
    batch = Batch.from_columns({"A": [1], "B": [2], "C": [3]}, 1)
    assert batch.project(("C", "A")).attrs == ("C", "A")
    assert batch.project_away(("B",)).attrs == ("A", "C")
    renamed = batch.rename({"A": "X"})
    assert renamed.attrs == ("X", "B", "C")
    assert renamed.column("X") == [1]


def test_batch_buffers_pool_reuses_released_buffers():
    buffers = BatchBuffers()
    first = buffers.acquire()
    first.extend([1, 2, 3])
    buffers.release(first)
    second = buffers.acquire()
    assert second is first and second == []   # cleared and reused
    assert buffers.peak == 1 and buffers.acquired == 2


# ----------------------------------------------------------------------
# Numeric kernels
# ----------------------------------------------------------------------
def test_numeric_column_edges():
    assert numeric_column([1, 2.5, "3", NULL]) == [1.0, 2.5, 3.0, None]
    # any non-numeric entry disqualifies the whole column
    assert numeric_column([1, "not a number"]) is None
    # booleans are not numbers under the comparison semantics
    assert numeric_column([1, True]) is None
    # ints beyond exact float range must not be silently rounded
    assert numeric_column([2 ** 53 + 1]) is None


def test_numeric_column_broadcast():
    broadcast = BroadcastColumn([7] * 1000)
    assert numeric_column(broadcast) == [7.0] * 1000
    assert numeric_column(BroadcastColumn(["x"] * 5)) is None


@pytest.mark.parametrize("op", ("=", "!=", "<", "<=", ">", ">="))
def test_compare_columns_numpy_parity(op):
    left = [1, 2.0, "3", NULL, 5]
    right = [1.0, 3, 2, 4, NULL]
    with use_numpy(False):
        pure = compare_columns(left, op, right)
    assert compare_columns(left, op, right) == pure
    assert pure[3] is False and pure[4] is False   # NULL compares false


def test_use_numpy_toggle_restores():
    before = numpy_enabled()
    with use_numpy(False):
        assert not numpy_enabled()
    assert numpy_enabled() == before


# ----------------------------------------------------------------------
# Fused select-over-map
# ----------------------------------------------------------------------
def _spy_on_fusion(monkeypatch):
    """Wrap the fused kernel; records True per engaged batch, False per
    data-dependent bail-out."""
    import repro.engine.vectorized as vec
    outcomes: list[bool] = []
    real = vec._fused_select_map

    def spy(plan, fusion, batch, env, ctx):
        result = real(plan, fusion, batch, env, ctx)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr(vec, "_fused_select_map", spy)
    return outcomes


def test_fused_select_engages_and_matches_pipelined(bids_db,
                                                    monkeypatch):
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    pipelined = bids_db.execute(plan, mode="pipelined")
    with use_numpy(False):
        vectorized = bids_db.execute(plan, mode="vectorized")
    assert outcomes == [True], "fused pass should engage on this shape"
    assert vectorized.rows == pipelined.rows
    assert vectorized.output == pipelined.output


def test_fused_select_bails_on_non_numeric_text(monkeypatch):
    db = Database()
    db.register_text(
        "vals.xml",
        "<r>" + "".join(f"<e><v>{text}</v></e>"
                        for text in ("10", "25", "oops", "40")) + "</r>",
        dtd_text="<!ELEMENT r (e*)>\n<!ELEMENT e (v)>\n"
                 "<!ELEMENT v (#PCDATA)>")
    query = '''
for $x in doc("vals.xml")//e
where $x/v >= 20
return <m>{ $x/v }</m>
'''
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(query, db).best().plan
    pipelined = db.execute(plan, mode="pipelined")
    vectorized = db.execute(plan, mode="vectorized")
    assert outcomes == [False], \
        "non-numeric text must bail out of the fused pass"
    assert vectorized.rows == pipelined.rows
    assert vectorized.output == pipelined.output


def test_fusion_disabled_under_analyze(bids_db, monkeypatch):
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    plain = bids_db.execute(plan, mode="vectorized")
    analyzed = bids_db.execute(plan, mode="vectorized", analyze=True)
    assert outcomes == [True], \
        "only the un-analyzed run may use the fused pass"
    assert analyzed.rows == plain.rows
    assert analyzed.operator_counts, \
        "EXPLAIN ANALYZE must still record per-operator counts"


def test_vectorized_metrics_are_recorded(bids_db):
    _, result = trace_query(BIDS_QUERY, bids_db, mode="vectorized")
    batch_counters = [name for name in result.metrics.counters
                      if name.startswith("vectorized.")
                      and name.endswith(".batches")]
    assert batch_counters, "vectorized.* batch counters missing"
    histograms = [name for name in result.metrics.histograms
                  if name.startswith("vectorized.")
                  and name.endswith(".rows_per_batch")]
    assert histograms, "rows_per_batch histograms missing"


# ----------------------------------------------------------------------
# Mode selection
# ----------------------------------------------------------------------
def test_auto_mode_matches_explicit_modes(bids_db):
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    mode = preferred_mode(plan, bids_db.store)
    assert mode in ("pipelined", "vectorized")
    assert mode == "vectorized", \
        "a scan-filter plan over hundreds of tuples should go columnar"
    auto = bids_db.execute(plan, mode="auto")
    explicit = bids_db.execute(plan, mode=mode)
    assert auto.rows == explicit.rows
    assert auto.output == explicit.output


def test_numpy_presence_does_not_change_results(bids_db):
    if not numpy_available():
        pytest.skip("numpy not importable in this environment")
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    with_numpy = bids_db.execute(plan, mode="vectorized")
    with use_numpy(False):
        without = bids_db.execute(plan, mode="vectorized")
    assert with_numpy.rows == without.rows
    assert with_numpy.output == without.output


# ----------------------------------------------------------------------
# First-witness quantifiers
# ----------------------------------------------------------------------
OUTER = Table("O", ["A"], [{"A": a} for a in range(6)])
INNER = Table("I", ["x"], [{"x": x} for x in (1, 2, 2, 3, 7)])
#: the inner tuples matching the outer tuple (correlated through A)
MATCHING = NestedPlan(Select(INNER, Comparison(AttrRef("x"), "=",
                                               AttrRef("A"))))
#: the same, with a Ξ emitting one "*" per matching inner tuple
EMITTING = NestedPlan(Construct(MATCHING.plan, [Lit("*")]))
SOME_ABOVE = Exists("q", NestedPlan(INNER),
                    Comparison(AttrRef("q"), ">", AttrRef("A")))
EVERY_ABOVE = Forall("q", NestedPlan(INNER),
                     Comparison(AttrRef("q"), ">=", AttrRef("A")))

QUANTIFIED = {
    "exists": FuncCall("exists", [MATCHING]),
    "empty": FuncCall("empty", [MATCHING]),
    "some": SOME_ABOVE,
    "every": EVERY_ABOVE,
    "bare-nested-plan": MATCHING,
    "not-some-and-every": And([Not(SOME_ABOVE), EVERY_ABOVE]),
    "exists-construct": FuncCall("exists", [EMITTING]),
    "some-construct": Exists("q", EMITTING,
                             Comparison(AttrRef("q"), ">", AttrRef("A"))),
}


@pytest.mark.parametrize("name", sorted(QUANTIFIED))
def test_quantified_select_matches_reference(name):
    """σ over exists/empty/some/every of nested plans: vectorized ≡
    reference, rows and constructed output alike — a nested plan
    holding a Ξ still runs to completion, so its output is intact."""
    plan = Select(OUTER, QUANTIFIED[name])
    reference = execute(plan, DocumentStore(), mode="reference")
    vectorized = execute(plan, DocumentStore(), mode="vectorized")
    assert vectorized.rows == reference.rows
    assert vectorized.output == reference.output
    if "construct" in name:
        assert vectorized.output == "*" * 4   # one per matching pair


#: the bench_q8_pipeline shape: does any bid exist for each item?
Q8_EXISTS = '''
let $d1 := doc("items.xml")
for $i1 in $d1/items/itemtuple
where exists(
  for $b2 in doc("bids.xml")/bids/bidtuple
  where $b2/itemno = $i1/itemno
  return $b2)
return <hot-item>{ $i1/itemno }</hot-item>
'''


def test_exists_stops_at_the_first_witness():
    """On 20 items × 1000 bids the nested exists() plan visits no more
    nodes under vectorized than under pipelined (first-witness), where
    draining every inner plan costs ~50x more visits."""
    db = Database()
    db.register_tree("bids.xml", generate_bids(1000, items=20, seed=7),
                     dtd_text=BIDS_DTD)
    db.register_tree("items.xml", generate_items(20, seed=7),
                     dtd_text=ITEMS_DTD)
    plan = compile_query(Q8_EXISTS, db).plan_named("nested").plan
    vectorized = db.execute(plan, mode="vectorized")
    pipelined = db.execute(plan, mode="pipelined")
    physical = db.execute(plan, mode="physical")
    assert vectorized.output == pipelined.output == physical.output
    assert vectorized.stats["node_visits"] <= \
        pipelined.stats["node_visits"]
    assert 10 * vectorized.stats["node_visits"] < \
        physical.stats["node_visits"]
