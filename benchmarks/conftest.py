"""Shared fixtures for the benchmark suite.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation section (see DESIGN.md §4 for the experiment index).  Plans
are compiled once per parameter combination and cached; the benchmark
body measures execution only, mirroring the paper's setup (the paper
reports evaluation time, not compile time).

Sizes are scaled down from the paper's 100/1000/10000 because the nested
plans are quadratic and our engine is a Python interpreter; the *shape*
(nested quadratic, unnested linear, grouping ≼ outer join) is preserved
and asserted by ``tests/test_paper_queries.py``.
"""

from __future__ import annotations

import pytest

from repro.api import CompiledQuery, compile_query
from repro.bench.queries import PAPER_QUERIES

# Size axis shared by all query benchmarks.  SMALL keeps the full
# ``pytest benchmarks/ --benchmark-only`` run in the minutes range.
SIZES = (30, 100)
# Extra sizes exercised only by unnested (linear) plans.
LINEAR_SIZES = (30, 100, 300)

_CACHE: dict[tuple, tuple[CompiledQuery, object]] = {}


def compiled_plan(key: str, label: str, **params):
    """(database, plan) for one paper query variant, memoized."""
    cache_key = (key, label, tuple(sorted(params.items())))
    if cache_key not in _CACHE:
        spec = PAPER_QUERIES[key]
        db = spec.build_db(**params)
        compiled = compile_query(spec.text, db)
        plan = compiled.plan_named(label).plan
        _CACHE[cache_key] = (db, plan)
    return _CACHE[cache_key]


def run_plan(db, plan):
    result = db.execute(plan, mode="physical")
    return result.output


@pytest.fixture
def plan_runner():
    """Returns a callable benchmarks use: run(key, label, **params)."""
    def run(key: str, label: str, **params):
        db, plan = compiled_plan(key, label, **params)
        return run_plan(db, plan)
    return run
