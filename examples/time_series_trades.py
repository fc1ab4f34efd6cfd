"""Order-preserving unnesting on financial time-series data.

The paper's introduction motivates order-preserving optimization with
"applications dealing with time series, like finance".  This example
builds a trades document whose bidtuple-like entries are in strict
timestamp order and runs a nested query — "for each symbol, the trades
of that symbol, in time order" — through the optimizer.

The point demonstrated: the unnested grouping plan emits, for every
symbol, that symbol's trades in exactly the document (= time) order,
as XQuery semantics requires; an unordered unnesting framework (the
pre-existing object-oriented rewrites the paper extends) cannot promise
this.  The example *checks* the order rather than just claiming it.

Run with::

    python examples/time_series_trades.py
"""

from __future__ import annotations

import random

from repro import Database, compile_query
from repro.xmldb.node import element

TRADES_DTD = """
<!ELEMENT trades (trade*)>
<!ELEMENT trade (symbol, price, volume, time)>
<!ELEMENT symbol (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
<!ELEMENT time (#PCDATA)>
"""

SYMBOLS = ("NATX", "TMBR", "XQRY", "SALB")

QUERY = """
let $d1 := doc("trades.xml")
for $s1 in distinct-values($d1//symbol)
return
  <tape>
    <symbol> { $s1 } </symbol>
    {
      let $d2 := doc("trades.xml")
      for $t2 in $d2/trade[$s1 = symbol]
      return $t2/time
    }
  </tape>
"""


def generate_trades(n: int = 400, seed: int = 42):
    """A trades tape: one trade per tick, strictly increasing time."""
    rng = random.Random(seed)
    root = element("trades")
    clock = 9 * 3600 + 30 * 60  # 09:30:00
    for _ in range(n):
        clock += rng.randint(1, 5)
        hh, rem = divmod(clock, 3600)
        mm, ss = divmod(rem, 60)
        root.append_child(element(
            "trade",
            element("symbol", rng.choice(SYMBOLS)),
            element("price", f"{rng.uniform(5, 500):.2f}"),
            element("volume", str(rng.randint(100, 5000))),
            element("time", f"{hh:02d}:{mm:02d}:{ss:02d}"),
        ))
    return root


def times_per_symbol(output: str) -> dict[str, list[str]]:
    """Per-symbol sequence of trade times, as constructed in ``output``.

    Keyed by symbol because the *order of the groups* is
    implementation-defined (the paper's ΠD does not preserve order, and
    the group-Ξ plan sorts on the group key); only the order *within*
    each tape is promised by XQuery semantics.
    """
    tapes: dict[str, list[str]] = {}
    for block in output.split("<tape>")[1:]:
        symbol = block.split("<symbol>")[1].split("</symbol>")[0].strip()
        times = []
        rest = block
        while "<time>" in rest:
            _, rest = rest.split("<time>", 1)
            value, rest = rest.split("</time>", 1)
            times.append(value)
        tapes[symbol] = times
    return tapes


def main() -> None:
    db = Database()
    db.register_tree("trades.xml", generate_trades(), dtd_text=TRADES_DTD)

    query = compile_query(QUERY, db)
    print("plan alternatives:",
          [f"{a.label} via {'+'.join(a.applied) or '-'}"
           for a in query.plans()])

    nested = db.execute(query.plan_named("nested").plan, mode="physical")
    best = db.execute(query.best().plan, mode="physical")
    print(f"nested : {nested.elapsed * 1000:8.2f} ms, "
          f"scans={sum(nested.stats['document_scans'].values())}")
    print(f"best   : {best.elapsed * 1000:8.2f} ms, "
          f"scans={sum(best.stats['document_scans'].values())} "
          f"({query.best().label})")

    nested_tapes = times_per_symbol(nested.output)
    best_tapes = times_per_symbol(best.output)
    if nested_tapes != best_tapes:
        raise SystemExit("ERROR: unnested tapes differ from nested!")

    for times in best_tapes.values():
        if times != sorted(times):
            raise SystemExit("ERROR: a tape lost its time order!")
    print(f"verified: {len(best_tapes)} tapes, identical across plans, "
          f"every tape in time order")
    symbol, first = next(iter(best_tapes.items()))
    print(f"example tape {symbol}: {len(first)} trades, "
          f"{first[0]} … {first[-1]}")


if __name__ == "__main__":
    main()
