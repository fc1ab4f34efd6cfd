"""``paper-analytics``: the paper's Q1–Q6 plus the q8 nested-``exists``
shape, closed loop, one client, fixed round-robin order
(:mod:`e2e.roundrobin`).

No mode is passed, so the session default is measured, and the result
cache is bypassed: the engine and the chosen plan do almost all the
work, and the front end and the caches do none."""

from __future__ import annotations

import time

from e2e import paper_oracle, roundrobin

NAME = "paper-analytics"
#: books per bib/prices document (and bids of Q6's auction document)
SCALE = 1000
#: the q8 shape's size: about a quarter of a round under the default
#: mode at this commit (q8 alone costs ~950 ms at 20 items x 1000 bids)
Q8_ITEMS, Q8_BIDS = 10, 350

Q8_EXISTS = '''
let $d1 := doc("items.xml")
for $i1 in $d1/items/itemtuple
where exists(
  for $b2 in doc("bids.xml")/bids/bidtuple
  where $b2/itemno = $i1/itemno
  return $b2)
return
  <hot-item>
    { $i1/itemno }
  </hot-item>
'''


def _documents(seed: int) -> tuple[list, list]:
    """The generated trees of both databases, as ``(name, tree, dtd)``:
    the documents ``repro.bench.queries`` builds for Q1–Q6 at
    ``SCALE``, plus the q8 auction pair."""
    from repro import datagen as g
    main = [
        ("bib.xml", g.generate_bib(SCALE, 2, seed=seed), g.BIB_DTD),
        ("prices.xml", g.generate_prices(SCALE, seed=seed), g.PRICES_DTD),
        ("reviews.xml", g.generate_reviews(SCALE // 2, seed=seed),
         g.REVIEWS_DTD),
        ("bids.xml", g.generate_bids(SCALE, items=SCALE // 5, seed=seed),
         g.BIDS_DTD),
        ("items.xml", g.generate_items(SCALE // 5, seed=seed),
         g.ITEMS_DTD),
        ("users.xml", g.generate_users(100, seed=seed), g.USERS_DTD),
    ]
    q8 = [
        ("bids.xml", g.generate_bids(Q8_BIDS, items=Q8_ITEMS, seed=seed),
         g.BIDS_DTD),
        ("items.xml", g.generate_items(Q8_ITEMS, seed=seed), g.ITEMS_DTD),
    ]
    return main, q8


class System:
    order = ("q1", "q2", "q3", "q4", "q5", "q6", "q8")
    #: no parallel worker budget: the session default applies
    workers = None

    def __init__(self, seed: int):
        from repro.api import Database
        from repro.bench.queries import PAPER_QUERIES
        start = time.perf_counter()
        main_docs, q8_docs = _documents(seed)
        self.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        self.main, self.q8 = Database(), Database()
        for db, docs in ((self.main, main_docs), (self.q8, q8_docs)):
            for name, tree, dtd in docs:
                db.register_tree(name, tree, dtd_text=dtd)
        self.register_s = time.perf_counter() - start
        self.sessions = [self.main.session(), self.q8.session()]
        self.texts = {key: PAPER_QUERIES[key].text
                      for key in self.order[:-1]}
        self.texts["q8"] = Q8_EXISTS
        self.session_of = {key: self.sessions[key == "q8"]
                           for key in self.order}
        # First compile of each template.
        self.prepared = {key: self.session_of[key].prepare(text)
                         for key, text in self.texts.items()}

    def expected(self) -> dict:
        """Each query's output blocks from the plain-Python oracle of
        :mod:`e2e.paper_oracle`."""
        return paper_oracle.expected_blocks(self.main.store, self.q8.store)

    @staticmethod
    def same(key: str, output: str, want) -> bool:
        return paper_oracle.same_output(key, output, want)

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.main.close()
        self.q8.close()


def run(seed: int, seconds: float, trace: bool):
    return roundrobin.run(NAME, lambda: System(seed), seed, seconds, trace)
