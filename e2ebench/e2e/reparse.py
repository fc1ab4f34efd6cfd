"""The q14 differential's far side, run in a child process so that the
re-parsed copy of the document does not count toward the peak RSS of
the process under test.

Reads ``{"text": <items.xml serialization>, "queries": [...]}`` as JSON
on stdin, registers the text in a fresh ``Database(index_mode="eager")``
and prints ``{"same_text", "rows", "outputs"}`` as JSON."""

from __future__ import annotations

import json
import sys


def main() -> None:
    from repro.api import Database
    from repro.datagen import ITEMS_DTD
    from repro.xmldb.serialize import serialize

    from e2e.queries import item_rows

    request = json.load(sys.stdin)
    db = Database(index_mode="eager")
    document = db.register_text("items.xml", request["text"],
                                dtd_text=ITEMS_DTD)
    with db.session() as session:
        outputs = [session.execute(text).output
                   for text in request["queries"]]
    json.dump({"same_text": serialize(document.root) == request["text"],
               "rows": item_rows(document.root), "outputs": outputs},
              sys.stdout)
    db.close()


if __name__ == "__main__":
    main()
