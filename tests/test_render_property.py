"""Property test: the report writer against ``json.dumps(doc, indent=2)``
on random JSON-shaped documents.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the report tests do not depend on it.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itmlab.report import render_document

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
documents = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=8), inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(documents)
@example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": ({"f": [[]]},)})
@example({"s": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\"\\", "n": -(2**200), "t": True, "z": None})
def test_matches_json_dumps(doc):
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"
