"""Property tests: the report writer against ``json.dumps(doc, indent=2)``
on random JSON-shaped documents, and the rational formatter against
``str(Fraction)``.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the report tests do not depend on it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itmlab.report import rational_text, render_document

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
@example({"a": {"a": {"a": 1, "b": [{"a": None}]}}, "b": [{"a": 2, "b": 3}, {"b": 4}]})
@example([1, "x", {"k": [2, None]}, [True, []], None, ()])
@example({"t": ("a", "b", "c"), "u": (1, -2, 3), "v": (None,), "w": (True, False)})
@example({"big": [{"k": i, "l": [i, None], "m": [{"n": "x"}]} for i in range(2000)]})
def test_matches_json_dumps(doc):
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.integers() | st.integers(-(10**80), 10**80) | st.just(0),
    st.integers(1, 10**6) | st.just(1) | st.integers(1, 2**90),
    st.integers(1, 10**6) | st.just(1),
)
@example(0, 1, 1)
@example(-7, 1, 1)
@example(-(2**300) - 1, 3**50, 6)
@example(12, 18, 1)
def test_rational_text_matches_fraction(k, d, common):
    """Negative, zero and huge numerators, ``d = 1``, and a common factor
    ``common`` shared by numerator and denominator."""
    assert rational_text(k * common, d * common) == str(Fraction(k, d))
