"""Property tests: the report writers against ``json.dumps(indent=2)``
on random documents (``json_fragment`` on JSON-shaped values with
Fractions, ``render_document`` on top-level dicts of fragments and fragment
lists), and the rational formatter against ``str(Fraction)``.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the report tests do not depend on it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itmlab.report import Fragment, json_fragment, rational_text, render_document

from conftest import plain

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
fractions = st.fractions() | st.fractions(max_denominator=10**40)
documents = st.recursive(
    scalars | fractions,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=8), inner, max_size=5)
    ),
    max_leaves=40,
)
# Each fragment is the ``json.dumps(indent=2)`` text of a drawn document
# without Fractions.
fragments = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5)
    ),
    max_leaves=8,
).map(lambda doc: Fragment(json.dumps(doc, indent=2)))
fragment_documents = st.dictionaries(
    st.text(max_size=8), fragments | st.lists(fragments, max_size=4), max_size=5
)


def parsed(doc):
    """``doc`` with every fragment replaced by the value it holds."""
    if type(doc) is Fragment:
        return json.loads(doc)
    if type(doc) is dict:
        return {k: parsed(v) for k, v in doc.items()}
    if type(doc) is list:
        return [parsed(v) for v in doc]
    return doc


@settings(max_examples=200, deadline=None)
@given(documents)
@example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": ({"f": [[]]},)})
@example({"s": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\"\\", "n": -(2**200), "t": True, "z": None})
@example({"a": {"a": {"a": 1, "b": [{"a": None}]}}, "b": [{"a": 2, "b": 3}, {"b": 4}]})
@example([1, "x", {"k": [2, None]}, [True, []], None, ()])
@example({"t": ("a", "b", "c"), "u": (1, -2, 3), "v": (None,), "w": (True, False)})
@example({"p": Fraction(-3, 7), "q": [Fraction(4), Fraction(0)], "r": (Fraction(1, 2**90),)})
@example({"big": [{"k": i, "l": [i, None], "m": [{"n": "x"}]} for i in range(2000)]})
def test_matches_json_dumps(doc):
    assert json_fragment(doc) == json.dumps(plain(doc), indent=2)


@settings(max_examples=200, deadline=None)
@given(fragment_documents)
@example({})
@example({"a": Fragment('{\n  "a": [\n    1\n  ]\n}')})
@example({"a": [Fragment("[]"), Fragment("1"), Fragment('[\n  "x\\ny"\n]')], "b": Fragment("{}")})
@example({"k\u00e9\n": [], "l": [Fragment('{\n  "k": {\n    "l": null\n  }\n}')]})
def test_fragments_match_json_dumps(doc):
    assert render_document(doc) == json.dumps(parsed(doc), indent=2) + "\n"


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
