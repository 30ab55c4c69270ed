import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlo.families import FamilyParams, build
from nlo.serialize import knot_data_to_doc, render_document


def test_knot_data_doc_contents():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    doc = knot_data_to_doc(kd)
    assert doc["v"] == 19
    assert doc["q"] == 5
    assert doc["mu"] == "a^-1 b^2"
    assert doc["lspace"] == {"is_lspace_knot": True, "case": "ell=p-1"}


def json_reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


# Any code point, with control characters and lone surrogates drawn often.
TEXT = st.text(
    st.characters(exclude_categories=()) | st.characters(categories=["Cc", "Cs"]),
    max_size=12,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.dictionaries(TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_render_document_matches_json(value):
    assert render_document(value) == json_reference(value)


def test_render_document_covers_the_edge_values():
    value = {
        "": [], "\ud800 é\x00\n": {}, "big": [2**64, -(2**64) - 1, []],
        "flags": [True, False, None, 1, 0],
    }
    assert render_document(value) == json_reference(value)
    flags = "[\n  true,\n  false,\n  null,\n  1,\n  0\n]"
    assert render_document(value["flags"]) == flags


def test_render_document_refuses_what_json_refuses():
    huge = {"n": [10**4300]}
    with pytest.raises(ValueError) as ours:
        render_document(huge)
    with pytest.raises(ValueError) as reference:
        json_reference(huge)
    assert str(ours.value) == str(reference.value)
    assert "4300" in str(ours.value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_render_document_refuses_a_key_that_is_not_a_str(value):
    with pytest.raises(TypeError, match="keys must be str"):
        render_document(value)


@pytest.mark.parametrize("value", [{1, 2}, {"a": b"x"}, [object()], 1.0, ("a",)])
def test_render_document_refuses_a_value_json_cannot_hold(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render_document(value)
