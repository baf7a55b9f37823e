"""Fibred presheaves: Yoneda action oracle, functor laws, file round trips.

The action oracle is independent of the presheaf machinery: on a standard
shape the action of f on a cell g must be the word compose(g, f), computed
directly in the word category.
"""

import pytest
from hypothesis import given, strategies as st

from nusets.errors import (
    DimensionOutOfRange, MissingFace, ParseError, RangeError,
)
from nusets.fileformat import FinSet
from nusets.presheaf import (
    TruncatedPresheaf, action, check_functor_laws, emit_nuset, parse_nuset,
)
from nusets.shapes import standard_shape
from nusets.words import compose, hom_enumerate, identity, parse_word


def carrier_sizes(P):
    return tuple(c.size for c in P.carriers)


def _cell_index(P, dim, label):
    return P.carriers[dim].labels.index(label)


def test_action_yoneda_frozen():
    P = standard_shape(2, 2)
    filler = _cell_index(P, 2, "**")
    got = action(P, parse_word(2, "*L"))[filler]
    assert P.carriers[1].label(got) == "*L"

    Q = standard_shape(1, 3)
    cell = _cell_index(Q, 2, "**0")
    got = action(Q, parse_word(1, "*0"))[cell]
    assert Q.carriers[1].label(got) == "*00"


def test_action_identity():
    P = standard_shape(2, 2)
    for n in range(3):
        assert action(P, identity(2, n)) == tuple(range(P.carriers[n].size))


def test_action_dimension_guard():
    P = standard_shape(2, 1)
    with pytest.raises(DimensionOutOfRange):
        action(P, parse_word(2, "L*"))


@given(st.integers(1, 2), st.integers(0, 4), st.data())
def test_action_matches_yoneda(nu, n, data):
    """action(f)(g) == compose(g, f) on standard shapes, every cell."""
    P = standard_shape(nu, n)
    dims = [(p, m) for m in range(n + 1) for p in range(m + 1)]
    p, m = data.draw(st.sampled_from(dims))
    f = data.draw(st.sampled_from(hom_enumerate(nu, p, m)))
    mapped = action(P, f)
    for i, g in enumerate(hom_enumerate(nu, m, n)):
        assert P.carriers[p].label(mapped[i]) == str(compose(g, f))


@given(st.integers(1, 2), st.integers(0, 4), st.data())
def test_action_contravariant(nu, n, data):
    """action(compose(g, f)) == action(f) then action(g) pointwise."""
    P = standard_shape(nu, n)
    dims = [(r, p, m)
            for m in range(n + 1) for p in range(m + 1)
            for r in range(p + 1)]
    r, p, m = data.draw(st.sampled_from(dims))
    g = data.draw(st.sampled_from(hom_enumerate(nu, p, m)))
    f = data.draw(st.sampled_from(hom_enumerate(nu, r, p)))
    via_g = action(P, g)
    via_f = action(P, f)
    direct = action(P, compose(g, f))
    for x in range(P.carriers[m].size):
        assert direct[x] == via_f[via_g[x]]


def test_functor_laws_standard_shapes():
    for nu in (1, 2):
        for n in range(5):
            assert check_functor_laws(standard_shape(nu, n)).ok


def test_functor_laws_trivial_truncation():
    P = TruncatedPresheaf(2, 0, [FinSet(3)], {})
    assert check_functor_laws(P).ok


def _corrupt_one_face(P, n, wtext, element=0):
    """A copy of P with one image of one face map redirected."""
    faces = {m: dict(fs) for m, fs in P.faces.items()}
    arr = list(faces[n][wtext])
    arr[element] = (arr[element] + 1) % P.carriers[n - 1].size
    faces[n][wtext] = tuple(arr)
    return TruncatedPresheaf(P.nu, P.trunc, P.carriers, faces)


def test_functor_laws_catch_corruption():
    P = standard_shape(2, 2)
    bad = _corrupt_one_face(P, 2, "L*")
    rep = check_functor_laws(bad)
    assert not rep.ok
    assert any(v["n"] == 2 for v in rep.violations)


def test_emit_parse_roundtrip():
    for nu, n in [(1, 2), (2, 1), (2, 2), (1, 3)]:
        P = standard_shape(nu, n)
        text = emit_nuset(P)
        Q = parse_nuset(text)
        assert Q == P
        assert emit_nuset(Q) == text


def test_emit_is_sorted_two_space():
    text = emit_nuset(standard_shape(2, 1))
    assert text.startswith('{\n  "carriers"')
    lines = text.splitlines()
    assert '  "nu": 2,' in lines
    reparsed = emit_nuset(parse_nuset(text))
    assert reparsed == text


def test_parse_missing_face():
    import json
    doc = json.loads(emit_nuset(standard_shape(2, 2)))
    del doc["faces"]["2"]["L*"]
    with pytest.raises(MissingFace):
        parse_nuset(json.dumps(doc))
    del doc["faces"]["2"]
    with pytest.raises(MissingFace, match="^no faces for dimension 2$"):
        parse_nuset(json.dumps(doc))


def test_parse_range_error():
    import json
    doc = json.loads(emit_nuset(standard_shape(2, 1)))
    doc["faces"]["1"]["L"][0] = 99
    with pytest.raises(RangeError):
        parse_nuset(json.dumps(doc))


def test_parse_syntax_errors():
    with pytest.raises(ParseError):
        parse_nuset("not json at all {")
    with pytest.raises(ParseError):
        parse_nuset("{}")
    import json
    doc = json.loads(emit_nuset(standard_shape(2, 1)))
    doc["nu"] = 0
    from nusets.errors import ArityError
    with pytest.raises(ArityError):
        parse_nuset(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"nu": True, "trunc": 0, "carriers": [1], "faces": {}},
    {"nu": 1, "trunc": False, "carriers": [1], "faces": {}},
    {"nu": 1, "trunc": 0, "carriers": [True], "faces": {}},
    {"nu": 1, "trunc": 1, "carriers": [2, 1], "faces": {"1": {"0": [True]}}},
])
def test_parse_rejects_booleans_as_integers(doc):
    import json
    with pytest.raises(ParseError):
        parse_nuset(json.dumps(doc))


def test_carrier_sizes_helper():
    assert carrier_sizes(standard_shape(2, 2)) == (4, 4, 1)
