"""Standard shapes: frozen inventories and labels, DOT output.

Frozen oracle values:
  square (nu=2, n=2): 4 points {LL,LR,RL,RR}, 4 edges {L*,R*,*L,*R}, 1 filler
  triangle (nu=1, n=3): 3 points, 3 lines, 1 filler (counts only, level 1..3)
  edge *R of the square runs between LR and RR
"""

import pytest

from nusets.errors import ArityError, IndexOutOfRange
from nusets.fileformat import FinSet
from nusets.presheaf import TruncatedPresheaf, check_functor_laws
from nusets.shapes import (
    DOT_PIECE_LINES, dot_pieces, geometric_inventory, standard_shape, to_dot,
)
from nusets.words import check_text_arity, compose, hom_count, hom_enumerate

from test_presheaf import carrier_sizes


def _shape_by_compose(nu, n):
    """The standard shape read straight off the definition: carrier p is
    Hom(p, n) in enumeration order and the face along w sends g to
    compose(g, w), looked up among the words one dimension down."""
    check_text_arity(nu)
    levels = [hom_enumerate(nu, p, n) for p in range(n + 1)]
    carriers = [FinSet(len(ws), tuple(str(x) for x in ws)) for ws in levels]
    index = [{x: i for i, x in enumerate(ws)} for ws in levels]
    faces = {}
    for m in range(1, n + 1):
        block = {}
        for w in hom_enumerate(nu, m - 1, m):
            block[str(w)] = tuple(
                index[m - 1][compose(g, w)] for g in levels[m])
        faces[m] = block
    return TruncatedPresheaf(nu, n, carriers, faces)


@pytest.mark.parametrize("nu, n", [(nu, n) for nu in range(1, 5)
                                   for n in range(7)]
                         + [(10, n) for n in range(4)])
def test_rank_recursion_matches_compose(nu, n):
    """The rank recursion gives the carriers, labels, face keys (in
    order) and face arrays of precomposition, exactly."""
    P, Q = standard_shape(nu, n), _shape_by_compose(nu, n)
    assert P.carriers == Q.carriers
    assert [c.labels for c in P.carriers] == [c.labels for c in Q.carriers]
    assert list(P.faces) == list(Q.faces)
    for m in Q.faces:
        assert list(P.faces[m]) == list(Q.faces[m])
        assert P.faces[m] == Q.faces[m]
    assert check_functor_laws(P).ok


@pytest.mark.parametrize("nu, n, error, message", [
    (0, 0, IndexOutOfRange, "arity must be >= 1, got 0"),
    (0, 3, IndexOutOfRange, "arity must be >= 1, got 0"),
    (-1, 2, IndexOutOfRange, "arity must be >= 1, got -1"),
    (11, 1, ArityError, "arity must be <= 10 to be written as text, got 11"),
    (11, 0, ArityError, "arity must be <= 10 to be written as text, got 11"),
])
def test_standard_shape_rejects_arity_like_compose(nu, n, error, message):
    for build in (standard_shape, _shape_by_compose):
        with pytest.raises(error) as caught:
            build(nu, n)
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_square_inventory_and_labels():
    P = standard_shape(2, 2)
    assert carrier_sizes(P) == (4, 4, 1)
    assert set(P.carriers[0].labels) == {"LL", "LR", "RL", "RR"}
    assert set(P.carriers[1].labels) == {"L*", "R*", "*L", "*R"}
    assert P.carriers[2].labels == ("**",)


def test_triangle_inventory():
    P = standard_shape(1, 3)
    assert carrier_sizes(P) == (1, 3, 3, 1)
    assert geometric_inventory(P) == (3, 3, 1)


def test_inventories_match_hom_count():
    for nu in (1, 2, 3):
        for n in range(7 if nu < 3 else 5):
            P = standard_shape(nu, n)
            for p in range(n + 1):
                assert P.carriers[p].size == hom_count(nu, p, n)


def test_geometric_inventories_acceptance_table():
    assert geometric_inventory(standard_shape(1, 1)) == (1,)
    assert geometric_inventory(standard_shape(1, 2)) == (2, 1)
    assert geometric_inventory(standard_shape(1, 3)) == (3, 3, 1)
    assert geometric_inventory(standard_shape(2, 0)) == (1,)
    assert geometric_inventory(standard_shape(2, 1)) == (2, 1)
    assert geometric_inventory(standard_shape(2, 2)) == (4, 4, 1)


def test_standard_shape_labels_need_text():
    # its labels are word text, which stops at arity 10
    assert standard_shape(10, 2).carriers[0].labels[:2] == ("00", "01")
    with pytest.raises(ArityError, match="must be <= 10"):
        standard_shape(11, 1)


def test_functor_laws_delegated():
    for nu in (1, 2):
        for n in range(5):
            assert check_functor_laws(standard_shape(nu, n)).ok


def test_dot_square():
    dot = to_dot(standard_shape(2, 1))
    assert dot.count("--") == 1
    assert '"L"' in dot and '"R"' in dot
    assert 'label="*"' in dot


def test_dot_interval_simplex():
    dot = to_dot(standard_shape(1, 2))
    assert '"*0"' in dot and '"0*"' in dot
    assert 'label="**"' in dot


def test_dot_point():
    dot = to_dot(standard_shape(2, 0))
    assert "ε" in dot
    assert "--" not in dot


def test_dot_pieces_hold_whole_lines():
    P = standard_shape(2, 8)
    pieces = list(dot_pieces(P))
    assert len(pieces) == 13  # 6563 lines
    assert all(p.count("\n") == DOT_PIECE_LINES for p in pieces[:-1])
    assert 0 < pieces[-1].count("\n") <= DOT_PIECE_LINES
    assert all(p.endswith("\n") for p in pieces)
    assert "".join(pieces) == to_dot(P)


def test_dot_deterministic():
    assert to_dot(standard_shape(2, 2)) == to_dot(standard_shape(2, 2))
    assert to_dot(standard_shape(2, 2)).count("--") == 4
