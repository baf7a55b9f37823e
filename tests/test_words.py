"""Word category: frozen examples first, then the laws as properties.

Frozen oracle values (hand evaluation of the composition recursion,
clause by clause, recorded before the implementation existed):

    nu=1:  **0 . *0  = *00        (star, star consumes 0, letter 0)
    nu=1:  **0 . 0*  = 0*0
    nu=2:  **  . L*  = L*         (identity is left-neutral)
    nu=2:  *L* . R*  = RL*
    nu=1:  0*0 factors as (0**, *0) and recombines
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nusets.errors import (
    ArityError, ArityMismatch, IndexOutOfRange, NoLetter, NotComposable,
    ParseError,
)
from nusets.words import (
    STAR, Word, compose, face_word, factor_leftmost, factorizations,
    hom_count, hom_enumerate, identity, parse_word,
)


def w(nu, text):
    return parse_word(nu, text)


# ---------------------------------------------------------------- frozen

def test_compose_frozen_examples():
    assert str(compose(w(1, "**0"), w(1, "*0"))) == "*00"
    assert str(compose(w(1, "**0"), w(1, "0*"))) == "0*0"
    assert str(compose(w(2, "**"), w(2, "L*"))) == "L*"
    assert str(compose(w(2, "*L*"), w(2, "R*"))) == "RL*"


def test_identity_frozen():
    assert str(identity(2, 0)) == ""
    assert str(identity(1, 2)) == "**"
    assert identity(3, 5).stars == 5


def test_hom_enumerate_frozen():
    square_edges = [str(x) for x in hom_enumerate(2, 1, 2)]
    assert square_edges == ["*L", "*R", "L*", "R*"]
    assert set(square_edges) == {"L*", "R*", "*L", "*R"}
    simplex_points = [str(x) for x in hom_enumerate(1, 1, 2)]
    assert set(simplex_points) == {"0*", "*0"}
    assert hom_enumerate(2, 3, 2) == []


def test_hom_count_frozen():
    assert hom_count(2, 1, 2) == 4
    assert hom_count(1, 2, 3) == 3
    for nu in (1, 2, 5):
        for n in range(4):
            assert hom_count(nu, n, n) == 1


def test_face_word_frozen():
    assert str(face_word(2, 0, 0, 2)) == "L*"
    assert str(face_word(2, 1, 1, 2)) == "*R"
    assert str(face_word(1, 0, 1, 3)) == "*0*"
    with pytest.raises(IndexOutOfRange):
        face_word(2, 0, 2, 2)
    with pytest.raises(IndexOutOfRange):
        face_word(2, 2, 0, 2)


def test_factor_leftmost_frozen():
    head, rest = factor_leftmost(w(1, "0*0"))
    assert (str(head), str(rest)) == ("0**", "*0")
    assert compose(head, rest) == w(1, "0*0")
    head, rest = factor_leftmost(w(2, "*R"))
    assert (str(head), str(rest)) == ("*R", "*")
    with pytest.raises(NoLetter):
        factor_leftmost(w(2, "**"))


def test_parse_and_render():
    assert str(w(2, "⋆L⋆")) == "*L*"
    assert w(1, "") == Word(1, ())
    assert w(2, "RL*") == Word(2, (1, 0, STAR))
    with pytest.raises(ParseError):
        parse_word(1, "L*")
    with pytest.raises(ParseError):
        parse_word(2, "2*")
    with pytest.raises(ParseError):
        parse_word(2, "x")


def test_text_stops_at_arity_ten():
    # one character per letter: the digits 0-9 are the last directions
    assert str(w(10, "9*0")) == "9*0"
    assert w(10, "9*0") == Word(10, (9, STAR, 0))
    with pytest.raises(ArityError, match="must be <= 10"):
        parse_word(11, "*10")
    with pytest.raises(ArityError):
        parse_word(11, "")
    # past it words still render, ambiguously in general: both are "110"
    assert str(Word(12, (1, 10))) == str(Word(12, (11, 0)))
    # but a face word's text stays distinct among the faces of its length
    for n in (1, 2, 3):
        faces = [str(face_word(12, eps, q, n))
                 for q in range(n) for eps in range(12)]
        assert len(set(faces)) == len(faces)


def test_compose_preconditions():
    with pytest.raises(NotComposable):
        compose(w(2, "L*"), w(2, "LL"))
    with pytest.raises(NotComposable, match=r"g=\*, f="):  # past arity 10
        compose(Word(12, (STAR,)), Word(12, ()))
    with pytest.raises(ArityMismatch):
        compose(w(2, "**"), w(1, "0*"))
    with pytest.raises(IndexOutOfRange):
        Word(0, ())


# ------------------------------------------------------------ properties

def words_strategy(nu_max=3, n_max=6):
    """Random words over random small arities."""
    return st.integers(1, nu_max).flatmap(
        lambda nu: st.lists(
            st.integers(-1, nu - 1), max_size=n_max).map(
            lambda ls: Word(nu, tuple(ls))))


def composable_pair(nu_max=3, n_max=6):
    """(g, f) with stars(g) == length(f)."""
    def build(g):
        return st.lists(
            st.integers(-1, g.nu - 1),
            min_size=g.stars, max_size=g.stars).map(
            lambda ls: (g, Word(g.nu, tuple(ls))))
    return words_strategy(nu_max, n_max).flatmap(build)


def composable_triple(nu_max=3, n_max=6):
    """(h, g, f) with stars(h) == length(g) and stars(g) == length(f)."""
    def extend(pair):
        h, g = pair
        return st.lists(
            st.integers(-1, g.nu - 1),
            min_size=g.stars, max_size=g.stars).map(
            lambda ls: (h, g, Word(g.nu, tuple(ls))))
    return composable_pair(nu_max, n_max).flatmap(extend)


@given(composable_triple())
def test_associativity_random(triple):
    h, g, f = triple
    assert compose(compose(h, g), f) == compose(h, compose(g, f))


@given(words_strategy())
def test_neutrality_random(f):
    assert compose(identity(f.nu, f.length), f) == f
    assert compose(f, identity(f.nu, f.stars)) == f


@given(composable_pair())
def test_bookkeeping_random(pair):
    g, f = pair
    gf = compose(g, f)
    assert gf.length == g.length
    assert gf.stars == f.stars


def test_associativity_exhaustive_small():
    """All composable triples with top length <= 3, nu <= 2."""
    for nu in (1, 2):
        for n in range(4):
            for p in range(n + 1):
                for h in hom_enumerate(nu, p, n):
                    for r in range(p + 1):
                        for g in hom_enumerate(nu, r, p):
                            for s in range(r + 1):
                                for f in hom_enumerate(nu, s, r):
                                    assert compose(compose(h, g), f) == \
                                        compose(h, compose(g, f))


def test_counting_oracle():
    """Enumeration size against the closed form, computed independently
    here via math.comb rather than through hom_count."""
    for nu in (1, 2, 3):
        for n in range(8):
            for p in range(n + 2):
                expected = math.comb(n, p) * nu ** (n - p) if p <= n else 0
                got = hom_enumerate(nu, p, n)
                assert len(got) == expected == hom_count(nu, p, n)
                assert len(set(got)) == len(got)


def test_enumeration_sorted():
    for nu in (1, 2, 3):
        for n in range(6):
            for p in range(n + 1):
                ws = hom_enumerate(nu, p, n)
                assert ws == sorted(ws, key=lambda x: x.letters)


@given(words_strategy())
def test_factorization_roundtrip(f):
    letters = f.length - f.stars
    if letters == 0:
        with pytest.raises(NoLetter):
            factor_leftmost(f)
        return
    head, rest = factor_leftmost(f)
    assert head.stars == f.length - 1
    assert compose(head, rest) == f
    steps = 0
    g = f
    while not g.is_identity():
        head, g = factor_leftmost(g)
        steps += 1
    assert steps == letters


@given(words_strategy())
def test_all_factorizations_recombine(f):
    for head, rest in factorizations(f):
        assert compose(head, rest) == f
    assert len(factorizations(f)) == f.length - f.stars


@given(words_strategy())
def test_parse_render_roundtrip(f):
    assert parse_word(f.nu, str(f)) == f
