"""Indexed structures: enumeration counts, restriction, coherence,
serialization, and the corruption behaviour of restriction's membership
check, which stands in for the transport of a dependent formalization.

Counting oracles are closed-form and derived independently of the
enumerators: with every fibre a singleton except |X_0| = k, a frame at
(n, n) is determined by its point skeleton, giving k^(nu^n... ) -- see the
per-test comments for the exact small cases used.
"""

import functools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from nusets import indexed
from nusets.equivalence import to_indexed
from nusets.errors import (
    CoherenceMismatch, DimensionOutOfRange, IndexOutOfRange, ParseError,
    SideConditionViolated, UnknownFrame,
)
from nusets.fileformat import FinSet
from nusets.frames import (
    IndexedNuSet, enumerate_frames, enumerate_paintings, grow_indexed,
)
from nusets.indexed import (
    check_coh_frame, check_coh_painting, coherence_sweep, restr_frame,
    restr_layer, restr_painting, validate_indexed,
)
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.shapes import standard_shape
from nusets.values import (
    FrameVal, LayerVal, PaintingVal, frame_key, parse_value,
)

from test_frames_oracle import full_frame


def ones(n, d):
    return 1


def two_points(n, d):
    return 2 if n == 0 else 1


@pytest.fixture(scope="module")
def S22():
    """nu=2, truncation 2, two points, singleton fibres above."""
    return grow_indexed(2, 2, two_points)


@pytest.fixture(scope="module")
def S13():
    """nu=1, truncation 3, two points, singleton fibres above."""
    return grow_indexed(1, 3, two_points)


# ------------------------------------------------------------ value shapes


def test_value_shape_guards():
    with pytest.raises(SideConditionViolated):
        FrameVal(2, 3, ())                      # p > n
    with pytest.raises(SideConditionViolated):
        FrameVal(2, 1, ())                      # wrong layer count
    with pytest.raises(SideConditionViolated):
        LayerVal(2, 0, ())                      # empty component tuple
    with pytest.raises(SideConditionViolated):
        PaintingVal(2, 0, (), 0)                # missing layers
    cell = PaintingVal(0, 0, (), 3)
    assert cell.cell == 3 and cell.layers == ()


def test_frame_prefix_extend_roundtrip(S22):
    d = next(iter(enumerate_frames(S22, 2, 2)))
    assert d.prefix(2) == d
    assert d.prefix(1).extend(d.layers[1]) == d
    assert d.prefix(0) == FrameVal(2, 0, ())


def test_full_frame_stacks_painting_layers(S22):
    base = FrameVal(2, 0, ())
    c = next(iter(enumerate_paintings(S22, base)))
    f = full_frame(base, c)
    assert f == FrameVal(2, 2, c.layers)


# ------------------------------------------------------------ counting

# Oracle: singleton fibres above dimension 0 make every cell above the
# points unique, so a frame or painting is determined by the points it
# touches. A square frame touches 4 corner points (k^4 with k = |X_0|); a
# full square painting adds nothing free (k^4 again); an edge painting
# touches 2 (k^2); a (1,1)-frame is a pair of points (k^2).


def test_counts_nu2_two_points(S22):
    k = 2
    assert len(list(enumerate_frames(S22, 1, 1))) == k ** 2
    assert len(list(enumerate_frames(S22, 2, 2))) == k ** 4
    unit1 = FrameVal(1, 0, ())
    assert len(list(enumerate_paintings(S22, unit1))) == k ** 2
    unit2 = FrameVal(2, 0, ())
    assert len(list(enumerate_paintings(S22, unit2))) == k ** 4


def test_counts_nu1_two_points(S13):
    # nu=1 frames at (n, n) with singleton higher fibres are determined by
    # their single chain of points: one new point per dimension.
    k = 2
    assert len(list(enumerate_frames(S13, 1, 1))) == k
    assert len(list(enumerate_frames(S13, 2, 2))) == k
    assert len(list(enumerate_frames(S13, 3, 3))) == k


def test_fibre_lookup_and_unknown_frame(S22):
    d = next(iter(enumerate_frames(S22, 2, 2)))
    assert S22.fibre(d) == FinSet(1, None)
    # a full frame of the right shape whose top cells lie past every fibre
    far = parse_value("([{[{0} {1}] 0} {[{0} {1}] 0}] [{9} {9}])",
                      2, 2, 2, "frame")
    with pytest.raises(UnknownFrame):
        S22.fibre(far)
    with pytest.raises(DimensionOutOfRange):
        S22.fibre(next(iter(enumerate_frames(S22, 3, 3))))


def test_enumerate_dimension_bounds(S22):
    # frames one level above the truncation only read stored families
    assert len(list(enumerate_frames(S22, 3, 0))) == 1
    with pytest.raises(DimensionOutOfRange):
        list(enumerate_frames(S22, 4, 0))
    with pytest.raises(DimensionOutOfRange):
        list(enumerate_paintings(S22, FrameVal(3, 0, ())))


# ------------------------------------------------------------ restriction


def _square_frame(le, re_, nu=2):
    """(2,2)-frame with given edge paintings and zero top cells."""
    l0 = LayerVal(2, 0, (le, re_))
    l1_key = "[{0} {0}]"
    l1 = parse_value(l1_key, nu, 2, 1, "layer")
    return FrameVal(2, 2, (l0, l1))


def test_restr_frame_frozen_example():
    # L-restriction of a square frame picks the L-endpoints of its two
    # edge components: edges 0->1 and 1->0 give endpoints (0, 1). The set
    # has two points and just those two edges.
    edges = {"([{0} {0}])": 0, "([{0} {1}])": 1,
             "([{1} {0}])": 1, "([{1} {1}])": 0}
    S = IndexedNuSet(2, 1, {0: {FrameVal(0, 0, ()): FinSet(2)},
                            1: {parse_value(k, 2, 1, 1): FinSet(size)
                                for k, size in edges.items()}})
    e01 = parse_value("{[{0} {1}] 0}", 2, 1, 0, "painting")
    e10 = parse_value("{[{1} {0}] 0}", 2, 1, 0, "painting")
    d = _square_frame(e01, e10)
    got = restr_frame(0, 1, d.prefix(1), S)
    assert frame_key(got) == "([{0} {1}])"
    got_r = restr_frame(1, 1, d.prefix(1), S)
    assert frame_key(got_r) == "([{1} {0}])"


def test_restr_side_conditions(S22):
    d = next(iter(enumerate_frames(S22, 2, 1)))
    with pytest.raises(SideConditionViolated):
        restr_frame(0, 0, d, S22)                   # q < p
    with pytest.raises(SideConditionViolated):
        restr_frame(0, 2, d, S22)                   # q > n-1
    c = next(iter(enumerate_paintings(S22, d)))
    with pytest.raises(SideConditionViolated):
        restr_layer(0, 1, d, c.first_layer, S22)    # q > n-2
    with pytest.raises(SideConditionViolated):
        restr_painting(0, 0, d, c, S22)             # q < p


def test_layer_or_painting_at_another_shape_than_its_frame(S22):
    """A layer or painting is restricted over a frame of its own (n, p);
    one at another (n, p) is refused, even where the restriction would
    be legal at either shape."""
    d30, d31 = (enumerate_frames(S22, 3, p)[0] for p in (0, 1))
    with pytest.raises(SideConditionViolated):
        restr_layer(0, 1, d31, d31.layers[0], S22)  # layer at (3, 0)
    d20, d21 = (enumerate_frames(S22, 2, p)[0] for p in (0, 1))
    c20, c21 = (enumerate_paintings(S22, d)[0] for d in (d20, d21))
    with pytest.raises(SideConditionViolated):
        restr_layer(0, 0, d30, c20.first_layer, S22)  # layer at (2, 0)
    with pytest.raises(SideConditionViolated):
        restr_painting(0, 1, d21, c20, S22)         # painting at (2, 0)
    with pytest.raises(SideConditionViolated):
        restr_painting(0, 0, d20, c21, S22)         # painting at (2, 1)


def test_directions_outside_the_arity_are_refused():
    """A negative direction, or one past the arity, is refused and never
    read as another direction: by restriction of the empty frame, of a
    frame above it, and of a painting at p == q, cold or after a sweep
    filled the set's memo."""
    S = to_indexed(standard_shape(2, 3))
    f32 = enumerate_frames(S, 3, 2)[0]
    empty = enumerate_frames(S, 3, 0)[0]
    d21, c = next((d, c) for d in enumerate_frames(S, 2, 1)
                  for c in enumerate_paintings(S, d))
    for warm in (False, True):
        if warm:
            assert coherence_sweep(S).ok
        for eps in (-1, 2):
            with pytest.raises(IndexOutOfRange):
                restr_frame(eps, 2, f32, S)
            with pytest.raises(IndexOutOfRange):
                restr_frame(eps, 0, empty, S)
            with pytest.raises(IndexOutOfRange):
                restr_painting(eps, 1, d21, c, S)
    assert restr_frame(1, 2, f32, S) != restr_frame(0, 2, f32, S)


def test_restriction_typing_exhaustive(S22):
    # every restriction of an enumerated frame or painting lands in the
    # enumeration one dimension down, over the restricted frame
    for n in range(1, S22.trunc + 2):
        for p in range(n + 1):
            lower = {frame_key(x) for x in enumerate_frames(S22, n - 1, p)} \
                if p <= n - 1 else None
            for d in enumerate_frames(S22, n, p):
                for q in range(p, n):
                    for eps in range(2):
                        out = restr_frame(eps, q, d, S22)
                        assert frame_key(out) in lower
                if n > S22.trunc:
                    continue
                for c in enumerate_paintings(S22, d):
                    for q in range(p, n):
                        for eps in range(2):
                            base = restr_frame(eps, q, d, S22)
                            out = restr_painting(eps, q, d, c, S22)
                            members = {
                                frame_key(x) for x in
                                enumerate_paintings(S22, base)}
                            assert frame_key(out) in members


# ------------------------------------------------------------ serialization


def test_serialize_injective_and_roundtrip(S22):
    frames = list(enumerate_frames(S22, 2, 2))
    keys = [frame_key(d) for d in frames]
    assert len(set(keys)) == len(frames)
    for d, key in zip(frames, keys):
        assert parse_value(key, 2, 2, 2, "frame") == d
    unit = FrameVal(2, 0, ())
    for c in enumerate_paintings(S22, unit):
        assert parse_value(frame_key(c), 2, 2, 0, "painting") == c


def test_unit_frame_serializes_bare():
    assert frame_key(FrameVal(0, 0, ())) == "()"
    assert frame_key(FrameVal(3, 0, ())) == "()"


def test_parse_value_errors():
    with pytest.raises(ParseError):
        parse_value("({0} {1})", 2, 1, 1, "frame")      # layers need [ ]
    with pytest.raises(ParseError):
        parse_value("([{0}])", 2, 1, 1, "frame")        # width 1 under nu=2
    with pytest.raises(ParseError):
        parse_value("{[{0} {1}]}", 2, 1, 0, "painting")  # missing cell
    with pytest.raises(ParseError):
        parse_value("([{0} {1}]) trailing", 2, 1, 1, "frame")


def test_emit_parse_roundtrip(S22, S13):
    assert parse_indexed(emit_indexed(S22)) == S22
    assert parse_indexed(emit_indexed(S13)) == S13
    assert emit_indexed(S22).endswith("\n")


@pytest.mark.parametrize("doc", [
    {"nu": True, "trunc": 0, "families": {"0": {"()": 1}}},
    {"nu": 1, "trunc": False, "families": {"0": {"()": 1}}},
    {"nu": 1, "trunc": 0, "families": {"0": {"()": True}}},
])
def test_parse_rejects_booleans_as_integers(doc):
    with pytest.raises(ParseError):
        parse_indexed(json.dumps(doc))


@pytest.mark.parametrize("nu, n, key, bad, position", [
    pytest.param(1, 0, "()", "( )", 2, id="0-()-( )"),
    pytest.param(1, 1, "([{1}])", "([{01}])", 5, id="1-([{1}])-([{01}])"),
    pytest.param(2, 1, "([{0} {1}])", "([{0}  {1}])", 7, id="doubled-space"),
    pytest.param(2, 1, "([{0} {1}])", "([{0}\t{1}])", 6, id="tab"),
    pytest.param(2, 1, "([{0} {1}])", "([{0} {1}]) ", 12, id="trailing-space"),
    pytest.param(2, 1, "([{0} {1}])", "([{0} {01}])", 9, id="leading-zero"),
    pytest.param(2, 1, "([{0} {1}])", "([{0} {\u00b9}])", 8,
                 id="superscript-digit"),
    pytest.param(2, 1, "([{0} {1}])", "([{0} [1]])", 7, id="wrong-bracket"),
    pytest.param(2, 1, "([{0} {1}])", "([{0} {}])", 8, id="missing-cell"),
])
def test_parse_rejects_non_canonical_frame_keys(nu, n, key, bad, position):
    """A key is read only as frame_key writes it; the error names the
    family, the key and the position of its first non-canonical
    character."""
    doc = json.loads(emit_indexed(grow_indexed(nu, 1, two_points)))
    doc["families"][str(n)][bad] = doc["families"][str(n)].pop(key)
    with pytest.raises(ParseError) as e:
        parse_indexed(json.dumps(doc))
    message = str(e.value)
    assert message.startswith(f"families[{n}] key {bad!r} ")
    assert f"at dimension {n}: at position {position}, " in message


@functools.cache
def _value_pool(nu, trunc, seed):
    """Every frame, layer and painting of a small grown set, the fibre
    sizes drawn from the seed: 1 or 2 points, at most 2 cells over each
    1-frame and at most 1 above, since larger fibres blow up the frame
    count at n = 3. At nu = 3 the sets stop at n = 2: even over two
    points with singletons above, the 3-frames do not fit in 2 GiB."""
    rng = random.Random(seed)
    sizes = ((1, 2), (0, 1, 2), (0, 1), (0, 1))
    S = grow_indexed(nu, trunc, lambda n, d: rng.choice(sizes[n]))
    pool = {}
    for n in range(trunc + 1):
        for p in range(n + 1):
            for d in enumerate_frames(S, n, p):
                pool.update(dict.fromkeys((d,) + d.layers))
                pool.update(dict.fromkeys(enumerate_paintings(S, d)))
    return list(pool)


_KINDS = {FrameVal: "frame", LayerVal: "layer", PaintingVal: "painting"}
_EDITS = " ()[]{}019\t\u00b2\u0663x"  # \u0663: an Arabic-Indic 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 3), (3, 2)]), st.integers(0, 7),
       st.data())
def test_reader_reads_exactly_canonical_text(shape, seed, data):
    """Each value reads back from its text; every one-character insert,
    delete or replace of that text is rejected or reads back to a value
    that renders as exactly the edited text."""
    nu, trunc = shape
    v = data.draw(st.sampled_from(_value_pool(nu, trunc, seed)))
    args = (nu, v.n, v.p, _KINDS[type(v)])
    text = frame_key(v)
    assert parse_value(text, *args) == v
    edits = {text[:i] + text[i + 1:] for i in range(len(text))}
    edits |= {text[:i] + ch + text[j:] for i in range(len(text) + 1)
              for j in (i, i + 1) for ch in _EDITS}
    for edited in edits - {text}:
        try:
            assert frame_key(parse_value(edited, *args)) == edited
        except ParseError:
            pass


# ------------------------------------------------------------ transport

# The equation a layer's transport rewrites along is the frame law at
# r = p, which the sweep checks (check_coh_frame); restriction itself only
# checks membership: under the `within` context each layer component must
# be enumerable over the restricted frame it sits on. A cell index is
# fibre-relative, so the observable corruptions are exactly the
# out-of-range ones; the fixture gives one edge fibre size 2 (over the
# endpoint pair (0,0)) and all others size 1 to make room for them.


def uneven(n, d):
    if n == 0:
        return 2
    if n == 1:
        return 2 if frame_key(d) == "([{0} {0}])" else 1
    return 1


@pytest.fixture(scope="module")
def SU():
    return grow_indexed(2, 2, uneven)


@pytest.fixture(scope="module")
def corpus(SU):
    """Frame at (3,1) whose omega-restrictions both have singleton fibres,
    plus valid and corrupt layers over it."""
    sqA = parse_value("{[{[{1} {0}] 0} {[{1} {0}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    sqB = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    l0 = LayerVal(3, 0, (sqA, sqB))
    d31 = FrameVal(3, 1, (l0,))
    good = parse_value("{[{0} {0}] 0}", 2, 2, 1, "painting")
    bad = parse_value("{[{1} {0}] 0}", 2, 2, 1, "painting")
    return d31, l0, good, bad, sqB


def test_transport_never_fires_on_valid_corpus(SU):
    for n in range(2, SU.trunc + 2):
        for p in range(n):
            for d in enumerate_frames(SU, n, p):
                for q in range(p, n - 1):
                    for eps in range(2):
                        restr_frame(eps, q + 1, d, SU)


def test_sweep_catches_a_broken_restriction(monkeypatch):
    """With no comparison inside restriction, the frame law still catches
    a restriction that takes the wrong face: here the direction is swapped
    at q = n-1 on 1-frames."""
    real = indexed.restr_frame

    def broken(eps, q, d, within):
        if q == d.n - 1 and d.p == 1:
            eps = 1 - eps
        return real(eps, q, d, within)

    monkeypatch.setattr(indexed, "restr_frame", broken)
    rep = coherence_sweep(to_indexed(standard_shape(2, 3)))
    assert not rep.ok
    kinds = Counter(v["kind"] for v in rep.violations)
    assert kinds["coh-frame"] == 144


def test_corruption_component_left(SU, corpus):
    d31, _, good, bad, _ = corpus
    with pytest.raises(CoherenceMismatch):
        restr_layer(0, 1, d31, LayerVal(3, 1, (bad, good)), SU)


def test_corruption_component_right(SU, corpus):
    d31, _, good, bad, _ = corpus
    with pytest.raises(CoherenceMismatch):
        restr_layer(1, 1, d31, LayerVal(3, 1, (good, bad)), SU)


def test_corruption_inside_frame(SU, corpus):
    d31, l0, good, bad, _ = corpus
    bad32 = FrameVal(3, 2, (l0, LayerVal(3, 1, (bad, good))))
    with pytest.raises(CoherenceMismatch):
        restr_frame(0, 2, bad32, SU)


def test_corruption_inside_painting(SU, corpus):
    d31, l0, good, bad, _ = corpus
    good_l1 = LayerVal(3, 1, (good, good))
    lay2 = parse_value("[{0} {0}]", 2, 3, 2, "layer")
    c_bad = PaintingVal(3, 1, (LayerVal(3, 1, (bad, good)), lay2), 0)
    with pytest.raises(CoherenceMismatch):
        restr_painting(0, 2, d31, c_bad, SU)
    # the uncorrupted counterpart passes
    c = PaintingVal(3, 1, (good_l1, lay2), 0)
    restr_painting(0, 2, d31, c, SU)


def test_corruption_out_of_range_cell(SU, corpus):
    # square whose top layer carries cell 1 over a singleton fibre
    *_, sqB = corpus
    sq_bad = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {1}] 0}",
                         2, 2, 0, "painting")
    with pytest.raises(CoherenceMismatch):
        restr_layer(0, 1, FrameVal(3, 0, ()),
                    LayerVal(3, 0, (sq_bad, sqB)), SU)


def test_clean_counterparts_do_not_fire(SU, corpus):
    d31, l0, good, _, sqB = corpus
    good_l1 = LayerVal(3, 1, (good, good))
    restr_layer(0, 1, d31, good_l1, SU)
    restr_frame(0, 2, FrameVal(3, 2, (l0, good_l1)), SU)
    restr_layer(0, 1, FrameVal(3, 0, ()), l0, SU)


# ------------------------------------------------------------ coherence


def test_coh_checks_empty_on_valid(S22, S13):
    for S in (S22, S13):
        for eps in range(S.nu):
            for omega in range(S.nu):
                rep = check_coh_frame(S, eps, omega, 0, 0, 2, 0)
                assert rep.ok, rep
                rep = check_coh_painting(S, eps, omega, 0, 0, 2, 0)
                assert rep.ok, rep


def test_coh_index_guards(S22):
    with pytest.raises(SideConditionViolated):
        check_coh_frame(S22, 0, 1, 0, 1, 2, 0)   # r > q
    with pytest.raises(SideConditionViolated):
        check_coh_frame(S22, 0, 1, 1, 0, 2, 0)   # q > n-2
    with pytest.raises(IndexOutOfRange):
        check_coh_frame(S22, 2, 0, 0, 0, 2, 0)   # eps out of range


def test_coh_overrides_at_another_shape_are_refused(S22):
    """An override states the check's (n, p) apart from its values, so a
    frame at another (n, p) is refused, also where each restriction the
    check makes would be legal at the frame's own shape."""
    d20, d21 = (enumerate_frames(S22, 2, p)[0] for p in (0, 1))
    c20, c21 = (enumerate_paintings(S22, d)[0] for d in (d20, d21))
    for frames in ([d21], [d20]):
        with pytest.raises(SideConditionViolated):
            check_coh_frame(S22, 0, 1, 0, 0, 3, 0, frames=frames)
    for items in ([(d21, c21)], [(d20, c20)], [(d20, c21)]):
        with pytest.raises(SideConditionViolated):
            check_coh_painting(S22, 0, 1, 0, 0, 3, 0, items=items)
    assert check_coh_painting(S22, 0, 1, 0, 0, 2, 0,
                              items=[(d20, c20)]).ok


def test_coh_frame_reports_injected_corruption(SU, corpus):
    _, _, _, _, sqB = corpus
    sq_bad = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {1}] 0}",
                         2, 2, 0, "painting")
    bad31 = FrameVal(3, 1, (LayerVal(3, 0, (sq_bad, sqB)),))
    rep = check_coh_frame(SU, 0, 1, 1, 1, 3, 1, frames=[bad31])
    assert not rep.ok
    assert {v["kind"] for v in rep.violations} == {"transport-mismatch"}


def test_coh_painting_reports_injected_corruption(SU):
    # square with an endpoint index outside X_0
    sqB = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    p5 = PaintingVal(0, 0, (), 5)
    e_ok = sqB.layers[0].components[1]
    e_broken = PaintingVal(
        1, 0, (LayerVal(1, 0, (p5, e_ok.layers[0].components[1])),), 0)
    sq_broken = PaintingVal(
        2, 0, (LayerVal(2, 0, (e_broken, e_ok)), sqB.layers[1]), sqB.cell)
    rep = check_coh_painting(SU, 0, 0, 0, 0, 2, 0,
                             items=[(FrameVal(2, 0, ()), sq_broken)])
    assert not rep.ok
    kinds = {v["kind"] for v in rep.violations}
    assert kinds == {"transport-mismatch"}
    assert rep.violations[0]["frame"] == "()"
    assert "painting" in rep.violations[0]


def _swapped(c, pool):
    """The frame or painting c with one painting in it (or c itself, if
    it is one) replaced by a different painting of its shape from pool."""
    if isinstance(c, PaintingVal):
        yield from (alt for alt in pool[c.n, c.p] if alt != c)
    for i, layer in enumerate(c.layers):
        for w, comp in enumerate(layer.components):
            for m in _swapped(comp, pool):
                comps = layer.components[:w] + (m,) + layer.components[w + 1:]
                layers = (c.layers[:i] + (LayerVal(layer.n, layer.p, comps),)
                          + c.layers[i + 1:])
                yield (PaintingVal(c.n, c.p, layers, c.cell)
                       if isinstance(c, PaintingVal) else
                       FrameVal(c.n, c.p, layers))


def test_checked_composites_stay_in_the_tables(SU):
    """Why check_coh_frame and check_coh_painting test no membership: with
    one painting anywhere in a frame or painting swapped for a foreign one
    of the same shape, the two routes of every coherence square either
    raise CoherenceMismatch or both end in members of the set's tables.
    (One route alone may end outside them: it projects unchecked.)"""
    pool = {}
    for n in range(SU.trunc + 1):
        for p in range(n + 1):
            for d in enumerate_frames(SU, n, p):
                pool.setdefault((n, p), []).extend(
                    enumerate_paintings(SU, d))
    # a few of each shape, and out-of-range cells: fibres have 2 at most
    pool = {k: v[:3] for k, v in pool.items()}
    for n in range(SU.trunc + 1):
        pool[n, n] += [PaintingVal(n, n, (), 2)]

    def routes(eps, omega, q, r, n, p, d, c=None):
        """Both composites of a square, each as (value, table) or None
        when checked restriction raised."""
        out = []
        for (a, i), (b, j) in (((omega, r), (eps, q)),
                               ((eps, q + 1), (omega, r))):
            try:
                base = restr_frame(a, i, d, SU)
                frame = restr_frame(b, j, base, SU)
                if c is None:
                    out.append((frame, enumerate_frames(SU, n - 2, p)))
                    continue
                inner = restr_painting(a, i, d, c, SU)
                value = restr_painting(b, j, base, inner, SU)
                out.append((value, enumerate_paintings(SU, frame)))
            except CoherenceMismatch:
                out.append(None)
        return out

    reached = raised = 0
    # every square of the 47 paintings at (2, 0); one frame in 50 of the
    # 2209 at (3, 1)
    for n, p, step in ((3, 1, 50), (2, 0, 1)):
        squares = [(eps, omega, q, r) for r in range(p, n - 1)
                   for q in range(r, n - 1)
                   for eps in range(2) for omega in range(2)]
        for d in enumerate_frames(SU, n, p)[::step]:
            cases = [(m, None) for m in _swapped(d, pool)]
            if n <= SU.trunc:
                cases += [(d, m) for c in enumerate_paintings(SU, d)
                          for m in _swapped(c, pool)]
            for frame, painting in cases:
                for square in squares:
                    both = routes(*square, n, p, frame, painting)
                    if None in both:
                        raised += 1
                        continue
                    for value, table in both:
                        assert value in table, (square, frame, painting)
                    reached += 1
    assert reached > 1000 and raised > 1000, (reached, raised)


# ------------------------------------------------------------ validation


def test_validate_clean(S22, S13, SU):
    for S in (S22, S13, SU):
        rep = validate_indexed(S)
        assert rep.ok, rep.to_json()


def test_validate_missing_fibre(S22):
    fams = {n: dict(S22.families[n]) for n in S22.families}
    victim = sorted(fams[2], key=frame_key)[0]
    del fams[2][victim]
    rep = validate_indexed(IndexedNuSet(2, 2, fams))
    assert not rep.ok
    assert any(v["kind"] == "missing-fibre"
               and v["frame"] == frame_key(victim) for v in rep.violations)


def test_validate_orphan_key(S22):
    fams = {n: dict(S22.families[n]) for n in S22.families}
    fams[1][parse_value("([{0} {9}])", 2, 1, 1)] = FinSet(1, None)
    rep = validate_indexed(IndexedNuSet(2, 2, fams))
    assert not rep.ok
    assert any(v["kind"] == "orphan-frame-key" for v in rep.violations)


# ------------------------------------------------------------ randomized


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]))
def test_random_instances_validate(seed, nu):
    rng = random.Random(seed)
    chosen = {}

    def sizes(n, d):
        if (n, d) not in chosen:
            hi = 2 if n == 0 else (2 if nu == 1 else 1)
            chosen[(n, d)] = rng.randint(1, hi)
        return chosen[(n, d)]

    S = grow_indexed(nu, 2, sizes)
    assert validate_indexed(S).ok
