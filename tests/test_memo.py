"""The per-structure memo: one table per set, handed on by ``extended``,
range checks before it is read, one object per value within a set, and
nothing memoized at module level."""

import gc
import tracemalloc
from itertools import product

import pytest

import nusets.equivalence
import nusets.frames
import nusets.indexed
import nusets.indexedfile
import nusets.values
from nusets.equivalence import random_indexed, to_fibred, to_indexed
from nusets.errors import CoherenceMismatch, DimensionOutOfRange
from nusets.fileformat import FinSet
from nusets.frames import (
    IndexedNuSet, _frames, _paintings, check_totality, enumerate_frames,
    enumerate_paintings, grow_indexed,
)
from nusets.indexed import (
    coherence_sweep, restr_frame, restr_layer, restr_painting,
    validate_indexed,
)
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.shapes import standard_shape
from nusets.streams import NuSetStream, take
from nusets.values import (
    _VALUES, FrameVal, LayerVal, PaintingVal, frame_key, parse_value,
)


@pytest.fixture(scope="module", params=[(2, 3), (3, 2), (1, 5)],
                ids=["cube3", "ternary2", "simplex5"])
def text(request):
    return emit_indexed(to_indexed(standard_shape(*request.param)))


def _layers_over(S, n, p):
    """The layers over each p-frame at n, p < n, read off the (p+1)-frames
    by prefix, in enumeration order."""
    layers = {}
    for f in enumerate_frames(S, n, p + 1):
        layers.setdefault(f.prefix(p), []).append(f.layers[p])
    return layers


def _cases(S):
    """Every enumerated frame, layer and painting of S with every legal
    (eps, q), as (operator, leading arguments, value arguments)."""
    for n in range(1, S.trunc + 1):
        for p in range(n + 1):
            layers = _layers_over(S, n, p) if p < n else {}
            for d in enumerate_frames(S, n, p):
                for q in range(p, n):
                    for eps in range(S.nu):
                        yield restr_frame, (eps, q, n, p), (d,)
                        for c in enumerate_paintings(S, n, p, d):
                            yield restr_painting, (eps, q, n, p), (d, c)
                if p < n:
                    for layer in layers.get(d, ()):
                        for q in range(p, n - 1):
                            for eps in range(S.nu):
                                yield restr_layer, (eps, q, n, p), (d, layer)


def test_three_restriction_modes_agree(text):
    """Restriction gives the same faces from three states of the set's
    memo: filled by the calls before it in enumeration order, filled by
    them in reverse order, and filled by the coherence sweep."""
    source, forward, backward, warm = (parse_indexed(text) for _ in range(4))
    assert coherence_sweep(warm).ok and warm._memo
    cases = list(_cases(source))
    assert len(cases) > 100
    faces = [op(*head, *values, forward) for op, head, values in cases]
    for (op, head, values), face in zip(reversed(cases), reversed(faces)):
        assert op(*head, *values, backward) == face
    for (op, head, values), face in zip(cases, faces):
        assert op(*head, *values, warm) == face


def _agrees(values, table, reference):
    """Membership of each value in a table equals membership of its text
    among the texts of the reference enumeration; returns the count."""
    keys = {frame_key(v) for v in reference}
    for v in values:
        assert (v in table) == (frame_key(v) in keys), frame_key(v)
    return len(values)


def _foreign(d):
    """A frame of d's shape that is no frame of the fixtures: the first
    component of its last layer names a cell past every fibre."""
    top = d.layers[-1]
    c = top.components[0]
    far = PaintingVal(c.n, c.p, c.layers, c.cell + 10 ** 6)
    return d.prefix(d.p - 1).extend(
        LayerVal(top.n, top.p, (far,) + top.components[1:]))


def test_membership_by_value_agrees_with_text_keys(text):
    """Frames (with same-shape frames that are not frames of S) against
    the frame tables, every painting of a shape against the table of each
    frame of that shape, and every composite the sweep tests for
    membership: by value exactly when by canonical text."""
    S = parse_indexed(text)
    checked = 0
    for n in range(S.trunc + 1):
        for p in range(n + 1):
            frames = enumerate_frames(S, n, p)
            foreign = [_foreign(d) for d in frames] if p else []
            checked += _agrees(frames + foreign, _frames(S, n, p),
                               frames)
            shape = [c for d in frames
                     for c in enumerate_paintings(S, n, p, d)]
            for d in frames:
                checked += _agrees(shape, _paintings(S, n, p, d),
                                   enumerate_paintings(S, n, p, d))
    for n in range(2, S.trunc + 1):
        for p in range(n - 1):
            for r in range(p, n - 1):
                for q in range(r, n - 1):
                    for eps, omega in product(range(S.nu), repeat=2):
                        for d in enumerate_frames(S, n, p):
                            base = restr_frame(omega, r, n, p, d, S)
                            lhs = restr_frame(eps, q, n - 1, p, base, S)
                            checked += _agrees(
                                [lhs], _frames(S, n - 2, p),
                                enumerate_frames(S, n - 2, p))
                            tops = [restr_painting(
                                eps, q, n - 1, p, base,
                                restr_painting(omega, r, n, p, d, c, S), S)
                                for c in enumerate_paintings(S, n, p, d)]
                            checked += _agrees(
                                tops, _paintings(S, n - 2, p, lhs),
                                enumerate_paintings(S, n - 2, p, lhs))
    assert checked > 100
    assert coherence_sweep(S).ok


def test_corruptions_caught_after_the_sweep_filled_the_memo():
    """The five corrupted values of the acceptance criterion on coherence
    raise CoherenceMismatch even when the set's memo holds every table and
    restriction that the sweep and the next level's frames up to stratum
    2 (where the corruptions sit) need."""
    def uneven(n, d):
        if n == 0:
            return 2
        if n == 1:
            return 2 if frame_key(d) == "([{0} {0}])" else 1
        return 1

    SU = grow_indexed(2, 2, uneven)
    assert coherence_sweep(SU).ok
    for p in range(3):
        enumerate_frames(SU, 3, p)
    sqA = parse_value("{[{[{1} {0}] 0} {[{1} {0}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    sqB = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    l0 = LayerVal(3, 0, (sqA, sqB))
    d31 = FrameVal(3, 1, (l0,))
    good = parse_value("{[{0} {0}] 0}", 2, 2, 1, "painting")
    bad = parse_value("{[{1} {0}] 0}", 2, 2, 1, "painting")
    lay2 = _layers_over(SU, 3, 2)[d31.extend(LayerVal(3, 1, (good, good)))][0]
    sq_bad = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {1}] 0}",
                         2, 2, 0, "painting")
    corruptions = [
        lambda: restr_layer(0, 1, 3, 1, d31, LayerVal(3, 1, (bad, good)),
                            SU),
        lambda: restr_layer(1, 1, 3, 1, d31, LayerVal(3, 1, (good, bad)),
                            SU),
        lambda: restr_frame(
            0, 2, 3, 2, FrameVal(3, 2, (l0, LayerVal(3, 1, (bad, good)))),
            SU),
        lambda: restr_painting(
            0, 2, 3, 1, d31,
            PaintingVal(3, 1, (LayerVal(3, 1, (bad, good)), lay2), 0), SU),
        lambda: restr_layer(0, 1, 3, 0, FrameVal(3, 0, ()),
                            LayerVal(3, 0, (sq_bad, sqB)), SU),
    ]
    for corrupt in corruptions:
        with pytest.raises(CoherenceMismatch):
            corrupt()


def test_enumerations_return_fresh_lists():
    S = grow_indexed(2, 2, lambda n, d: 2 if n == 0 else 1)
    frames = enumerate_frames(S, 2, 1)
    expected = list(frames)
    frames.clear()
    assert enumerate_frames(S, 2, 1) == expected
    d = expected[0]
    paintings = enumerate_paintings(S, 2, 1, d)
    assert paintings
    expected = list(paintings)
    paintings.append(paintings[0])
    paintings.reverse()
    assert enumerate_paintings(S, 2, 1, d) == expected


def test_memo_per_set_and_handed_on_by_extended(text):
    S, T = parse_indexed(text), parse_indexed(text)
    assert S == T and S._memo is not T._memo
    memo = S._memo
    up = S.extended({d: FinSet(1)
                     for d in enumerate_frames(S, S.trunc + 1,
                                               S.trunc + 1)})
    assert up.trunc == S.trunc + 1 and up._memo is memo
    assert S._memo == {} and S._memo is not memo
    P, Q = standard_shape(S.nu, S.trunc), standard_shape(S.nu, S.trunc)
    assert P == Q and P._memo is not Q._memo


def test_extended_takes_the_family_over_and_shares_the_rest():
    """extended keeps the new family as it is given and shares the levels
    below with the set it extends, which stays as it was."""
    S, again = random_indexed(2, 2, 5), random_indexed(2, 2, 5)
    before = {n: dict(fam) for n, fam in S.families.items()}
    family = {d: FinSet(1) for d in enumerate_frames(S, 3, 3)}
    T = S.extended(family)
    assert S.families == before and S == again
    assert T.families[3] is family
    assert all(T.families[n] is S.families[n] for n in range(3))
    assert T == IndexedNuSet(2, 3, {**before, 3: dict(family)}) != S
    assert check_totality(T).ok


def test_prefix_keeps_its_range_after_an_extension():
    S = grow_indexed(2, 1, lambda n, d: 2 if n == 0 else 1)
    top = S.trunc
    T = S.extended({d: FinSet(1)
                    for d in enumerate_frames(S, top + 1, top + 1)})
    d = enumerate_frames(T, top + 2, top + 2)[0]
    empty = enumerate_frames(T, top + 1, 0)[0]
    assert enumerate_paintings(T, top + 1, 0, empty)
    assert restr_frame(0, top + 1, top + 2, top + 1, d.prefix(top + 1), T)
    with pytest.raises(DimensionOutOfRange):
        enumerate_frames(S, top + 2, top + 2)
    with pytest.raises(DimensionOutOfRange):
        enumerate_paintings(S, top + 1, 0, empty)
    with pytest.raises(DimensionOutOfRange):
        restr_frame(0, top + 1, top + 2, top + 1, d.prefix(top + 1), S)


def _sized(prefix, n, size):
    return {d: size for d in enumerate_frames(prefix, n, n)}


@pytest.mark.parametrize("nu, b", [(1, 1), (2, 0)])
def test_two_extensions_of_one_set_keep_apart(nu, b):
    """Streams from one base, each taken to b + 2 after the other, equal
    the sets grown afresh with the same sizes."""
    def size_at(top):
        return lambda n, d: 2 if n <= b else top if n == b + 1 else 1
    base = grow_indexed(nu, b, size_at(1))
    for top in (1, 2, 1):
        s = NuSetStream(
            base, lambda P, n, t=top: _sized(P, n, t if n == b + 1 else 1))
        got = take(s, b + 2)
        assert got == grow_indexed(nu, b + 2, size_at(top))
        assert check_totality(got).ok


def _subtree(v):
    """v and every value below it."""
    yield v
    for child in getattr(v, "layers", getattr(v, "components", ())):
        yield from _subtree(child)


def test_one_object_per_value_within_a_set(text):
    """Within one set a parsed family key and every value below it, the
    enumerated frame equal to the key, each restriction result and each
    painting-table entry are the intern table's objects."""
    S = parse_indexed(text)
    values = S._memo[_VALUES]
    for n in range(S.trunc + 1):
        keys = list(S.families[n])
        for key in keys:
            for v in _subtree(key):
                assert values[v] is v
        frames = enumerate_frames(S, n, n)
        assert sorted(map(id, frames)) == sorted(map(id, keys))
    checked = 0
    for op, head, args in _cases(S):
        face = op(*head, *args, S)
        assert values[face] is face
        checked += 1
    for n in range(1, S.trunc + 1):
        for p in range(n):
            for d in enumerate_frames(S, n, p):
                assert values[d] is d
                for c in _paintings(S, n, p, d):
                    assert values[c] is c
                    checked += 1
    assert checked > 100


def _rebuilt(v):
    """v built again by hand, a new object at every node."""
    if isinstance(v, FrameVal):
        return FrameVal(v.n, v.p, tuple(map(_rebuilt, v.layers)))
    if isinstance(v, LayerVal):
        return LayerVal(v.n, v.p, tuple(map(_rebuilt, v.components)))
    return PaintingVal(v.n, v.p, tuple(map(_rebuilt, v.layers)), v.cell)


def test_equality_across_sets_is_structural(text):
    """Values of two parses of one file, and values rebuilt by hand, are
    distinct objects that are equal and hash alike; values of different
    kinds are never equal, even where their fields agree."""
    S, T = parse_indexed(text), parse_indexed(text)
    assert validate_indexed(S).ok and validate_indexed(T).ok
    ours, theirs = S._memo[_VALUES], T._memo[_VALUES]
    assert len(ours) == len(theirs) > 100
    kinds = {}
    for v in ours:
        twin, again = theirs[v], _rebuilt(v)
        for w in (twin, again):
            assert w is not v and w == v and v == w and hash(w) == hash(v)
            assert frame_key(w) == frame_key(v)
        kinds.setdefault(type(v), []).append(v)
    assert len(kinds) == 3
    for kind, vs in kinds.items():
        for other, ws in kinds.items():
            if other is not kind:
                assert all(v != w and not v == w
                           for v in vs[:20] for w in ws[:20])
    # a frame with a layer's fields: it hashes alike, and is not equal
    same = [v for v in kinds[LayerVal] if v.p == len(v.components)]
    assert same or S.nu >= S.trunc
    for layer in same[:20]:
        twin = FrameVal(layer.n, layer.p, layer.components)
        assert hash(twin) == hash(layer)
        assert twin != layer and layer != twin and len({twin, layer}) == 2


def test_values_are_immutable():
    S = grow_indexed(2, 2, lambda n, d: 2 if n == 0 else 1)
    d = enumerate_frames(S, 2, 2)[0]
    layer = d.layers[0]
    c = layer.components[0]
    for v, field in ((d, "n"), (d, "layers"), (layer, "components"),
                     (c, "cell"), (c, "_hash")):
        before = getattr(v, field)
        with pytest.raises(AttributeError):
            setattr(v, field, before)
        with pytest.raises(AttributeError):
            delattr(v, field)
        assert getattr(v, field) is before
    with pytest.raises(AttributeError):
        d.color = "red"


def test_parse_and_validate_hold_each_frame_once():
    """Peak traced memory of parse_indexed plus validate_indexed on the
    ternary 2-cell (nu=3, n=2): the parsed keys are the enumeration's
    frames, not a second copy of them. 823 KiB was the peak when the
    families were keyed by text; holding every frame twice read 1127."""
    text = emit_indexed(to_indexed(standard_shape(3, 2)))
    gc.collect()
    tracemalloc.start()
    try:
        assert validate_indexed(parse_indexed(text)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 823 * 1024, f"{peak / 1024:.0f} KiB"


def _module_containers():
    return {(mod.__name__, name): len(obj)
            for mod in (nusets.values, nusets.frames, nusets.indexed,
                        nusets.indexedfile, nusets.equivalence)
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set)) and name != "__builtins__"}


def test_no_module_level_memo():
    """validate, to_fibred, restriction and a file written and read back
    leave nothing behind, and the intern table is the set's: only its
    memo refers to it."""
    before = _module_containers()
    # point counts no other test uses, so that no value is memoized yet
    for nu, points in ((1, 5), (2, 3)):
        S = grow_indexed(nu, 2, lambda n, d: points if n == 0 else 1)
        assert validate_indexed(S).ok
        to_fibred(S)
        for d in enumerate_frames(S, 2, 1):
            restr_frame(0, 1, 2, 1, d, S)
        values = S._memo[_VALUES]
        assert values and gc.get_referrers(values) == [S._memo]
        T = parse_indexed(emit_indexed(S))
        assert T == S
        assert gc.get_referrers(T._memo[_VALUES]) == [T._memo]
    after = _module_containers()
    assert all(after[k] <= before.get(k, 0) for k in after), after
