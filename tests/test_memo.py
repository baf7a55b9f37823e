"""The per-structure memo: one table per set, handed on by ``extended``,
range checks before it is read, and nothing memoized at module level."""

from itertools import product

import pytest

from nusets import equivalence, indexed
from nusets.equivalence import to_fibred, to_indexed
from nusets.errors import CoherenceMismatch, DimensionOutOfRange
from nusets.indexed import (
    FrameVal, LayerVal, PaintingVal, check_totality, coherence_sweep,
    emit_indexed, enumerate_frames, enumerate_paintings, frame_key,
    grow_indexed, parse_indexed, parse_value, restr_frame, restr_layer,
    restr_painting, validate_indexed,
)
from nusets.presheaf import FinSet
from nusets.shapes import standard_shape
from nusets.streams import NuSetStream, take


@pytest.fixture(scope="module", params=[(2, 3), (3, 2), (1, 5)],
                ids=["cube3", "ternary2", "simplex5"])
def text(request):
    return emit_indexed(to_indexed(standard_shape(*request.param)))


def _cases(S):
    """Every enumerated frame, layer and painting of S with every legal
    (eps, q), as (operator, leading arguments, value arguments)."""
    for n in range(1, S.trunc + 1):
        for p in range(n + 1):
            for d in enumerate_frames(S, n, p):
                for q in range(p, n):
                    for eps in range(S.nu):
                        yield restr_frame, (eps, q, n, p), (d,)
                        for c in enumerate_paintings(S, n, p, d):
                            yield restr_painting, (eps, q, n, p), (d, c)
                if p < n:
                    for layer in indexed._enumerate_layers(S, n, p, d):
                        for q in range(p, n - 1):
                            for eps in range(S.nu):
                                yield restr_layer, (eps, q, n, p), (d, layer)


def test_three_restriction_modes_agree(text):
    """Plain projection, checked within a fresh set, and checked within a
    set whose memo the coherence sweep has filled give the same faces."""
    source, fresh, warm = (parse_indexed(text) for _ in range(3))
    assert coherence_sweep(warm).ok and warm._memo
    count = 0
    for op, head, values in _cases(source):
        plain = op(*head, *values)
        assert op(*head, *values, fresh) == plain
        assert op(*head, *values, warm) == plain
        count += 1
    assert count > 100


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
            checked += _agrees(frames + foreign, indexed._frames(S, n, p),
                               frames)
            shape = [c for d in frames
                     for c in enumerate_paintings(S, n, p, d)]
            for d in frames:
                checked += _agrees(shape, indexed._paintings(S, n, p, d),
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
                                [lhs], indexed._frames(S, n - 2, p),
                                enumerate_frames(S, n - 2, p))
                            tops = [restr_painting(
                                eps, q, n - 1, p, base,
                                restr_painting(omega, r, n, p, d, c, S), S)
                                for c in enumerate_paintings(S, n, p, d)]
                            checked += _agrees(
                                tops, indexed._paintings(S, n - 2, p, lhs),
                                enumerate_paintings(S, n - 2, p, lhs))
    assert checked > 100
    assert coherence_sweep(S).ok


def test_corruptions_caught_after_the_sweep_filled_the_memo():
    """The five corrupted values of the acceptance criterion on coherence
    raise CoherenceMismatch even when the set's memo holds every table and
    restriction that the sweep and the next level's frames up to stratum
    2 (where the corruptions sit) need."""
    def uneven(n, key):
        if n == 0:
            return 2
        if n == 1:
            return 2 if key == "([{0} {0}])" else 1
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
    lay2 = indexed._enumerate_layers(
        SU, 3, 2, d31.extend(LayerVal(3, 1, (good, good))))[0]
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
    S = grow_indexed(2, 2, lambda n, key: 2 if n == 0 else 1)
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
    up = S.extended({frame_key(d): FinSet(1)
                     for d in enumerate_frames(S, S.trunc + 1,
                                               S.trunc + 1)})
    assert up.trunc == S.trunc + 1 and up._memo is memo
    assert S._memo == {} and S._memo is not memo
    P, Q = standard_shape(S.nu, S.trunc), standard_shape(S.nu, S.trunc)
    assert P == Q and P._memo is not Q._memo


def test_prefix_keeps_its_range_after_an_extension():
    S = grow_indexed(2, 1, lambda n, key: 2 if n == 0 else 1)
    top = S.trunc
    T = S.extended({frame_key(d): FinSet(1)
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
    return {frame_key(d): size for d in enumerate_frames(prefix, n, n)}


@pytest.mark.parametrize("nu, b", [(1, 1), (2, 0)])
def test_two_extensions_of_one_set_keep_apart(nu, b):
    """Streams from one base, each taken to b + 2 after the other, equal
    the sets grown afresh with the same sizes."""
    def size_at(top):
        return lambda n, key: 2 if n <= b else top if n == b + 1 else 1
    base = grow_indexed(nu, b, size_at(1))
    for top in (1, 2, 1):
        s = NuSetStream(
            base, lambda P, n, t=top: _sized(P, n, t if n == b + 1 else 1))
        got = take(s, b + 2)
        assert got == grow_indexed(nu, b + 2, size_at(top))
        assert check_totality(got).ok


def _module_containers():
    return {(mod.__name__, name): len(obj)
            for mod in (indexed, equivalence)
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set)) and name != "__builtins__"}


def test_no_module_level_memo():
    """validate, to_fibred and plain restriction leave nothing behind."""
    before = _module_containers()
    # point counts no other test uses, so that no value is memoized yet
    for nu, points in ((1, 5), (2, 3)):
        S = grow_indexed(nu, 2, lambda n, key: points if n == 0 else 1)
        assert validate_indexed(S).ok
        to_fibred(S)
        for d in enumerate_frames(S, 2, 1):
            restr_frame(0, 1, 2, 1, d)
    after = _module_containers()
    assert all(after[k] <= before.get(k, 0) for k in after), after
