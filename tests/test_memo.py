"""The per-structure memo: one table per set, handed on by ``extended``,
range checks before it is read, and nothing memoized at module level."""

import pytest

from nusets import equivalence, indexed
from nusets.equivalence import to_fibred, to_indexed
from nusets.errors import DimensionOutOfRange
from nusets.indexed import (
    check_totality, emit_indexed, enumerate_frames, enumerate_paintings,
    frame_key, grow_indexed, parse_indexed, restr_frame, restr_layer,
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
    source, unchecked, checked = (parse_indexed(text) for _ in range(3))
    count = 0
    for op, head, values in _cases(source):
        plain = op(*head, *values)
        assert op(*head, *values, _memo=unchecked._memo) == plain
        assert op(*head, *values, checked) == plain
        count += 1
    assert count > 100


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
