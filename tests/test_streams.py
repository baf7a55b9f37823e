"""Stream extension: unfolding laws, prefix coherence, memoization, and
totality checking of user-supplied head rules.

The two unfolding laws are the observable content: this() is exactly the
family the next take appends, and next() advances by exactly that family.
"""

import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from nusets.errors import ValidationFailure
from nusets.fileformat import FinSet
from nusets.frames import IndexedNuSet, enumerate_frames, grow_indexed
from nusets.indexed import validate_indexed
from nusets.indexedfile import emit_indexed
from nusets.streams import NuSetStream, extend_singleton, take
from nusets.values import frame_key, parse_value


def two_points(n, d):
    return 2 if n == 0 else 1


def base(nu, trunc=1):
    return grow_indexed(nu, trunc, two_points)


def truncate(S, N):
    return IndexedNuSet(S.nu, N, {n: S.families[n] for n in range(N + 1)})


def test_singleton_extension_fills_one_cell_per_frame():
    for nu in (1, 2):
        S = take(extend_singleton(base(nu)), 3)
        assert S.trunc == 3
        for n in (2, 3):
            assert all(f == FinSet(1) for f in S.families[n].values())
            assert len(S.families[n]) > 0


def test_take_zero_is_the_dimension_zero_prefix():
    D = base(2)
    S = take(extend_singleton(D), 0)
    assert S.trunc == 0
    assert S.families[0] == D.families[0]


def test_take_is_deterministic():
    s = extend_singleton(base(2))
    assert emit_indexed(take(s, 3)) == emit_indexed(take(s, 3))
    # and across independently built streams
    s2 = extend_singleton(base(2))
    assert emit_indexed(take(s2, 3)) == emit_indexed(take(s, 3))


def test_prefix_coherence():
    # take(s, N) equals the truncation of take(s, M) for N <= M;
    # dimension-4 frames over a binary base with two points blow up, so
    # the binary side stops at 3 and the unary side carries on to 4
    s = extend_singleton(base(2))
    big = take(s, 3)
    for N in range(4):
        assert emit_indexed(take(s, N)) == emit_indexed(truncate(big, N))
    s1 = extend_singleton(base(1))
    big1 = take(s1, 4)
    for N in range(5):
        assert emit_indexed(take(s1, N)) == emit_indexed(truncate(big1, N))
    # meaningful across separate memo tables too
    fresh = take(extend_singleton(base(2)), 2)
    assert emit_indexed(fresh) == emit_indexed(truncate(big, 2))


def test_taken_prefixes_validate():
    for nu, top in ((1, 4), (2, 3)):
        s = extend_singleton(base(nu))
        for N in range(top + 1):
            assert validate_indexed(take(s, N)).ok


def test_unfolding_laws():
    for nu, steps in ((1, 3), (2, 2)):
        s = extend_singleton(base(nu))
        n0 = s.dimension
        cur = s
        for k in range(steps):
            n = n0 + k
            assert cur.dimension == n
            # this() is the family take appends at dimension n
            assert cur.this() == take(s, n).families[n]
            cur = cur.next()


def test_rejects_invalid_base():
    D = base(2)
    families = {n: dict(D.families[n]) for n in range(2)}
    families[1].popitem()
    broken = IndexedNuSet(2, 1, families)
    with pytest.raises(ValidationFailure):
        extend_singleton(broken)


def test_user_rule_checked_lazily_per_level():
    def missing_at_3(prefix, n):
        fam = dict.fromkeys(enumerate_frames(prefix, n, n), 1)
        if n == 3:
            fam.popitem()
        return fam

    s = NuSetStream(base(2), missing_at_3)
    take(s, 2)  # below the broken level, fine
    with pytest.raises(ValidationFailure):
        take(s, 3)


# a full frame at (nu=1, n=2) whose top cell lies past every fibre
FAR = "([{[{0}] 0}] [{9}])"


def test_user_rule_stray_key_rejected():
    def stray(prefix, n):
        fam = dict.fromkeys(enumerate_frames(prefix, n, n), 1)
        fam[parse_value(FAR, 1, 2, 2)] = 1
        return fam

    with pytest.raises(ValidationFailure, match=re.escape(FAR)):
        take(NuSetStream(base(1), stray), 2)


def test_user_rule_keyed_by_text_is_a_validation_failure():
    """Rules key families by frame value; a text key is a stray that the
    error names, and a rule keyed by text alone misses every frame."""
    def one_text_key(prefix, n):
        fam = dict.fromkeys(enumerate_frames(prefix, n, n), 1)
        fam[FAR] = 1
        return fam

    def by_text(prefix, n):
        return {frame_key(d): 1 for d in enumerate_frames(prefix, n, n)}

    with pytest.raises(ValidationFailure,
                       match=re.escape(f"does not occur: {FAR}")):
        take(NuSetStream(base(1), one_text_key), 2)
    first = frame_key(enumerate_frames(base(1), 2, 2)[0])
    with pytest.raises(ValidationFailure,
                       match=re.escape(f"misses frame {first}")):
        take(NuSetStream(base(1), by_text), 2)


def test_user_rule_sizes_respected():
    def doubled(prefix, n):
        return dict.fromkeys(enumerate_frames(prefix, n, n), 2)

    S = take(NuSetStream(base(1), doubled), 3)
    assert all(f == FinSet(2) for f in S.families[3].values())
    assert validate_indexed(S).ok


def test_generation_happens_once():
    calls = []

    def counting(prefix, n):
        calls.append(n)
        return dict.fromkeys(enumerate_frames(prefix, n, n), 1)

    s = NuSetStream(base(2), counting)
    take(s, 3)
    take(s, 3)
    take(s, 2)
    s.next().this()  # shared memo, nothing regenerated
    assert calls == [2, 3]


def test_concurrent_takes_generate_once():
    calls = []

    def counting(prefix, n):
        calls.append(n)
        return dict.fromkeys(enumerate_frames(prefix, n, n), 1)

    s = NuSetStream(base(2), counting)
    with ThreadPoolExecutor(max_workers=8) as pool:
        outs = list(pool.map(lambda _: emit_indexed(take(s, 3)), range(16)))
    assert calls == [2, 3]
    assert len(set(outs)) == 1


def test_take_rejects_negative():
    with pytest.raises(ValidationFailure):
        take(extend_singleton(base(1)), -1)
