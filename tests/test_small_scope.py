"""Every small structure, both ways: an exhaustive small-scope check.

Indexed side: the scopes are nu 1-3 and truncation 2-3, with at most 5
cells (4 at nu 3) and at most 2 cells per fibre. Each set of a scope is
built level by level over the frames ``_frames`` enumerates, so every set
is total, and every one is checked: the coherence sweep and
``validate_indexed`` are ok, the round trip through the fibred form gives
the set back and its report is ok, and the file format reads it back
equal.

Fibred side: every choice of face maps for fixed carrier sizes. The
functor laws hold exactly when ``to_indexed`` succeeds, and then the
round trip is ok, the file format reads the indexed set back equal, and
it validates.

Bugs of this code show on small inputs (the small scope hypothesis,
Jackson 2006), so the scopes are enumerated rather than sampled.
"""

from itertools import product

import pytest

from nusets.equivalence import round_trip_report, to_fibred, to_indexed
from nusets.errors import LawViolation
from nusets.fileformat import FinSet
from nusets.frames import _frames, grow_indexed
from nusets.indexed import coherence_sweep, validate_indexed
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.presheaf import TruncatedPresheaf, check_functor_laws
from nusets.values import FrameVal
from nusets.words import hom_enumerate


def _sizes(count, left):
    """Every tuple of ``count`` fibre sizes in 0..2 with sum at most left."""
    if not count:
        yield ()
        return
    for k in range(min(2, left) + 1):
        for rest in _sizes(count - 1, left - k):
            yield (k,) + rest


def _total_sets(nu, trunc, cells):
    """Every total indexed set at (nu, trunc) with at most ``cells`` cells
    and at most 2 per fibre. A set with levels 0..m is built by
    ``grow_indexed`` from its fibre sizes, and each choice of sizes over
    its frames at m + 1 is the next level of one set."""
    def grow(sizes, left):
        S = grow_indexed(nu, len(sizes) - 1, lambda n, d: sizes[n][d])
        if S.trunc == trunc:
            yield S
            return
        frames = list(_frames(S, S.trunc + 1, S.trunc + 1))
        for ks in _sizes(len(frames), left):
            yield from grow(sizes + [dict(zip(frames, ks))], left - sum(ks))

    for k in range(3):
        yield from grow([{FrameVal(0, 0, ()): k}], cells - k)


@pytest.mark.parametrize("nu, trunc, cells, count, squares", [
    (1, 2, 5, 42, 30), (1, 3, 5, 56, 44), (2, 2, 5, 237, 202),
    (2, 3, 5, 307, 272), (3, 2, 4, 117, 68), (3, 3, 4, 118, 69),
])
def test_every_small_total_set_is_lawful_both_ways(nu, trunc, cells, count,
                                                   squares):
    """``count`` sets in the scope, of which ``squares`` have a cell at
    dimension 2, where the sweep first restricts paintings."""
    seen = with_squares = 0
    for S in _total_sets(nu, trunc, cells):
        seen += 1
        with_squares += any(f.size for f in S.families[2].values())
        assert coherence_sweep(S).ok
        assert validate_indexed(S).ok
        assert to_indexed(to_fibred(S)) == S
        assert round_trip_report(S).ok
        assert parse_indexed(emit_indexed(S)) == S
    assert (seen, with_squares) == (count, squares)


def _structures(nu, sizes):
    """Every fibred structure at arity nu with these carrier sizes: one per
    choice of its codimension-1 face maps."""
    slots = [(n, str(w)) for n in range(1, len(sizes))
             for w in hom_enumerate(nu, n - 1, n)]
    for maps in product(*(product(range(sizes[n - 1]), repeat=sizes[n])
                          for n, _ in slots)):
        faces = {n: {} for n in range(1, len(sizes))}
        for (n, word), images in zip(slots, maps):
            faces[n][word] = images
        yield TruncatedPresheaf(nu, len(sizes) - 1,
                                [FinSet(k) for k in sizes], faces)


@pytest.mark.parametrize("nu, sizes, count, lawful", [
    (2, (2, 3, 1), 5184, 768), (3, (2, 2, 1), 4096, 192),
    (1, (2, 2, 2, 1), 512, 112),
], ids=["nu2-2.3.1", "nu3-2.2.1", "nu1-2.2.2.1"])
def test_every_small_fibred_structure_converts_exactly_when_lawful(
        nu, sizes, count, lawful):
    """``count`` structures with these carrier sizes, of which ``lawful``
    satisfy the functor laws."""
    seen = ok = 0
    for P in _structures(nu, sizes):
        seen += 1
        if not check_functor_laws(P).ok:
            with pytest.raises(LawViolation):
                to_indexed(P)
            continue
        ok += 1
        S = to_indexed(P)
        assert round_trip_report(P).ok
        assert parse_indexed(emit_indexed(S)) == S
        assert validate_indexed(S).ok
    assert (seen, ok) == (count, lawful)
