"""Acceptance gate: one test per shipped criterion.

Each test is self-contained, runs the full stated scope, and asserts its
runtime budget, so `pytest -v tests/test_acceptance.py` reads as one
pass/fail line per criterion.
"""

import random
import time

import pytest

from nusets.equivalence import (
    boundary_frame, random_indexed, round_trip_report, to_fibred, to_indexed,
)
from nusets.errors import CoherenceMismatch
from nusets.frames import (
    IndexedNuSet, _cells, enumerate_frames, grow_indexed,
)
from nusets.hypotheses import telescope_stats
from nusets.indexed import (
    coherence_sweep, restr_frame, restr_layer, restr_painting,
)
from nusets.indexedfile import emit_indexed
from nusets.parametricity import iterate_types
from nusets.syntax import parse_type
from nusets.telescopes import same_telescope
from nusets.presheaf import TruncatedPresheaf, check_functor_laws
from nusets.shapes import geometric_inventory, standard_shape
from nusets.streams import extend_singleton, take
from nusets.values import (
    FrameVal, LayerVal, PaintingVal, frame_key, parse_value,
)
from nusets.words import compose, hom_count, hom_enumerate, identity, \
    parse_word

from test_frames_oracle import full_frame


def _budget(t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"ran {elapsed:.1f}s, budget {limit}s"


def test_criterion_1_shape_inventories():
    t0 = time.monotonic()
    # augmented simplices live one carrier up: the k-simplex is object k+1
    assert geometric_inventory(standard_shape(1, 1)) == (1,)
    assert geometric_inventory(standard_shape(1, 2)) == (2, 1)
    assert geometric_inventory(standard_shape(1, 3)) == (3, 3, 1)
    assert geometric_inventory(standard_shape(2, 0)) == (1,)
    assert geometric_inventory(standard_shape(2, 1)) == (2, 1)
    assert geometric_inventory(standard_shape(2, 2)) == (4, 4, 1)
    square = standard_shape(2, 2)
    assert set(square.carriers[1].labels) == {"L*", "R*", "*L", "*R"}
    _budget(t0, 1)


def test_criterion_2_category_laws():
    t0 = time.monotonic()
    # exhaustive pairs and triples, nu in {1,2}, n <= 5
    for nu in (1, 2):
        words = {n: [w for p in range(n + 1)
                     for w in hom_enumerate(nu, p, n)]
                 for n in range(6)}
        for n in range(6):
            for g in words[n]:
                assert compose(identity(nu, n), g) == g
                assert compose(g, identity(nu, g.stars)) == g
                for f in words[g.stars]:
                    gf = compose(g, f)
                    for e in words[f.stars]:
                        assert compose(gf, e) == compose(g, compose(f, e))
    # randomized triples for nu=3, n <= 6
    rng = random.Random(35)

    def rand_word(nu, n):
        return parse_word(nu, "".join(
            rng.choice("*" + "012"[:nu]) for _ in range(n)))

    for _ in range(1000):
        h = rand_word(3, rng.randint(0, 6))
        g = rand_word(3, h.stars)
        f = rand_word(3, g.stars)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))
        assert compose(identity(3, len(h.letters)), h) == h
        assert compose(h, identity(3, h.stars)) == h
    _budget(t0, 10)


def _corrupt_one_face(P, m, wtext, element=0):
    faces = {k: dict(fs) for k, fs in P.faces.items()}
    arr = list(faces[m][wtext])
    arr[element] = (arr[element] + 1) % P.carriers[m - 1].size
    faces[m][wtext] = tuple(arr)
    return TruncatedPresheaf(P.nu, P.trunc, P.carriers, faces)


def test_criterion_3_presheaf_laws():
    t0 = time.monotonic()
    for nu in (1, 2):
        for n in range(5):
            assert check_functor_laws(standard_shape(nu, n)).ok, (nu, n)
    # ten single-entry corruptions, each caught; every target carrier has
    # at least two elements so the redirect genuinely changes the map
    square = standard_shape(2, 2)
    cube = standard_shape(2, 3)
    cases = [(square, 1, "L"), (square, 1, "R"),
             (square, 2, "L*"), (square, 2, "R*"),
             (square, 2, "*L"), (square, 2, "*R"),
             (cube, 3, "L**"), (cube, 3, "*R*"),
             (cube, 3, "**L"), (cube, 3, "**R")]
    assert len(cases) == 10
    for P, m, w in cases:
        assert P.carriers[m - 1].size > 1
        assert not check_functor_laws(_corrupt_one_face(P, m, w)).ok, (m, w)
    _budget(t0, 10)


def _criterion_4_corpus():
    """20 randomized valid instances; binary arity at truncation 3 only
    with a single point, which keeps frame enumeration at desk scale."""
    out = []
    for i in range(7):
        out.append(random_indexed(1, 3, 100 + i, sizes=(0, 1, 2)))
    for i in range(7):
        out.append(random_indexed(2, 2, 200 + i, sizes=(0, 1, 2)))
    for i in range(6):
        out.append(random_indexed(2, 3, 300 + i, sizes=(0, 1), dim0=1))
    return out


def _cells_by_dimension(S, P, d):
    offsets = [_cells(S, m) for m in range(S.trunc + 1)]

    def collect(base, c, acc):
        acc.setdefault(c.n, set()).add(
            offsets[c.n][full_frame(base, c)] + c.cell)
        D = base
        for j, layer in enumerate(c.layers):
            for tau, sub in enumerate(layer.components):
                sub_base = restr_frame(tau, c.p + j, D, S)
                collect(sub_base, sub, acc)
            D = D.extend(layer)

    acc = {}
    for q in range(d.p):
        for omega, c in enumerate(d.layers[q].components):
            collect(restr_frame(omega, q, d.prefix(q), S), c, acc)
    return {m: len(v) for m, v in acc.items()}


def test_criterion_4_coherence_sweep():
    t0 = time.monotonic()
    for nu in (1, 2):
        for n in range(4):
            S = to_indexed(standard_shape(nu, n))
            rep = coherence_sweep(S)
            assert rep.ok, (nu, n, rep)
    for k, S in enumerate(_criterion_4_corpus()):
        rep = coherence_sweep(S)
        assert rep.ok, (k, rep)
    # the cube's top boundary frame mentions 8 + 12 + 6 = 26 cells
    cube = standard_shape(2, 3)
    S = to_indexed(cube)
    top = cube.carriers[3].labels.index("***")
    counts = _cells_by_dimension(S, cube, boundary_frame(cube, 3, top))
    assert counts == {0: 8, 1: 12, 2: 6}
    _budget(t0, 60)


def test_criterion_5_equivalence_round_trips():
    t0 = time.monotonic()

    def partition_identity(P, S):
        for n in range(P.trunc + 1):
            total = sum(f.size for f in S.families[n].values())
            assert total == P.carriers[n].size, n

    for nu in (1, 2):
        for n in range(4):
            P = standard_shape(nu, n)
            S = to_indexed(P)
            assert round_trip_report(P).ok, (nu, n)
            assert round_trip_report(S).ok, (nu, n)
            partition_identity(P, S)
    for i in range(20):
        S = random_indexed(1 + i % 2, 2, 400 + i)
        assert round_trip_report(S).ok, i
        partition_identity(to_fibred(S), S)
    _budget(t0, 60)


def test_criterion_6_parametricity_correspondence():
    t0 = time.monotonic()
    for nu in (1, 2):
        for n in range(5):
            stats = telescope_stats(iterate_types(nu, n))
            for p in range(n):
                assert stats.get(p, 0) == hom_count(nu, p, n), (nu, n, p)
    display = ("Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
               "X1 (a, b) * X1 (c, d) * X1 (a, c) * X1 (b, d) -> U")
    assert same_telescope(iterate_types(2, 2), parse_type(display))
    _budget(t0, 5)


def test_criterion_7_stream_laws():
    t0 = time.monotonic()
    bases = [random_indexed(1, 1, 500 + i, sizes=(0, 1, 2)) for i in range(3)]
    bases += [random_indexed(2, 1, 600 + i, sizes=(0, 1), dim0=1)
              for i in range(2)]
    for base in bases:
        s = extend_singleton(base)
        tops = {M: take(s, M) for M in range(5)}
        for M in range(5):
            for N in range(M + 1):
                small = IndexedNuSet(
                    tops[M].nu, N,
                    {n: tops[M].families[n] for n in range(N + 1)})
                assert emit_indexed(tops[N]) == emit_indexed(small), (N, M)
        cur = s
        for k in range(2):
            n = cur.dimension
            assert cur.this() == take(s, n).families[n], (n,)
            cur = cur.next()
    _budget(t0, 10)


def test_criterion_8_transport_shadow():
    # never on valid input: direct restrictions with the membership check
    # over the criterion 4/5 corpus raise nothing
    corpus = [to_indexed(standard_shape(nu, n))
              for nu in (1, 2) for n in range(4)]
    corpus += _criterion_4_corpus()
    corpus += [random_indexed(1 + i % 2, 2, 400 + i) for i in range(20)]
    for S in corpus:
        for n in range(2, S.trunc + 2):
            for p in range(n):
                for d in enumerate_frames(S, n, p):
                    for q in range(p, n - 1):
                        for eps in range(S.nu):
                            restr_frame(eps, q + 1, d, S)

    # and on each of 5 constructed corruptions it fires; the uneven growth
    # gives one doubled edge fibre so an out-of-range cell index exists
    def uneven(n, d):
        if n == 0:
            return 2
        if n == 1:
            return 2 if frame_key(d) == "([{0} {0}])" else 1
        return 1

    SU = grow_indexed(2, 2, uneven)
    sqA = parse_value("{[{[{1} {0}] 0} {[{1} {0}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    sqB = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {0}] 0}",
                      2, 2, 0, "painting")
    l0 = LayerVal(3, 0, (sqA, sqB))
    d31 = FrameVal(3, 1, (l0,))
    good = parse_value("{[{0} {0}] 0}", 2, 2, 1, "painting")
    bad = parse_value("{[{1} {0}] 0}", 2, 2, 1, "painting")

    with pytest.raises(CoherenceMismatch):
        restr_layer(0, 1, d31, LayerVal(3, 1, (bad, good)), SU)
    with pytest.raises(CoherenceMismatch):
        restr_layer(1, 1, d31, LayerVal(3, 1, (good, bad)), SU)
    with pytest.raises(CoherenceMismatch):
        restr_frame(0, 2, FrameVal(3, 2, (l0, LayerVal(3, 1, (bad, good)))),
                    SU)
    lay2 = parse_value("[{0} {0}]", 2, 3, 2, "layer")
    with pytest.raises(CoherenceMismatch):
        restr_painting(0, 2, d31,
                       PaintingVal(3, 1, (LayerVal(3, 1, (bad, good)), lay2),
                                   0), SU)
    sq_bad = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {1}] 0}",
                         2, 2, 0, "painting")
    with pytest.raises(CoherenceMismatch):
        restr_layer(0, 1, FrameVal(3, 0, ()),
                    LayerVal(3, 0, (sq_bad, sqB)), SU)
