"""The stratum-by-stratum product enumerator of frames and paintings, kept
as the oracle of the join that replaced it: on standard shapes, a seeded
cube and random sets it must give the same frames in the same order, as
the same objects, the same painting lists, and the same totality reports
when fibres are missing. Checked restriction is the oracle of the rows the
join keeps: each row, and so each face map read off the rows, names the
cells that restriction finds on the faces."""

import random
from itertools import product

import pytest

from nusets.equivalence import random_indexed, to_fibred, to_indexed
from nusets.errors import SideConditionViolated, UnknownFrame
from nusets.fileformat import FinSet
from nusets.frames import (
    IndexedNuSet, _cells, _faces, _frames, check_totality,
    enumerate_frames, enumerate_paintings, grow_indexed,
)
from nusets.indexed import restr_frame
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.report import Report
from nusets.shapes import standard_shape
from nusets.values import FrameVal, LayerVal, PaintingVal, _intern, frame_key


def _product_enumerator(S):
    """The enumerators the join replaced, as (frames, paintings): each
    p-frame extends a (p-1)-frame by every layer over it, and a layer is a
    product over directions of the painting tables over the restricted
    frame, then a filter. They build through S's intern table and restrict
    within S, but keep their own tables."""
    tables = {}

    def frames(n, p):
        key = ("frames", n, p)
        if key not in tables:
            tables[key] = [_intern(S, FrameVal(n, 0, ()))] if p == 0 else \
                list(dict.fromkeys(_intern(S, d.extend(layer))
                                   for d in frames(n, p - 1)
                                   for layer in layers(n, p - 1, d)))
        return tables[key]

    def layers(n, p, d):
        per_direction = [paintings(n - 1, p, restr_frame(w, p, d, S))
                         for w in range(S.nu)]
        return [_intern(S, LayerVal(n, p, combo))
                for combo in product(*per_direction)]

    def paintings(n, p, d):
        if p == n:
            return [_intern(S, PaintingVal(n, n, (), c))
                    for c in range(S.fibre(d).size)]
        if d not in tables:
            tables[d] = list(dict.fromkeys(
                _intern(S, PaintingVal(n, p, (layer,) + rest.layers,
                                       rest.cell))
                for layer in layers(n, p, d)
                for rest in paintings(n, p + 1,
                                      _intern(S, d.extend(layer)))))
        return tables[d]

    return frames, paintings


def _product_totality(S):
    """check_totality over the product enumerator."""
    frames = _product_enumerator(S)[0]
    rep = Report("totality")
    for n in range(S.trunc + 1):
        try:
            table = frames(n, n)
        except UnknownFrame as exc:
            rep.add("enumeration-failed", dimension=n, detail=str(exc))
            break
        for d in table:
            if d not in S.families[n]:
                rep.add("missing-fibre", dimension=n, frame=frame_key(d))
        for key in sorted(frame_key(k) for k in S.families[n]
                          if k not in set(table)):
            rep.add("orphan-frame-key", dimension=n, frame=key)
    return rep


def _seeded_cube3(seed):
    """nu=2, trunc 3, as the benchmark's seeded input: two points, one
    edge per pair, ten of the squares filled (fixed), and 16 cells spread
    over the top frames by the seed."""
    S = grow_indexed(2, 1, lambda n, d: 2 if n == 0 else 1)
    squares = sorted(enumerate_frames(S, 2, 2), key=frame_key)
    chosen = set(random.Random(100).sample(squares, 10))
    S = S.extended({d: FinSet(int(d in chosen)) for d in squares})
    top = sorted(enumerate_frames(S, 3, 3), key=frame_key)
    sizes = [2] * 4 + [1] * 8 + [0] * (len(top) - 12)
    random.Random(seed).shuffle(sizes)
    return S.extended({d: FinSet(k) for d, k in zip(top, sizes)})


FIXTURES = {
    "cube3": lambda: to_indexed(standard_shape(2, 3)),
    "cube4": lambda: to_indexed(standard_shape(2, 4)),
    "simplex5": lambda: to_indexed(standard_shape(1, 5)),
    "simplex6": lambda: to_indexed(standard_shape(1, 6)),
    "ternary2": lambda: to_indexed(standard_shape(3, 2)),
    "seeded3": lambda: _seeded_cube3(0),
}

# Random sets: (nu, trunc) x fibre sizes x two seeds x dim0 1 or 2.
RANDOM = [(nu, trunc, sizes, seed, dim0)
          for nu, trunc in ((1, 4), (2, 3), (3, 2))
          for sizes in ((0, 1, 2), (1,), (0, 1))
          for seed in (0, 1) for dim0 in (1, 2)]

# The product enumerator lists every partial frame: one level past the
# truncation is only compared where the top holds at most this many cells.
TOP_CELLS = 20


def _top(S):
    cells = sum(fs.size for fs in S.families[S.trunc].values())
    return S.trunc + 1 if cells <= TOP_CELLS else S.trunc


def _agree(S):
    """Every frame table up to _top(S), and every painting table below it,
    against the product enumerator: same values, same order, same objects.
    Returns the number of values compared."""
    compared = 0
    joined = {(n, p): enumerate_frames(S, n, p)
              for n in range(_top(S) + 1) for p in range(n + 1)}
    frames, paintings = _product_enumerator(S)
    for (n, p), ours in joined.items():
        theirs = frames(n, p)
        assert len(ours) == len(theirs), (n, p)
        assert all(a is b for a, b in zip(ours, theirs)), (n, p)
        compared += len(ours)
        if n <= S.trunc:
            for d in ours:
                ours_p = enumerate_paintings(S, d)
                theirs_p = paintings(n, p, d)
                assert len(ours_p) == len(theirs_p), (n, p, frame_key(d))
                assert all(a is b for a, b in zip(ours_p, theirs_p))
                compared += len(ours_p)
    return compared


@pytest.mark.parametrize("name", FIXTURES)
def test_join_lists_the_product_frames_and_paintings(name):
    assert _agree(FIXTURES[name]()) > 10


@pytest.mark.parametrize("nu, trunc", [(1, 4), (2, 3), (3, 2)])
def test_join_agrees_on_random_sets(nu, trunc):
    compared = 0
    for _, _, sizes, seed, dim0 in (r for r in RANDOM if r[:2] == (nu, trunc)):
        compared += _agree(random_indexed(nu, trunc, seed, sizes=sizes,
                                          dim0=dim0))
    assert compared > 100


def full_frame(base, painting):
    """The full frame completed by a painting over its base frame."""
    if base.n != painting.n or base.p != painting.p:
        raise SideConditionViolated(
            f"painting at ({painting.n},{painting.p}) does not sit over "
            f"frame at ({base.n},{base.p})")
    return FrameVal(base.n, base.n, base.layers + painting.layers)


def _restricted_face(S, d, q, w):
    """The index at n-1 of the cell on face (q, w) of a frame d at n, by
    checked restriction: the cell that component w of layer q names, over
    the (w, q)-restriction of d's q-prefix."""
    base = restr_frame(w, q, _intern(S, d.prefix(q)), S)
    pt = d.layers[q].components[w]
    return _cells(S, d.n - 1)[full_frame(base, pt)] + pt.cell


def _restricted_faces(S, m):
    """The face maps of the cells at m by checked restriction, in the
    layout ``frames._faces`` gives them: ``[q][w]``, one entry per cell."""
    cells = _cells(S, m)
    return [[tuple(_restricted_face(S, d, q, w) for d in cells
                   for _ in range(S.families[m][d].size))
             for w in range(S.nu)] for q in range(m)]


def _sets():
    yield from (make() for make in FIXTURES.values())
    for nu, trunc, sizes, seed, dim0 in RANDOM:
        yield random_indexed(nu, trunc, seed, sizes=sizes, dim0=dim0)


def test_face_maps_agree_with_restriction():
    compared = 0
    for S in _sets():
        for m in range(1, S.trunc + 1):
            faces = _restricted_faces(S, m)
            assert _faces(S, m) == faces, m
            compared += len(faces[0][0])
    assert compared > 1000


def test_rows_name_the_restricted_faces():
    """Every row of every frame table up to _top(S), partial ones
    included, lists the cells on the frame's faces, stratum-major."""
    compared = 0
    for S in _sets():
        for n in range(1, _top(S) + 1):
            for p in range(1, n + 1):
                for d, row in _frames(S, n, p).items():
                    assert row == tuple(_restricted_face(S, d, q, w)
                                        for q in range(p)
                                        for w in range(S.nu)), (n, p)
                    compared += 1
    assert compared > 10000


def _dropped(S, victims):
    fams = {n: {d: fs for d, fs in S.families[n].items()
                if (n, d) not in victims} for n in S.families}
    return IndexedNuSet(S.nu, S.trunc, fams)


def test_totality_reports_agree_with_fibres_missing():
    """One or two fibres dropped, anywhere: check_totality over the join
    reports what it reported over the product, detail text included."""
    rng = random.Random(7)
    sets = [make() for make in FIXTURES.values()]
    sets += [random_indexed(nu, trunc, seed, sizes=sizes, dim0=dim0)
             for nu, trunc, sizes, seed, dim0 in RANDOM]
    checked = 0
    for S in sets:
        keys = [(n, d) for n in S.families for d in S.families[n]]
        for k in (1, 2):
            if len(keys) < k:
                continue
            victims = set(rng.sample(keys, k))
            ours = check_totality(_dropped(S, victims)).violations
            assert ours == _product_totality(_dropped(S, victims)).violations
            assert ours
            checked += 1
    assert checked > 50


def test_full_frames_build_no_partial_frame_table():
    """Building an indexed set from fibred data enumerates full frames
    only: no table of partial frames, which only the sweep reads."""
    S = to_indexed(standard_shape(2, 4))
    assert ("frames", 2, 1) not in S._memo
    assert not [k for k in S._memo if isinstance(k, tuple)
                and k[0] == "frames" and 0 < k[2] < k[1]]
    assert len(_frames(S, 2, 2)) == 96


def test_totality_and_conversion_restrict_nothing():
    """Totality and the face maps of to_fibred come off the join: on the
    parsed 4-cube they leave no restriction in the memo, which only the
    coherence sweep fills."""
    S = parse_indexed(emit_indexed(to_indexed(standard_shape(2, 4))))
    assert check_totality(S).ok
    to_fibred(S)
    assert not [k for k in S._memo if isinstance(k, tuple)
                and k[0] in ("f", "l", "p")]
