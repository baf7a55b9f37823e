"""Fibred <-> indexed conversions.

The frame-content tests resolve fibre-relative cell indices to absolute
carrier positions by walking a frame with the frames its paintings sit
over, so "the boundary of the square mentions exactly these cells" is
checked against the carriers, not against the recursion that built the
frame in the first place.
"""

import json
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from nusets.cli import main
from nusets import equivalence
from nusets.equivalence import (
    _level, boundary_frame, random_indexed, round_trip_report,
    to_fibred, to_indexed,
)
from nusets.errors import (
    DimensionOutOfRange, IndexOutOfRange, LawViolation, ValidationFailure,
)
from nusets.fileformat import FinSet
from nusets.frames import IndexedNuSet, _cells, check_totality
from nusets.indexed import restr_frame, validate_indexed
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.presheaf import TruncatedPresheaf, check_functor_laws
from nusets.report import Report
from nusets.shapes import standard_shape
from nusets.streams import extend_singleton, take
from nusets.values import (
    _VALUES, FrameVal, LayerVal, PaintingVal, _intern, frame_key, parse_value,
)
from nusets.words import face_word

from test_frames_oracle import full_frame
from test_presheaf import carrier_sizes


def _collect(S, offsets, base, c, acc):
    """Record the absolute carrier position of painting c's cell and of
    every cell mentioned below it; base is the frame c sits over."""
    m = c.n
    full = full_frame(base, c)
    acc.setdefault(m, set()).add(offsets[m][full] + c.cell)
    D = base
    for j, layer in enumerate(c.layers):
        for tau, sub in enumerate(layer.components):
            sub_base = restr_frame(tau, c.p + j, D, S)
            _collect(S, offsets, sub_base, sub, acc)
        D = D.extend(layer)


def cells_in_frame(S, d):
    """Absolute carrier positions mentioned anywhere in a full frame."""
    offsets = [_cells(S, m) for m in range(S.trunc + 1)]
    acc = {}
    for q in range(d.p):
        for omega, c in enumerate(d.layers[q].components):
            base = restr_frame(omega, q, d.prefix(q), S)
            _collect(S, offsets, base, c, acc)
    return acc


# ------------------------------------------------------------ boundaries


def test_boundary_frame_dimension_zero_is_unit():
    P = standard_shape(2, 1)
    assert boundary_frame(P, 0, 0) == FrameVal(0, 0, ())


def test_boundary_frame_bounds():
    P = standard_shape(2, 1)
    with pytest.raises(DimensionOutOfRange):
        boundary_frame(P, 2, 0)
    with pytest.raises(IndexOutOfRange):
        boundary_frame(P, 1, 99)


@pytest.mark.parametrize("image", [-1, 2])
def test_face_images_outside_the_carrier_below_are_refused(image):
    """A hand-built interval whose left end is a point that is not there:
    its boundary frame is refused with IndexOutOfRange, not read at a
    wrapped index or failed with a bare IndexError."""
    P = TruncatedPresheaf(2, 1, [FinSet(2), FinSet(1)],
                          {1: {"L": (image,), "R": (1,)}})
    with pytest.raises(IndexOutOfRange):
        boundary_frame(P, 1, 0)
    with pytest.raises(IndexOutOfRange):
        to_indexed(P)


@pytest.mark.parametrize("images", [(0, 1), ()])
def test_face_maps_of_the_wrong_length_are_refused(images):
    """Face maps that all list more, or all fewer, images than the carrier
    has cells are refused, not read as a carrier of another size."""
    P = TruncatedPresheaf(2, 1, [FinSet(2), FinSet(1)],
                          {1: {"L": images, "R": images[::-1]}})
    with pytest.raises(IndexOutOfRange):
        boundary_frame(P, 1, 0)
    with pytest.raises(IndexOutOfRange):
        to_indexed(P)


def test_a_level_with_no_cells_needs_no_face_maps():
    P = TruncatedPresheaf(2, 1, [FinSet(2), FinSet(0)], {})
    S = to_indexed(P)
    assert [fs.size for fs in S.families[1].values()] == [0] * 4


@pytest.mark.parametrize("nu, n, seed", [(2, 3, None), (3, 2, None),
                                         (2, 3, 5)])
def test_to_indexed_keeps_one_memo_entry_per_level(nu, n, seed):
    """P's memo holds its intern table and one entry per level, not one
    per cell."""
    P = (standard_shape(nu, n) if seed is None
         else to_fibred(random_indexed(nu, n, seed)))
    to_indexed(P)
    assert len(P._memo) <= P.trunc + 2


def test_square_boundary_mentions_four_vertices_four_edges():
    P = standard_shape(2, 2)
    S = to_indexed(P)
    top = P.carriers[2].labels.index("**")
    d = boundary_frame(P, 2, top)
    cells = cells_in_frame(S, d)
    assert cells[0] == {0, 1, 2, 3}
    assert cells[1] == {0, 1, 2, 3}
    # and the carriers hold nothing else
    assert P.carriers[0].size == 4 and P.carriers[1].size == 4


def test_triangle_boundary_mentions_three_points_three_lines():
    P = standard_shape(1, 3)
    S = to_indexed(P)
    top = P.carriers[3].labels.index("***")
    cells = cells_in_frame(S, boundary_frame(P, 3, top))
    assert len(cells[0]) == 1
    assert len(cells[1]) == 3
    assert len(cells[2]) == 3


def test_boundary_restriction_compatibility():
    # convention-pinning law: the slot of the frame at (stratum q,
    # direction w) is the boundary of the (w, q)-face, and restricting a
    # prefix of the frame gives the prefix of the face's boundary
    for nu in (1, 2):
        for n in range(1, 4):
            P = standard_shape(nu, n)
            S = to_indexed(P)
            for m in range(1, n + 1):
                for x in range(P.carriers[m].size):
                    d = boundary_frame(P, m, x)
                    for q in range(m):
                        for omega in range(nu):
                            w = str(face_word(nu, omega, q, m))
                            y = P.face(m, w)[x]
                            dy = boundary_frame(P, m - 1, y)
                            slot = d.layers[q].components[omega]
                            base = restr_frame(omega, q, d.prefix(q), S)
                            assert full_frame(base, slot) == dy
                            for p in range(q + 1):
                                got = restr_frame(omega, q, d.prefix(p), S)
                                assert got == dy.prefix(p)


# ------------------------------------------------------------ to_indexed


def test_to_indexed_square_fibres():
    P = standard_shape(2, 2)
    S = to_indexed(P)
    sizes = sorted(f.size for f in S.families[2].values())
    assert sizes.count(1) == 1
    assert set(sizes) <= {0, 1}
    assert validate_indexed(S).ok


def test_fibre_partition():
    for nu in (1, 2):
        for n in range(4):
            P = standard_shape(nu, n)
            S = to_indexed(P)
            for m in range(n + 1):
                total = sum(f.size for f in S.families[m].values())
                assert total == P.carriers[m].size


def test_to_indexed_keeps_labels():
    P = standard_shape(2, 1)
    S = to_indexed(P)
    got = [lab for f in S.families[1].values()
           for lab in (f.labels or ())]
    assert sorted(got) == sorted(P.carriers[1].labels)


def _subtree(v):
    yield v
    for child in getattr(v, "layers", getattr(v, "components", ())):
        yield from _subtree(child)


@pytest.mark.parametrize("nu, n", [(2, 4), (3, 2), (1, 5)])
def test_boundary_frames_are_the_family_keys(nu, n):
    """to_indexed builds its set through the table the boundary frames are
    interned in: each cell's boundary frame is the very key object of its
    fibre, every value below it is the set's object, and a second
    conversion of the same structure keys its families the same way."""
    P = standard_shape(nu, n)
    for S in (to_indexed(P), to_indexed(P)):
        values = S._memo[_VALUES]
        for m in range(n + 1):
            keys = {id(d) for d in S.families[m]}
            for x in range(P.carriers[m].size):
                d = boundary_frame(P, m, x)
                assert id(d) in keys
                assert all(values[v] is v for v in _subtree(d))


def test_to_indexed_rejects_lawless_input():
    P = standard_shape(2, 2)
    faces = {n: dict(fs) for n, fs in P.faces.items()}
    arr = list(faces[2]["L*"])
    arr[0] = (arr[0] + 1) % P.carriers[1].size
    faces[2]["L*"] = tuple(arr)
    bad = TruncatedPresheaf(2, 2, P.carriers, faces)
    assert not check_functor_laws(bad).ok
    with pytest.raises(LawViolation):
        to_indexed(bad)


def test_parallel_edges_share_a_fibre():
    carriers = [FinSet(2, ("a", "b")), FinSet(2, ("e0", "e1"))]
    faces = {1: {"L": (0, 0), "R": (1, 1)}}
    P = TruncatedPresheaf(2, 1, carriers, faces)
    S = to_indexed(P)
    sizes = sorted(f.size for f in S.families[1].values())
    assert sizes == [0, 0, 0, 2]
    two = [f for f in S.families[1].values() if f.size == 2][0]
    assert two.labels == ("e0", "e1")


# ------------------------------------------------------------ to_fibred


def test_to_fibred_square_counts():
    P = standard_shape(2, 2)
    P2 = to_fibred(to_indexed(P))
    assert carrier_sizes(P2) == (4, 4, 1)
    assert check_functor_laws(P2).ok
    assert sorted(P2.carriers[1].labels) == sorted(P.carriers[1].labels)


def test_to_fibred_all_singletons():
    fams = {0: {FrameVal(0, 0, ()): FinSet(1)}}
    S0 = IndexedNuSet(2, 0, fams)
    fams = dict(fams)
    from nusets.frames import enumerate_frames
    fams[1] = {d: FinSet(1) for d in enumerate_frames(S0, 1, 1)}
    S = IndexedNuSet(2, 1, fams)
    P = to_fibred(S)
    assert carrier_sizes(P) == (1, 1)


def test_to_fibred_rejects_invalid():
    fams = {0: {FrameVal(0, 0, ()): FinSet(1)},
            1: {parse_value("([{0} {9}])", 2, 1, 1): FinSet(1)}}
    with pytest.raises(ValidationFailure):
        to_fibred(IndexedNuSet(2, 1, fams))


def test_to_fibred_raises_when_its_output_breaks_the_functor_laws(
        monkeypatch, tmp_path, capsys):
    S = to_indexed(standard_shape(2, 2))
    path = tmp_path / "square.indexed.json"
    path.write_text(emit_indexed(S))
    broken = Report("functor laws").add("functor-law", n=2)
    monkeypatch.setattr("nusets.equivalence.check_functor_laws",
                        lambda P: broken)
    with pytest.raises(LawViolation):
        to_fibred(S)
    assert main(["convert", str(path)]) == 1
    assert capsys.readouterr().err.startswith("violation:")


class _SweepCalled(Exception):
    pass


def test_conversions_check_totality_not_the_sweep(monkeypatch, tmp_path):
    def sweep(S):
        raise _SweepCalled
    # the CLI imports it from nusets.indexed when a command runs
    monkeypatch.setattr("nusets.indexed.coherence_sweep", sweep)
    cube = standard_shape(2, 3)
    S = to_indexed(cube)
    assert carrier_sizes(to_fibred(S)) == carrier_sizes(cube)
    assert round_trip_report(cube).ok
    assert round_trip_report(S).ok
    assert take(extend_singleton(S), 4).trunc == 4
    with pytest.raises(_SweepCalled):
        validate_indexed(S)
    path = tmp_path / "cube.indexed.json"
    path.write_text(emit_indexed(S))
    with pytest.raises(_SweepCalled):
        main(["coh-check", str(path)])


def test_to_fibred_functor_laws_exhaustive():
    for nu in (1, 2):
        for n in range(4):
            S = to_indexed(standard_shape(nu, n))
            assert check_functor_laws(to_fibred(S)).ok
    for seed in range(4):
        S = random_indexed(2, 2, seed, dim0=2)
        assert check_functor_laws(to_fibred(S)).ok


# ------------------------------------------------------------ round trips


def test_round_trip_standard_shapes():
    for nu in (1, 2):
        for n in range(4):
            P = standard_shape(nu, n)
            rep = round_trip_report(P)
            assert rep.ok, rep.to_json()
            assert set(rep.data["bijections"]) == {str(m)
                                                   for m in range(n + 1)}
            rep = round_trip_report(to_indexed(P))
            assert rep.ok, rep.to_json()


def test_round_trip_exact_reindexing():
    for seed in (3, 11):
        S = random_indexed(2, 2, seed, dim0=2)
        assert to_indexed(to_fibred(S)) == S


def test_round_trip_randomized_twenty_seeds():
    for seed in range(10):
        for nu in (1, 2):
            S = random_indexed(nu, 2, seed, dim0=1 + seed % 2)
            rep = round_trip_report(S)
            assert rep.ok, rep.to_json()
            rep = round_trip_report(to_fibred(S))
            assert rep.ok, rep.to_json()


def test_round_trip_empty_above_zero():
    S = random_indexed(2, 2, 0, sizes=(0,), dim0=1)
    P = to_fibred(S)
    assert carrier_sizes(P) == (1, 0, 0)
    assert round_trip_report(P).ok
    assert round_trip_report(S).ok


def test_round_trip_rejects_other_types():
    with pytest.raises(TypeError):
        round_trip_report("nonsense")


def test_round_trip_reports_fibre_mismatches_in_text_order(monkeypatch):
    """Families are keyed by frame value and keep insertion order; the
    report still walks the keys in the order of their text."""
    S = random_indexed(2, 1, 0, sizes=(1,), dim0=2)
    # inserted against text order; a set of these frames iterates them
    # in the order 8, 7, 9, so neither order passes for text order
    strays = {parse_value(f"([{{0}} {{{cell}}}])", 2, 1, 1): FinSet(size)
              for cell, size in ((9, 1), (8, 2), (7, 3))}
    real = to_indexed

    def with_strays(P):
        S2 = real(P)
        return IndexedNuSet(S2.nu, S2.trunc, {
            0: S2.families[0], 1: {**S2.families[1], **strays}})

    monkeypatch.setattr("nusets.equivalence.to_indexed", with_strays)
    rep = round_trip_report(S)
    assert rep.violations == [{"kind": "fibre-mismatch", "dimension": 1,
                               "frame": "([{0} {7}])", "source": None,
                               "target": 3}]


def _round_trip_indexed_oracle(S):
    """equivalence._round_trip_indexed as it was before it compared the
    families by frame: it renders every key of both sets and walks their
    union in text order."""
    rep = Report("round trip indexed -> fibred -> indexed")
    P = equivalence.to_fibred(S)
    S2 = equivalence.to_indexed(P)
    bijections = {}
    for n in range(S.trunc + 1):
        texts = {frame_key(d): d
                 for d in S.families[n].keys() | S2.families[n].keys()}
        for key in sorted(texts):
            a = S.families[n].get(texts[key])
            b = S2.families[n].get(texts[key])
            if a is None or b is None or a.size != b.size:
                rep.add("fibre-mismatch", dimension=n, frame=key,
                        source=None if a is None else a.size,
                        target=None if b is None else b.size)
                return rep
            if a.size:
                bijections[f"{n}:{key}"] = list(range(a.size))
    rep.data["fibre_bijections"] = bijections
    return rep


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 2), (3, 1), (2, 1)]),
       st.integers(0, 10 ** 6),
       st.lists(st.tuples(st.sampled_from(["drop", "resize", "add"]),
                          st.integers(0, 10 ** 6)), max_size=3))
def test_round_trip_report_agrees_with_the_one_it_replaced(shape, seed,
                                                           edits):
    """On random sets, as they come back and with fibres of the second
    set dropped, resized or added, the round trip reports what the old
    body, which rendered every key, reported."""
    nu, trunc = shape
    S = random_indexed(nu, trunc, seed)
    real = to_indexed
    done = []  # the edits made: a level may have no frame to edit

    def edited(P):
        S2 = real(P)
        fams = {n: dict(S2.families[n]) for n in S2.families}
        for kind, k in edits:
            n = k % (trunc + 1) if kind != "add" else 1 + k % trunc
            frames = sorted(fams[n], key=frame_key)
            if not frames:
                continue
            d = frames[k // (trunc + 1) % len(frames)]
            done.append(kind)
            if kind == "drop":
                del fams[n][d]
            elif kind == "resize":
                fams[n][d] = FinSet((fams[n][d].size + 1 + k % 2) % 4)
            else:
                fams[n][_far(d)] = FinSet(k % 3)
        return IndexedNuSet(S2.nu, S2.trunc, fams)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nusets.equivalence.to_indexed", edited)
        got = round_trip_report(S)
        want = _round_trip_indexed_oracle(S)
    assert got.to_json() == want.to_json()
    assert got.ok == (not done)


def _far(d):
    """d with the top cell of the first component of its last layer moved
    past every fibre: a full frame of d's shape that is no frame of the
    set."""
    top = d.layers[-1]
    c = top.components[0]
    far = PaintingVal(c.n, c.p, c.layers, c.cell + 10 ** 6)
    return d.prefix(d.p - 1).extend(
        LayerVal(top.n, top.p, (far,) + top.components[1:]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 2), (3, 1)]), st.integers(1, 2),
       st.integers(0, 10 ** 6), st.data())
def test_fibred_side_is_an_oracle_for_the_indexed_side(shape, dim0, seed,
                                                       data):
    """On small random indexed sets the round trip through the fibred form
    is the identity, a dropped fibre is reported as exactly that fibre
    (and the level above it fails to enumerate) and refused by to_fibred,
    and an orphan key read from a file is reported as exactly that key."""
    nu, trunc = shape
    S = random_indexed(nu, trunc, seed, dim0=dim0)
    assert to_indexed(to_fibred(S)) == S

    n, victim = data.draw(st.sampled_from(
        [(n, d) for n in range(trunc + 1) for d in S.families[n]]))
    fams = {m: dict(S.families[m]) for m in S.families}
    del fams[n][victim]
    dropped = IndexedNuSet(nu, trunc, fams)
    text = frame_key(victim)
    expected = [{"kind": "missing-fibre", "dimension": n, "frame": text}]
    if n < trunc:
        expected.append({"kind": "enumeration-failed", "dimension": n + 1,
                         "detail": f"no fibre for frame {text} at "
                                   f"dimension {n}"})
    assert check_totality(dropped).violations == expected
    with pytest.raises(ValidationFailure):
        to_fibred(dropped)

    n, d = data.draw(st.sampled_from(
        [(n, d) for n in range(1, trunc + 1) for d in S.families[n]]))
    orphan = frame_key(_far(d))
    doc = json.loads(emit_indexed(S))
    doc["families"][str(n)][orphan] = 1
    assert check_totality(parse_indexed(json.dumps(doc))).violations == [
        {"kind": "orphan-frame-key", "dimension": n, "frame": orphan}]


def _relabelled(P, perms):
    """P with carrier n renumbered by perms[n]: cell x becomes perms[n][x]
    and every face map follows."""
    faces = {}
    for n, maps in P.faces.items():
        faces[n] = {}
        for w, images in maps.items():
            out = [None] * len(images)
            for x, y in enumerate(images):
                out[perms[n][x]] = perms[n - 1][y]
            faces[n][w] = out
    return faces


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 2), (3, 1)]), st.integers(1, 2),
       st.integers(0, 10 ** 6), st.booleans(), st.data())
def test_indexed_side_is_an_oracle_for_the_fibred_side(shape, dim0, seed,
                                                       corrupt, data):
    """On small fibred structures, carriers permuted and some with one
    face-map entry moved to another cell: the functor laws hold exactly
    when to_indexed succeeds, and then the indexed set validates and the
    round trip from the fibred side is ok."""
    nu, trunc = shape
    P0 = to_fibred(random_indexed(nu, trunc, seed, dim0=dim0))
    perms = [data.draw(st.permutations(range(c.size)))
             for c in P0.carriers]
    faces = _relabelled(P0, perms)
    spots = [(n, w, x) for n in faces for w in faces[n]
             for x in range(len(faces[n][w])) if P0.carriers[n - 1].size > 1]
    if corrupt and spots:
        n, w, x = data.draw(st.sampled_from(spots))
        size = P0.carriers[n - 1].size
        shift = data.draw(st.integers(1, size - 1))
        faces[n][w][x] = (faces[n][w][x] + shift) % size
    P = TruncatedPresheaf(nu, trunc, P0.carriers, {
        n: {w: tuple(images) for w, images in maps.items()}
        for n, maps in faces.items()})
    lawful = check_functor_laws(P).ok
    try:
        S = to_indexed(P)
    except LawViolation:
        assert not lawful
        return
    assert lawful
    assert validate_indexed(S).ok
    assert round_trip_report(P).ok


def _rank_reference(P, m, y):
    """Rank of y as first defined: the earlier cells of carrier m whose
    boundary frame renders to the same text."""
    mine = frame_key(boundary_frame(P, m, y))
    return sum(1 for z in range(y)
               if frame_key(boundary_frame(P, m, z)) == mine)


def test_rank_matches_its_reference():
    shapes = [standard_shape(nu, n) for nu in (1, 2) for n in range(4)]
    shapes += [to_fibred(random_indexed(nu, 4 - nu, seed, sizes=(1, 2),
                                        dim0=3 - nu))
               for nu in (1, 2) for seed in range(3)]
    for P in shapes:
        for m in range(P.trunc + 1):
            for y in range(P.carriers[m].size):
                assert _level(P, m)[1][y] == _rank_reference(P, m, y)


class _Before:
    """P seen through a memo of its own whose intern table is ``values``,
    so the boundary frames as they were built before run beside today's
    without reading their memo entries."""

    def __init__(self, P, values):
        self.nu, self.trunc, self.carriers = P.nu, P.trunc, P.carriers
        self.face = P.face
        self._memo = {_VALUES: values}


# The boundary frames as equivalence built them before a painting was read
# off its cell's own frame: ranks, paintings, layers and frames by four
# memoized functions, copied unchanged but for the names of _rank and
# boundary_frame.


def _rank_before(P, m, y):
    memo = P._memo
    key = ("r", m)
    if key not in memo:
        seen = defaultdict(int)
        ranks = []
        for z in range(P.carriers[m].size):
            frame = _boundary_frame_before(P, m, z)
            ranks.append(seen[frame])
            seen[frame] += 1
        memo[key] = ranks
    return memo[key][y]


def _painting_of(P, m, p, y):
    memo = P._memo
    key = ("p", m, p, y)
    if key not in memo:
        layers = tuple(_layer_of(P, m, j, y) for j in range(p, m))
        memo[key] = _intern(P, PaintingVal(m, p, layers,
                                           _rank_before(P, m, y)))
    return memo[key]


def _layer_of(P, m, j, y):
    memo = P._memo
    key = ("l", m, j, y)
    if key not in memo:
        comps = []
        for omega in range(P.nu):
            w = str(face_word(P.nu, omega, j, m))
            comps.append(_painting_of(P, m - 1, j, P.face(m, w)[y]))
        memo[key] = _intern(P, LayerVal(m, j, tuple(comps)))
    return memo[key]


def _boundary_frame_before(P, n, x):
    memo = P._memo
    key = ("b", n, x)
    if key not in memo:
        memo[key] = _intern(P, FrameVal(n, n, tuple(_layer_of(P, n, j, x)
                                                     for j in range(n))))
    return memo[key]


@pytest.mark.parametrize("nu, n, seed", [
    *((1, n, None) for n in range(7)), *((2, n, None) for n in range(5)),
    *((3, n, None) for n in range(4)),
    *((nu, n, seed) for nu, n in ((1, 4), (2, 2), (3, 2))
      for seed in range(4))])
def test_boundary_frame_agrees_with_the_one_it_replaced(nu, n, seed):
    """On the standard shapes (seed None) and on random sets laid out as
    carriers, every cell's boundary frame equals the one the four memoized
    functions built, and is that very object once both are interned in
    one table. P's memo keeps the intern table and one entry per level
    only."""
    P = (standard_shape(nu, n) if seed is None
         else to_fibred(random_indexed(nu, n, seed, dim0=2)))
    new = {(m, x): boundary_frame(P, m, x) for m in range(n + 1)
           for x in range(P.carriers[m].size)}
    alone = _Before(P, {})
    shared = _Before(P, P._memo.setdefault(_VALUES, {}))
    for (m, x), d in new.items():
        assert _boundary_frame_before(alone, m, x) == d
        assert _boundary_frame_before(shared, m, x) is d
    assert set(P._memo) <= {_VALUES, *(("level", m) for m in range(n + 1))}


def test_round_trip_of_a_large_carrier_is_not_quadratic():
    P = to_fibred(random_indexed(2, 2, 1, sizes=(1, 2), dim0=4))
    assert carrier_sizes(P) == (4, 25, 2401)
    t0 = time.monotonic()
    rep = round_trip_report(P)
    elapsed = time.monotonic() - t0
    assert rep.ok, rep.to_json()
    assert elapsed < 10, f"ran {elapsed:.1f}s, budget 10s"


def test_random_indexed_deterministic():
    a = random_indexed(2, 2, 42)
    b = random_indexed(2, 2, 42)
    assert a == b
    assert validate_indexed(a).ok
