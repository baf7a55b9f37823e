"""Fibred <-> indexed conversions.

The frame-content tests resolve fibre-relative cell indices to absolute
carrier positions by walking a frame with the frames its paintings sit
over, so "the boundary of the square mentions exactly these cells" is
checked against the carriers, not against the recursion that built the
frame in the first place.
"""

import time

import pytest

from nusets.cli import main
from nusets.equivalence import (
    _layout, _rank, boundary_frame, random_indexed, round_trip_report,
    to_fibred, to_indexed,
)
from nusets.errors import (
    DimensionOutOfRange, IndexOutOfRange, LawViolation, ValidationFailure,
)
from nusets.indexed import (
    FrameVal, IndexedNuSet, emit_indexed, frame_key, full_frame, restr_frame,
    validate_indexed,
)
from nusets.presheaf import (
    FinSet, TruncatedPresheaf, carrier_sizes, check_functor_laws,
)
from nusets.report import Report
from nusets.shapes import standard_shape
from nusets.streams import extend_singleton, take
from nusets.words import face_word


def _collect(S, offsets, base, c, acc):
    """Record the absolute carrier position of painting c's cell and of
    every cell mentioned below it; base is the frame c sits over."""
    m = c.n
    full = full_frame(base, c)
    acc.setdefault(m, set()).add(offsets[m][frame_key(full)] + c.cell)
    D = base
    for j, layer in enumerate(c.layers):
        for tau, sub in enumerate(layer.components):
            sub_base = restr_frame(tau, c.p + j, m, c.p + j, D)
            _collect(S, offsets, sub_base, sub, acc)
        D = D.extend(layer)


def cells_in_frame(S, d):
    """Absolute carrier positions mentioned anywhere in a full frame."""
    _, offsets = _layout(S)
    acc = {}
    for q in range(d.p):
        for omega, c in enumerate(d.layers[q].components):
            base = restr_frame(omega, q, d.n, q, d.prefix(q))
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
            for m in range(1, n + 1):
                for x in range(P.carriers[m].size):
                    d = boundary_frame(P, m, x)
                    for q in range(m):
                        for omega in range(nu):
                            w = str(face_word(nu, omega, q, m))
                            y = P.face(m, w)[x]
                            dy = boundary_frame(P, m - 1, y)
                            slot = d.layers[q].components[omega]
                            base = restr_frame(omega, q, m, q, d.prefix(q))
                            assert full_frame(base, slot) == dy
                            for p in range(q + 1):
                                got = restr_frame(omega, q, m, p, d.prefix(p))
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
    fams = {0: {"()": FinSet(1)}}
    S0 = IndexedNuSet(2, 0, fams)
    fams = dict(fams)
    from nusets.indexed import enumerate_frames
    fams[1] = {frame_key(d): FinSet(1)
               for d in enumerate_frames(S0, 1, 1)}
    S = IndexedNuSet(2, 1, fams)
    P = to_fibred(S)
    assert carrier_sizes(P) == (1, 1)


def test_to_fibred_rejects_invalid():
    fams = {0: {"()": FinSet(1)}, 1: {"(bogus)": FinSet(1)}}
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
    monkeypatch.setattr("nusets.indexed.coherence_sweep", sweep)
    monkeypatch.setattr("nusets.cli.coherence_sweep", sweep)
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
                assert _rank(P, m, y) == _rank_reference(P, m, y)


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
