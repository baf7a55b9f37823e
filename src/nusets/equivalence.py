"""Fibred <-> indexed conversion and round-trip verification.

A fibred structure stores cells and face maps; an indexed one stores, for
every full frame, the finite fibre of cells filling it. The two encode the
same data: to_indexed groups each carrier by the boundary frame of its
cells, to_fibred lays the fibres back out as one carrier per dimension.
Neither direction loses information, and round_trip_report exhibits the
witnessing bijections.

The boundary frames of a level's cells are built by the builders of the
join (``nusets.join``), each cell's row read off the face maps: the layer
at stratum q holds, per direction, the painting of the (direction,
q)-face from q on. The correspondence between layer index and face-word
position (q counted from the left) is wired here and pinned by the
compatibility invariant tested alongside.
"""

import random
from collections import defaultdict
from itertools import count

from .errors import (
    DimensionOutOfRange, IndexOutOfRange, LawViolation, ValidationFailure,
)
from .fileformat import FinSet, finset
from .frames import (
    IndexedNuSet, _cells, _faces, check_totality, enumerate_frames,
    family_gaps, grow_indexed,
)
from .join import frames_of, suffixes
from .presheaf import TruncatedPresheaf, check_functor_laws
from .report import Report
from .values import _VALUES, frame_key
from .words import face_word


# ------------------------------------------------------------ boundaries


def _level(P, n):
    """The boundary frames and fibre ranks (index among the cells with the
    same frame) of the cells at n in carrier order, one memo entry in P per
    level. A level with no cells reads no face map; IndexOutOfRange for a
    face map of the wrong length or an image off the carrier below."""
    level = P._memo.get(("level", n))
    if level is None:
        size, paintings = P.carriers[n].size, []
        rows = [()] * size
        if n and size:
            maps = [P.face(n, str(face_word(P.nu, w, q, n)))
                    for q in range(n) for w in range(P.nu)]
            if any(len(m) != size for m in maps):
                raise IndexOutOfRange(
                    f"face map at dimension {n} without {size} images")
            rows, below = list(zip(*maps)), list(zip(*_level(P, n - 1)))
            low, high = min(map(min, maps)), max(map(max, maps))
            if low < 0 or high >= len(below):
                raise IndexOutOfRange(
                    f"element {low if low < 0 else high} outside carrier "
                    f"of size {len(below)}")
            paintings = suffixes(P, below, n)
        built, seen = frames_of(P, n, n, rows, paintings), defaultdict(count)
        level = P._memo["level", n] = built, [next(seen[d]) for d in built]
    return level


def boundary_frame(P, n, x):
    """The full frame of cell x in carrier n: all n strata of its boundary.

    Stratum q holds, per direction, the painting of the corresponding
    codimension-1 face y of x: the strata of y's own boundary frame from
    q on, and y's rank in its fibre.
    """
    if not (0 <= n <= P.trunc):
        raise DimensionOutOfRange(
            f"dimension {n} on a structure truncated at {P.trunc}")
    if not (0 <= x < P.carriers[n].size):
        raise IndexOutOfRange(
            f"element {x} outside carrier of size {P.carriers[n].size}")
    return _level(P, n)[0][x]


# ------------------------------------------------------------ conversion


def to_indexed(P):
    """Group every carrier by boundary frame; empty fibres included.

    The fibre over a frame lists the cells filling it in carrier order, so
    fibre-relative cell indices agree with the fibre ranks the boundary
    frames are built with. Carrier labels, when present, move onto the fibres.
    The set interns its values in P's table, the one the boundary frames
    are built through, so its family keys are those frames themselves.
    """
    laws = check_functor_laws(P)
    if not laws.ok:
        raise LawViolation(f"functor laws fail: {laws.violations[0]}")
    S = IndexedNuSet(P.nu, 0, {})  # its family at 0 is set below
    S._memo[_VALUES] = P._memo.setdefault(_VALUES, {})
    for n in range(P.trunc + 1):
        groups = defaultdict(list)
        for x, d in enumerate(_level(P, n)[0]):
            groups[d].append(x)
        stray = family_gaps(S, n, groups)[1]
        if stray:
            raise LawViolation(
                f"boundary frame not enumerable at dimension {n}: "
                f"{stray[0]}")
        labels = P.carriers[n].labels
        fam = {}
        for d in enumerate_frames(S, n, n):
            members = groups.get(d, ())
            fam[d] = finset(len(members), None if labels is None else
                            tuple(labels[x] for x in members))
        if n:
            S = S.extended(fam)
        else:
            S.families[0] = fam
    return S


def to_fibred(S):
    """Lay the fibres out as carriers, one block per frame, and read the
    codimension-1 face maps off the rows of the frames.

    The input is checked for totality only. On a set whose families are
    exactly its enumerated frames, every frame with a cell comes out of
    the join over the cells one dimension down, which already knows the
    cell on each face; so the face maps are read off its rows, with no
    restriction, and no coherence check of the sweep can fail: coherence
    holds by construction. The functor laws of the output are checked
    instead of the sweep, as a cheap oracle for the layout and the rows
    (LawViolation if they fail). The structure interns its values in S's
    table, so a round trip's second set is keyed by S's own objects.
    """
    rep = check_totality(S)
    if not rep.ok:
        raise ValidationFailure(f"invalid input: {rep.violations[0]}")
    carriers = []
    for n in range(S.trunc + 1):
        fibres = [S.families[n][d] for d in _cells(S, n)]
        labels = [x for fs in fibres for x in fs.labels or [None] * fs.size]
        kept = labels and None not in labels \
            and len(set(labels)) == len(labels)
        carriers.append(FinSet(len(labels), tuple(labels) if kept else None))
    faces = {}
    for n in range(1, S.trunc + 1):
        maps = _faces(S, n)
        faces[n] = {str(face_word(S.nu, omega, q, n)): maps[q][omega]
                    for q in range(n) for omega in range(S.nu)}
    P = TruncatedPresheaf(S.nu, S.trunc, carriers, faces)
    P._memo[_VALUES] = S._memo.setdefault(_VALUES, {})
    laws = check_functor_laws(P)
    if not laws.ok:
        raise LawViolation(
            f"converted structure breaks the functor laws: "
            f"{laws.violations[0]}")
    return P


# ------------------------------------------------------------ round trips


def _round_trip_fibred(P):
    rep = Report("round trip fibred -> indexed -> fibred")
    S = to_indexed(P)
    P2 = to_fibred(S)
    bijections = {}
    for n in range(P.trunc + 1):
        starts = _cells(S, n)
        perm = [starts[d] + r for d, r in zip(*_level(P, n))]
        if sorted(perm) != list(range(P2.carriers[n].size)):
            rep.add("not-bijective", dimension=n, map=perm,
                    target_size=P2.carriers[n].size)
            return rep
        bijections[str(n)] = perm
    for n in range(1, P.trunc + 1):
        for q in range(n):
            for omega in range(P.nu):
                w = str(face_word(P.nu, omega, q, n))
                src = P.face(n, w)
                dst = P2.face(n, w)
                perm_n = bijections[str(n)]
                perm_m = bijections[str(n - 1)]
                for x in range(P.carriers[n].size):
                    if perm_m[src[x]] != dst[perm_n[x]]:
                        rep.add("face-mismatch", dimension=n, word=w,
                                element=x, via_source=perm_m[src[x]],
                                via_target=dst[perm_n[x]])
    if rep.ok:
        rep.data["bijections"] = bijections
    return rep


def _round_trip_indexed(S):
    rep = Report("round trip indexed -> fibred -> indexed")
    S2 = to_indexed(to_fibred(S))
    bijections, texts = {}, {}
    for n in range(S.trunc + 1):
        # The families are compared by frame: S2 is keyed by S's own
        # frame objects (see to_fibred), so no lookup compares trees. Only
        # the frames reported are rendered, through one painting-text
        # memo: the first mismatch in text order, else each non-empty
        # fibre, in text order.
        A, B = S.families[n], S2.families[n]
        bad = list(A.keys() ^ B.keys())
        bad += [d for d, a in A.items() if d in B and B[d].size != a.size]
        if bad:
            key, d = min((frame_key(d, texts), d) for d in bad)
            a, b = A.get(d), B.get(d)
            rep.add("fibre-mismatch", dimension=n, frame=key,
                    source=None if a is None else a.size,
                    target=None if b is None else b.size)
            return rep
        for key, size in sorted((frame_key(d, texts), a.size)
                                for d, a in A.items() if a.size):
            bijections[f"{n}:{key}"] = list(range(size))
    rep.data["fibre_bijections"] = bijections
    return rep


def round_trip_report(obj):
    """Verify one full round trip, starting from either representation.

    Fibred input: carriers must biject with the re-fibred carriers,
    commuting with every codimension-1 face map; the bijections ride along
    in the report payload. Indexed input: the re-indexed families must
    match fibre for fibre.
    """
    if isinstance(obj, TruncatedPresheaf):
        return _round_trip_fibred(obj)
    if isinstance(obj, IndexedNuSet):
        return _round_trip_indexed(obj)
    raise TypeError(f"expected a fibred or indexed structure, "
                    f"got {type(obj).__name__}")


# ------------------------------------------------------------ generation


def random_indexed(nu, trunc, seed, sizes=(0, 1, 2), dim0=None):
    """Seeded random valid instance: fibre sizes drawn uniformly from
    ``sizes``, frame by frame in enumeration order. ``dim0`` pins the
    dimension-0 fibre size when set. Validity holds by construction."""
    rng = random.Random(seed)

    def size_at(n, d):
        if n == 0 and dim0 is not None:
            return dim0
        return rng.choice(sizes)

    return grow_indexed(nu, trunc, size_at)
