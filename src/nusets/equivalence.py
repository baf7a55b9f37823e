"""Fibred <-> indexed conversion and round-trip verification.

A fibred structure stores cells and face maps; an indexed one stores, for
every full frame, the finite fibre of cells filling it. The two encode the
same data: to_indexed groups each carrier by the boundary frame of its
cells, to_fibred lays the fibres back out as one carrier per dimension.
Neither direction loses information, and round_trip_report exhibits the
witnessing bijections.

The boundary frame of a cell is computed recursively: the layer at stratum
q collects, per direction, the painting of the cell's (direction, q)-face,
and a painting carries the faces of its own cell above stratum q plus the
fibre-relative rank of that cell. The correspondence between layer index
and face-word position (q counted from the left) is wired here and pinned
by the compatibility invariant tested alongside.
"""

import random
from collections import defaultdict

from .errors import (
    DimensionOutOfRange, IndexOutOfRange, LawViolation, ValidationFailure,
)
from .indexed import (
    FrameVal, IndexedNuSet, LayerVal, PaintingVal, enumerate_frames,
    check_totality, frame_key, full_frame, restr_frame,
)
from .presheaf import FinSet, TruncatedPresheaf, check_functor_laws
from .report import Report
from .words import face_word


# ------------------------------------------------------------ boundaries


def _rank(P, m, y):
    """Fibre-relative index of cell y: its rank, in carrier order, among
    the dimension-m cells sharing its boundary frame. One pass ranks the
    whole carrier."""
    memo = P._memo
    key = ("r", m)
    if key not in memo:
        seen = defaultdict(int)
        ranks = []
        for z in range(P.carriers[m].size):
            frame = boundary_frame(P, m, z)
            ranks.append(seen[frame])
            seen[frame] += 1
        memo[key] = ranks
    return memo[key][y]


def _painting_of(P, m, p, y):
    memo = P._memo
    key = ("p", m, p, y)
    if key not in memo:
        layers = tuple(_layer_of(P, m, j, y) for j in range(p, m))
        memo[key] = PaintingVal(m, p, layers, _rank(P, m, y))
    return memo[key]


def _layer_of(P, m, j, y):
    memo = P._memo
    key = ("l", m, j, y)
    if key not in memo:
        comps = []
        for omega in range(P.nu):
            w = str(face_word(P.nu, omega, j, m))
            comps.append(_painting_of(P, m - 1, j, P.face(m, w)[y]))
        memo[key] = LayerVal(m, j, tuple(comps))
    return memo[key]


def boundary_frame(P, n, x):
    """The full frame of cell x in carrier n: all n strata of its boundary.

    Stratum q holds, per direction, the painting of the corresponding
    codimension-1 face of x.
    """
    if not (0 <= n <= P.trunc):
        raise DimensionOutOfRange(
            f"dimension {n} on a structure truncated at {P.trunc}")
    if not (0 <= x < P.carriers[n].size):
        raise IndexOutOfRange(
            f"element {x} outside carrier of size {P.carriers[n].size}")
    memo = P._memo
    key = ("b", n, x)
    if key not in memo:
        memo[key] = FrameVal(n, n, tuple(_layer_of(P, n, j, x)
                                         for j in range(n)))
    return memo[key]


# ------------------------------------------------------------ conversion


def to_indexed(P):
    """Group every carrier by boundary frame; empty fibres included.

    The fibre over a frame lists the cells filling it in carrier order, so
    fibre-relative cell indices agree with the ranks used by
    boundary_frame. Carrier labels, when present, move onto the fibres.
    """
    laws = check_functor_laws(P)
    if not laws.ok:
        raise LawViolation(f"functor laws fail: {laws.violations[0]}")
    S = None
    for n in range(P.trunc + 1):
        groups = defaultdict(list)
        for x in range(P.carriers[n].size):
            groups[frame_key(boundary_frame(P, n, x))].append(x)
        if S is None:
            keys = ["()"]
        else:
            keys = [frame_key(d) for d in enumerate_frames(S, n, n)]
        fam = {}
        has_labels = P.carriers[n].labels is not None
        for key in keys:
            members = groups.pop(key, [])
            labels = (tuple(P.carriers[n].labels[x] for x in members)
                      if has_labels else None)
            fam[key] = FinSet(len(members), labels)
        if groups:
            stray = sorted(groups)[0]
            raise LawViolation(
                f"boundary frame not enumerable at dimension {n}: {stray}")
        S = IndexedNuSet(P.nu, 0, {0: fam}) if S is None else S.extended(fam)
    return S


def _layout(S):
    """Traversal order of an indexed structure: per dimension, the frames
    in enumeration order with their fibres laid out contiguously.

    Returns (items, offsets): items[n] is a list of (frame, cell index)
    pairs, offsets[n][frame key] the start of that frame's block.
    """
    items = {}
    offsets = {}
    for n in range(S.trunc + 1):
        row = []
        offs = {}
        for d in enumerate_frames(S, n, n):
            key = frame_key(d)
            offs[key] = len(row)
            for i in range(S.fibre(n, key).size):
                row.append((d, i))
        items[n] = row
        offsets[n] = offs
    return items, offsets


def to_fibred(S):
    """Lay the fibres out as carriers, one block per frame, and read the
    codimension-1 face maps off the frames' layers.

    The input is checked for totality only. The restriction operators
    project tree positions and never consult the fibres, so on a set whose
    families are exactly its enumerated frames every frame and every
    component of its layers comes out of the enumeration, and no coherence
    check of the sweep can fail: coherence holds by construction. The face
    maps restrict within S, as the sweep does, so each component read off
    a layer is checked against S's painting table. The functor laws of the
    output are checked instead of the sweep, as a cheap oracle for the
    layout and face-map code below (LawViolation if they fail).
    """
    rep = check_totality(S)
    if not rep.ok:
        raise ValidationFailure(f"invalid input: {rep.violations[0]}")
    items, offsets = _layout(S)
    carriers = []
    for n in range(S.trunc + 1):
        labels = []
        for d, i in items[n]:
            fs = S.fibre(n, frame_key(d))
            labels.append(fs.labels[i] if fs.labels is not None else None)
        if labels and all(l is not None for l in labels) \
                and len(set(labels)) == len(labels):
            carriers.append(FinSet(len(items[n]), tuple(labels)))
        else:
            carriers.append(FinSet(len(items[n]), None))
    faces = {}
    for n in range(1, S.trunc + 1):
        maps = {}
        for q in range(n):
            for omega in range(S.nu):
                arr = []
                for d, _ in items[n]:
                    pt = d.layers[q].components[omega]
                    base = restr_frame(omega, q, n, q, d.prefix(q), S)
                    fkey = frame_key(full_frame(base, pt))
                    arr.append(offsets[n - 1][fkey] + pt.cell)
                maps[str(face_word(S.nu, omega, q, n))] = tuple(arr)
        faces[n] = maps
    P = TruncatedPresheaf(S.nu, S.trunc, carriers, faces)
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
    _, offsets = _layout(S)
    bijections = {}
    for n in range(P.trunc + 1):
        perm = []
        for x in range(P.carriers[n].size):
            key = frame_key(boundary_frame(P, n, x))
            perm.append(offsets[n][key] + _rank(P, n, x))
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
    P = to_fibred(S)
    S2 = to_indexed(P)
    bijections = {}
    for n in range(S.trunc + 1):
        keys = set(S.families[n]) | set(S2.families[n])
        for key in sorted(keys):
            a = S.families[n].get(key)
            b = S2.families[n].get(key)
            if a is None or b is None or a.size != b.size:
                rep.add("fibre-mismatch", dimension=n, frame=key,
                        source=None if a is None else a.size,
                        target=None if b is None else b.size)
                return rep
            if a.size:
                bijections[f"{n}:{key}"] = list(range(a.size))
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

    def size_at(n, key):
        if n == 0 and dim0 is not None:
            return dim0
        return rng.choice(sizes)

    from .indexed import grow_indexed
    return grow_indexed(nu, trunc, size_at)
