"""Indexed nu-sets, the data: the cells in fibres over frames.

An indexed set keys each fibre by a full frame, a value of ``values``. A
p-frame at n is also a family of (n-1)-cells, one per face (q, w) with
q < p, any two of which agree on the codimension-2 face they share, and
that is how every frame is enumerated: a join over the cells one
dimension down (``nusets.join``), which keeps each frame's cells as its
row. The face maps of the cells are read off those rows, and the paintings
over a partial frame off the full frames that extend it. So building,
reading, writing and converting a set restrict nothing; restriction and
the coherence laws it must satisfy are in ``indexed``.

Families are keyed by their full frames, as values, each built through
the set's intern table. Text is the file and report format only; the
file format is in ``indexedfile``.
"""

from .errors import (
    ArityError, DimensionOutOfRange, RangeError, SideConditionViolated,
    UnknownFrame,
)
from .fileformat import finset
from .join import join
from .report import Report
from .values import FrameVal, PaintingVal, _intern, frame_key


# ------------------------------------------------------------ indexed set

class IndexedNuSet:
    """Truncated indexed nu-set: ``families[n]`` maps each full frame at n
    (a FrameVal) to its fibre, a FinSet; the frame text is only how files
    write the keys. The set takes the family dicts it is given over, and
    they are treated as immutable after construction, so sets may share
    them (``extended`` shares the levels below its new one). ``_memo`` is
    its only memo: the intern table of its values, the frame tables
    (ordered, each frame mapped to its row) and painting tables (ordered
    sets), which serve both enumeration and membership, the face maps,
    and restrictions, all functions of the families (so never stale). It
    is owned by the set and freed with it; ``extended`` hands it on to
    the next level."""

    def __init__(self, nu, trunc, families):
        if nu < 1:
            raise ArityError(f"arity must be >= 1, got {nu}")
        if trunc < 0:
            raise RangeError(f"truncation must be a natural, got {trunc}")
        self.nu = nu
        self.trunc = trunc
        self.families = {n: families.get(n, {}) for n in range(trunc + 1)}
        self._memo = {}

    def extended(self, family):
        """This set plus ``family`` at trunc + 1, taking over this set's memo
        and ``family`` itself, and sharing this set's families.

        Every entry stays true of the extension, since nothing memoized
        about a set reads a level above it (frames at n read the families
        below n; paintings, cells and face maps at n those up to n). This
        set starts a new memo, so it never sees entries about the added
        level, and a second extension of it never sees the first one's."""
        out = IndexedNuSet(self.nu, self.trunc + 1,
                           {**self.families, self.trunc + 1: family})
        out._memo, self._memo = self._memo, {}
        return out

    def fibre(self, d):
        if d.n > self.trunc:
            raise DimensionOutOfRange(
                f"dimension {d.n} beyond truncation {self.trunc}")
        try:
            return self.families[d.n][d]
        except KeyError:
            raise UnknownFrame(
                f"no fibre for frame {frame_key(d)} at dimension {d.n}")

    def __eq__(self, other):
        return (isinstance(other, IndexedNuSet)
                and self.nu == other.nu and self.trunc == other.trunc
                and self.families == other.families)

    def __repr__(self):
        sizes = {n: sum(f.size for f in fam.values())
                 for n, fam in self.families.items()}
        return f"<IndexedNuSet nu={self.nu} cells={sizes}>"


def enumerate_frames(S, n, p):
    """All p-frames at dimension n over S, in canonical order.

    Frames at n read families strictly below n, so n may exceed the
    truncation by one (that is how the next level gets built). The list is
    fresh; the memoized table behind it is ``_frames``.
    """
    if not (0 <= p <= n):
        raise SideConditionViolated(f"need 0 <= p <= n, got p={p}, n={n}")
    if n > S.trunc + 1:
        raise DimensionOutOfRange(
            f"frames at {n} need families up to {n - 1}, "
            f"truncation is {S.trunc}")
    return list(_frames(S, n, p))


def _frames(S, n, p):
    """The p-frames at n as an ordered table, memoized in S: each frame
    maps to its row (see ``nusets.join``), and the empty frame to
    ``()``."""
    key = ("frames", n, p)
    table = S._memo.get(key)
    if table is None:
        if p:
            below = _cells(S, n - 1)
            table = join(S, n, p, below, _faces(S, n - 1) if p > 1 else ())
        else:
            table = {_intern(S, FrameVal(n, 0, ())): ()}
        S._memo[key] = table
    return table


def _cells(S, m):
    """The cells at m in layout order: each full frame at m with a cell, in
    enumeration order, mapped to the index of its first cell, so that cell
    ``start + c`` is cell c of that frame's fibre. Memoized in S."""
    key = ("cells", m)
    starts = S._memo.get(key)
    if starts is None:
        starts, total = {}, 0
        for d in _frames(S, m, m):
            size = S.fibre(d).size
            if size:
                starts[d] = total
                total += size
        S._memo[key] = starts
    return starts


def _faces(S, m):
    """The face maps of the cells at m >= 1: ``faces[q][w]`` is the tuple,
    in layout order, of the index at m-1 of each cell's (q, w)-face, read
    off the row of the cell's frame. Memoized in S."""
    key = ("faces", m)
    faces = S._memo.get(key)
    if faces is None:
        rows = _frames(S, m, m)
        spread = [row for d in _cells(S, m)  # one row per cell
                  for row in [rows[d]] * S.families[m][d].size]
        faces = S._memo[key] = [
            [tuple(row[q * S.nu + w] for row in spread) for w in range(S.nu)]
            for q in range(m)]
    return faces


def enumerate_paintings(S, n, p, d):
    """All paintings completing frame d up to a top n-cell, as a fresh
    list; the table behind it is ``_paintings``."""
    if not (0 <= p <= n):
        raise SideConditionViolated(f"need 0 <= p <= n, got p={p}, n={n}")
    if n > S.trunc:
        raise DimensionOutOfRange(
            f"paintings at {n} need cells at {n}, truncation is {S.trunc}")
    if d.n != n or d.p != p:
        raise SideConditionViolated(
            f"frame at ({d.n},{d.p}) passed to paintings at ({n},{p})")
    return list(_paintings(S, n, p, d))


def _paintings(S, n, p, d):
    """The paintings over d as an ordered set (a dict). At p == n they are
    the cells of one fibre, which is cheaper to list again than to keep.
    Below n they are read off the cells at n: the full frames extending d,
    in enumeration order, each with the cells of its fibre. The full
    frames are grouped by their p-prefix once per (n, p), and each table
    is memoized in S under d itself, which fixes n and p. Most tables are
    empty; those all share the empty tuple."""
    if p == n:
        return dict.fromkeys(_intern(S, PaintingVal(n, n, (), c))
                             for c in range(S.fibre(d).size))
    table = S._memo.get(d)
    if table is None:
        groups = S._memo.get(("prefixes", n, p))
        if groups is None:
            groups = S._memo["prefixes", n, p] = {}
            for f in _cells(S, n):
                groups.setdefault(f.prefix(p), []).append(f)
        table = S._memo[d] = dict.fromkeys(
            _intern(S, PaintingVal(n, p, f.layers[p:], c))
            for f in groups.pop(d, ())
            for c in range(S.families[n][f].size)) or ()
    return table

def family_gaps(S, n, keys):
    """The full frames at n that ``keys`` lacks, in enumeration order, and
    the sorted text of the keys that are none (``str`` of a non-frame).
    UnknownFrame when the frames at n cannot be enumerated."""
    frames = _frames(S, n, n)
    missing = [d for d in frames if d not in keys]
    stray = sorted(frame_key(k) if isinstance(k, FrameVal) else str(k)
                   for k in keys if k not in frames)
    return missing, stray


def check_totality(S):
    """Every family is keyed by exactly the full frames its dimension
    enumerates: no fibre missing, no key that is not a frame of S.

    Stops at the first dimension whose frames cannot be enumerated, since
    the dimensions above it read that one."""
    rep = Report("totality")
    for n in range(S.trunc + 1):
        try:
            missing, stray = family_gaps(S, n, S.families[n])
        except UnknownFrame as exc:
            rep.add("enumeration-failed", dimension=n, detail=str(exc))
            break
        for d in missing:
            rep.add("missing-fibre", dimension=n, frame=frame_key(d))
        for key in stray:
            rep.add("orphan-frame-key", dimension=n, frame=key)
    return rep

def grow_indexed(nu, trunc, size_at):
    """Build an indexed set level by level, totality by construction.

    ``size_at(n, d)`` gives the fibre size over each enumerated full frame
    d at n; enumeration at each new level only reads the levels already
    built.
    """
    S = IndexedNuSet(nu, 0, {})  # level 0 keyed by S's own empty frame
    for n in range(trunc + 1):
        family = {d: finset(size_at(n, d)) for d in _frames(S, n, n)}
        if n:
            S = S.extended(family)
        else:
            S.families[0] = family
    return S
