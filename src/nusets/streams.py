"""Lazy extension of a truncated indexed set, one dimension at a time.

A stream is a base prefix plus a rule that produces each next family from
the prefix built so far. Levels are generated at most once per stream and
memoized; since rules are required to be deterministic functions of the
prefix, memoization is observationally invisible, and the two unfolding
laws hold on the nose: this() is the family the next take appends, and
next() advances the prefix by exactly that family.
"""

import threading

from .errors import ValidationFailure
from .fileformat import finset
from .frames import IndexedNuSet, check_totality, enumerate_frames, \
    family_gaps
from .values import frame_key


class NuSetStream:
    """An indexed set unbounded above its base truncation.

    ``head_rule(prefix, n)`` maps a prefix of truncation n-1 to the family
    at n, as ``{frame: fibre size}`` over exactly the frames of
    ``enumerate_frames(prefix, n, n)``; totality is checked when the level
    is first generated. The memo is shared by the streams ``next`` returns,
    so a level is generated at most once however the stream is consumed,
    and a lock keeps concurrent ``take`` calls equivalent to sequential
    ones.
    """

    def __init__(self, base, head_rule):
        self._rule = head_rule
        self._dim = base.trunc + 1
        self._prefixes = {base.trunc: base}
        self._lock = threading.RLock()

    @property
    def dimension(self):
        """The dimension the next produced family lives at."""
        return self._dim

    def _advance(self, to):
        """Extend the memoized prefixes up to truncation ``to``."""
        with self._lock:
            top = max(self._prefixes)
            while top < to:
                cur = self._prefixes[top]
                n = top + 1
                produced = dict(self._rule(cur, n))
                missing, stray = family_gaps(cur, n, produced)
                if missing:
                    raise ValidationFailure(
                        f"head rule at dimension {n} misses frame "
                        f"{frame_key(missing[0])}")
                if stray:
                    raise ValidationFailure(
                        f"head rule at dimension {n} names a frame that "
                        f"does not occur: {stray[0]}")
                self._prefixes[n] = cur.extended(
                    {d: finset(produced[d])
                     for d in enumerate_frames(cur, n, n)})
                top = n
            return self._prefixes[to]

    def this(self):
        """The family at the current dimension, as {frame: FinSet}."""
        return dict(self._advance(self._dim).families[self._dim])

    def next(self):
        """The stream advanced one dimension; shares the memo table."""
        out = NuSetStream.__new__(NuSetStream)
        out._rule = self._rule
        out._dim = self._dim + 1
        out._prefixes = self._prefixes
        out._lock = self._lock
        return out


def extend_singleton(D):
    """The canonical total extension: one cell over every frame from the
    base truncation upward.

    The base is checked for totality only: on a total set the coherence
    sweep cannot fail, since the restriction operators are structural and
    every frame they are applied to comes from the enumeration (see
    ``equivalence.to_fibred``)."""
    rep = check_totality(D)
    if not rep.ok:
        raise ValidationFailure(
            f"base is not a valid indexed set: {rep.violations[0]}")
    return NuSetStream(
        D, lambda prefix, n: dict.fromkeys(enumerate_frames(prefix, n, n), 1))


def take(s, N):
    """The truncation of the stream at dimension N.

    Below the base this is a plain truncation; above it, levels are
    produced (or recalled) in order. Taking more never changes what an
    earlier take returned.
    """
    if N < 0:
        raise ValidationFailure(f"truncation must be a natural, got {N}")
    top = s._advance(max(N, s.dimension - 1))
    if top.trunc == N:
        return top
    return IndexedNuSet(top.nu, N,
                        {n: top.families[n] for n in range(N + 1)})
