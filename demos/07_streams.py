"""
Streams of indexed levels
=========================

A finite truncation extends to an infinite object by a head rule: given
the prefix built so far, name a fibre size for every frame one dimension
up. Levels are produced lazily, memoized, and shared across next() copies.
"""

from nusets.errors import ValidationFailure
from nusets.frames import enumerate_frames, grow_indexed
from nusets.indexed import validate_indexed
from nusets.streams import NuSetStream, extend_singleton, take
from nusets.values import frame_key

base = grow_indexed(2, 1, lambda n, d: 2 if n == 0 else 1)

# the canonical extension puts exactly one cell over every frame
s = extend_singleton(base)
head = s.this()
print("dimension-2 frames filled:", len(head))
print("all singleton:", all(F.size == 1 for F in head.values()))

# taking a truncation forces just enough levels
S3 = take(s, 3)
print("fibres per dimension:", {n: len(F) for n, F in S3.families.items()})
print("take(3) validates:", validate_indexed(S3).ok)

# prefixes cohere: take(2) is take(3) cut down
S2 = take(s, 2)
print("prefix coherence:",
      all(S2.families[n] == S3.families[n] for n in range(3)))

# this/next walk the same memoized levels
print("next().this() is the dimension-3 head:",
      s.next().this() == S3.families[3])

# user rules may size fibres however they like, as long as every frame
# of the next dimension gets one; they key the family by the frames
def doubled(prefix, n):
    return dict.fromkeys(enumerate_frames(prefix, n, n), 2)

t = NuSetStream(base, doubled)
T2 = take(t, 2)
print("doubled rule sizes:", {F.size for F in T2.families[2].values()})
print("doubled take(2) validates:", validate_indexed(T2).ok)

# a rule that skips a frame is rejected at the level it first lies about
def forgetful(prefix, n):
    out = doubled(prefix, n)
    if n == 3:
        out.pop(sorted(out, key=frame_key)[0])
    return out

u = NuSetStream(base, forgetful)
print("forgetful take(2) is fine:", take(u, 2).trunc == 2)
try:
    take(u, 3)
    print("missing frame slipped through")
except ValidationFailure as exc:
    print("caught:", exc)
