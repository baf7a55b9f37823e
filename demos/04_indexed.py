"""
Indexed nu-sets
===============

The indexed form stores one finite fibre per frame. A frame is the fully
glued boundary shell of a would-be cell, a value that files write as an
s-expression; fibres are looked up by the frame itself, restriction acts on
these values directly, and the transport steps a dependent formalization
would discharge by rewriting become runtime checks.
"""

from nusets.errors import CoherenceMismatch
from nusets.frames import enumerate_frames, enumerate_paintings, grow_indexed
from nusets.indexed import (
    check_coh_frame, restr_frame, restr_layer, validate_indexed,
)
from nusets.values import FrameVal, LayerVal, frame_key, parse_value

# grow a two-point set: 2 vertices, one cell in every higher fibre
S = grow_indexed(2, 2, lambda n, d: 2 if n == 0 else 1)
print("fibres per dimension:", {n: len(F) for n, F in S.families.items()})

# a full dimension-2 frame, its fibre, and its text form
d = next(iter(enumerate_frames(S, 2, 2)))
print("square shell:", frame_key(d))
print("fibre size:", S.fibre(d).size)
print("text parses back:", parse_value(frame_key(d), 2, 2, 2) == d)

# frames one dimension above the truncation still make sense: they are
# the shells a dimension-3 cell would have to fill
print("dimension-3 shells:", len(list(enumerate_frames(S, 3, 3))))

# paintings over the empty frame at (2,0): every way to fill strata 0..1
# plus a top cell
empty = FrameVal(2, 0, ())
print("paintings over the empty 2-frame:",
      len(list(enumerate_paintings(S, 2, 0, empty))))

# restriction: the (direction 0, stratum 2) face of a partial 3-frame
d32 = next(iter(enumerate_frames(S, 3, 2)))
print("a 3-frame:", frame_key(d32))
print("its face :", frame_key(restr_frame(0, 2, 3, 2, d32, S)))

# the laws hold on grown sets
print("coherence at (2,0):", check_coh_frame(S, 0, 1, 0, 0, 2, 0))
print("validation:", validate_indexed(S))

# the runtime transport check has teeth. Uneven growth doubles exactly one
# edge fibre, so the edge painting {[{1} {0}] 0} exists but only over the
# base ([{0} {0}]); planting it in the direction-0 slot of a layer whose
# base restricts elsewhere is a type error, and restriction refuses it.
SU = grow_indexed(2, 2, lambda n, d: 2 if n == 0
                  else (2 if n == 1 and frame_key(d) == "([{0} {0}])"
                        else 1))
sqA = parse_value("{[{[{1} {0}] 0} {[{1} {0}] 0}] [{0} {0}] 0}",
                  2, 2, 0, "painting")
sqB = parse_value("{[{[{0} {1}] 0} {[{0} {1}] 0}] [{0} {0}] 0}",
                  2, 2, 0, "painting")
d31 = FrameVal(3, 1, (LayerVal(3, 0, (sqA, sqB)),))
good = parse_value("{[{0} {0}] 0}", 2, 2, 1, "painting")
bad = parse_value("{[{1} {0}] 0}", 2, 2, 1, "painting")
try:
    restr_layer(0, 1, 3, 1, d31, LayerVal(3, 1, (bad, good)), SU)
    print("corruption slipped through")
except CoherenceMismatch as exc:
    print("caught:", exc)
