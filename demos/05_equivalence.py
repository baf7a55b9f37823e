"""
Fibred and indexed forms are interchangeable
============================================

to_indexed sorts each carrier by the boundary shell of its cells; to_fibred
lays the fibres back out as flat carriers. Round trips land on isomorphic
data, and the fibre sizes always partition the carrier sizes.
"""

from nusets.equivalence import (boundary_frame, random_indexed,
                                round_trip_report, to_fibred, to_indexed)
from nusets.shapes import standard_shape
from nusets.values import frame_key

# the square's unique 2-cell, as the shell it closes off
square = standard_shape(2, 2)
shell = boundary_frame(square, 2, 0)
print("boundary of the 2-cell:", frame_key(shell))

# over to the indexed form, where the shell is the key of its fibre;
# fibre sizes partition the carrier sizes
S = to_indexed(square)
print("cells filling that shell:", S.fibre(shell).size)
for n, fam in sorted(S.families.items()):
    sizes = [F.size for F in fam.values()]
    print(f"dimension {n}: carrier {square.carriers[n].size} "
          f"= {len(sizes)} fibres summing to {sum(sizes)}")

# and back again
P = to_fibred(S)
print("carriers after the round trip:", [c.size for c in P.carriers])
print("fibred round trip:", round_trip_report(square))
print("indexed round trip:", round_trip_report(S))

# the same holds for randomly grown indexed sets
for seed in (7, 8, 9):
    R = random_indexed(2, 2, seed)
    print(f"seed {seed}:", round_trip_report(R))
