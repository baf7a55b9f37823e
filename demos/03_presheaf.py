"""
Fibred nu-sets as truncated presheaves
======================================

A presheaf stores one carrier per dimension and one map per codimension-1
word; longer words act by peeling letters. The functor laws then reduce to
a codimension-2 exchange check.
"""

from nusets.fileformat import FinSet
from nusets.presheaf import (
    TruncatedPresheaf, action, check_functor_laws, emit_nuset, parse_nuset,
)
from nusets.shapes import standard_shape
from nusets.words import parse_word

# hand-build the interval: two endpoints, one edge
interval = TruncatedPresheaf(
    2, 1,
    carriers=[FinSet(2, ("lo", "hi")), FinSet(1, ("seg",))],
    faces={1: {"L": (0,), "R": (1,)}})
print("interval:", interval)
print("functor laws:", check_functor_laws(interval))

# the square, with the action of full-depth words: each 0-star word of
# length 2 picks out the matching corner vertex
square = standard_shape(2, 2)
for text in ("LL", "LR", "RL", "RR"):
    img = action(square, parse_word(2, text))
    print(f"corner under {text}:", square.carriers[0].label(img[0]))

# composite actions agree no matter how the word is factored
print("square laws:", check_functor_laws(square))

# redirect one stored face and the exchange check pinpoints it
faces = {n: dict(fs) for n, fs in square.faces.items()}
faces[2]["L*"] = ((faces[2]["L*"][0] + 1) % 4,)
broken = TruncatedPresheaf(2, 2, square.carriers, faces)
report = check_functor_laws(broken)
print("broken square ok:", report.ok)
print(report)

# serialization is bit-exact and round-trips to an equal presheaf
text = emit_nuset(square)
again = parse_nuset(text)
print("round trip equal:", again == square)
print("serialized bytes:", len(text))
