"""Standard shapes by Yoneda, and DOT export.

The standard shape of an object n has the words of Hom(p, n) as p-cells and
acts by precomposition. For nu=1 the geometric reading is shifted by one:
Hom(0, n) holds the colours (dimension -1 of augmented semi-simplicial sets)
and Hom(p, n) the cells of geometric dimension p-1. For nu >= 2 the level p
is the geometric dimension.

DOT text is rendered in pieces of DOT_PIECE_LINES lines, so a caller that
writes each piece as it comes never holds the whole text.
"""

from itertools import islice

from .errors import IndexOutOfRange
from .fileformat import FinSet
from .presheaf import TruncatedPresheaf
from .words import check_text_arity, hom_count, hom_enumerate, letter_symbol

# Lines per piece of DOT text: few enough that a piece is small (about
# 33 kB at nu=2, n=8), many enough that a caller writing each piece makes
# few write calls (one per line costs more time than it saves memory).
DOT_PIECE_LINES = 512


def standard_shape(nu, n):
    """The representable presheaf of object n, truncated at n.

    Carrier p lists Hom(p, n) in enumeration order, labelled by word text
    (so ArityError past arity 10); the face along a codim-1 word w sends g
    to compose(g, w), which replaces the j-th star of g by the letter eps
    that w carries at position j.

    Built by recursion on the word length k, with no Word objects.
    Hom(p, k) in its order (star first) is *Hom(p-1, k-1) followed by
    d Hom(p, k-1) for each direction d, and the words d x of Hom(m-1, k)
    start at off(d) = |Hom(m-2, k-1)| + d |Hom(m-1, k-1)|. So the face
    (j, eps) of level k is read off level k-1: on *x it is off(eps) +
    rank(x) when j = 0 and the face (j-1, eps) of x otherwise, and on d x
    it is off(d) + the face (j, eps) of x. Only levels k-1 and k are kept,
    and every index is drawn from one list of ints, which the face arrays
    share. ``compose`` is the oracle the tests hold this to.
    """
    check_text_arity(nu)
    if nu < 1 and n >= 0:  # as Word rejects the words of Hom(0, n)
        raise IndexOutOfRange(f"arity must be >= 1, got {nu}")
    symbols = [letter_symbol(nu, d) for d in range(nu)]
    ints = list(range(max((hom_count(nu, p, n) for p in range(n + 1)),
                          default=0)))
    labels = [[""]]  # labels[p] lists Hom(p, k), for k = 0 so far
    faces = {}  # faces[m][j, eps]: the face (j, eps) on Hom(m, k)
    for k in range(1, n + 1):
        below, below_faces = labels, faces
        labels = [["*" + x for x in below[p - 1]] if p else []
                  for p in range(k + 1)]
        for p in range(k):
            for sym in symbols:
                labels[p] += [sym + x for x in below[p]]
        faces = {}
        for m in range(1, k + 1):
            width = len(below[m - 1])
            offs = [(len(below[m - 2]) if m >= 2 else 0) + d * width
                    for d in range(nu)]
            tails = below_faces.get(m)  # none at m == k: Hom(k, k-1) is empty
            faces[m] = level = {}
            for j in range(m):
                for eps in range(nu):
                    arr = (ints[offs[eps]:offs[eps] + width] if j == 0
                           else below_faces[m - 1][j - 1, eps][:])
                    if tails:
                        for off in offs:
                            arr += [ints[off + v] for v in tails[j, eps]]
                    level[j, eps] = arr
    # a negative n gets TruncatedPresheaf's error for a missing carrier
    carriers = [FinSet(len(ws), ws) for ws in labels] if n >= 0 else []
    # keyed in the order of Hom(m-1, m): the star moves left, eps inner
    return TruncatedPresheaf(nu, n, carriers, {
        m: {"*" * j + symbols[eps] + "*" * (m - 1 - j):
            tuple(level.pop((j, eps)))  # each list freed once copied
            for j in reversed(range(m)) for eps in range(nu)}
        for m, level in faces.items()})


def geometric_inventory(P):
    """Cell counts by geometric dimension.

    For nu=1 the count at carrier 0 (the colours) is dropped and carrier p
    reports dimension p-1; for nu >= 2 carrier p reports dimension p.
    """
    sizes = [c.size for c in P.carriers]
    return tuple(sizes[1:]) if P.nu == 1 else tuple(sizes)


def _node_dimension(P):
    # geometric 0-cells: carrier 1 for nu=1 (augmented shift), else carrier 0
    if P.nu == 1:
        return 1 if P.trunc >= 1 else 0
    return 0


def to_dot(P):
    """Deterministic DOT rendering: geometric 0-cells as nodes, 1-cells as
    edges through the stored face maps, higher cells as dashed label nodes.

    The text is rendered piecewise, DOT_PIECE_LINES lines at a time, by
    ``dot_pieces(P)``; this is the join of those pieces, for a caller that
    wants it whole. A caller that writes it out should write the pieces."""
    return "".join(dot_pieces(P))


def dot_pieces(P):
    """The text of ``to_dot(P)`` in pieces of DOT_PIECE_LINES whole lines
    (the last piece may be shorter), rendered as they are asked for."""
    lines = _dot_lines(P)
    while piece := list(islice(lines, DOT_PIECE_LINES)):
        yield "\n".join(piece) + "\n"


def _dot_lines(P):
    nd = _node_dimension(P)
    yield "graph nuset {"
    nodes = P.carriers[nd] if nd <= P.trunc else FinSet(0)
    for i in nodes:
        label = nodes.label(i) or "ε"
        yield f'  "{label}";'
    ed = nd + 1
    if ed <= P.trunc:
        edge_carrier = P.carriers[ed]
        face_words = hom_enumerate(P.nu, ed - 1, ed)
        maps = [P.face(ed, str(fw)) for fw in face_words]
        for e in edge_carrier:
            ends = [nodes.label(m[e]) or "ε" for m in maps]
            if len(ends) == 1:
                ends = ends * 2
            yield (f'  "{ends[0]}" -- "{ends[-1]}" '
                   f'[label="{edge_carrier.label(e)}"];')
    for dim in range(ed + 1, P.trunc + 1):
        carrier = P.carriers[dim]
        for c in carrier:
            yield (f'  "cell {carrier.label(c)}" '
                   f'[shape=box, style=dashed, label="{carrier.label(c)} '
                   f'(dim {dim - nd})"];')
    yield "}"
