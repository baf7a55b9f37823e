"""Standard shapes by Yoneda, orientation, and DOT export.

The standard shape of an object n has the words of Hom(p, n) as p-cells and
acts by precomposition. For nu=1 the geometric reading is shifted by one:
Hom(0, n) holds the colours (dimension -1 of augmented semi-simplicial sets)
and Hom(p, n) the cells of geometric dimension p-1. For nu >= 2 the level p
is the geometric dimension.
"""

from .errors import AllLetters
from .presheaf import FinSet, TruncatedPresheaf
from .words import STAR, Word, check_text_arity, compose, hom_enumerate


def standard_shape(nu, n):
    """The representable presheaf of object n, truncated at n.

    Carrier p lists Hom(p, n) in enumeration order, labelled by word text
    (so ArityError past arity 10); the face along a codim-1 word w sends g
    to compose(g, w).
    """
    check_text_arity(nu)
    levels = [hom_enumerate(nu, p, n) for p in range(n + 1)]
    carriers = [FinSet(len(ws), tuple(str(x) for x in ws)) for ws in levels]
    index = [{x: i for i, x in enumerate(ws)} for ws in levels]
    faces = {}
    for m in range(1, n + 1):
        block = {}
        for w in hom_enumerate(nu, m - 1, m):
            block[str(w)] = tuple(
                index[m - 1][compose(g, w)] for g in levels[m])
        faces[m] = block
    return TruncatedPresheaf(nu, n, carriers, faces)


def orientation_endpoints(w):
    """The nu words obtained by replacing the leftmost star of w with each
    direction, in direction order."""
    for j, a in enumerate(w.letters):
        if a == STAR:
            return [
                Word(w.nu, w.letters[:j] + (d,) + w.letters[j + 1:])
                for d in range(w.nu)
            ]
    raise AllLetters(f"{w} has no star to orient")


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
    edges through the stored face maps, higher cells as dashed label nodes."""
    nd = _node_dimension(P)
    lines = ["graph nuset {"]
    nodes = P.carriers[nd] if nd <= P.trunc else FinSet(0)
    for i in nodes:
        label = nodes.label(i) or "ε"
        lines.append(f'  "{label}";')
    ed = nd + 1
    if ed <= P.trunc:
        edge_carrier = P.carriers[ed]
        face_words = hom_enumerate(P.nu, ed - 1, ed)
        maps = [P.face(ed, str(fw)) for fw in face_words]
        for e in edge_carrier:
            ends = [nodes.label(m[e]) or "ε" for m in maps]
            if len(ends) == 1:
                ends = ends * 2
            lines.append(
                f'  "{ends[0]}" -- "{ends[-1]}" '
                f'[label="{edge_carrier.label(e)}"];')
    for dim in range(ed + 1, P.trunc + 1):
        carrier = P.carriers[dim]
        for c in carrier:
            lines.append(
                f'  "cell {carrier.label(c)}" '
                f'[shape=box, style=dashed, label="{carrier.label(c)} '
                f'(dim {dim - nd})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

