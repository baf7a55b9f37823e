"""Finite fibred nu-sets.

A truncated presheaf stores one finite carrier per dimension up to the
truncation and one total map per codimension-1 word. Nothing else is stored:
the action of an arbitrary word is derived by peeling its letters one at a
time, and the semi-shape identities are checked rather than assumed.

File format (JSON, emitted with sorted keys and two-space indentation):

    {
      "nu": 2,
      "trunc": 1,
      "carriers": [4, ["e0", "e1"]],
      "faces": {"1": {"L": [0, 1, 0, 2], "R": [...]}}
    }

A carrier entry is either a size or a list of distinct labels. The "faces"
object maps each dimension n >= 1 to an object with one entry per
codimension-1 word in Hom(n-1, n); the array gives the image of each element
of carrier n inside carrier n-1.
"""

import json

from .errors import (
    ArityError, DimensionOutOfRange, MissingFace, ParseError, RangeError,
)
from .fileformat import load_header, parse_finset
from .report import Report
from .words import factor_leftmost, factorizations, hom_enumerate


class TruncatedPresheaf:
    """A fibred nu-set up to dimension ``trunc``.

    carriers: list of FinSet, index = dimension.
    faces: dict n -> dict word text -> tuple of images in carrier n-1.
    Treated as immutable after construction; all operations are pure.
    ``_memo``, its only memo, holds what equivalence derives from it (the
    boundary frames and fibre ranks of each level's cells, and the intern
    table the frames are built through); freed with it.
    """

    def __init__(self, nu, trunc, carriers, faces):
        if nu < 1:
            raise ArityError(f"arity must be >= 1, got {nu}")
        if trunc < 0 or len(carriers) != trunc + 1:
            raise RangeError(
                f"need carriers for dimensions 0..{trunc}, got "
                f"{len(carriers)}")
        self.nu = nu
        self.trunc = trunc
        self.carriers = list(carriers)
        self.faces = {n: dict(fs) for n, fs in faces.items()}
        self._memo = {}

    def face(self, n, word_text):
        """The stored codim-1 map at dimension n for the given word text."""
        try:
            return self.faces[n][word_text]
        except KeyError:
            raise MissingFace(f"no face {word_text!r} at dimension {n}")

    def __eq__(self, other):
        return (isinstance(other, TruncatedPresheaf)
                and self.nu == other.nu and self.trunc == other.trunc
                and self.carriers == other.carriers
                and self.faces == other.faces)

    def __repr__(self):
        sizes = ",".join(str(c.size) for c in self.carriers)
        return f"<TruncatedPresheaf nu={self.nu} sizes=({sizes})>"


def action(P, f):
    """The total map carriers(n) -> carriers(stars(f)) induced by word f.

    Contravariant: the word is peeled left to right via factor_leftmost and
    the stored codim-1 maps are applied in that order. For law-abiding
    presheaves the result does not depend on the factorization order.
    """
    n = f.length
    if n > P.trunc:
        raise DimensionOutOfRange(
            f"word of length {n} on a presheaf truncated at {P.trunc}")
    current = list(range(P.carriers[n].size))
    g = f
    m = n
    while not g.is_identity():
        head, g = factor_leftmost(g)
        fm = P.face(m, str(head))
        current = [fm[i] for i in current]
        m -= 1
    return tuple(current)


def check_functor_laws(P):
    """Codimension-2 exchange: all factorizations of every two-letter word
    induce the same composite map.

    This suffices for full factorization invariance because any two maximal
    factorizations of a word are connected by adjacent transpositions.
    """
    rep = Report("functor laws")
    for n in range(2, P.trunc + 1):
        for f in hom_enumerate(P.nu, n - 2, n):
            if f.is_identity():
                continue
            routes = []
            for head, rest in factorizations(f):
                top = P.face(n, str(head))
                bottom = P.face(n - 1, str(rest))
                routes.append(((str(head), str(rest)),
                               tuple(bottom[top[x]]
                                     for x in range(P.carriers[n].size))))
            (name0, map0) = routes[0]
            for name1, map1 in routes[1:]:
                if map1 != map0:
                    for x in range(P.carriers[n].size):
                        if map0[x] != map1[x]:
                            rep.add("functor-law", n=n, word=str(f),
                                    factorizations=[name0, name1], element=x,
                                    images=[map0[x], map1[x]])
                            break
    return rep


# ------------------------------------------------------------- file format

def emit_nuset(P):
    """Serialize to the JSON format; bit-exact (sorted keys, 2-space)."""
    carriers = []
    for c in P.carriers:
        carriers.append(list(c.labels) if c.labels is not None else c.size)
    faces = {str(n): {w: list(m) for w, m in P.faces[n].items()}
             for n in sorted(P.faces)}
    doc = {"nu": P.nu, "trunc": P.trunc, "carriers": carriers, "faces": faces}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_nuset(text):
    """Parse and validate the JSON format.

    Raises ParseError subclasses with a precise description: ArityError for a
    bad arity, MissingFace when a codim-1 word has no entry, RangeError when
    an image or array length is off.
    """
    doc, nu, trunc = load_header(text, "carriers", "faces")
    raw_carriers = doc["carriers"]
    if not isinstance(raw_carriers, list) or len(raw_carriers) != trunc + 1:
        raise RangeError(
            f"carriers must list dimensions 0..{trunc} "
            f"({trunc + 1} entries)")
    carriers = [parse_finset(entry, f"carrier {dim}")
                for dim, entry in enumerate(raw_carriers)]
    raw_faces = doc["faces"]
    if not isinstance(raw_faces, dict):
        raise ParseError("field 'faces' must be an object")
    faces = {}
    for n in range(1, trunc + 1):
        block = raw_faces.get(str(n))
        if block is None:  # Hom(n-1, n) has n * nu words
            raise MissingFace(f"no faces for dimension {n}")
        if not isinstance(block, dict):
            raise ParseError(f"faces[{n}] must be an object")
        expected = {str(wd) for wd in hom_enumerate(nu, n - 1, n)}
        seen = {}
        for wtext, arr in block.items():
            if wtext not in expected:
                raise ParseError(
                    f"faces[{n}] has unexpected word {wtext!r}")
            if (not isinstance(arr, list)
                    or len(arr) != carriers[n].size):
                raise RangeError(
                    f"face {wtext!r} at dimension {n} must list "
                    f"{carriers[n].size} images")
            for x, img in enumerate(arr):
                if type(img) is not int or not (
                        0 <= img < carriers[n - 1].size):
                    raise RangeError(
                        f"face {wtext!r} at dimension {n} sends {x} to "
                        f"{img!r}, outside carrier {n - 1}")
            seen[wtext] = tuple(arr)
        missing = expected - set(seen)
        if missing:
            raise MissingFace(
                f"faces[{n}] missing {sorted(missing)[0]!r}")
        faces[n] = seen
    extra = set(raw_faces) - {str(n) for n in range(1, trunc + 1)}
    if extra:
        raise ParseError(f"faces mention dimension {sorted(extra)[0]} "
                         f"outside 1..{trunc}")
    return TruncatedPresheaf(nu, trunc, carriers, faces)
