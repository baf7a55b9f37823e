"""Indexed values: frames, layers and paintings, and their text.

The indexed presentation stores an n-cell as a fibre element over its
boundary frame. The three value shapes are mutually recursive:

  frame(n, p)      p layers, one per stratum 0..p-1; p = n is a full
                   boundary, p = 0 the empty frame.
  layer(n, p)      nu paintings of dimension n-1, one per direction; the
                   component in direction w lives over the w-restriction of
                   the enclosing frame.
  painting(n, p)   layers p..n-1 plus a top cell: a cell together with the
                   part of its boundary not fixed by the base frame.

Values are hash-consed: each hashes once, when it is built, and each set
builds its values through one intern table in its memo, so within a set
equal values are one object. Equality across sets is structural (see
"values" below).

Text is the file and report format only: frames render as
``(layer ...)``, layers as ``[painting ...]``, paintings as
``{layer ... cell}``. The rendering is injective for values of a fixed
shape (n, p); the empty frame prints ``()`` at every n, so frame text is
canonical per dimension, which is how the file format uses it (keys
grouped under their dimension). ``frame_key`` writes that text and
``_read`` reads it back in one left-to-right pass that accepts nothing
else, naming the position of the first character that departs from it.
The sets the values live in are in ``frames``.
"""

from .errors import ParseError, RangeError, SideConditionViolated
from .frozen import Frozen


# ----------------------------------------------------------------- values
#
# Hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing",
# 2006). A value computes its hash once, at construction, from its own
# fields and its children's stored hashes, so hashing costs O(1) and
# building a node O(width). Equality checks identity, then the stored
# hash, then the fields, which reach children by identity when they are
# shared. Each indexed set interns the values it builds in one table of
# its memo (``_intern``), so within a set equal values are one object and
# table lookups and memo hits compare by identity. Values from different
# sets, or built by hand, still compare structurally. The hashes are
# those of the field tuples, as a frozen dataclass has them.


class FrameVal(Frozen):
    """A p-frame at dimension n: the first p strata of a boundary."""

    __slots__ = ("n", "p", "layers", "_hash")

    def __init__(self, n, p, layers):
        if not (0 <= p <= n):
            raise SideConditionViolated(f"frame needs 0 <= p <= n, "
                                        f"got p={p}, n={n}")
        if len(layers) != p:
            raise SideConditionViolated(
                f"frame at p={p} must carry {p} layers")
        set_n, set_p, set_layers, set_hash = self._setters
        set_n(self, n)
        set_p(self, p)
        set_layers(self, layers)
        set_hash(self, hash((n, p, layers)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FrameVal:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.p == other.p and self.layers == other.layers)

    def prefix(self, k):
        return FrameVal(self.n, k, self.layers[:k])

    def extend(self, layer):
        return FrameVal(self.n, self.p + 1, self.layers + (layer,))

    def __repr__(self):
        return f"Frame({self.n},{self.p},{frame_key(self)})"


class LayerVal(Frozen):
    """One stratum: nu paintings of dimension n-1, indexed by direction."""

    __slots__ = ("n", "p", "components", "_hash")

    def __init__(self, n, p, components):
        if not (0 <= p < n):
            raise SideConditionViolated(f"layer needs 0 <= p < n, "
                                        f"got p={p}, n={n}")
        if not components:
            raise SideConditionViolated("layer needs at least one component")
        set_n, set_p, set_components, set_hash = self._setters
        set_n(self, n)
        set_p(self, p)
        set_components(self, components)
        set_hash(self, hash((n, p, components)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not LayerVal:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.p == other.p
                and self.components == other.components)

    def __repr__(self):
        return f"Layer({self.n},{self.p},{frame_key(self)})"


class PaintingVal(Frozen):
    """Layers p..n-1 plus the top cell (a fibre-relative index)."""

    __slots__ = ("n", "p", "layers", "cell", "_hash")

    def __init__(self, n, p, layers, cell):
        if not (0 <= p <= n):
            raise SideConditionViolated(f"painting needs 0 <= p <= n, "
                                        f"got p={p}, n={n}")
        if len(layers) != n - p:
            raise SideConditionViolated(
                f"painting at (n={n}, p={p}) must carry "
                f"{n - p} layers")
        if cell < 0:
            raise RangeError(f"cell index {cell} negative")
        set_n, set_p, set_layers, set_cell, set_hash = self._setters
        set_n(self, n)
        set_p(self, p)
        set_layers(self, layers)
        set_cell(self, cell)
        set_hash(self, hash((n, p, layers, cell)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not PaintingVal:
            return NotImplemented
        return (self._hash == other._hash and self.cell == other.cell
                and self.n == other.n and self.p == other.p
                and self.layers == other.layers)

    @property
    def first_layer(self):
        return self.layers[0]

    @property
    def rest(self):
        return PaintingVal(self.n, self.p + 1, self.layers[1:], self.cell)

    def __repr__(self):
        return f"Painting({self.n},{self.p},{frame_key(self)})"


_VALUES = "values"  # the intern table's key in a set's memo


def _intern(S, v):
    """S's one object equal to v, and v itself the first time. The intern
    table maps each value S has built to itself; it is part of S's memo,
    so ``extended`` hands it on with the rest. A fibred structure interns
    its boundary values the same way, and ``to_indexed`` builds its set
    through that table (see equivalence)."""
    table = S._memo.get(_VALUES)
    if table is None:
        table = S._memo[_VALUES] = {}
    return table.setdefault(v, v)


# -------------------------------------------------------- canonical text

def frame_key(v):
    """Injective s-expression text for a frame, layer, or painting: the
    form values take in files and reports."""
    if isinstance(v, FrameVal):
        return "(" + " ".join(frame_key(x) for x in v.layers) + ")"
    if isinstance(v, LayerVal):
        return "[" + " ".join(frame_key(x) for x in v.components) + "]"
    if isinstance(v, PaintingVal):
        inner = [frame_key(x) for x in v.layers] + [str(v.cell)]
        return "{" + " ".join(inner) + "}"
    raise TypeError(f"not a frame/layer/painting: {v!r}")


def parse_value(text, nu, n, p, kind="frame"):
    """Inverse of frame_key for a value of shape (nu, n, p) and kind
    "frame", "layer" or "painting", read in one left-to-right pass that
    accepts only the text frame_key writes: the brackets the shape fixes,
    one space between items, cell indices in ASCII digits with no leading
    zero, and nothing after the value. Other text raises ParseError with
    the 1-based position of its first non-canonical character and what
    canonical text needs there."""
    return _read(text, nu, n, p, kind, {})


def _read(text, nu, n, p, kind, values):
    """parse_value, each node interned in the table ``values`` as it is
    built (a value mapped to itself, as in ``_intern``), so equal subtrees
    are one object. Each ``_read_*`` starts at its opening bracket and
    returns its value and the position past its closing bracket."""
    read = {"frame": _read_frame, "layer": _read_layer,
            "painting": _read_painting}.get(kind)
    if read is None:
        raise ValueError(f"unknown kind {kind!r}")
    # a sentinel no canonical text has, so a read stops at the end
    v, i = read(text + ".", 0, nu, n, p, values)
    if i != len(text):
        _reject(i, "the end of the text")
    return v


def _read_frame(text, i, nu, n, p, values):
    i, layers = _expect(text, i, "("), []
    for j in range(p):
        v, i = _read_layer(text, _expect(text, i, " ") if j else i,
                           nu, n, j, values)
        layers.append(v)
    v = FrameVal(n, p, tuple(layers))
    return values.setdefault(v, v), _expect(text, i, ")")


def _read_layer(text, i, nu, n, p, values):
    i, comps = _expect(text, i, "["), []
    for w in range(nu):
        v, i = _read_painting(text, _expect(text, i, " ") if w else i,
                              nu, n - 1, p, values)
        comps.append(v)
    v = LayerVal(n, p, tuple(comps))
    return values.setdefault(v, v), _expect(text, i, "]")


def _read_painting(text, i, nu, n, p, values):
    i, layers = _expect(text, i, "{"), []
    for j in range(p, n):
        v, i = _read_layer(text, i, nu, n, j, values)
        layers.append(v)
        i = _expect(text, i, " ")
    end = i
    while "0" <= text[end] <= "9":
        end += 1
    if end == i:
        _reject(i, "a cell index")
    if text[i] == "0" and end > i + 1:
        _reject(i + 1, "a cell index with no leading zero")
    try:
        cell = int(text[i:end])
    except ValueError:  # past the digits CPython converts
        _reject(i, "a cell index short enough to convert")
    v = PaintingVal(n, p, tuple(layers), cell)
    return values.setdefault(v, v), _expect(text, end, "}")


def _expect(text, i, ch):
    if text[i] != ch:
        _reject(i, "one space" if ch == " " else repr(ch))
    return i + 1


def _reject(i, needs):
    raise ParseError(f"at position {i + 1}, canonical text needs {needs}")

