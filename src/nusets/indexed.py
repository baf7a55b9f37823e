"""Indexed nu-sets: frames, layers, paintings, restrictions, coherence.

The indexed presentation stores an n-cell as a fibre element over its
boundary frame. The three value shapes are mutually recursive:

  frame(n, p)      p layers, one per stratum 0..p-1; p = n is a full
                   boundary, p = 0 the empty frame.
  layer(n, p)      nu paintings of dimension n-1, one per direction; the
                   component in direction w lives over the w-restriction of
                   the enclosing frame.
  painting(n, p)   layers p..n-1 plus a top cell: a cell together with the
                   part of its boundary not fixed by the base frame.

Restriction extracts the face of a frame/layer/painting in direction eps at
stratum q. The operators follow a strict index discipline (side conditions
``p <= q <= n-1`` for frames and paintings, ``p <= q <= n-2`` for layers);
violations raise SideConditionViolated.

Restricting a layer requires, in dependent type theory, a transport along
the commutation of two restrictions. Here, with finite values and decidable
equality, the transport is realized as an assertion: both frame computations
it equates are evaluated and compared, and a disagreement raises
CoherenceMismatch. On well-formed values the assertion never fires; it
exists to catch corrupted values and implementation bugs.

Families are keyed by their full frames, as values. Text is the file and
report format only: frames render as ``(layer ...)``, layers as
``[painting ...]``, paintings as ``{layer ... cell}``. The rendering is
injective for values of a fixed shape (n, p); the empty frame prints ``()``
at every n, so frame text is canonical per dimension, which is how the
file format uses it (keys grouped under their dimension).
"""

import json
from dataclasses import dataclass
from itertools import product

from .errors import (
    ArityError, CoherenceMismatch, DimensionOutOfRange, IndexOutOfRange,
    ParseError, RangeError, SideConditionViolated, UnknownFrame,
)
from .presheaf import FinSet, load_header, parse_finset
from .report import Report


# ----------------------------------------------------------------- values

@dataclass(frozen=True, slots=True)
class FrameVal:
    """A p-frame at dimension n: the first p strata of a boundary."""

    n: int
    p: int
    layers: tuple

    def __post_init__(self):
        if not (0 <= self.p <= self.n):
            raise SideConditionViolated(f"frame needs 0 <= p <= n, "
                                        f"got p={self.p}, n={self.n}")
        if len(self.layers) != self.p:
            raise SideConditionViolated(
                f"frame at p={self.p} must carry {self.p} layers")

    def prefix(self, k):
        return FrameVal(self.n, k, self.layers[:k])

    def extend(self, layer):
        return FrameVal(self.n, self.p + 1, self.layers + (layer,))

    def __repr__(self):
        return f"Frame({self.n},{self.p},{frame_key(self)})"


@dataclass(frozen=True, slots=True)
class LayerVal:
    """One stratum: nu paintings of dimension n-1, indexed by direction."""

    n: int
    p: int
    components: tuple

    def __post_init__(self):
        if not (0 <= self.p < self.n):
            raise SideConditionViolated(f"layer needs 0 <= p < n, "
                                        f"got p={self.p}, n={self.n}")
        if not self.components:
            raise SideConditionViolated("layer needs at least one component")

    def __repr__(self):
        return f"Layer({self.n},{self.p},{frame_key(self)})"


@dataclass(frozen=True, slots=True)
class PaintingVal:
    """Layers p..n-1 plus the top cell (a fibre-relative index)."""

    n: int
    p: int
    layers: tuple
    cell: int

    def __post_init__(self):
        if not (0 <= self.p <= self.n):
            raise SideConditionViolated(f"painting needs 0 <= p <= n, "
                                        f"got p={self.p}, n={self.n}")
        if len(self.layers) != self.n - self.p:
            raise SideConditionViolated(
                f"painting at (n={self.n}, p={self.p}) must carry "
                f"{self.n - self.p} layers")
        if self.cell < 0:
            raise RangeError(f"cell index {self.cell} negative")

    @property
    def first_layer(self):
        return self.layers[0]

    @property
    def rest(self):
        return PaintingVal(self.n, self.p + 1, self.layers[1:], self.cell)

    def __repr__(self):
        return f"Painting({self.n},{self.p},{frame_key(self)})"


def full_frame(base, painting):
    """The full frame completed by a painting over its base frame."""
    if base.n != painting.n or base.p != painting.p:
        raise SideConditionViolated(
            f"painting at ({painting.n},{painting.p}) does not sit over "
            f"frame at ({base.n},{base.p})")
    return FrameVal(base.n, base.n, base.layers + painting.layers)


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


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def error(self, message):
        raise ParseError(message, line=1, col=self.i + 1)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] == " ":
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else None

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def integer(self):
        self.skip_ws()
        j = self.i
        while j < len(self.text) and self.text[j].isdigit():
            j += 1
        if j == self.i:
            self.error("expected a cell index")
        value = int(self.text[self.i:j])
        self.i = j
        return value


def parse_value(text, nu, n, p, kind="frame"):
    """Inverse of frame_key for a value of known shape (nu, n, p)."""
    sc = _Scanner(text)
    v = _parse_value(sc, nu, n, p, kind)
    sc.skip_ws()
    if sc.i != len(sc.text):
        sc.error("trailing input")
    return v


def _parse_value(sc, nu, n, p, kind):
    if kind == "frame":
        sc.expect("(")
        layers = tuple(_parse_value(sc, nu, n, j, "layer") for j in range(p))
        sc.expect(")")
        return FrameVal(n, p, layers)
    if kind == "layer":
        sc.expect("[")
        comps = tuple(
            _parse_value(sc, nu, n - 1, p, "painting") for _ in range(nu))
        sc.expect("]")
        return LayerVal(n, p, comps)
    if kind == "painting":
        sc.expect("{")
        layers = tuple(
            _parse_value(sc, nu, n, j, "layer") for j in range(p, n))
        cell = sc.integer()
        sc.expect("}")
        return PaintingVal(n, p, layers, cell)
    raise ValueError(f"unknown kind {kind!r}")


# ------------------------------------------------------------ indexed set

class IndexedNuSet:
    """Truncated indexed nu-set: ``families[n]`` maps each full frame at n
    (a FrameVal) to its fibre, a FinSet; the frame text is only how files
    write the keys. Treated as immutable after construction. ``_memo`` is
    its only memo: the frame and painting tables (ordered sets of values,
    which serve both enumeration and membership) and restrictions, all
    functions of the families (so never stale). It is owned by the set and
    freed with it; ``extended`` hands it on to the next level."""

    def __init__(self, nu, trunc, families):
        if nu < 1:
            raise ArityError(f"arity must be >= 1, got {nu}")
        if trunc < 0:
            raise RangeError(f"truncation must be a natural, got {trunc}")
        self.nu = nu
        self.trunc = trunc
        self.families = {n: dict(families.get(n, {}))
                         for n in range(trunc + 1)}
        self._memo = {}

    def extended(self, family):
        """This set plus ``family`` at trunc + 1, taking over this set's memo.

        Every entry stays true of the extension, since nothing memoized
        about a set reads a level above it (frames at n read the families
        below n, paintings at n those up to n). This set starts a new memo,
        so it never sees entries about the added level, and a second
        extension of it never sees the first one's."""
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
    """The p-frames at n as an ordered set (a dict), memoized in S."""
    key = ("frames", n, p)
    table = S._memo.get(key)
    if table is None:
        if p == 0:
            table = dict.fromkeys([FrameVal(n, 0, ())])
        else:
            table = dict.fromkeys(
                d.extend(layer)
                for d in _frames(S, n, p - 1)
                for layer in _enumerate_layers(S, n, p - 1, d))
        S._memo[key] = table
    return table


def _enumerate_layers(S, n, p, d):
    """All layers extending frame d from stratum p, direction-major order."""
    per_direction = []
    for omega in range(S.nu):
        base = restr_frame(omega, p, n, p, d, S)
        per_direction.append(_paintings(S, n - 1, p, base))
    return [LayerVal(n, p, combo) for combo in product(*per_direction)]


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
    """The paintings over d as an ordered set (a dict), memoized in S for
    p < n under d itself, which fixes n and p. At p == n they are the cells
    of one fibre, which is cheaper to list again than to keep. Most tables
    are empty; those all share the empty tuple."""
    if p == n:
        return dict.fromkeys(PaintingVal(n, n, (), c)
                             for c in range(S.fibre(d).size))
    table = S._memo.get(d)
    if table is None:
        table = S._memo[d] = dict.fromkeys(
            PaintingVal(n, p, (layer,) + rest.layers, rest.cell)
            for layer in _enumerate_layers(S, n, p, d)
            for rest in _paintings(S, n, p + 1, d.extend(layer))) or ()
    return table


# ------------------------------------------------------------ restriction
#
# The operators are structural: they project and reassemble tree positions
# and never consult the fibres. A consequence (mirroring the fact that the
# commutation equations hold by a word-level identity) is that any two
# restriction routes extract the same positions from any same-shaped tree,
# so a corrupted value cannot be detected by comparing routes alone. The
# runtime shadow of the type-theoretic transport therefore takes the
# indexed set as context (``within``): restr_layer checks that every layer
# component is one of the paintings enumerable over the restricted frame
# it must sit over (one lookup in the set's painting table), a component
# over the wrong frame raises CoherenceMismatch, and results go into
# within._memo, which the recursion shares, so each face is computed once.


def restr_frame(eps, q, n, p, d, within):
    """Face of a p-frame: direction eps, stratum q; p <= q <= n-1.

    Structural recursion: the empty frame restricts to the empty frame, and
    each stratum j < p restricts through restr_layer at q-1 (with its own
    prefix as context). q does not change along the recursion.
    """
    if not (0 <= p <= q <= n - 1):
        raise SideConditionViolated(
            f"restr_frame needs p <= q <= n-1, got p={p}, q={q}, n={n}")
    if d.n != n or d.p != p:
        raise SideConditionViolated(
            f"frame at ({d.n},{d.p}) passed to restr_frame({n},{p})")
    if p == 0:
        return FrameVal(n - 1, 0, ())
    key = ("f", eps, q, d)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    head = restr_frame(eps, q, n, p - 1, d.prefix(p - 1), within)
    top = restr_layer(eps, q - 1, n, p - 1, d.prefix(p - 1),
                      d.layers[p - 1], within)
    result = within._memo[key] = head.extend(top)
    return result


def restr_layer(eps, q, n, p, d, layer, within):
    """Face of a layer over frame d; p <= q <= n-2.

    Component w of the result is the (eps, q)-restriction of component w,
    computed over the w-restriction of d. The transport this step needs in
    dependent type theory is realized as a runtime check: each component
    must be a painting of ``within`` over the w-restriction of d, and the
    two frame computations the transport equates must agree
    (CoherenceMismatch otherwise).
    """
    if not (0 <= p <= q <= n - 2):
        raise SideConditionViolated(
            f"restr_layer needs p <= q <= n-2, got p={p}, q={q}, n={n}")
    if d.n != n or d.p != p or layer.n != n or layer.p != p:
        raise SideConditionViolated(
            f"layer/frame at ({layer.n},{layer.p})/({d.n},{d.p}) passed "
            f"to restr_layer({n},{p})")
    key = ("l", eps, q, d, layer)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    expected_base = restr_frame(eps, q + 1, n, p, d, within)
    comps = []
    for omega, comp in enumerate(layer.components):
        base = restr_frame(omega, p, n, p, d, within)
        try:
            ok = comp in _paintings(within, n - 1, p, base)
        except UnknownFrame as exc:
            raise CoherenceMismatch(
                f"component {omega} sits over a frame that does not "
                f"exist in the indexed set: {exc}")
        if not ok:
            raise CoherenceMismatch(
                f"component {omega} is not a painting over "
                f"{frame_key(base)}: {frame_key(comp)}")
        out = restr_painting(eps, q, n - 1, p, base, comp, within)
        via_projection = restr_frame(eps, q, n - 1, p, base, within)
        via_restriction = restr_frame(omega, p, n - 1, p, expected_base,
                                      within)
        if via_projection != via_restriction:
            raise CoherenceMismatch(
                f"transport failed at direction {omega}: "
                f"{frame_key(via_projection)} vs "
                f"{frame_key(via_restriction)}")
        comps.append(out)
    result = within._memo[key] = LayerVal(n - 1, p, tuple(comps))
    return result


def restr_painting(eps, q, n, p, d, c, within):
    """Face of a painting over frame d; p <= q <= n-1.

    At p == q the first layer's eps component is the whole answer (the rest
    of the painting, top cell included, is discarded). Below q the first
    layer and the remaining painting are restricted side by side.
    """
    if not (0 <= p <= q <= n - 1):
        raise SideConditionViolated(
            f"restr_painting needs p <= q <= n-1, got p={p}, q={q}, n={n}")
    if d.n != n or d.p != p or c.n != n or c.p != p:
        raise SideConditionViolated(
            f"painting/frame at ({c.n},{c.p})/({d.n},{d.p}) passed "
            f"to restr_painting({n},{p})")
    if p == q:
        first = c.first_layer
        if eps >= len(first.components):
            raise IndexOutOfRange(
                f"direction {eps} out of range for width "
                f"{len(first.components)}")
        return first.components[eps]
    key = ("p", eps, q, d, c)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    first = restr_layer(eps, q - 1, n, p, d, c.first_layer, within)
    rest = restr_painting(eps, q, n, p + 1, d.extend(c.first_layer), c.rest,
                          within)
    result = within._memo[key] = PaintingVal(n - 1, p, (first,) + rest.layers,
                                     rest.cell)
    return result


# -------------------------------------------------------------- coherence

def _legal_coh_indices(eps, omega, q, r, n, p, nu):
    if not (0 <= p <= r <= q <= n - 2):
        raise SideConditionViolated(
            f"coherence needs p <= r <= q <= n-2, got "
            f"p={p}, r={r}, q={q}, n={n}")
    for direction in (eps, omega):
        if not (0 <= direction < nu):
            raise IndexOutOfRange(
                f"direction {direction} out of range for arity {nu}")


def check_coh_frame(S, eps, omega, q, r, n, p, frames=None):
    """Commutation of two frame restrictions over every p-frame at n.

    restr(eps, q) after restr(omega, r) must equal restr(omega, r) after
    restr(eps, q+1). Corrupted values raise the transport assertion; that
    is reported, not propagated. ``frames`` overrides the enumeration (used
    to inject corrupted values in tests).

    A composite needs no membership test: checked restriction maps
    members of the set's tables to members, since every layer it
    restricts has its components looked up in the painting tables and its
    transport checked, and a component that fails either raises. So a
    composite is enumerable or the assertion fired first.
    """
    _legal_coh_indices(eps, omega, q, r, n, p, S.nu)
    rep = Report(
        f"coh_frame eps={eps} omega={omega} q={q} r={r} n={n} p={p}")
    if frames is None:
        frames = enumerate_frames(S, n, p)
    for d in frames:
        try:
            lhs = restr_frame(eps, q, n - 1, p,
                              restr_frame(omega, r, n, p, d, S), S)
            rhs = restr_frame(omega, r, n - 1, p,
                              restr_frame(eps, q + 1, n, p, d, S), S)
        except CoherenceMismatch as exc:
            rep.add("transport-mismatch", frame=frame_key(d), detail=str(exc))
            continue
        if lhs != rhs:
            rep.add("coh-frame", frame=frame_key(d),
                    lhs=frame_key(lhs), rhs=frame_key(rhs))
    return rep


def check_coh_painting(S, eps, omega, q, r, n, p, items=None):
    """Commutation of two painting restrictions over every (frame, painting)
    pair at (n, p); same index discipline as check_coh_frame, and no
    membership test for the same reason. Restriction at stratum r only
    projects layer r of the painting, unchecked, but the right-hand route
    restricts layers p..q checked, and r <= q, so when both routes
    succeed both composites are restrictions of members.

    ``items`` overrides the enumerated pairs (corruption injection).
    """
    _legal_coh_indices(eps, omega, q, r, n, p, S.nu)
    rep = Report(
        f"coh_painting eps={eps} omega={omega} q={q} r={r} n={n} p={p}")
    if items is None:
        items = [(d, c)
                 for d in enumerate_frames(S, n, p)
                 for c in enumerate_paintings(S, n, p, d)]
    for d, c in items:
        try:
            base_r = restr_frame(omega, r, n, p, d, S)
            lhs = restr_painting(eps, q, n - 1, p, base_r,
                                 restr_painting(omega, r, n, p, d, c, S), S)
            over_lhs = restr_frame(eps, q, n - 1, p, base_r, S)
            base_q = restr_frame(eps, q + 1, n, p, d, S)
            rhs = restr_painting(omega, r, n - 1, p, base_q,
                                 restr_painting(eps, q + 1, n, p, d, c, S), S)
            over_rhs = restr_frame(omega, r, n - 1, p, base_q, S)
        except CoherenceMismatch as exc:
            rep.add("transport-mismatch", frame=frame_key(d),
                    painting=frame_key(c), detail=str(exc))
            continue
        if over_lhs != over_rhs:
            rep.add("coh-frame", frame=frame_key(d), painting=frame_key(c),
                    lhs=frame_key(over_lhs), rhs=frame_key(over_rhs))
            continue
        if lhs != rhs:
            rep.add("coh-painting", frame=frame_key(d), painting=frame_key(c),
                    lhs=frame_key(lhs), rhs=frame_key(rhs))
    return rep


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


def coherence_sweep(S):
    """All legal frame and painting coherence checks up to the truncation.

    Totality is not checked here (see check_totality); on a set that is not
    total, enumeration may raise UnknownFrame."""
    rep = Report("coherence sweep")
    for n in range(2, S.trunc + 1):
        for p in range(n - 1):
            for r in range(p, n - 1):
                for q in range(r, n - 1):
                    for eps in range(S.nu):
                        for omega in range(S.nu):
                            rep.extend(check_coh_frame(
                                S, eps, omega, q, r, n, p))
                            rep.extend(check_coh_painting(
                                S, eps, omega, q, r, n, p))
    return rep


def validate_indexed(S):
    """Totality of every family over its frame enumeration, plus all legal
    coherence checks up to the truncation; the sweep is skipped when
    totality fails."""
    rep = Report("indexed validation").extend(check_totality(S))
    if rep.ok:
        rep.extend(coherence_sweep(S))
    return rep


def grow_indexed(nu, trunc, size_at):
    """Build an indexed set level by level, totality by construction.

    ``size_at(n, d)`` gives the fibre size over each enumerated full frame
    d at n; enumeration at each new level only reads the levels already
    built.
    """
    unit = FrameVal(0, 0, ())
    S = IndexedNuSet(nu, 0, {0: {unit: FinSet(size_at(0, unit))}})
    for n in range(1, trunc + 1):
        S = S.extended({d: FinSet(size_at(n, d)) for d in _frames(S, n, n)})
    return S


# ------------------------------------------------------------ file format

def emit_indexed(S):
    """Serialize to the indexed JSON format (sorted keys, 2-space)."""
    families = {}
    for n in range(S.trunc + 1):
        block = {}
        for d, fib in S.families[n].items():
            block[frame_key(d)] = list(fib.labels) \
                if fib.labels is not None else fib.size
        families[str(n)] = block
    doc = {"nu": S.nu, "trunc": S.trunc, "families": families}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_indexed(text):
    """Parse the indexed JSON format; structural errors are precise.

    Frame keys are checked for well-formedness here (they must parse as
    full frames of their dimension and be written in canonical text) and
    the families keyed by the parsed frames; totality against the
    enumeration is check_totality's job.
    """
    doc, nu, trunc = load_header(text, "families")
    raw = doc["families"]
    if not isinstance(raw, dict):
        raise ParseError("field 'families' must be an object")
    extra = set(raw) - {str(n) for n in range(trunc + 1)}
    if extra:
        raise ParseError(
            f"families mention dimension {sorted(extra)[0]} outside "
            f"0..{trunc}")
    families = {}
    for n in range(trunc + 1):
        block = raw.get(str(n))
        if block is None:
            raise ParseError(f"families missing dimension {n}")
        if not isinstance(block, dict):
            raise ParseError(f"families[{n}] must be an object")
        fam = {}
        for key, entry in block.items():
            try:
                frame = parse_value(key, nu, n, n, "frame")
            except ParseError:
                raise ParseError(
                    f"families[{n}] key {key!r} is not a full frame "
                    f"at dimension {n}")
            canonical = frame_key(frame)
            if canonical != key:
                raise ParseError(
                    f"families[{n}] key {key!r} is not canonical, "
                    f"expected {canonical!r}")
            fam[frame] = parse_finset(entry, f"families[{n}][{key!r}]")
        families[n] = fam
    return IndexedNuSet(nu, trunc, families)
