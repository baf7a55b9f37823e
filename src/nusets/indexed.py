"""Indexed nu-sets, the laws: restriction and coherence.

The data is in ``values`` (frames, layers, paintings) and ``frames`` (the
families of cells over frames and their enumeration), its file format in
``indexedfile``; this module restricts it and checks the laws.

Restriction extracts the face of a frame/layer/painting in direction eps at
stratum q. It reads n and p off the frame, never takes them: the side
conditions ``p <= q <= n-1`` (frames, paintings) and ``p <= q <= n-2``
(layers), and a layer or painting at another (n, p) than its frame, raise
SideConditionViolated; a direction past the arity raises IndexOutOfRange.

Restricting a layer requires, in dependent type theory, a transport along
the commutation of two frame restrictions. That equation is the frame law
at r = p, which the coherence sweep checks over every frame a set
enumerates, so restriction does not check it again. Restriction checks
membership: each layer component must be a painting of the set over the
frame it sits on, and one that is not raises CoherenceMismatch. On
well-formed values the check never fires; it catches corrupted values.

The coherence sweep checks that any two restrictions commute, over every
frame and painting a set enumerates; ``validate_indexed`` is totality
(``frames.check_totality``) plus the sweep.
"""

from .errors import (
    CoherenceMismatch, IndexOutOfRange, SideConditionViolated,
)
from .frames import (
    _paintings, check_totality, enumerate_frames, enumerate_paintings,
)
from .report import Report
from .values import FrameVal, LayerVal, PaintingVal, _intern, frame_key


# ------------------------------------------------------------ restriction
#
# The operators are structural: they project and reassemble tree positions
# and never consult the fibres. A consequence (mirroring the fact that the
# commutation equations hold by a word-level identity) is that any two
# restriction routes extract the same positions from any same-shaped tree,
# so a corrupted value cannot be detected by comparing routes alone; the
# equation the transport rewrites along is checked once, by the sweep, as
# check_coh_frame at r = p. Restriction takes the indexed set as context
# (``within``) for membership only: restr_layer checks that every layer
# component is one of the paintings enumerable over the restricted frame
# it must sit over (one lookup in the set's painting table), raising
# CoherenceMismatch otherwise, and results go into within._memo, which
# the recursion shares, so each face is computed once.


def _direction(eps, size, of="width"):
    if not 0 <= eps < size:
        raise IndexOutOfRange(f"direction {eps} out of range for {of} {size}")


def _at(v, n, p):
    """Refuse a value that sits at another (n, p) than its context."""
    if v.n != n or v.p != p:
        raise SideConditionViolated(
            f"value at ({v.n},{v.p}) where one at ({n},{p}) is needed")


def restr_frame(eps, q, d, within):
    """Face of a p-frame d at n: direction eps, stratum q; p <= q <= n-1.

    Structural recursion: the empty frame restricts to the empty frame, and
    each stratum j < p restricts through restr_layer at q-1 (with its own
    prefix as context). q does not change along the recursion.
    """
    n, p = d.n, d.p
    if not p <= q <= n - 1:
        raise SideConditionViolated(
            f"restr_frame needs p <= q <= n-1, got p={p}, q={q}, n={n}")
    key = ("f", eps, q, d)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    if p == 0:
        _direction(eps, within.nu, "arity")
        result = FrameVal(n - 1, 0, ())
    else:
        head_frame = _intern(within, d.prefix(p - 1))
        head = restr_frame(eps, q, head_frame, within)
        top = restr_layer(eps, q - 1, head_frame, d.layers[p - 1], within)
        result = head.extend(top)
    result = within._memo[key] = _intern(within, result)
    return result


def restr_layer(eps, q, d, layer, within):
    """Face of a layer over the p-frame d at n; p <= q <= n-2.

    Component w of the result is the (eps, q)-restriction of component w,
    computed over the w-restriction of d, of which each component must be
    a painting of ``within`` (CoherenceMismatch otherwise). The transport
    this step needs in dependent type theory rewrites along the frame law
    at r = p, which check_coh_frame checks; a set that is not total raises
    UnknownFrame from the painting lookup.
    """
    n, p = d.n, d.p
    if not p <= q <= n - 2:
        raise SideConditionViolated(
            f"restr_layer needs p <= q <= n-2, got p={p}, q={q}, n={n}")
    _at(layer, n, p)
    key = ("l", eps, q, d, layer)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    comps = []
    for omega, comp in enumerate(layer.components):
        base = restr_frame(omega, p, d, within)
        if comp not in _paintings(within, base):
            raise CoherenceMismatch(
                f"component {omega} is not a painting over "
                f"{frame_key(base)}: {frame_key(comp)}")
        comps.append(restr_painting(eps, q, base, comp, within))
    result = within._memo[key] = _intern(within,
                                         LayerVal(n - 1, p, tuple(comps)))
    return result


def restr_painting(eps, q, d, c, within):
    """Face of a painting c over the p-frame d at n; p <= q <= n-1.

    At p == q the first layer's eps component is the whole answer (the rest
    of the painting, top cell included, is discarded). Below q the first
    layer and the remaining painting are restricted side by side.
    """
    n, p = d.n, d.p
    if not p <= q <= n - 1:
        raise SideConditionViolated(
            f"restr_painting needs p <= q <= n-1, got p={p}, q={q}, n={n}")
    _at(c, n, p)
    if p == q:
        first = c.first_layer.components
        _direction(eps, len(first))
        return first[eps]
    key = ("p", eps, q, d, c)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    first = restr_layer(eps, q - 1, d, c.first_layer, within)
    rest = restr_painting(eps, q, _intern(within, d.extend(c.first_layer)),
                          _intern(within, c.rest), within)
    result = within._memo[key] = _intern(
        within, PaintingVal(n - 1, p, (first,) + rest.layers, rest.cell))
    return result


# -------------------------------------------------------------- coherence

def _legal_coh_indices(eps, omega, q, r, n, p, nu):
    if not (0 <= p <= r <= q <= n - 2):
        raise SideConditionViolated(
            f"coherence needs p <= r <= q <= n-2, got "
            f"p={p}, r={r}, q={q}, n={n}")
    for direction in (eps, omega):
        _direction(direction, nu, "arity")


def check_coh_frame(S, eps, omega, q, r, n, p, frames=None):
    """Commutation of two frame restrictions over every p-frame at n.

    restr(eps, q) after restr(omega, r) must equal restr(omega, r) after
    restr(eps, q+1). A corrupted value raises CoherenceMismatch in
    restriction; that is reported, not propagated. At r = p this is the
    equation restr_layer's transport rewrites along. ``frames``, a list of
    p-frames at n, overrides the enumeration (used to inject corrupted
    values in tests).

    A composite needs no membership test: checked restriction maps
    members of the set's tables to members, since every layer it
    restricts has its components looked up in the painting tables, and a
    component that fails the lookup raises. So a composite is enumerable
    or the check fired first.
    """
    _legal_coh_indices(eps, omega, q, r, n, p, S.nu)
    rep = Report(
        f"coh_frame eps={eps} omega={omega} q={q} r={r} n={n} p={p}")
    if frames is None:
        frames = enumerate_frames(S, n, p)
    else:  # an override states (n, p) apart from its values
        for d in frames:
            _at(d, n, p)
    for d in frames:
        try:
            lhs = restr_frame(eps, q, restr_frame(omega, r, d, S), S)
            rhs = restr_frame(omega, r, restr_frame(eps, q + 1, d, S), S)
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
    succeed both composites are restrictions of members. The frames the
    composites sit over are check_coh_frame's composites of the same frame
    with the same indices, so they are compared there, not here.

    ``items``, a list of such pairs, overrides them (corruption injection).
    """
    _legal_coh_indices(eps, omega, q, r, n, p, S.nu)
    rep = Report(
        f"coh_painting eps={eps} omega={omega} q={q} r={r} n={n} p={p}")
    if items is None:
        items = [(d, c)
                 for d in enumerate_frames(S, n, p)
                 for c in enumerate_paintings(S, d)]
    else:
        for d, _ in items:
            _at(d, n, p)
    for d, c in items:
        try:
            base_r = restr_frame(omega, r, d, S)
            lhs = restr_painting(eps, q, base_r,
                                 restr_painting(omega, r, d, c, S), S)
            base_q = restr_frame(eps, q + 1, d, S)
            rhs = restr_painting(omega, r, base_q,
                                 restr_painting(eps, q + 1, d, c, S), S)
        except CoherenceMismatch as exc:
            rep.add("transport-mismatch", frame=frame_key(d),
                    painting=frame_key(c), detail=str(exc))
            continue
        if lhs != rhs:
            rep.add("coh-painting", frame=frame_key(d), painting=frame_key(c),
                    lhs=frame_key(lhs), rhs=frame_key(rhs))
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
