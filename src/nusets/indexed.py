"""Indexed nu-sets, the laws: restriction and coherence.

The data is in ``values`` (frames, layers, paintings) and ``frames`` (the
families of cells over frames and their enumeration), its file format in
``indexedfile``; this module restricts it and checks the laws.

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

The coherence sweep checks that any two restrictions commute, over every
frame and painting a set enumerates; ``validate_indexed`` is totality
(``frames.check_totality``) plus the sweep.
"""

from .errors import (
    CoherenceMismatch, IndexOutOfRange, SideConditionViolated, UnknownFrame,
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
    key = ("f", eps, q, d)
    hit = within._memo.get(key)
    if hit is not None:
        return hit
    if p == 0:
        result = FrameVal(n - 1, 0, ())
    else:
        head_frame = _intern(within, d.prefix(p - 1))
        head = restr_frame(eps, q, n, p - 1, head_frame, within)
        top = restr_layer(eps, q - 1, n, p - 1, head_frame,
                          d.layers[p - 1], within)
        result = head.extend(top)
    result = within._memo[key] = _intern(within, result)
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
    result = within._memo[key] = _intern(within,
                                         LayerVal(n - 1, p, tuple(comps)))
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
    rest = restr_painting(eps, q, n, p + 1,
                          _intern(within, d.extend(c.first_layer)),
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
