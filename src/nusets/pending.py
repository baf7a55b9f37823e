"""Pending substitutions: the entries that normalize (``nusets.normal``)
carries down a term's spine in place of substituting into it.

Each node's masks (see "scoping" in nusets.terms) say, without applying
an entry, whether it changes the node, so the walk hands each part only
the entries that reach it, and a binder the walk meets replays their
rename rule here.
"""

from .terms import Var, _Info, _Node, _fresh, _info, _made


# A substitution is a list of entries applied in order, each replacing
# one free variable by a value: e[sigma] is e[v1/x1][v2/x2]... An entry
# is (x, bit of x, v, free-variable mask of v, bound-name mask of v).
# Applying an entry renames a binder that would capture a free variable
# of v, even where x does not occur below it; those renames give the
# printed names. So an entry changes a subterm exactly when x is free in
# it or one of its binders is free in v, and _prune drops the others from
# the masks alone. A binder replays, in entry order, the rename rule of
# each entry that reaches it (_bind); a rename is one more entry, binder
# to its new name, placed before the entry that caused it.


def _entry(name, value, names):
    info = _info(value, names)
    return (name, names.bit(name), value, info.fv, info.bv)


def _prune(sigma, fv, bv):
    """The entries of sigma that change a node with free-variable mask fv
    and bound-name mask bv, with the masks of the node after them; the
    second holds every name bound in it, and all bits once a rename may
    have made a name unknown to the masks. Each entry is tested on the
    node as the entries before it leave it, so the test is exact: a
    dropped entry would rebuild every node equal and rename nothing."""
    kept = []
    for ent in sigma:
        xbit, vfv = ent[1], ent[3]
        if fv & xbit:
            fv = fv & ~xbit | vfv
            bv = (-1 if bv & vfv else bv) | ent[4]
        elif bv & vfv:
            bv = -1
        else:
            continue
        kept.append(ent)
    return kept, fv, bv


def _reaching(sigma, e, names):
    """The entries of sigma that change e."""
    info = _info(e, names)
    return _prune(sigma, info.fv, info.bv)[0]


class _LongWay(Exception):
    """Raised when a short beta step may have changed a printed name (see
    _normal_form in nusets.normal)."""


def _bind(binder, inner, sigma, names):
    """The name of a binder over inner once sigma is applied, and the
    entries that change inner, as _prune gives them. An entry for the
    binder itself stops here. An entry whose value has the binder free
    renames it first, by one more entry before it, avoiding the value's
    free variables, inner's as the entries before leave it, and the
    entry's name."""
    info = _info(inner, names)
    fv, bv = info.fv, info.bv
    bit = names.bit(binder)
    out = []
    for ent in sigma:
        xbit, vfv = ent[1], ent[3]
        if xbit == bit:
            continue
        if bit & vfv:
            if names.fast:  # a rename after a short beta step
                raise _LongWay
            new = _fresh(binder, vfv | fv | xbit, names)
            ren = _entry(binder, _made(Var(new), names), names)
            binder, bit = new, ren[3]
            kept, fv, bv = _prune((ren,), fv, bv)
            out += kept
        if fv & xbit:  # _prune's test, inline: every binder visit runs it
            fv = fv & ~xbit | vfv
            bv = (-1 if bv & vfv else bv) | ent[4]
        elif bv & vfv:
            bv = -1
        else:
            continue
        out.append(ent)
    return binder, out


class _Closure(_Node):
    """term[sigma] with sigma not yet applied: the codomain of a split,
    stamped with the masks _prune gives. Only the walk in _normalize
    (nusets.normal) that made it meets it, and it applies sigma there."""

    __slots__ = ("term", "sigma")

    def __init__(self, term, sigma):
        set_term, set_sigma = self._setters
        set_term(self, term)
        set_sigma(self, sigma)


def _closure(term, sigma, names):
    """term[sigma] for the walk: term itself when no entry changes it."""
    info = _info(term, names)
    sigma, fv, bv = _prune(sigma, info.fv, info.bv)
    if not sigma:
        return term
    c = _Closure(term, sigma)
    # _cache, with pp set, as a pending value may hold a product
    _Node._setters[0](c, _Info(names, fv, bv, False, True))
    return c
