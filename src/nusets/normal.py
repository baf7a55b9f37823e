"""Substitution and normalization of the terms of nusets.terms.

A substitution is never applied by walking a term and then walking the
result: normalize carries it, pending, down the spine, and the masks
each node caches (see "scoping" in nusets.terms) say which of its
entries change a subterm. So substituting and normalizing is one pass.
The entries, and the rename rule a binder replays, are in
nusets.pending.
"""

from .errors import UnsupportedConstruct
from .pending import (
    _Closure, _LongWay, _bind, _closure, _entry, _prune, _reaching,
)
from .terms import (
    DepFun, FamApp, Lam, Prod, Proj, Tuple, Var, _fresh, _info, _made, _stamp,
    _table,
)


_DEP, _LAM, _APP = range(3)


def normalize(e):
    """Beta and projection reduction, plus telescope shaping: a dependent
    function whose domain is a product splits into one binder per factor.
    Terminating on this fragment.

    A node whose cached flag says normal (see _stamp) and that no pending
    entry changes is returned at once. The flag is read off the node and
    its children, and it implies normalize(e) == e, so returning e is
    exact. Every node the walk builds is stamped, and a beta step that
    leaves arguments flattens the spine it builds, so the result's flag
    says normal: normalize(normalize(e)) is normalize(e)."""
    return _normal_form(e, _table(e))


def _normal_form(e, names):
    """normalize(e) under names, with short beta steps where they apply.

    For (\\x. B) a, the long way normalizes the lambda, then walks its
    normal body again with x := a: for a unary iterate, whose lambdas nest
    one per hypothesis, that rebuilds about binders squared nodes. A
    short step normalizes a first, then walks the raw B once with the
    outer entries and x := a. It applies where no product or projection
    lies in the redex, nor then in a pending value (see _normalize), so
    nothing splits and nothing raises and the order of the parts does not
    matter; where a is binder-free; where the outer entries keep the
    lambda's binder; and where no binder of B is free in a (the new entry
    renames nothing).

    The two ways then give the same names as long as, from the first
    short step on, no binder is renamed (_bind) and no binder named like
    a short step's x is left in the result (_survive; the long way renames
    one where an argument has that x free). If either fails, the call
    starts again, the long way."""
    names.fast = 0
    try:
        return _normalize(e, names)
    except _LongWay:
        names.fast = None
        return _normalize(e, names)
    finally:
        names.fast = None


def _survive(bv, names):
    """Check that no name in bv, bound in the result, is one a short beta
    step substituted for (see _normal_form)."""
    fast = names.fast
    if fast and bv & fast:
        raise _LongWay


def _normalize(e, names, sigma=()):
    """normalize(e[sigma]), where the values of sigma are normal and each
    entry changes e (see _reaching).

    sigma is not applied first: the walk carries it down the spine, and
    each part the walk reaches gets the entries that change it, so
    substituting and normalizing is one pass. A split or a beta step adds
    an entry instead of substituting into the rest of the spine: a split
    for its binder (see _split), a beta step for the lambda's binder,
    over the raw body with the outer entries for a short step (see
    _normal_form), else over the normal body in a new list, as the body
    is already normal with the outer entries applied. A binder the walk
    reaches replays the rename rule of each entry (_bind); a variable with
    an entry becomes its value, with the entries after it; every other
    node takes the entries with it into its parts."""
    # Contexts still to rebuild, innermost last: a binder over its
    # normalized domain, a lambda, or an application waiting for its
    # head. _APP holds the arguments and their entries: raw arguments are
    # normalized once the head is (in that order, as errors must come out
    # in the same order); normal ones, which a beta step leaves, have
    # None. It flattens the head's spine, then takes a beta step if the
    # head is a lambda.
    todo = []
    while True:
        while True:
            if not sigma:
                info = _info(e, names)
                if info.nf:
                    _survive(info.bv, names)
                    break
            if isinstance(e, DepFun):
                dom = _part(e.domain, names, sigma)
                binder, sigma = _bind(e.binder, e.codomain, sigma, names)
                if isinstance(dom, Prod):
                    e, sigma = _split(binder, dom, e.codomain, sigma, names), ()
                    continue
                todo.append((_DEP, binder, dom))
                e = e.codomain
            elif isinstance(e, Lam):
                binder, sigma = _bind(e.binder, e.body, sigma, names)
                todo.append((_LAM, binder, None))
                e = e.body
            elif isinstance(e, FamApp):
                head = e.head
                if type(head) is not Lam or names.fast is None or e._cache.pp:
                    todo.append((_APP, sigma, e.args))
                    e = head
                    sigma = _reaching(sigma, e, names)
                    continue
                # No product or projection lies in the redex, nor in a
                # pending value: short steps, splits and renames add
                # values free of them, and the only other entries come
                # from a rebuild's beta step, which walks a normal body.
                # That holds no applied lambda, so its walk takes no
                # short step. Nothing can raise: the arguments go first.
                args = [_part(a, names, sigma) for a in e.args]
                sigma = _reaching(sigma, head, names)
                binder, inner = _bind(head.binder, head.body, sigma, names)
                a, b = args[0]._cache, head.body._cache
                if (binder != head.binder or a.bv
                        or _prune(inner, b.fv, b.bv)[2] & a.fv):
                    todo.append((_APP, None, args))
                    e = head
                    continue
                names.fast |= names.bits[binder]
                todo.append((_APP, None, args[1:]))
                e = head.body
                sigma = _reaching([*inner, _entry(binder, args[0], names)],
                                  e, names)
            elif isinstance(e, Var):  # the first entry is e's
                e = sigma[0][2]
                sigma = _reaching(sigma[1:], e, names)
            elif isinstance(e, _Closure):
                sigma = [*e.sigma, *sigma]
                e = e.term
                sigma = _reaching(sigma, e, names)
            else:
                e = _normalize_items(e, names, sigma)
                break
        while todo:
            kind, binder, part = todo.pop()
            if kind == _DEP:
                _survive(names.bits[binder], names)
                e = _stamp(DepFun(binder, part, e), (part, e), names)
            elif kind == _LAM:
                _survive(names.bits[binder], names)
                e = _stamp(Lam(binder, e), (e,), names)
            else:
                args = part
                if binder is not None:  # the arguments' entries
                    args = [_part(a, names, binder) for a in args]
                while args and isinstance(e, FamApp):
                    args = [*e.args, *args]
                    e = e.head
                if args and isinstance(e, Lam):
                    todo.append((_APP, None, args[1:]))
                    sigma = _reaching([_entry(e.binder, args[0], names)],
                                      e.body, names)
                    e = e.body
                    break  # normalize the contractum, then come back
                if args:
                    e = _stamp(FamApp(e, args), (e, *args), names)
        else:
            return e


def _part(e, names, sigma):
    """normalize(e[sigma]) for a domain, an argument or an item: e itself
    when it is normal and no entry changes it. Every node it returns is
    stamped, so the walk stamps what it builds from its children."""
    info = _info(e, names)
    if sigma:
        sigma = _prune(sigma, info.fv, info.bv)[0]
    if not sigma and info.nf:
        _survive(info.bv, names)
        return e
    return _normalize(e, names, sigma)


def _split(binder, dom, cod, sigma, names):
    """Pi x:(A * B). C, with sigma pending on C, becomes
    Pi x2:A. Pi x3:B. C[sigma][(x2, x3)/x].

    The fresh names avoid the free variables of C[sigma], which _prune
    reads off the masks without applying sigma. The codomain is not
    rebuilt: it is a closure with the entry for x added to sigma, which
    the walk applies when it gets there."""
    info = _info(cod, names)
    avoid = (_prune(sigma, info.fv, info.bv)[1] | _info(dom, names).fv
             | names.bit(binder))
    parts = []
    for _ in dom.items:
        nm = _fresh(binder, avoid, names)
        avoid |= names.bit(nm)
        parts.append(nm)
    tup = _made(Tuple(tuple(_made(Var(nm), names) for nm in parts)), names)
    body = _closure(cod, [*sigma, _entry(binder, tup, names)], names)
    for nm, item in zip(reversed(parts), reversed(dom.items)):
        body = _made(DepFun(nm, item, body), names)
    return body


def _normalize_items(e, names, sigma):
    """Normalize a product, tuple or projection with sigma pending; the
    result is stamped. A one-item tuple is its item (a product has two
    or more)."""
    if isinstance(e, (Prod, Tuple)):
        items = tuple(_part(i, names, sigma) for i in e.items)
        return items[0] if len(items) == 1 else _made(type(e)(items), names)
    t = _part(e.tuple_, names, sigma)
    if isinstance(t, Tuple):
        if not (0 <= e.index < len(t.items)):
            raise UnsupportedConstruct(
                f"projection {e.index} on width {len(t.items)}")
        return t.items[e.index]
    return _made(Proj(e.index, t), names)
