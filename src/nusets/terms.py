"""Terms of a small dependent type language: nodes, the masks each node
caches, substitution, normalization and printing.

The language has just enough structure for the iterated-translation
experiment of nusets.parametricity: the universe, dependent functions,
finite products, variables, and application. Lambdas and projections are
internal only: the normalizer removes every one it can reach, and
printing them uses a non-surface form ("\\x. e", "e.0") meant for
diagnostics. Binders named "_" print as arrows. nusets.syntax reads the
surface text, and nusets.telescopes compares terms up to names.
"""

import re

from .errors import NotATelescope, UnsupportedConstruct
from .frozen import Record


# ------------------------------------------------------------------ AST
#
# Nodes are records (frozen.Record): equal and hashed by their fields and
# written as constructor calls, ``Var(name='X')``. Besides its fields a
# node has one slot, _cache (see "scoping" below).


class _Node(Record):
    __slots__ = ("_cache",)


class Univ(_Node):
    __slots__ = ()


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self._setters[0](self, name)


class DepFun(_Node):
    __slots__ = ("binder", "domain", "codomain")

    def __init__(self, binder, domain, codomain):
        set_binder, set_domain, set_codomain = self._setters
        set_binder(self, binder)
        set_domain(self, domain)
        set_codomain(self, codomain)


class Prod(_Node):
    """n-ary product type, width >= 2."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = tuple(items)
        if len(items) < 2:
            raise UnsupportedConstruct("product needs at least two factors")
        self._setters[0](self, items)


class FamApp(_Node):
    """Application of a family (or any function) to a spine of arguments."""

    __slots__ = ("head", "args")

    def __init__(self, head, args):
        set_head, set_args = self._setters
        set_head(self, head)
        set_args(self, tuple(args))


class Lam(_Node):
    __slots__ = ("binder", "body")

    def __init__(self, binder, body):
        set_binder, set_body = self._setters
        set_binder(self, binder)
        set_body(self, body)


class Tuple(_Node):
    __slots__ = ("items",)

    def __init__(self, items):
        self._setters[0](self, tuple(items))


class Proj(_Node):
    __slots__ = ("index", "tuple_")

    def __init__(self, index, tuple_):
        set_index, set_tuple = self._setters
        set_index(self, index)
        set_tuple(self, tuple_)


def App(fun, arg):
    """Single-argument application."""
    return FamApp(fun, (arg,))


def Pair(left, right):
    return Tuple((left, right))


def _tuple(items):
    items = tuple(items)
    return items[0] if len(items) == 1 else Tuple(items)


def _proj(i, t, width):
    return t if width == 1 else Proj(i, t)


def _prod(items):
    items = tuple(items)
    return items[0] if len(items) == 1 else Prod(items)


# ------------------------------------------------------------ scoping
#
# Terms stay named, because the printed names are output: they come from
# the order of the capture-avoiding renames below. So that no pass
# rescans a term, each node caches one _Info when the reader, the
# translation or the normalizer builds it (_made), or else the first time
# a pass looks at it (_scan): its free variables and every name bound
# inside it, as bitmasks over a name table, whether normalize returns it
# unchanged, and whether a product or a projection lies in it. It is one
# slot, _cache, which is no field: it stays out of equality, hashing and
# printing, and it is the one slot set after construction.
#
# Normalization does not substitute into a term and then walk the
# result. It walks the term with the substitution pending, a list of
# entries (see "substitution"), and the masks say, without applying the
# entries, which of them change a subterm and what its free variables
# will be; so each node is rebuilt at most once per walk.
#
# A table gives each name one bit. It belongs to the call that made it
# and to the nodes stamped with it, never to the module, so it lives as
# long as the terms do. A node met under another table is stamped anew.


class _Names:
    """A name table: each name gets one bit, in order of first use.

    It also holds the state of the normalize call under way, fast (see
    _normal_form): None outside one and when beta steps go the long way,
    else the mask of the binders of the short beta steps taken so far."""

    __slots__ = ("bits", "fast")

    def __init__(self):
        self.bits = {}
        self.fast = None

    def bit(self, name):
        b = self.bits.get(name)
        if b is None:
            b = self.bits[name] = 1 << len(self.bits)
        return b

    def decode(self, mask):
        return {name for name, b in self.bits.items() if b & mask}


class _Info:
    """What a node caches under one name table: free variables (fv),
    names bound anywhere inside (bv), normal form (nf), and whether a
    product or a projection lies inside, the node included (pp). A
    closure's bv may hold more names than it binds (see _prune)."""

    __slots__ = ("names", "fv", "bv", "nf", "pp")

    def __init__(self, names, fv, bv, nf, pp):
        self.names = names
        self.fv = fv
        self.bv = bv
        self.nf = nf
        self.pp = pp


def _table(*terms):
    """The name table of the first of the terms that has one, else a new
    one: a term's masks travel with it from call to call."""
    for t in terms:
        info = getattr(t, "_cache", None)
        if info is not None:
            return info.names
    return _Names()


def _info(e, names):
    """e's _Info under names, stamping e and what lies below it first if
    it has none."""
    info = getattr(e, "_cache", None)
    if info is not None and info.names is names:
        return info
    return _scan(e, names)


def _kids(e):
    """The children of a node, in field order."""
    if isinstance(e, (Var, Univ)):
        return ()
    if isinstance(e, DepFun):
        return (e.domain, e.codomain)
    if isinstance(e, Lam):
        return (e.body,)
    if isinstance(e, (Prod, Tuple)):
        return e.items
    if isinstance(e, FamApp):
        return (e.head,) + e.args
    if isinstance(e, Proj):
        return (e.tuple_,)
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")


def _stamp(e, kids, names):
    """Cache e's _Info from its children's, which are stamped already, and
    return e.

    nf holds exactly when every child is normal and e is no redex and
    nothing normalize reshapes: no product domain, no projection of a
    tuple, no one-item tuple, no application with no arguments or with
    an application or a lambda as head. Then normalize(e) == e."""
    fv = bv = 0
    nf, pp = True, False
    for k in kids:
        info = k._cache
        fv |= info.fv
        bv |= info.bv
        nf = nf and info.nf
        pp = pp or info.pp
    if isinstance(e, Var):
        fv = names.bit(e.name)
    elif isinstance(e, DepFun):
        b = names.bit(e.binder)
        fv = e.domain._cache.fv | (e.codomain._cache.fv & ~b)
        bv |= b
        nf = nf and not isinstance(e.domain, Prod)
    elif isinstance(e, Lam):
        b = names.bit(e.binder)
        fv &= ~b
        bv |= b
    elif isinstance(e, Tuple):
        nf = nf and len(e.items) != 1
    elif isinstance(e, Proj):
        nf = nf and not isinstance(e.tuple_, Tuple)
        pp = True
    elif isinstance(e, FamApp):
        nf = nf and bool(e.args) and not isinstance(e.head, (FamApp, Lam))
    elif isinstance(e, Prod):
        pp = True
    _Node._setters[0](e, _Info(names, fv, bv, nf, pp))  # _cache
    return e


def _made(e, names):
    """e, a node just built from children stamped under names, stamped."""
    return _stamp(e, _kids(e), names)


def _scan(e, names):
    """Stamp e and every node below it not stamped under names; return
    e's _Info. Iterative, so a long spine does not recurse."""
    todo = [e]
    while todo:
        node = todo[-1]
        kids = _kids(node)
        waiting = False
        for k in kids:
            info = getattr(k, "_cache", None)
            if info is None or info.names is not names:
                todo.append(k)
                waiting = True
        if waiting:
            continue
        todo.pop()
        info = getattr(node, "_cache", None)
        if info is None or info.names is not names:
            _stamp(node, kids, names)
    return e._cache


def _fresh(base, avoid, names):
    """base, or base2, base3, ...: the first whose bit is not in avoid."""
    base = base.rstrip("0123456789")
    if base in ("", "_"):
        base = "x"
    bits = names.bits
    if not bits.get(base, 0) & avoid:
        return base
    k = 2
    while bits.get(f"{base}{k}", 0) & avoid:
        k += 1
    return f"{base}{k}"


# ---------------------------------------------------------- substitution
#
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
    stamped with the masks _prune gives. Only the walk in _normalize that
    made it meets it, and it applies sigma there."""

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


# --------------------------------------------------------- normalization


_DEP, _LAM, _APP = range(3)


class _LongWay(Exception):
    """Raised when a short beta step may have changed a printed name."""


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
    result is stamped."""
    if isinstance(e, Prod):
        return _made(Prod(tuple(_part(i, names, sigma) for i in e.items)),
                     names)
    if isinstance(e, Tuple):
        items = tuple(_part(i, names, sigma) for i in e.items)
        return items[0] if len(items) == 1 else _made(Tuple(items), names)
    t = _part(e.tuple_, names, sigma)
    if isinstance(t, Tuple):
        if not (0 <= e.index < len(t.items)):
            raise UnsupportedConstruct(
                f"projection {e.index} on width {len(t.items)}")
        return t.items[e.index]
    return _made(Proj(e.index, t), names)


# ------------------------------------------------------------ telescopes


def _atom_level(d):
    """Level p when d is X_p or X_p applied to arguments, else None."""
    head = d
    if isinstance(head, FamApp):
        head = head.head
    if isinstance(head, Var) and re.fullmatch(r"X\d+", head.name):
        return int(head.name[1:])
    return None


def flatten_telescope(T):
    """The binder list of a normalized telescope ending in the universe.

    Returns a list of (binder name, domain); raises NotATelescope when the
    spine deviates from that shape.
    """
    out = []
    while isinstance(T, DepFun):
        out.append((T.binder, T.domain))
        T = T.codomain
    if not isinstance(T, Univ):
        raise NotATelescope(
            f"telescope must end in the universe, found {type(T).__name__}")
    return out


def telescope_stats(T):
    """Hypothesis counts of a normalized telescope, keyed by family level."""
    stats = {}
    for _, dom in flatten_telescope(T):
        level = _atom_level(dom)
        if level is None:
            raise NotATelescope(f"domain is not a family atom: {dom!r}")
        stats[level] = stats.get(level, 0) + 1
    return stats


# ------------------------------------------------------------ printing


_PREC_TYPE, _PREC_PROD, _PREC_APP, _PREC_ATOM = 0, 1, 2, 3


def print_type(e, prec=_PREC_TYPE):
    """The surface text of e. A binder prints as "Pi" when its codomain's
    cached mask has it free, else as an arrow; a spine of binders is read
    in a loop and joined once, so printing is linear in the output."""
    return _print(e, prec, _table(e))


def _print(e, prec, names):
    if isinstance(e, Univ):
        return "U"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, DepFun):
        parts = []
        while isinstance(e, DepFun):
            dom = _print(e.domain, _PREC_PROD, names)
            if names.bit(e.binder) & _info(e.codomain, names).fv:
                parts.append(f"Pi {e.binder}:{dom}. ")
            else:
                parts.append(f"{dom} -> ")
            e = e.codomain
        parts.append(_print(e, _PREC_TYPE, names))
        body = "".join(parts)
        return f"({body})" if prec > _PREC_TYPE else body
    if isinstance(e, Prod):
        body = " * ".join(_print(i, _PREC_APP, names) for i in e.items)
        return f"({body})" if prec > _PREC_PROD else body
    if isinstance(e, FamApp):
        parts = [_print(e.head, _PREC_APP, names)]
        parts += [_print(a, _PREC_ATOM, names) for a in e.args]
        body = " ".join(parts)
        return f"({body})" if prec > _PREC_APP else body
    if isinstance(e, Tuple):
        return "(" + ", ".join(_print(i, _PREC_TYPE, names)
                               for i in e.items) + ")"
    if isinstance(e, Lam):
        return f"(\\{e.binder}. {_print(e.body, _PREC_TYPE, names)})"
    if isinstance(e, Proj):
        return f"{_print(e.tuple_, _PREC_ATOM, names)}.{e.index}"
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")
