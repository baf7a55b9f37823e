"""Arity-indexed parametricity translation on a small type language.

The language has just enough structure for the iterated-translation
experiment: the universe, dependent functions, finite products, variables,
and application. The translation of the universe sends a tuple of types to
the space of relations over them; dependent functions translate to the
statement that related arguments go to related results; products translate
componentwise. Iterating from the universe produces the types of the
families X_0, X_1, X_2, ... whose hypothesis counts reproduce the hom
counts of the shape category; that correspondence is the arbiter for every
convention chosen here.

Surface grammar (types and terms share it):

    type  ::=  "Pi" ident ":" arrow "." type  |  arrow
    arrow ::=  prod ("->" arrow)?
    prod  ::=  app ("*" app)*
    app   ::=  atom atom*
    atom  ::=  "U"  |  ident  |  "(" type ("," type)* ")"

A parenthesized comma list is a tuple. Lambdas and projections are
internal only: the normalizer removes every one it can reach, and printing
them uses a non-surface form ("\\x. e", "e.0") meant for diagnostics.
Binders named "_" print as arrows.
"""

import re
from collections import Counter

from .errors import ArityError, NotATelescope, ParseError, UnsupportedConstruct
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
# rescans a term, each node caches one _Info the first time a pass looks
# at it: its free variables and every name bound inside it, as bitmasks
# over a name table, and whether normalize returns it unchanged. It is
# one slot, _cache, which is no field: it stays out of equality, hashing
# and printing, and it is the one slot set after construction.
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
    """A name table: each name gets one bit, in order of first use."""

    __slots__ = ("bits",)

    def __init__(self):
        self.bits = {}

    def bit(self, name):
        b = self.bits.get(name)
        if b is None:
            b = self.bits[name] = 1 << len(self.bits)
        return b

    def decode(self, mask):
        return {name for name, b in self.bits.items() if b & mask}


class _Info:
    """What a node caches under one name table: free variables (fv),
    names bound anywhere inside (bv), and normal form (nf). A closure's
    bv may hold more names than it binds (see _prune)."""

    __slots__ = ("names", "fv", "bv", "nf")

    def __init__(self, names, fv, bv, nf):
        self.names = names
        self.fv = fv
        self.bv = bv
        self.nf = nf


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
    """Cache e's _Info from its children's, which are stamped already.

    nf holds exactly when every child is normal and e is no redex and
    nothing normalize reshapes: no product domain, no projection of a
    tuple, no one-item tuple, no application with no arguments or with
    an application or a lambda as head. Then normalize(e) == e."""
    fv = bv = 0
    nf = True
    for k in kids:
        info = k._cache
        fv |= info.fv
        bv |= info.bv
        nf = nf and info.nf
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
    elif isinstance(e, FamApp):
        nf = nf and bool(e.args) and not isinstance(e.head, (FamApp, Lam))
    info = _Info(names, fv, bv, nf)
    _Node._setters[0](e, info)  # _cache
    return info


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


def free_vars(e):
    """The free variables of e.

    Each node caches in ``_cache`` its free variables and the names bound
    inside it, as bitmasks over a name table, and whether it is normal.
    This reads e's mask; only nodes not yet stamped under e's table are
    scanned, once."""
    names = _table(e)
    return names.decode(_info(e, names).fv)


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
            new = _fresh(binder, vfv | fv | xbit, names)
            ren = _entry(binder, Var(new), names)
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
    _Node._setters[0](c, _Info(names, fv, bv, False))  # _cache
    return c


def subst(e, name, value):
    """Capture-avoiding substitution of value for the free variable.

    A binder that would capture a free variable of value is renamed, even
    where name does not occur below it; those renames give the printed
    names. It is the one-entry case of the substitutions normalize
    carries (see "substitution" above): a subterm the entry does not
    change is returned as it is, so only the paths down to an occurrence
    or a renamed binder are rebuilt."""
    names = _table(e, value)
    return _apply(e, [_entry(name, value, names)], names)


def _apply(e, sigma, names):
    """e[sigma], not normalized."""
    # Binders and applications on the way down, rebuilt on the way back;
    # the loop walks codomains, bodies, heads and the values of
    # variables, so spines do not recurse.
    outer = []
    while True:
        sigma = _reaching(sigma, e, names)
        if not sigma:
            break
        if isinstance(e, (DepFun, Lam)):
            dep = isinstance(e, DepFun)
            inner = e.codomain if dep else e.body
            dom = _apply(e.domain, sigma, names) if dep else None
            binder, sigma = _bind(e.binder, inner, sigma, names)
            outer.append((e, binder, dom))
            e = inner
        elif isinstance(e, FamApp):
            outer.append((e, None, tuple(_apply(a, sigma, names)
                                         for a in e.args)))
            e = e.head
        elif isinstance(e, Var):  # the first entry is e's; the rest go on
            e, sigma = sigma[0][2], sigma[1:]
        elif isinstance(e, Proj):
            e = Proj(e.index, _apply(e.tuple_, sigma, names))
            break
        else:  # Prod or Tuple
            e = type(e)(tuple(_apply(i, sigma, names) for i in e.items))
            break
    for node, binder, part in reversed(outer):
        if isinstance(node, DepFun):
            e = DepFun(binder, part, e)
        elif isinstance(node, Lam):
            e = Lam(binder, e)
        else:
            e = FamApp(e, part)
    return e


# --------------------------------------------------------- normalization


_DEP, _LAM, _APP, _BETA = range(4)


def normalize(e):
    """Beta and projection reduction, plus telescope shaping: a dependent
    function whose domain is a product splits into one binder per factor.
    Terminating on this fragment; idempotent by construction.

    A node whose cached flag says normal (see _stamp) and that no pending
    entry changes is returned at once. The flag is read off the node and
    its children, and it implies normalize(e) == e, so returning e is
    exact."""
    return _normalize(e, _table(e))


def _normalize(e, names, sigma=()):
    """normalize(e[sigma]), where the values of sigma are normal and each
    entry changes e (see _reaching).

    sigma is not applied first: the walk carries it down the spine, and
    each part the walk reaches gets the entries that change it, so
    substituting and normalizing is one pass. A split or a beta step adds
    an entry instead of substituting into the rest of the spine: a split
    for its binder (see _split), a beta step for the lambda's binder over
    the normal body, in a new list, as the body is already normal with
    the outer entries applied. A binder the walk reaches replays the
    rename rule of each entry (_bind); a variable with an entry becomes
    its value, with the entries after it; every other node takes the
    entries with it into its parts."""
    # Contexts still to rebuild, innermost last: a binder over its
    # normalized domain, a lambda, or an application waiting for its
    # head. _APP holds the raw arguments and their entries, normalized
    # once the head is (in that order, as errors must come out in the
    # same order), and flattens the head's spine; _BETA holds the
    # arguments left after a beta step and flattens nothing.
    todo = []
    while True:
        while True:
            if not sigma and _info(e, names).nf:
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
                todo.append((_APP, sigma, e.args))
                e = e.head
                sigma = _reaching(sigma, e, names)
            elif isinstance(e, Var):  # the first entry is e's
                e = sigma[0][2]
                sigma = _reaching(sigma[1:], e, names)
            elif isinstance(e, _Closure):
                sigma = [*e.sigma, *sigma]
                e = e.term
                sigma = _reaching(sigma, e, names)
            else:
                e = _normalize_items(e, names, sigma)
                _info(e, names)
                break
        while todo:
            kind, binder, part = todo.pop()
            if kind == _DEP:
                d, c = part._cache, e._cache
                b = names.bits[binder]
                node = DepFun(binder, part, e)
                # _cache as _stamp sets it, inline as every binder visit
                # builds one; part is never a product here
                _Node._setters[0](node, _Info(
                    names, d.fv | c.fv & ~b, d.bv | c.bv | b, d.nf and c.nf))
                e = node
            elif kind == _LAM:
                node = Lam(binder, e)
                _stamp(node, (e,), names)
                e = node
            else:
                args = part
                if kind == _APP:  # binder holds the arguments' entries
                    args = [_part(a, names, binder) for a in args]
                    while isinstance(e, FamApp):
                        args = list(e.args) + args
                        e = e.head
                if args and isinstance(e, Lam):
                    arg = args.pop(0)
                    todo.append((_BETA, None, args))
                    sigma = _reaching([_entry(e.binder, arg, names)],
                                      e.body, names)
                    e = e.body
                    break  # normalize the contractum, then come back
                if args:
                    args = tuple(args)
                    node = FamApp(e, args)
                    _stamp(node, (e,) + args, names)
                    e = node
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
    tup = Tuple(tuple(Var(nm) for nm in parts))
    body = _closure(cod, [*sigma, _entry(binder, tup, names)], names)
    for nm, item in zip(reversed(parts), reversed(dom.items)):
        body = DepFun(nm, item, body)
    return body


def _normalize_items(e, names, sigma):
    """Normalize a product, tuple or projection with sigma pending."""
    if isinstance(e, Prod):
        return Prod(tuple(_part(i, names, sigma) for i in e.items))
    if isinstance(e, Tuple):
        items = tuple(_part(i, names, sigma) for i in e.items)
        return items[0] if len(items) == 1 else Tuple(items)
    t = _part(e.tuple_, names, sigma)
    if isinstance(t, Tuple):
        if not (0 <= e.index < len(t.items)):
            raise UnsupportedConstruct(
                f"projection {e.index} on width {len(t.items)}")
        return t.items[e.index]
    return Proj(e.index, t)


# ------------------------------------------------------------ translation


def _copy(e, i, nu, env):
    """The i-th copy of a source expression: free variables become their
    i-th copies, bound ones stay put."""
    if isinstance(e, Univ):
        return e
    if isinstance(e, Var):
        if e.name not in env:
            raise UnsupportedConstruct(f"free variable {e.name}")
        return env[e.name][0][i]
    if isinstance(e, DepFun):
        env2 = dict(env)
        env2[e.binder] = ((Var(e.binder),) * nu, None)
        return DepFun(e.binder, _copy(e.domain, i, nu, env),
                      _copy(e.codomain, i, nu, env2))
    if isinstance(e, Prod):
        return Prod(tuple(_copy(x, i, nu, env) for x in e.items))
    if isinstance(e, FamApp):
        return FamApp(_copy(e.head, i, nu, env),
                      tuple(_copy(a, i, nu, env) for a in e.args))
    if isinstance(e, Tuple):
        return Tuple(tuple(_copy(x, i, nu, env) for x in e.items))
    if isinstance(e, Proj):
        return Proj(e.index, _copy(e.tuple_, i, nu, env))
    raise UnsupportedConstruct(
        f"cannot copy {type(e).__name__} in the translated fragment")


def translate(T, nu, env=None):
    """The arity-nu relational interpretation of a type.

    env maps each free variable to (its nu copies, its witness). The
    result, applied to a nu-tuple of copies of T's inhabitants, is the
    type of witnesses relating them. Fresh names avoid the names of env
    and the free variables of T and of env's terms, read as masks.
    """
    if env is None:
        env = {}
    names = _table(T)
    return _translate(T, nu, env, _env_mask(env, names), names)


def _env_mask(env, names):
    """The names of env and the free variables of its copies and
    witnesses, as a mask."""
    mask = 0
    for name, (copies, witness) in env.items():
        mask |= names.bit(name)
        for c in copies:
            mask |= _info(c, names).fv
        if witness is not None:
            mask |= _info(witness, names).fv
    return mask


def _translate(T, nu, env, env_mask, names):
    # A dependent function's codomain is translated under one more binder
    # and wrapped in the binder's witness; the loop walks that spine and
    # wraps on the way back, so a long telescope does not recurse.
    outer = []
    while isinstance(T, DepFun):
        avoid = env_mask | _info(T, names).fv
        f = _fresh("f", avoid, names)
        avoid |= names.bit(f)
        abar = _fresh(T.binder, avoid, names)
        avoid |= names.bit(abar)
        astar = _fresh(T.binder + "s", avoid, names)
        dom = _prod([_copy(T.domain, i, nu, env) for i in range(nu)])
        projs = [_proj(i, Var(abar), nu) for i in range(nu)]
        dstar = FamApp(_translate(T.domain, nu, env, env_mask, names),
                       (_tuple(projs),))
        applied = _tuple([App(_proj(i, Var(f), nu), projs[i])
                          for i in range(nu)])
        outer.append((f, abar, dom, astar, dstar, applied))
        entry = {T.binder: (tuple(projs), Var(astar))}
        shadows = T.binder in env  # then the old entry's names go
        env = {**env, **entry}
        env_mask = (_env_mask(env, names) if shadows
                    else env_mask | _env_mask(entry, names))
        T = T.codomain
    out = _translate_other(T, nu, env, env_mask, names)
    for f, abar, dom, astar, dstar, applied in reversed(outer):
        cstar = FamApp(out, (applied,))
        out = Lam(f, DepFun(abar, dom, DepFun(astar, dstar, cstar)))
    return out


def _translate_other(T, nu, env, env_mask, names):
    """_translate of anything but a dependent function."""
    avoid = env_mask | _info(T, names).fv

    if isinstance(T, Univ):
        a = _fresh("A", avoid, names)
        return Lam(a, DepFun(
            "_", _prod([_proj(i, Var(a), nu) for i in range(nu)]), Univ()))

    if isinstance(T, Var):
        copies, witness = env.get(T.name, ((), None))
        if witness is None:
            raise UnsupportedConstruct(
                f"variable {T.name} has no relational witness")
        return witness

    if isinstance(T, Prod):
        p = _fresh("p", avoid, names)
        width = len(T.items)
        comps = []
        for j, item in enumerate(T.items):
            picks = _tuple([_proj(j, _proj(i, Var(p), nu), width)
                            for i in range(nu)])
            comps.append(FamApp(_translate(item, nu, env, env_mask, names),
                                (picks,)))
        return Lam(p, _prod(comps))

    if isinstance(T, FamApp):
        out = _translate(T.head, nu, env, env_mask, names)
        for a in T.args:
            copies = _tuple([_copy(a, i, nu, env) for i in range(nu)])
            out = FamApp(out, (copies,
                               _translate(a, nu, env, env_mask, names)))
        return out

    if isinstance(T, Tuple):
        return Tuple(tuple(_translate(x, nu, env, env_mask, names)
                           for x in T.items))

    raise UnsupportedConstruct(
        f"cannot translate {type(T).__name__} in this fragment")


def iterate_types(nu, steps):
    """The normalized type of the family X_steps.

    Start from the universe; each step applies the translation of the
    previous type to the diagonal tuple of the previous family. One name
    table serves every step, so each step reads the masks the last one
    cached.
    """
    if nu < 1:
        raise ArityError(f"arity must be >= 1, got {nu}")
    names = _Names()
    S = Univ()
    for k in range(steps):
        env = {f"X{j}": (tuple(Var(f"X{j}") for _ in range(nu)),
                         Var(f"X{j + 1}"))
               for j in range(k)}
        t = _translate(S, nu, env, _env_mask(env, names), names)
        diag = _tuple([Var(f"X{k}") for _ in range(nu)])
        S = _normalize(FamApp(t, (diag,)), names)
    return S


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


def _shape(e, env):
    """e as a flat tuple of tokens in preorder, for comparing terms up to
    the names of their bound variables (de Bruijn's nameless dummies).

    A node gives its class, then its width (a projection its index), then
    its children; a variable gives one token. A name bound inside e
    becomes the position of its binder's token, a name in env becomes
    env's value, any other name stays as it is. Iterative, and a flat
    tuple compares without recursion, so long spines are fine."""
    out = []
    bound = {}  # name -> token positions of the binders in scope
    todo = [e]
    while todo:
        e = todo.pop()
        if type(e) is tuple:  # (name, position) opens a scope, (name,) ends it
            if len(e) == 2:
                bound.setdefault(e[0], []).append(e[1])
            else:
                bound[e[0]].pop()
        elif isinstance(e, Var):
            scope = bound.get(e.name)
            out.append(scope[-1] if scope else env.get(e.name, e.name))
        else:
            kids = _kids(e)
            out.append(type(e))
            if isinstance(e, (DepFun, Lam)):
                # a domain lies outside the binder's scope, the body inside
                todo += [(e.binder,), kids[-1], (e.binder, len(out) - 1)]
                todo += kids[:-1]
            else:
                out.append(e.index if isinstance(e, Proj) else len(kids))
                todo += reversed(kids)
    return tuple(out)


def alpha_eq(a, b):
    """Structural equality up to renaming of bound variables: each bound
    variable is compared by the position of its binder."""
    return _shape(a, {}) == _shape(b, {})


def _splice(e):
    """Flatten application spines: tuple arguments become plain curried
    arguments, so "X1 (a, b)" and "X1 a b" compare equal. Used only for
    telescope comparison; tuples elsewhere are left alone."""
    if isinstance(e, FamApp):
        args = []
        for a in e.args:
            a = _splice(a)
            if isinstance(a, Tuple):
                args.extend(a.items)
            else:
                args.append(a)
        return FamApp(_splice(e.head), tuple(args))
    if isinstance(e, Tuple):
        return Tuple(tuple(_splice(i) for i in e.items))
    if isinstance(e, Prod):
        return Prod(tuple(_splice(i) for i in e.items))
    if isinstance(e, DepFun):
        return DepFun(e.binder, _splice(e.domain), _splice(e.codomain))
    if isinstance(e, Lam):
        return Lam(e.binder, _splice(e.body))
    if isinstance(e, Proj):
        return Proj(e.index, _splice(e.tuple_))
    return e


def _hypotheses(T):
    """The domains of T's normalized telescope as shapes, spines spliced.
    A name bound by an earlier hypothesis becomes that hypothesis's
    position, as a 1-tuple; a later binder of the same name shadows it.
    Returns the shapes, the positions some later domain refers to (in
    order), and the shapes of the other hypotheses."""
    scope, shapes = {}, []
    for i, (name, dom) in enumerate(flatten_telescope(normalize(T))):
        shapes.append(_shape(_splice(dom), scope))
        scope[name] = (i,)
    used = {t for dom in shapes for t in dom if type(t) is tuple}
    return shapes, sorted(used), [d for i, d in enumerate(shapes)
                                  if (i,) not in used]


def same_telescope(a, b):
    """Equality of two telescopes up to binder renaming, hypothesis
    reordering, and currying of application arguments.

    Hypotheses are compared by binder position: each domain is read with
    the hypotheses before it in scope. Those referred to by a later
    domain must correspond one to one; they are matched in order, with
    backtracking. The rest are compared as a multiset. Domains must match
    under the correspondence after their application spines are
    flattened.
    """
    (ha, named_a, anon_a), (hb, named_b, anon_b) = (_hypotheses(a),
                                                    _hypotheses(b))
    if len(ha) != len(hb) or len(named_a) != len(named_b):
        return False
    want = Counter(anon_b)
    mapping = {}  # a hypothesis of named_a -> the one of named_b it matches
    stack = []  # for each matched one of named_a, its index in named_b
    taken = set()  # the indices on the stack

    def rename(dom):
        return tuple(mapping.get(t, t) for t in dom)

    start = 0
    while True:
        k = len(stack)
        if k == len(named_a):
            if Counter(map(rename, anon_a)) == want:
                return True
            c = None
        else:
            target = rename(ha[named_a[k][0]])
            c = next((c for c in range(start, len(named_b)) if c not in taken
                      and hb[named_b[c][0]] == target), None)
        if c is not None:
            stack.append(c)
            taken.add(c)
            mapping[named_a[k]] = named_b[c]
            start = 0
        elif not stack:
            return False
        else:
            c = stack.pop()
            taken.remove(c)
            del mapping[named_a[k - 1]]
            start = c + 1


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


# ------------------------------------------------------------ parsing


_TOKEN = re.compile(r"->|[()*:.,]|[A-Za-z_][A-Za-z0-9_]*|\S")


def _tokenize(text):
    tokens = []
    for ln, line in enumerate(text.splitlines() or [""], start=1):
        for m in _TOKEN.finditer(line):
            tok = m.group(0)
            if tok not in ("->", "(", ")", "*", ":", ".", ",") \
                    and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
                raise ParseError(f"stray character {tok!r}",
                                 line=ln, col=m.start() + 1)
            tokens.append((tok, ln, m.start() + 1))
    tokens.append((None, ln if text else 1,
                   len(text.splitlines()[-1]) + 1 if text else 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, what):
        tok, ln, col = self.next()
        if tok != what:
            raise ParseError(f"expected {what!r}, found {tok!r}",
                             line=ln, col=col)

    def error(self, message):
        _, ln, col = self.tokens[self.pos]
        raise ParseError(message, line=ln, col=col)

    def type_(self):
        return self._spine([])

    def arrow(self):
        left = self.prod()
        if self.peek() == "->":
            self.next()
            return self._spine([("_", left)])
        return left

    def _spine(self, binders):
        """The rest of a type after the given (binder, domain) pairs: read
        "Pi x:A." and "A ->" in a loop, so a long telescope does not
        recurse, then nest the binders around the final product."""
        while True:
            if self.peek() == "Pi":
                self.next()
                tok, ln, col = self.next()
                if tok is None or not re.fullmatch(r"[A-Za-z_]\w*", tok) \
                        or tok in ("Pi", "U"):
                    raise ParseError(f"expected binder name, found {tok!r}",
                                     line=ln, col=col)
                self.expect(":")
                dom = self.arrow()
                self.expect(".")
                binders.append((tok, dom))
                continue
            out = self.prod()
            if self.peek() != "->":
                break
            self.next()
            binders.append(("_", out))
        for binder, dom in reversed(binders):
            out = DepFun(binder, dom, out)
        return out

    def prod(self):
        items = [self.app()]
        while self.peek() == "*":
            self.next()
            items.append(self.app())
        return items[0] if len(items) == 1 else Prod(tuple(items))

    def app(self):
        head = self.atom()
        args = []
        while self.peek() == "(" or self._at_ident() or self.peek() == "U":
            args.append(self.atom())
        return FamApp(head, tuple(args)) if args else head

    def _at_ident(self):
        tok = self.peek()
        return (tok is not None and re.fullmatch(r"[A-Za-z_]\w*", tok)
                and tok != "Pi")

    def atom(self):
        tok, ln, col = self.next()
        if tok == "U":
            return Univ()
        if tok == "(":
            items = [self.type_()]
            while self.peek() == ",":
                self.next()
                items.append(self.type_())
            self.expect(")")
            return items[0] if len(items) == 1 else Tuple(tuple(items))
        if tok is not None and re.fullmatch(r"[A-Za-z_]\w*", tok) \
                and tok != "Pi":
            return Var(tok)
        raise ParseError(f"expected a type, found {tok!r}", line=ln, col=col)


def parse_type(text):
    p = _Parser(text)
    out = p.type_()
    tok, ln, col = p.tokens[p.pos]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", line=ln, col=col)
    return out
