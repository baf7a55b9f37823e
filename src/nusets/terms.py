"""Terms of a small dependent type language: nodes, the masks each node
caches, and printing.

The language has just enough structure for the iterated-translation
experiment of nusets.parametricity: the universe, dependent functions,
finite products, variables, and application. Lambdas and projections are
internal only: the normalizer removes every one it can reach, and
printing them uses a non-surface form ("\\x. e", "e.0") meant for
diagnostics. Binders named "_" print as arrows. nusets.normal substitutes
and normalizes, with the pending substitutions of nusets.pending,
nusets.syntax reads the surface text, nusets.hypotheses counts a
telescope's hypotheses, and nusets.telescopes compares telescopes up to
names.
"""

from .errors import UnsupportedConstruct
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
# entries (see nusets.pending), and the masks say, without applying the
# entries, which of them change a subterm and what its free variables
# will be; so each node is rebuilt at most once per walk.
#
# A table gives each name one bit. It belongs to the call that made it
# and to the nodes stamped with it, never to the module, so it lives as
# long as the terms do. A node met under another table is stamped anew.


class _Names:
    """A name table: each name gets one bit, in order of first use.

    It also holds the state of the normalize call under way, fast (see
    _normal_form in nusets.normal): None outside one and when beta steps
    go the long way, else the mask of the binders of the short beta steps
    taken so far."""

    __slots__ = ("bits", "fast")

    def __init__(self):
        self.bits = {}
        self.fast = None

    def bit(self, name):
        b = self.bits.get(name)
        if b is None:
            b = self.bits[name] = 1 << len(self.bits)
        return b


class _Info:
    """What a node caches under one name table: free variables (fv),
    names bound anywhere inside (bv), normal form (nf), and whether a
    product or a projection lies inside, the node included (pp). A
    closure's bv may hold more names than it binds (see _prune in
    nusets.pending)."""

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


# ------------------------------------------------------------ printing


_PREC_TYPE, _PREC_PROD, _PREC_APP, _PREC_ATOM = 0, 1, 2, 3


def print_type(e):
    """The surface text of e. A binder prints as "Pi" when its codomain's
    cached mask has it free, else as an arrow; a spine of binders is read
    in a loop and joined once, so printing is linear in the output."""
    return _print(e, _PREC_TYPE, _table(e))


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
