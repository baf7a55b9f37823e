"""Telescopes up to names (``same_telescope``), which no command runs."""

from collections import Counter

from .hypotheses import flatten_telescope
from .normal import normalize
from .terms import DepFun, FamApp, Lam, Prod, Proj, Tuple, Var, _kids


# ------------------------------------------------------------ alpha


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
