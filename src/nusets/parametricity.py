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
from dataclasses import dataclass

from .errors import ArityError, NotATelescope, ParseError, UnsupportedConstruct


# ------------------------------------------------------------------ AST


@dataclass(frozen=True)
class Univ:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class DepFun:
    binder: str
    domain: object
    codomain: object


@dataclass(frozen=True)
class Prod:
    """n-ary product type, width >= 2."""

    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise UnsupportedConstruct("product needs at least two factors")


@dataclass(frozen=True)
class FamApp:
    """Application of a family (or any function) to a spine of arguments."""

    head: object
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Lam:
    binder: str
    body: object


@dataclass(frozen=True)
class Tuple:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Proj:
    index: int
    tuple_: object


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


def free_vars(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Univ):
        return set()
    if isinstance(e, DepFun):
        return free_vars(e.domain) | (free_vars(e.codomain) - {e.binder})
    if isinstance(e, Lam):
        return free_vars(e.body) - {e.binder}
    if isinstance(e, Prod):
        return set().union(*map(free_vars, e.items))
    if isinstance(e, Tuple):
        return set().union(*map(free_vars, e.items)) if e.items else set()
    if isinstance(e, FamApp):
        return free_vars(e.head).union(*map(free_vars, e.args)) \
            if e.args else free_vars(e.head)
    if isinstance(e, Proj):
        return free_vars(e.tuple_)
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")


def _fresh(base, avoid):
    base = base.rstrip("0123456789")
    if base in ("", "_"):
        base = "x"
    if base not in avoid:
        return base
    k = 2
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def subst(e, name, value):
    """Capture-avoiding substitution of value for the free variable."""
    if isinstance(e, Var):
        return value if e.name == name else e
    if isinstance(e, Univ):
        return e
    if isinstance(e, (DepFun, Lam)):
        binder, inner = (e.binder, e.codomain if isinstance(e, DepFun)
                         else e.body)
        if binder == name:
            new_inner = inner
            new_binder = binder
        else:
            if binder in free_vars(value):
                new_binder = _fresh(
                    binder, free_vars(value) | free_vars(inner) | {name})
                inner = subst(inner, binder, Var(new_binder))
            else:
                new_binder = binder
            new_inner = subst(inner, name, value)
        if isinstance(e, DepFun):
            return DepFun(new_binder, subst(e.domain, name, value), new_inner)
        return Lam(new_binder, new_inner)
    if isinstance(e, Prod):
        return Prod(tuple(subst(i, name, value) for i in e.items))
    if isinstance(e, Tuple):
        return Tuple(tuple(subst(i, name, value) for i in e.items))
    if isinstance(e, FamApp):
        return FamApp(subst(e.head, name, value),
                      tuple(subst(a, name, value) for a in e.args))
    if isinstance(e, Proj):
        return Proj(e.index, subst(e.tuple_, name, value))
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")


# --------------------------------------------------------- normalization


def normalize(e):
    """Beta and projection reduction, plus telescope shaping: a dependent
    function whose domain is a product splits into one binder per factor.
    Terminating on this fragment; idempotent by construction."""
    if isinstance(e, (Univ, Var)):
        return e
    if isinstance(e, DepFun):
        dom = normalize(e.domain)
        if isinstance(dom, Prod):
            avoid = (free_vars(e.codomain) | free_vars(dom)
                     | {e.binder})
            parts = []
            for item in dom.items:
                nm = _fresh(e.binder, avoid)
                avoid.add(nm)
                parts.append(nm)
            body = subst(e.codomain, e.binder,
                         Tuple(tuple(Var(nm) for nm in parts)))
            for nm, item in zip(reversed(parts), reversed(dom.items)):
                body = DepFun(nm, item, body)
            return normalize(body)
        return DepFun(e.binder, dom, normalize(e.codomain))
    if isinstance(e, Lam):
        return Lam(e.binder, normalize(e.body))
    if isinstance(e, Prod):
        return Prod(tuple(normalize(i) for i in e.items))
    if isinstance(e, Tuple):
        items = tuple(normalize(i) for i in e.items)
        return items[0] if len(items) == 1 else Tuple(items)
    if isinstance(e, Proj):
        t = normalize(e.tuple_)
        if isinstance(t, Tuple):
            if not (0 <= e.index < len(t.items)):
                raise UnsupportedConstruct(
                    f"projection {e.index} on width {len(t.items)}")
            return t.items[e.index]
        return Proj(e.index, t)
    if isinstance(e, FamApp):
        head = normalize(e.head)
        args = [normalize(a) for a in e.args]
        while isinstance(head, FamApp):
            args = list(head.args) + args
            head = head.head
        while args and isinstance(head, Lam):
            head = normalize(subst(head.body, head.binder, args.pop(0)))
        if not args:
            return head
        return FamApp(head, tuple(args))
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")


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
    type of witnesses relating them.
    """
    if env is None:
        env = {}
    avoid = set(env) | free_vars(T)
    for copies, witness in env.values():
        for c in copies:
            avoid |= free_vars(c)
        if witness is not None:
            avoid |= free_vars(witness)

    if isinstance(T, Univ):
        a = _fresh("A", avoid)
        return Lam(a, DepFun(
            "_", _prod([_proj(i, Var(a), nu) for i in range(nu)]), Univ()))

    if isinstance(T, Var):
        copies, witness = env.get(T.name, ((), None))
        if witness is None:
            raise UnsupportedConstruct(
                f"variable {T.name} has no relational witness")
        return witness

    if isinstance(T, DepFun):
        f = _fresh("f", avoid)
        avoid.add(f)
        abar = _fresh(T.binder, avoid)
        avoid.add(abar)
        astar = _fresh(T.binder + "s", avoid)
        avoid.add(astar)
        dom = _prod([_copy(T.domain, i, nu, env) for i in range(nu)])
        projs = [_proj(i, Var(abar), nu) for i in range(nu)]
        dstar = FamApp(translate(T.domain, nu, env), (_tuple(projs),))
        env2 = dict(env)
        env2[T.binder] = (tuple(projs), Var(astar))
        applied = _tuple([App(_proj(i, Var(f), nu), projs[i])
                          for i in range(nu)])
        cstar = FamApp(translate(T.codomain, nu, env2), (applied,))
        return Lam(f, DepFun(abar, dom, DepFun(astar, dstar, cstar)))

    if isinstance(T, Prod):
        p = _fresh("p", avoid)
        width = len(T.items)
        comps = []
        for j, item in enumerate(T.items):
            picks = _tuple([_proj(j, _proj(i, Var(p), nu), width)
                            for i in range(nu)])
            comps.append(FamApp(translate(item, nu, env), (picks,)))
        return Lam(p, _prod(comps))

    if isinstance(T, FamApp):
        out = translate(T.head, nu, env)
        for a in T.args:
            copies = _tuple([_copy(a, i, nu, env) for i in range(nu)])
            out = FamApp(out, (copies, translate(a, nu, env)))
        return out

    if isinstance(T, Tuple):
        return Tuple(tuple(translate(x, nu, env) for x in T.items))

    raise UnsupportedConstruct(
        f"cannot translate {type(T).__name__} in this fragment")


def iterate_types(nu, steps):
    """The normalized type of the family X_steps.

    Start from the universe; each step applies the translation of the
    previous type to the diagonal tuple of the previous family.
    """
    if nu < 1:
        raise ArityError(f"arity must be >= 1, got {nu}")
    S = Univ()
    for k in range(steps):
        env = {f"X{j}": (tuple(Var(f"X{j}") for _ in range(nu)),
                         Var(f"X{j + 1}"))
               for j in range(k)}
        t = translate(S, nu, env)
        diag = _tuple([Var(f"X{k}") for _ in range(nu)])
        S = normalize(FamApp(t, (diag,)))
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


def alpha_rename(e, prefix="#"):
    """Rename every bound variable to a canonical positional name.

    Binders become "#1", "#2", ... in traversal order; free variables keep
    their names. Two types are alpha-equivalent exactly when their renamed
    forms are equal, and the result never contains shadowed binders.
    """
    counter = [0]

    def go(e, env):
        if isinstance(e, Var):
            return Var(env.get(e.name, e.name))
        if isinstance(e, Univ):
            return e
        if isinstance(e, (DepFun, Lam)):
            counter[0] += 1
            new = f"{prefix}{counter[0]}"
            inner_env = dict(env)
            inner_env[e.binder] = new
            if isinstance(e, DepFun):
                return DepFun(new, go(e.domain, env),
                              go(e.codomain, inner_env))
            return Lam(new, go(e.body, inner_env))
        if isinstance(e, Prod):
            return Prod(tuple(go(i, env) for i in e.items))
        if isinstance(e, Tuple):
            return Tuple(tuple(go(i, env) for i in e.items))
        if isinstance(e, FamApp):
            return FamApp(go(e.head, env), tuple(go(a, env) for a in e.args))
        if isinstance(e, Proj):
            return Proj(e.index, go(e.tuple_, env))
        raise UnsupportedConstruct(f"unknown node {type(e).__name__}")

    return go(e, {})


def alpha_eq(a, b):
    """Structural equality up to renaming of bound variables."""
    return alpha_rename(a) == alpha_rename(b)


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


def same_telescope(a, b):
    """Equality of two telescopes up to binder renaming, hypothesis
    reordering, and currying of application arguments.

    Binders referenced by later hypotheses must correspond one to one;
    hypotheses whose binders are never used again are compared as a
    multiset. Domains must match under the correspondence after their
    application spines are flattened.
    """
    # Distinct prefixes keep the two binder name spaces disjoint, so the
    # sequential renaming in render cannot chain.
    ha = [(n, _splice(d))
          for n, d in flatten_telescope(alpha_rename(normalize(a), "#"))]
    hb = [(n, _splice(d))
          for n, d in flatten_telescope(alpha_rename(normalize(b), "%"))]
    if len(ha) != len(hb):
        return False

    def split(hyps):
        used_later = set()
        for _, dom in hyps:
            used_later |= free_vars(dom)
        named = [(n, d) for n, d in hyps if n in used_later]
        anon = [d for n, d in hyps if n not in used_later]
        return named, anon

    named_a, anon_a = split(ha)
    named_b, anon_b = split(hb)
    if len(named_a) != len(named_b) or len(anon_a) != len(anon_b):
        return False

    def render(d, mapping):
        for old, new in mapping.items():
            d = subst(d, old, Var(new))
        return print_type(d)

    def match(i, mapping, taken):
        if i == len(named_a):
            left = sorted(render(d, mapping) for d in anon_a)
            right = sorted(print_type(d) for d in anon_b)
            return left == right
        name_a, dom_a = named_a[i]
        for j, (name_b, dom_b) in enumerate(named_b):
            if name_b in taken:
                continue
            trial = dict(mapping)
            trial[name_a] = name_b
            if render(dom_a, trial) != print_type(dom_b):
                continue
            if match(i + 1, trial, taken | {name_b}):
                return True
        return False

    return match(0, {}, set())


# ------------------------------------------------------------ printing


_PREC_TYPE, _PREC_PROD, _PREC_APP, _PREC_ATOM = 0, 1, 2, 3


def print_type(e, prec=_PREC_TYPE):
    if isinstance(e, Univ):
        return "U"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, DepFun):
        if e.binder not in free_vars(e.codomain):
            body = (f"{print_type(e.domain, _PREC_PROD)} -> "
                    f"{print_type(e.codomain)}")
        else:
            body = (f"Pi {e.binder}:{print_type(e.domain, _PREC_PROD)}. "
                    f"{print_type(e.codomain)}")
        return f"({body})" if prec > _PREC_TYPE else body
    if isinstance(e, Prod):
        body = " * ".join(print_type(i, _PREC_APP) for i in e.items)
        return f"({body})" if prec > _PREC_PROD else body
    if isinstance(e, FamApp):
        parts = [print_type(e.head, _PREC_APP)]
        parts += [print_type(a, _PREC_ATOM) for a in e.args]
        body = " ".join(parts)
        return f"({body})" if prec > _PREC_APP else body
    if isinstance(e, Tuple):
        return "(" + ", ".join(print_type(i) for i in e.items) + ")"
    if isinstance(e, Lam):
        return f"(\\{e.binder}. {print_type(e.body)})"
    if isinstance(e, Proj):
        return f"{print_type(e.tuple_, _PREC_ATOM)}.{e.index}"
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
            return DepFun(tok, dom, self.type_())
        return self.arrow()

    def arrow(self):
        left = self.prod()
        if self.peek() == "->":
            self.next()
            return DepFun("_", left, self.type_())
        return left

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
