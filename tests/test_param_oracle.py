"""The parametricity engine against the one it replaced.

The engine caches free-variable and binder masks on nodes, short-cuts
substitution, carries it pending through normalization and walks spines
in loops; the names it prints must not move, because printed telescopes
are output. The reference below is the named engine as it was before:
free_vars, _fresh, subst, translate, iterate_types and print_type copied
unchanged; normalize copied with one change, that a beta step which
leaves arguments flattens the spine it builds, so that normalize is
idempotent; the tokenizer and parser of the reader before it stamped
terms as it built them, with Pi and arrow spines read by recursion; and
alpha_rename, alpha_eq, _splice and same_telescope as they were before
alpha-equivalence went by binder position. Unqualified names in this
module are the reference; the engine is reached through the modules that
define it (``normal.normalize``, ``syntax.parse_type``, ...), and its
free variables and alpha-equivalence through ``test_parametricity``,
which reads them off the engine's masks and binder positions. Each test
asserts equal terms and byte-equal printed text from both, or equal
answers.
"""

import hashlib
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from nusets import (
    hypotheses, normal, parametricity, syntax, telescopes, terms,
)
from nusets.errors import ArityError, ParseError, UnsupportedConstruct
from nusets.hypotheses import flatten_telescope
from nusets.parametricity import App, _prod, _proj, _tuple
from nusets.terms import (
    DepFun, FamApp, Lam, Prod, Proj, Tuple, Univ, Var,
)
from nusets.words import hom_count

import test_parametricity


# ------------------------------------------------------------- reference


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


def normalize(e):
    """Beta and projection reduction, plus telescope shaping: a dependent
    function whose domain is a product splits into one binder per factor.
    Terminating on this fragment; idempotent, as the spine is flattened
    after each beta step."""
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
        while isinstance(head, FamApp) or args and isinstance(head, Lam):
            if isinstance(head, FamApp):
                args = list(head.args) + args
                head = head.head
            else:
                head = normalize(subst(head.body, head.binder, args.pop(0)))
        if not args:
            return head
        return FamApp(head, tuple(args))
    raise UnsupportedConstruct(f"unknown node {type(e).__name__}")


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


class _RecursiveParser(_Parser):
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



def ref_parse(text):
    p = _RecursiveParser(text)
    out = p.type_()
    assert p.peek() is None
    return out


# ------------------------------------------------------------- telescopes


CASES = ([(1, n) for n in range(9)] + [(2, n) for n in range(5)]
         + [(3, n) for n in range(4)])


@pytest.fixture(scope="module")
def reference():
    """(nu, steps) -> the reference telescope. The reference recurses once
    per binder of the translated term, past the default limit under a test
    runner's frames at (1, 8), so it gets more room here."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        return {case: iterate_types(*case) for case in CASES}
    finally:
        sys.setrecursionlimit(limit)


def _renamed(text, rng):
    """Every bound name of a printed telescope renamed, injectively, to a
    name the fresh-name choice also makes (x, x2, f, A3, ...), so that
    splits and renames meet captures."""
    bound = sorted(set(re.findall(r"\bPi ([A-Za-z_]\w*):", text)))
    pool = [base + (str(k) if k > 1 else "")
            for base in ("x", "f", "A", "p", "as", "xs") for k in range(1, 80)]
    mapping = dict(zip(bound, rng.sample(pool, len(bound))))
    return re.sub(r"[A-Za-z_]\w*",
                  lambda m: mapping.get(m.group(0), m.group(0)), text)


def _grouped(T):
    """T with every two consecutive arrows made one arrow from a product,
    which normalize splits again under fresh names from base "x"."""
    hyps = hypotheses.flatten_telescope(T)
    out = Univ()
    i = len(hyps)
    while i > 0:
        name, dom = hyps[i - 1]
        if i > 1 and name == "_" and hyps[i - 2][0] == "_":
            dom = Prod((hyps[i - 2][1], dom))
            i -= 1
        out = DepFun(name, dom, out)
        i -= 1
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"nu{c[0]}-n{c[1]}")
def test_iterates_print_as_before(reference, case):
    want = reference[case]
    got = parametricity.iterate_types(*case)
    assert got == want
    assert terms.print_type(got) == print_type(want)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"nu{c[0]}-n{c[1]}")
def test_printed_telescopes_read_back_as_before(reference, case):
    """The printed telescope reads back to itself; with its binders
    renamed, and again with its arrows paired into products, it reads and
    normalizes as the reference does. (Printing the iterates is compared
    above, so the engine prints the text here.)"""
    text = terms.print_type(reference[case])
    T = syntax.parse_type(text)
    assert T == ref_parse(text)
    assert terms.print_type(normal.normalize(T)) == text
    renamed = _renamed(text, random.Random(str(case)))
    R = syntax.parse_type(renamed)
    assert R == ref_parse(renamed)
    G = _grouped(R)
    for variant in (R, G):
        assert (terms.print_type(normal.normalize(variant))
                == print_type(normalize(variant)))
    if case[1] >= 3:
        assert renamed != text and G != R


# Past the reference's reach: it recurses once per binder, so the cases
# above are the largest it normalizes in a test's time. The printed bytes
# of larger iterates, where splits and renames nest deepest, are pinned by
# their sha256, recorded with the engine that held the reference's bytes
# at every case above before normalization carried pending substitutions.
# (2, 6) was recorded later, by the engine with pending substitutions and
# short beta steps, before a beta step flattened the spine it builds.
GOLDEN = {
    (1, 9): "547dc9d20807bf3c152c3718a54a12e0b429e611c692253d01cdcfc4ef9219b5",
    (1, 10): "4f7d057151fc693fe27475b17880a76bcf1a0165e86990368481173782d4253c",
    (2, 5): "7263ccbb9cde2131d67f15e59f116eaf418b14fa75d20736a199b075c31e4ed4",
    (2, 6): "6781e482ac64701086afbfd52f611da6e3f5ba0ebb3b8b25ec212590566937a5",
    (3, 4): "24609a0f961905afbcbb24fb7d388250732061f2af5c8b4074dbe4defc8ffd14",
}


@pytest.fixture(scope="module")
def far_iterates():
    return {case: parametricity.iterate_types(*case) for case in GOLDEN}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"nu{c[0]}-n{c[1]}")
def test_iterates_past_the_reference_print_as_recorded(far_iterates, case):
    nu, n = case
    T = far_iterates[case]
    text = terms.print_type(T)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]
    assert hypotheses.telescope_stats(T) == {p: hom_count(nu, p, n)
                                         for p in range(n)}


# ------------------------------------------------------------ random terms
#
# Bound names come from the same few names as free ones, so substitution
# and splitting capture often. Lambdas occur only applied, to arguments
# without lambdas, so every term normalizes.


NAMES = ("x", "x2", "y", "f", "A")
BINDERS = NAMES + ("_", "y2")
LEAVES = st.one_of(st.sampled_from(NAMES).map(Var), st.just(Univ()))


def _lambda_free(children):
    return st.one_of(
        st.builds(DepFun, st.sampled_from(BINDERS), children, children),
        st.lists(children, min_size=2, max_size=3).map(
            lambda xs: Prod(tuple(xs))),
        st.lists(children, max_size=3).map(lambda xs: Tuple(tuple(xs))),
        st.builds(FamApp, st.sampled_from(NAMES).map(Var),
                  st.lists(children, max_size=2).map(tuple)),
        st.builds(Proj, st.integers(0, 2), children),
    )


VALUES = st.recursive(LEAVES, _lambda_free, max_leaves=8)


def _with_redexes(children):
    return st.one_of(
        _lambda_free(children),
        st.builds(lambda b, body, args: FamApp(Lam(b, body), tuple(args)),
                  st.sampled_from(BINDERS), children,
                  st.lists(VALUES, min_size=1, max_size=2)))


TERMS = st.recursive(LEAVES, _with_redexes, max_leaves=12)


def _outcome(run, printer):
    """(result, its text), or (error type, message)."""
    try:
        out = run()
    except UnsupportedConstruct as exc:
        return type(exc), str(exc)
    return out, printer(out)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TERMS)
@example(  # two bad projections: the head's error comes out first
    FamApp(Lam("x", Proj(2, Tuple((Var("x"), Var("y"))))),
           (Proj(3, Tuple((Var("y"), Var("f"), Var("A")))),)))
def test_random_terms_agree_with_the_reference(e):
    assert test_parametricity.free_vars(e) == free_vars(e)
    assert terms.print_type(e) == print_type(e)
    assert (_outcome(lambda: normal.normalize(e), terms.print_type)
            == _outcome(lambda: normalize(e), print_type))


# Terms whose normal form needs several pending entries at once: product
# domains, some with product factors, split under binders that beta
# steps reach, applied lambdas sit under split binders, and an argument
# may be a product, which splits a domain it lands in. Every name is a
# fresh-name base or one of its outputs, so a binder the walk reaches is
# often renamed by two or more entries in a row, and the later entries
# see the names the earlier ones chose.
CHAIN_NAMES = ("x", "x2", "x3", "f", "A", "p", "as", "xs", "_s")
CHAIN_VARS = st.sampled_from(CHAIN_NAMES).map(Var)
CHAIN_ATOMS = st.one_of(
    CHAIN_VARS,
    st.builds(FamApp, CHAIN_VARS,
              st.lists(CHAIN_VARS, min_size=1, max_size=2).map(tuple)))
CHAIN_PRODS = st.lists(CHAIN_ATOMS, min_size=2, max_size=3).map(
    lambda xs: Prod(tuple(xs)))
CHAIN_ARGS = st.one_of(
    CHAIN_ATOMS,
    st.lists(CHAIN_ATOMS, min_size=2, max_size=3).map(
        lambda xs: Tuple(tuple(xs))),
    CHAIN_PRODS)


def _chained(children):
    binders = st.sampled_from(CHAIN_NAMES)
    factors = st.one_of(CHAIN_ATOMS, children, CHAIN_PRODS)
    return st.one_of(
        st.builds(lambda b, xs, c: DepFun(b, Prod(tuple(xs)), c), binders,
                  st.lists(factors, min_size=2, max_size=3), children),
        st.builds(DepFun, binders, st.one_of(CHAIN_ATOMS, children),
                  children),
        st.builds(lambda b, body, args: FamApp(Lam(b, body), tuple(args)),
                  binders, children,
                  st.lists(CHAIN_ARGS, min_size=1, max_size=2)))


CHAINED = st.recursive(st.one_of(CHAIN_ATOMS, st.just(Univ())), _chained,
                       max_leaves=16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CHAINED)
@example(  # the outer beta step's entries rename a binder b to b2, then b3
    FamApp(Lam("y", DepFun(
        "b", Prod((Var("X0"), Var("X0"))),
        FamApp(Lam("y", DepFun("b3", Var("y"), Univ())),
               (Prod((Var("X0"), Var("y"))),)))),
        (FamApp(Var("X1"), (Var("b"), Var("b2"))),)))
def test_chained_pending_substitutions_agree_with_the_reference(e):
    assert (_outcome(lambda: normal.normalize(e), terms.print_type)
            == _outcome(lambda: normalize(e), print_type))


# Terms with no product and no projection, where beta steps may go the
# short way: applied lambdas nest in bodies and in arguments, and binders
# and free variables share a few names, so that a binder is often free in
# an argument (no short step, or a rename that sends the call back the
# long way), and a short step's variable is often bound again inside.
PLAIN_NAMES = ("x", "x2", "y", "f", "z")
PLAIN_VARS = st.sampled_from(PLAIN_NAMES).map(Var)
PLAIN_ARGS = st.recursive(PLAIN_VARS, lambda children: st.builds(
    FamApp, PLAIN_VARS, st.lists(children, min_size=1, max_size=2).map(
        tuple)), max_leaves=3)


def _plain(children):
    binders = st.sampled_from(PLAIN_NAMES + ("_",))
    return st.one_of(
        st.builds(DepFun, binders, children, children),
        st.builds(FamApp, PLAIN_VARS,
                  st.lists(children, min_size=1, max_size=2).map(tuple)),
        st.builds(lambda b, body, args: FamApp(Lam(b, body), tuple(args)),
                  binders, children,
                  st.lists(st.one_of(PLAIN_ARGS, children), min_size=1,
                           max_size=2)))


PLAIN = st.recursive(st.one_of(PLAIN_VARS, st.just(Univ())), _plain,
                     max_leaves=14)

# (\x. (\y. Pi x:U. x y) x) q: the long way renames the inner x, which
# the argument of the inner step has free; substituting q first would not.
SHADOWED = FamApp(Lam("x", FamApp(Lam("y", DepFun(
    "x", Univ(), FamApp(Var("x"), (Var("y"),)))), (Var("x"),))), (Var("q"),))
# (\z2. Pi z:U. (\y. Pi z:U. F z y z2) z) a: the long way renames the
# inner z past z2, the short way's variable, to z3.
FRESH = FamApp(Lam("z2", DepFun("z", Univ(), FamApp(Lam("y", DepFun(
    "z", Univ(), FamApp(Var("F"), (Var("z"), Var("y"), Var("z2"))))),
    (Var("z"),)))), (Var("a"),))

# (\x. (\y. Pi z2:U. z2) z2) z: after the short step x := z, the inner
# step's value z2 would be captured by the binder z2, so _bind renames
# it. The long way renames it twice, to z and then past the outer step's
# z back to z2; renamed once after the short step it prints z.
CAPTURING = FamApp(Lam("x", FamApp(Lam("y", DepFun(
    "z2", Univ(), Var("z2"))), (Var("z2"),))), (Var("z"),))

# (\x. (\x2. x U) x x) x: the inner step leaves an argument, and the
# spine it builds, x U x, is flat, as the long way builds it.
LEFTOVER = FamApp(Lam("x", FamApp(Lam("x2", FamApp(Var("x"), (Univ(),))),
                                  (Var("x"), Var("x")))), (Var("x"),))


def _ways(e):
    """normalize(e) by normal._normal_form's steps, and which way its beta
    steps went: "short" when short steps were taken and kept, "long" when
    the call started again the long way, "none" when no short step
    applied."""
    names = terms._table(e)
    names.fast = 0
    try:
        out = normal._normalize(e, names)
        way = "short" if names.fast else "none"
    except normal._LongWay:
        names.fast = None
        out, way = normal._normalize(e, names), "long"
    finally:
        names.fast = None
    return out, way


def test_short_beta_steps_and_their_fallback():
    """A translated unary step and LEFTOVER go the short way. A redex goes
    the long way at once when its argument has a binder, when a split's
    entry renames its lambda's binder, or when its body binds a name free
    in the argument. SHADOWED, FRESH and CAPTURING start short and go
    back. Each agrees with the reference."""
    X = [Var(f"X{j}") for j in range(4)]
    S = parametricity.iterate_types(1, 3)
    env = {f"X{j}": ((X[j],), X[j + 1]) for j in range(3)}
    unary = FamApp(parametricity.translate(S, 1, env), (X[3],))
    binder_arg = FamApp(Lam("x", FamApp(Var("x"), (Var("y"),))),
                        (DepFun("z", Univ(), Var("z")),))
    # Pi x:(U * U). (\x2. F x2) x: the split's entry x := (x2, x3)
    # renames the lambda's x2 to x4
    renamed = DepFun("x", Prod((Univ(), Univ())), FamApp(
        Lam("x2", FamApp(Var("F"), (Var("x2"),))), (Var("x"),)))
    # (\x. Pi y:U. x) y: the body binds y, which the argument has free
    captured = FamApp(Lam("x", DepFun("y", Univ(), Var("x"))), (Var("y"),))
    for e, want in ((unary, "short"), (LEFTOVER, "short"),
                    (binder_arg, "none"), (renamed, "none"),
                    (captured, "none"), (SHADOWED, "long"), (FRESH, "long"),
                    (CAPTURING, "long")):
        out, way = _ways(e)
        assert way == want, e
        assert out == normalize(e)
        assert terms.print_type(out) == print_type(normalize(e))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(PLAIN)
@example(SHADOWED)
@example(FRESH)
@example(CAPTURING)
@example(LEFTOVER)
def test_short_beta_steps_agree_with_the_reference(e):
    out = normal.normalize(e)
    assert out == normalize(e)
    assert terms.print_type(out) == print_type(out)


TYPE_BINDERS = ("a", "X0", "f", "A", "p", "as", "_")


def _types(children):
    return st.one_of(
        st.builds(DepFun, st.sampled_from(TYPE_BINDERS), children, children),
        st.lists(children, min_size=2, max_size=3).map(
            lambda xs: Prod(tuple(xs))))


TYPES = st.recursive(
    st.sampled_from(("U", "X0", "a", "f")).map(
        lambda n: Univ() if n == "U" else Var(n)),
    _types, max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TYPES, st.sampled_from((1, 2, 3)))
def test_random_translations_agree_with_the_reference(T, nu):
    """Binders that shadow the environment (X0) or meet the fresh-name
    bases (f, A, p, as) exercise the avoid masks of translate."""
    env = {"X0": ((Var("X0"),) * nu, Var("X1"))}
    want = _outcome(lambda: translate(T, nu, env), print_type)
    assert _outcome(lambda: parametricity.translate(T, nu, env),
                    terms.print_type) == want
    if isinstance(want[0], Lam):
        diag = _tuple([Var(n) for n in ("a", "f", "as")[:nu]])
        assert (terms.print_type(normal.normalize(FamApp(want[0], (diag,))))
                == print_type(normalize(FamApp(want[0], (diag,)))))


# --------------------------------------------------- alpha-equivalence
#
# The reference renames every binder and compares, and compares telescope
# domains by printing them after a substitution per candidate mapping.


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


DISPLAYS = (
    # the square, rewired, smaller, the unary two-step telescope
    "Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
    "X1 (a, b) * X1 (c, d) * X1 (a, c) * X1 (b, d) -> U",
    "Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
    "X1 (a, b) * X1 (c, d) * X1 (a, d) * X1 (b, c) -> U",
    "Pi a:X0. Pi b:X0. Pi c:X0. X1 (a, b) * X1 (a, c) * X1 (b, c) -> U",
    "Pi a:X0. X1 a -> X1 a -> U",
    # an edge, its binders swapped, and the diagonal
    "Pi a:X0. Pi b:X0. X1 (a, b) -> U",
    "Pi p:X0. Pi q:X0. X1 (p, q) -> U",
    "Pi q:X0. Pi p:X0. X1 (p, q) -> U",
    "Pi a:X0. Pi b:X0. X1 (a, a) -> U",
    # a shadowed binder: the edge's second end is the later x
    "Pi x:X0. Pi y:X0. Pi x:X0. X1 (y, x) -> X1 x y -> U",
)


def _alpha_corpus():
    """Iterates, the displays, and the print/parse round trip of each."""
    corpus = [parametricity.iterate_types(nu, n)
              for nu, top in ((1, 4), (2, 3), (3, 2)) for n in range(top + 1)]
    corpus += [syntax.parse_type(text) for text in DISPLAYS]
    return corpus + [syntax.parse_type(terms.print_type(T)) for T in corpus]


def test_alpha_equivalence_agrees_with_the_reference_on_a_corpus():
    corpus = _alpha_corpus()
    assert len(corpus) == 42
    answers = set()
    for a in corpus:
        for b in corpus:
            got = (test_parametricity.alpha_eq(a, b),
                   telescopes.same_telescope(a, b))
            assert got == (alpha_eq(a, b), same_telescope(a, b)), (a, b)
            answers.add(got)
    assert answers == {(False, False), (False, True), (True, True)}


# Small telescopes with few binder names, so that later binders shadow
# earlier ones; domains are family applications, curried or on tuples,
# with products that normalize splits and arrows whose binder is unused.
TEL_NAMES = ("x", "y", "z")
ATOMS = st.sampled_from(TEL_NAMES + ("X0",)).map(Var)
ARGS = st.one_of(ATOMS, st.lists(ATOMS, min_size=2, max_size=3).map(
    lambda xs: Tuple(tuple(xs))))
APPS = st.builds(FamApp, st.sampled_from(("X1", "X2", "x")).map(Var),
                 st.lists(ARGS, min_size=1, max_size=2).map(tuple))
DOMAINS = st.one_of(
    ATOMS, APPS,
    st.lists(APPS, min_size=2, max_size=2).map(lambda xs: Prod(tuple(xs))),
    st.builds(lambda d, c: DepFun("_", d, c), ATOMS, APPS))
HYPS = st.lists(st.tuples(st.sampled_from(TEL_NAMES + ("_",)), DOMAINS),
                max_size=5)


def _telescope(hyps):
    out = Univ()
    for name, dom in reversed(hyps):
        out = DepFun(name, dom, out)
    return out


@st.composite
def _telescope_pairs(draw):
    """A telescope, and either another one or the same hypotheses
    reordered with their binder names permuted."""
    hyps = draw(HYPS)
    if draw(st.booleans()):
        other = draw(HYPS)
    else:
        order = draw(st.permutations(range(len(hyps))))
        names = dict(zip(TEL_NAMES, draw(st.permutations(TEL_NAMES))))

        def rename(e):
            if isinstance(e, Var):
                return Var(names.get(e.name, e.name))
            if isinstance(e, DepFun):
                return DepFun(names.get(e.binder, e.binder),
                              rename(e.domain), rename(e.codomain))
            if isinstance(e, FamApp):
                return FamApp(rename(e.head), tuple(map(rename, e.args)))
            if isinstance(e, (Prod, Tuple)):
                return type(e)(tuple(map(rename, e.items)))
            return e

        other = [(names.get(n, n), rename(d))
                 for n, d in (hyps[i] for i in order)]
    return _telescope(hyps), _telescope(other)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_telescope_pairs())
def test_random_telescopes_agree_with_the_reference(pair):
    a, b = pair
    for x, y in ((a, b), (a, a), (b, a)):
        assert test_parametricity.alpha_eq(x, y) == alpha_eq(x, y)
        assert telescopes.same_telescope(x, y) == same_telescope(x, y)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(PLAIN, CHAINED, TERMS, HYPS.map(_telescope)))
@example(LEFTOVER)
def test_normalize_is_idempotent(e):
    """normalize returns its own result at once: every node it builds is
    stamped normal (see terms._stamp), a beta step's spine included."""
    try:
        out = normal.normalize(e)
    except UnsupportedConstruct:
        return
    assert normal.normalize(out) is out


def test_inner_binders_compare_by_position():
    """A domain that binds a name it uses is compared up to that name.
    The reference printed such a domain with a different binder name on
    each side, so it found the telescope unequal to itself."""
    T = syntax.parse_type("Pi a:X0. Pi f:(Pi y:X0. X1 (a, y)). U")
    R = syntax.parse_type("Pi b:X0. Pi g:(Pi z:X0. X1 (b, z)). U")
    assert telescopes.same_telescope(T, T) and telescopes.same_telescope(T, R)
    assert not same_telescope(T, T)
    assert test_parametricity.alpha_eq(T, R) and alpha_eq(T, R)


def test_alpha_equivalence_at_1023_binders(far_iterates):
    """(1, 10) is past the reference's recursion at the default limit:
    both comparisons answer at once, on the term and its printed text."""
    T = far_iterates[(1, 10)]
    t0 = time.monotonic()
    assert telescopes.same_telescope(T, T)
    assert test_parametricity.alpha_eq(
        syntax.parse_type(terms.print_type(T)), T)
    assert time.monotonic() - t0 < 5
