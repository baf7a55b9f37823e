"""The parametricity engine against the one it replaced.

The engine caches free-variable and binder masks on nodes, short-cuts
substitution and walks spines in loops; the names it prints must not
move, because printed telescopes are output. The reference below is the
named engine as it was before: free_vars, _fresh, subst, normalize,
translate, iterate_types and print_type copied unchanged, and the
recursive reader of Pi and arrow spines. Unqualified names in this module
are the reference; the engine is reached as ``engine``. Each test asserts
equal terms and byte-equal printed text from both.
"""

import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from nusets import parametricity as engine
from nusets.errors import ArityError, ParseError, UnsupportedConstruct
from nusets.parametricity import (
    App, DepFun, FamApp, Lam, Prod, Proj, Tuple, Univ, Var, _copy, _Parser,
    _prod, _proj, _tuple,
)


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
    hyps = engine.flatten_telescope(T)
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
    got = engine.iterate_types(*case)
    assert got == want
    assert engine.print_type(got) == print_type(want)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"nu{c[0]}-n{c[1]}")
def test_printed_telescopes_read_back_as_before(reference, case):
    """The printed telescope reads back to itself; with its binders
    renamed, and again with its arrows paired into products, it reads and
    normalizes as the reference does. (Printing the iterates is compared
    above, so the engine prints the text here.)"""
    text = engine.print_type(reference[case])
    T = engine.parse_type(text)
    assert T == ref_parse(text)
    assert engine.print_type(engine.normalize(T)) == text
    renamed = _renamed(text, random.Random(str(case)))
    R = engine.parse_type(renamed)
    assert R == ref_parse(renamed)
    G = _grouped(R)
    for variant in (R, G):
        assert (engine.print_type(engine.normalize(variant))
                == print_type(normalize(variant)))
    if case[1] >= 3:
        assert renamed != text and G != R


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
@given(TERMS, st.sampled_from(NAMES), VALUES)
@example(  # two bad projections: the head's error comes out first
    FamApp(Lam("x", Proj(2, Tuple((Var("x"), Var("y"))))),
           (Proj(3, Tuple((Var("y"), Var("f"), Var("A")))),)),
    "x", Var("y"))
def test_random_terms_agree_with_the_reference(e, name, value):
    assert engine.free_vars(e) == free_vars(e)
    assert engine.print_type(e) == print_type(e)
    got = engine.subst(e, name, value)
    assert got == subst(e, name, value)
    assert engine.print_type(got) == print_type(got)
    assert (_outcome(lambda: engine.normalize(e), engine.print_type)
            == _outcome(lambda: normalize(e), print_type))


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
    assert _outcome(lambda: engine.translate(T, nu, env),
                    engine.print_type) == want
    if isinstance(want[0], Lam):
        diag = _tuple([Var(n) for n in ("a", "f", "as")[:nu]])
        assert (engine.print_type(engine.normalize(FamApp(want[0], (diag,))))
                == print_type(normalize(FamApp(want[0], (diag,)))))
