"""Type translation: parsing, printing, the translation rules, iteration,
and the telescope statistics against the closed-form hom-count oracle.

The iteration invariant is the load-bearing one: the number of hypotheses
at level p in the step-n telescope must equal C(n,p) * nu^(n-p), computed
here by the word-counting routine that knows nothing about type syntax.
"""

import gc
import hashlib
import random
import sys
import time

import pytest

from nusets import parametricity, syntax, telescopes, terms
from nusets.errors import NotATelescope, ParseError, UnsupportedConstruct
from nusets.parametricity import iterate_types, translate
from nusets.syntax import parse_type
from nusets.telescopes import alpha_eq, free_vars, same_telescope
from nusets.terms import (
    DepFun, FamApp, Lam, Pair, Prod, Proj, Tuple, Univ, Var, normalize,
    print_type, telescope_stats,
)
from nusets.words import hom_count


# ---------------------------------------------------------------- parsing

def test_parse_universe():
    assert parse_type("U") == Univ()


def test_parse_dependent_function():
    got = parse_type("Pi a:A. B a")
    assert got == DepFun("a", Var("A"), FamApp(Var("B"), (Var("a"),)))


def test_parse_product_and_parens():
    got = parse_type("(A * B)")
    assert got == Prod((Var("A"), Var("B")))
    assert alpha_eq(parse_type(print_type(got)), got)


def test_parse_arrow_right_associative():
    got = parse_type("A -> B -> U")
    assert got == DepFun("_", Var("A"), DepFun("_", Var("B"), Univ()))


def test_parse_pi_after_arrow():
    got = parse_type("A -> Pi x:B. C x")
    assert got.codomain.binder == "x"


def test_parse_tuple_argument():
    got = parse_type("X1 (a, b)")
    assert got == FamApp(Var("X1"), (Tuple((Var("a"), Var("b"))),))


def test_parse_precedence():
    # application binds tighter than *, which binds tighter than ->
    got = parse_type("F a * G b -> U")
    assert isinstance(got, DepFun)
    assert got.domain == Prod((FamApp(Var("F"), (Var("a"),)),
                               FamApp(Var("G"), (Var("b"),))))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_type("Pi :A. B")
    assert e.value.line == 1 and e.value.col == 4

    with pytest.raises(ParseError) as e:
        parse_type("A *")
    assert e.value.line == 1

    with pytest.raises(ParseError) as e:
        parse_type("Pi a:A.\n  B *")
    assert e.value.line == 2


def test_parse_error_trailing_input():
    with pytest.raises(ParseError):
        parse_type("U U)")


def test_parse_rejects_keyword_binder():
    with pytest.raises(ParseError):
        parse_type("Pi U:A. B")


@pytest.mark.parametrize("nu, steps", [(2, 4), (3, 3), (1, 7)])
def test_printed_telescopes_read_normal(nu, steps):
    """The reader stamps each node as it builds it, so a printed telescope
    reads as normal: normalize returns the parsed term itself, and print
    gives the text back."""
    text = print_type(iterate_types(nu, steps))
    T = parse_type(text)
    assert normalize(T) is T
    assert print_type(T) == text


# --------------------------------------------------------------- printing

def test_print_parse_roundtrip_handwritten():
    for text in (
        "U",
        "X0 -> U",
        "Pi a:X0. X1 a -> U",
        "A * B -> U",
        "Pi a:X0. Pi b:X0. X1 (a, b) -> U",
        "F a b * G (a, b) -> Pi c:X0. U",
    ):
        T = parse_type(text)
        assert alpha_eq(parse_type(print_type(T)), T)


def test_print_parse_roundtrip_iterates():
    for nu in (1, 2):
        for steps in range(5):
            T = iterate_types(nu, steps)
            assert alpha_eq(parse_type(print_type(T)), T)


# ------------------------------------------------------------ translation

def _pair_env():
    # two abstract type variables, each with named copies and a witness
    return {
        "A": ((Var("AL"), Var("AR")), Var("Astar")),
        "B": ((Var("BL"), Var("BR")), Var("Bstar")),
    }


def test_translate_universe_binary():
    t = translate(Univ(), 2)
    got = normalize(FamApp(t, (Pair(Var("A"), Var("B")),)))
    assert got == normalize(parse_type("A * B -> U"))


def test_translate_universe_unary():
    t = translate(Univ(), 1)
    got = normalize(FamApp(t, (Var("A"),)))
    assert got == normalize(parse_type("A -> U"))


def test_translate_product_componentwise():
    t = translate(Prod((Var("A"), Var("B"))), 2, _pair_env())
    arg = Pair(Pair(Var("aL"), Var("bL")), Pair(Var("aR"), Var("bR")))
    got = normalize(FamApp(t, (arg,)))
    want = Prod((FamApp(Var("Astar"), (Pair(Var("aL"), Var("aR")),)),
                 FamApp(Var("Bstar"), (Pair(Var("bL"), Var("bR")),))))
    assert got == want


def test_translate_product_unary_degeneration():
    env = {"A": ((Var("AL"),), Var("Astar")),
           "B": ((Var("BL"),), Var("Bstar"))}
    t = translate(Prod((Var("A"), Var("B"))), 1, env)
    got = normalize(FamApp(t, (Pair(Var("a"), Var("b")),)))
    assert print_type(got) == "Astar a * Bstar b"


def test_translate_function_rule_shape():
    # a witness for Pi x:A. U takes the two copies of f, one element of
    # each copy of A, a relatedness witness over them, and the images of
    # the copies of f, landing in the universe; the pair binder over
    # AL * AR splits during normalization
    t = translate(DepFun("x", Var("A"), Univ()), 2, _pair_env())
    got = normalize(FamApp(t, (Pair(Var("fL"), Var("fR")),)))
    hyps = []
    T = got
    while isinstance(T, DepFun):
        hyps.append(T.domain)
        T = T.codomain
    assert T == Univ()
    assert [hyps[0], hyps[1]] == [Var("AL"), Var("AR")]
    assert hyps[2].head == Var("Astar")
    assert {h.head for h in hyps[3:]} == {Var("fL"), Var("fR")}
    assert free_vars(got) == {"AL", "AR", "Astar", "fL", "fR"}


def test_translate_rejects_terms_outside_fragment():
    with pytest.raises(UnsupportedConstruct):
        translate(Lam("x", Var("x")), 2)
    with pytest.raises(UnsupportedConstruct):
        translate(Proj(0, Var("t")), 2)


def test_translate_preserves_closedness():
    # closed input, environment-supplied names only in the output
    for nu in (1, 2):
        T = parse_type("Pi a:U. Pi b:a. U")
        out = translate(T, nu)
        assert free_vars(out) == set()


# ---------------------------------------------------------- normalization

def test_normalize_beta():
    got = normalize(FamApp(Lam("x", FamApp(Var("F"), (Var("x"),))),
                           (Var("t"),)))
    assert got == FamApp(Var("F"), (Var("t"),))


def test_normalize_flattens_a_beta_result():
    """(\\y. x U) a b: the step leaves b, and the spine it builds is flat
    and stamped normal, so normalizing it again returns it."""
    got = normalize(FamApp(Lam("y", FamApp(Var("x"), (Univ(),))),
                           (Var("a"), Var("b"))))
    assert got == FamApp(Var("x"), (Univ(), Var("b")))
    assert got._cache.nf


def test_normalize_projection():
    got = normalize(Proj(0, Pair(Var("a"), Var("b"))))
    assert got == Var("a")
    got = normalize(Proj(1, Pair(Var("a"), Var("b"))))
    assert got == Var("b")


def _random_closed_type(rng, depth, scope):
    atoms = ["U", "X0"] + scope
    if depth == 0:
        return parse_type(rng.choice(atoms))
    kind = rng.choice(("pi", "arrow", "prod", "atom"))
    if kind == "atom":
        return parse_type(rng.choice(atoms))
    if kind == "pi":
        name = f"v{len(scope)}"
        dom = _random_closed_type(rng, depth - 1, scope)
        cod = _random_closed_type(rng, depth - 1, scope + [name])
        return DepFun(name, dom, cod)
    if kind == "arrow":
        return DepFun("_", _random_closed_type(rng, depth - 1, scope),
                      _random_closed_type(rng, depth - 1, scope))
    return Prod((_random_closed_type(rng, depth - 1, scope),
                 _random_closed_type(rng, depth - 1, scope)))


def test_normalize_idempotent_on_random_translations():
    rng = random.Random(20240)
    env = {"X0": ((Var("X0"), Var("X0")), Var("X1"))}
    for _ in range(100):
        T = _random_closed_type(rng, 3, [])
        out = normalize(FamApp(translate(T, 2, env),
                               (Pair(Var("cL"), Var("cR")),)))
        assert normalize(out) == out
        assert free_vars(out) <= {"X0", "X1", "cL", "cR"}


def test_normalize_idempotent_on_iterates():
    for nu in (1, 2):
        for steps in range(5):
            T = iterate_types(nu, steps)
            assert normalize(T) == T


# -------------------------------------------------------------- iteration

def test_iterate_zero_steps():
    assert iterate_types(1, 0) == Univ()
    assert iterate_types(2, 0) == Univ()


def test_iterate_binary_two_steps_is_the_square_telescope():
    # 4 point cells a,b,c,d and the 4 lines of a square between them
    display = ("Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
               "X1 (a, b) * X1 (c, d) * X1 (a, c) * X1 (b, d) -> U")
    assert same_telescope(iterate_types(2, 2), parse_type(display))


def test_iterate_binary_two_steps_rejects_rewired_square():
    wrong = ("Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
             "X1 (a, b) * X1 (c, d) * X1 (a, d) * X1 (b, c) -> U")
    assert not same_telescope(iterate_types(2, 2), parse_type(wrong))
    smaller = ("Pi a:X0. Pi b:X0. Pi c:X0. "
               "X1 (a, b) * X1 (a, c) * X1 (b, c) -> U")
    assert not same_telescope(iterate_types(2, 2), parse_type(smaller))


def test_iterate_unary_two_steps():
    assert same_telescope(iterate_types(1, 2),
                          parse_type("Pi a:X0. X1 a -> X1 a -> U"))


def test_iterate_unary_three_steps_counts():
    # C(3,p) for p = 0, 1, 2
    assert telescope_stats(iterate_types(1, 3)) == {0: 1, 1: 3, 2: 3}


def test_iterate_binary_three_steps_counts():
    assert telescope_stats(iterate_types(2, 3)) == {0: 8, 1: 12, 2: 6}


def test_central_correspondence():
    # hypothesis counts equal the hom counts of the shape category
    for nu in (1, 2):
        for steps in range(5):
            stats = telescope_stats(iterate_types(nu, steps))
            want = {p: hom_count(nu, p, steps) for p in range(steps)}
            assert stats == {p: c for p, c in want.items() if c}


def test_iterate_well_scoped():
    for nu in (1, 2):
        for steps in range(5):
            T = iterate_types(nu, steps)
            assert free_vars(T) <= {f"X{k}" for k in range(steps)}


def _has_tuple(e):
    if isinstance(e, Tuple):
        return True
    if isinstance(e, DepFun):
        return _has_tuple(e.domain) or _has_tuple(e.codomain)
    if isinstance(e, Lam):
        return _has_tuple(e.body)
    if isinstance(e, (Prod,)):
        return any(_has_tuple(i) for i in e.items)
    if isinstance(e, FamApp):
        return _has_tuple(e.head) or any(_has_tuple(a) for a in e.args)
    if isinstance(e, Proj):
        return _has_tuple(e.tuple_)
    return False


def test_unary_iterates_never_tuple():
    # width-1 tuples collapse, so the unary telescopes stay tuple-free
    for steps in range(5):
        assert not _has_tuple(iterate_types(1, steps))


# -------------------------------------------------------------- telescopes

def test_stats_of_universe_is_empty():
    assert telescope_stats(Univ()) == {}


def test_stats_rejects_non_telescope():
    with pytest.raises(NotATelescope):
        telescope_stats(parse_type("Pi a:X0. X0"))
    with pytest.raises(NotATelescope):
        telescope_stats(parse_type("U -> U"))


def test_same_telescope_modulo_binders_and_order():
    a = parse_type("Pi a:X0. Pi b:X0. X1 (a, b) -> U")
    b = parse_type("Pi q:X0. Pi p:X0. X1 (p, q) -> U")
    # p binds the first argument on the right, so the wiring differs
    assert same_telescope(a, parse_type("Pi p:X0. Pi q:X0. X1 (p, q) -> U"))
    assert same_telescope(a, b)  # symmetric pairing, either order works


def test_same_telescope_distinguishes_diagonal():
    a = parse_type("Pi a:X0. Pi b:X0. X1 (a, b) -> U")
    diag = parse_type("Pi a:X0. Pi b:X0. X1 (a, a) -> U")
    assert not same_telescope(a, diag)


# ------------------------------------------------------- scale and memory

def test_iterate_binary_five_steps_within_budget():
    """242 binders, under the default recursion limit, in under 10 s (the
    named engine without cached masks took 21 s, near the limit; with
    masks but substituting into the rest of the spine at every split and
    beta step, about 3 s; with the substitution pending, 0.3-0.5 s)."""
    assert sys.getrecursionlimit() <= 1000
    start = time.perf_counter()
    T = iterate_types(2, 5)
    assert time.perf_counter() - start < 10
    assert telescope_stats(T) == {p: hom_count(2, p, 5) for p in range(5)}


def test_long_spines_do_not_recurse():
    """Pi and arrow spines are read, normalized, scanned and printed in
    loops: 5000 binders, five times the recursion limit."""
    text = "Pi a:X0. " + "X1 a -> " * 4999 + "U"
    T = parse_type(text)
    assert telescope_stats(normalize(T)) == {0: 1, 1: 4999}
    assert free_vars(T) == {"X0", "X1"}
    assert print_type(T) == text


def test_long_split_spines_do_not_recurse():
    """5000 binders whose domains are all products, each naming the binder
    before it: every split leaves an entry pending on the rest of the
    spine, and the walk stays a loop. The digest and counts were recorded
    with the engine that substituted into the rest of the spine at each
    split."""
    assert sys.getrecursionlimit() <= 1000
    T = parse_type("Pi x:X0 * X0. " + "Pi x:X1 x * X2 x. " * 4999 + "U")
    N = normalize(T)
    assert telescope_stats(N) == {0: 2, 1: 4999, 2: 4999}
    assert hashlib.sha256(print_type(N).encode()).hexdigest() == (
        "1451b5dfae2ffc1211c7480b98ef3754929de073fd11d579891f9e9e7241c554")


MODULES = (terms, syntax, parametricity, telescopes)


def _module_containers():
    return {(m.__name__, name): len(obj) for m in MODULES
            for name, obj in vars(m).items()
            if isinstance(obj, (dict, list, set)) and name != "__builtins__"}


def test_name_tables_live_with_their_terms():
    """No module-level cache, and no cycle: with the cycle collector off,
    every name table iterate_types and normalize made is freed once their
    terms are dropped, and no module-level container grew."""
    def tables():
        return sum(isinstance(o, terms._Names) for o in gc.get_objects())

    containers = _module_containers()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = tables()
        for nu, steps in ((2, 3), (1, 5)):
            T = iterate_types(nu, steps)
            N = normalize(parse_type(print_type(T)))
            assert print_type(N) == print_type(T)
            assert tables() > before
        del T, N
        after = tables()
    finally:
        if enabled:
            gc.enable()
    assert after <= before
    grown = _module_containers()
    assert all(grown[k] <= containers.get(k, 0) for k in grown), grown
    assert not any(isinstance(o, terms._Names)
                   for m in MODULES for o in vars(m).values())
