"""Arity-indexed parametricity translation on the terms of nusets.terms.

The translation of the universe sends a tuple of types to the space of
relations over them; dependent functions translate to the statement that
related arguments go to related results; products translate
componentwise. Iterating from the universe produces the types of the
families X_0, X_1, X_2, ... whose hypothesis counts reproduce the hom
counts of the shape category; that correspondence is the arbiter for every
convention chosen here.
"""

from .errors import ArityError, UnsupportedConstruct
from .normal import _normal_form
from .terms import (
    DepFun, FamApp, Lam, Prod, Proj, Tuple, Univ, Var, _Names, _fresh, _info,
    _made, _table,
)


# Unstamped builders; width 1 gives the one item.


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


def _copy(e, i, nu, env, names):
    """The i-th copy of a source expression: free variables become their
    i-th copies, bound ones stay put. e and env's copies are stamped
    under names, and so is every node built."""
    if isinstance(e, Univ):
        return e
    if isinstance(e, Var):
        if e.name not in env:
            raise UnsupportedConstruct(f"free variable {e.name}")
        return env[e.name][0][i]
    if isinstance(e, DepFun):
        env2 = dict(env)
        env2[e.binder] = ((_made(Var(e.binder), names),) * nu, None)
        return _made(DepFun(e.binder, _copy(e.domain, i, nu, env, names),
                            _copy(e.codomain, i, nu, env2, names)), names)
    if isinstance(e, Prod):
        return _made(Prod(tuple(_copy(x, i, nu, env, names)
                                for x in e.items)), names)
    if isinstance(e, FamApp):
        return _made(FamApp(_copy(e.head, i, nu, env, names),
                            tuple(_copy(a, i, nu, env, names)
                                  for a in e.args)), names)
    if isinstance(e, Tuple):
        return _made(Tuple(tuple(_copy(x, i, nu, env, names)
                                 for x in e.items)), names)
    if isinstance(e, Proj):
        return _made(Proj(e.index, _copy(e.tuple_, i, nu, env, names)),
                     names)
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
    # wraps on the way back, so a long telescope does not recurse. Every
    # node is built stamped under names (see terms._made), as the reader
    # builds its nodes, so normalize meets the translation stamped.
    def made(e):
        return _made(e, names)

    outer = []
    while isinstance(T, DepFun):
        avoid = env_mask | _info(T, names).fv
        f = _fresh("f", avoid, names)
        avoid |= names.bit(f)
        abar = _fresh(T.binder, avoid, names)
        avoid |= names.bit(abar)
        astar = _fresh(T.binder + "s", avoid, names)
        dom = made(_prod([_copy(T.domain, i, nu, env, names)
                          for i in range(nu)]))
        projs = [made(_proj(i, made(Var(abar)), nu)) for i in range(nu)]
        dstar = made(FamApp(_translate(T.domain, nu, env, env_mask, names),
                            (made(_tuple(projs)),)))
        applied = made(_tuple([made(App(made(_proj(i, made(Var(f)), nu)),
                                        projs[i]))
                               for i in range(nu)]))
        outer.append((f, abar, dom, astar, dstar, applied))
        entry = {T.binder: (tuple(projs), made(Var(astar)))}
        shadows = T.binder in env  # then the old entry's names go
        env = {**env, **entry}
        env_mask = (_env_mask(env, names) if shadows
                    else env_mask | _env_mask(entry, names))
        T = T.codomain
    out = _translate_other(T, nu, env, env_mask, names)
    for f, abar, dom, astar, dstar, applied in reversed(outer):
        cstar = made(FamApp(out, (applied,)))
        out = made(Lam(f, made(DepFun(abar, dom,
                                      made(DepFun(astar, dstar, cstar))))))
    return out


def _translate_other(T, nu, env, env_mask, names):
    """_translate of anything but a dependent function."""
    def made(e):
        return _made(e, names)

    avoid = env_mask | _info(T, names).fv

    if isinstance(T, Univ):
        a = made(Var(_fresh("A", avoid, names)))
        return made(Lam(a.name, made(DepFun(
            "_", made(_prod([made(_proj(i, a, nu)) for i in range(nu)])),
            made(Univ())))))

    if isinstance(T, Var):
        copies, witness = env.get(T.name, ((), None))
        if witness is None:
            raise UnsupportedConstruct(
                f"variable {T.name} has no relational witness")
        return witness

    if isinstance(T, Prod):
        p = made(Var(_fresh("p", avoid, names)))
        width = len(T.items)
        comps = []
        for j, item in enumerate(T.items):
            picks = made(_tuple([made(_proj(j, made(_proj(i, p, nu)), width))
                                 for i in range(nu)]))
            comps.append(made(FamApp(
                _translate(item, nu, env, env_mask, names), (picks,))))
        return made(Lam(p.name, made(_prod(comps))))

    if isinstance(T, FamApp):
        out = _translate(T.head, nu, env, env_mask, names)
        for a in T.args:
            copies = made(_tuple([_copy(a, i, nu, env, names)
                                  for i in range(nu)]))
            out = made(FamApp(out, (copies, _translate(a, nu, env, env_mask,
                                                       names))))
        return out

    if isinstance(T, Tuple):
        return made(Tuple(tuple(_translate(x, nu, env, env_mask, names)
                                for x in T.items)))

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
    X = [_made(Var(f"X{j}"), names) for j in range(steps + 1)]
    S = _made(Univ(), names)
    for k in range(steps):
        env = {f"X{j}": ((X[j],) * nu, X[j + 1]) for j in range(k)}
        t = _translate(S, nu, env, _env_mask(env, names), names)
        diag = _made(_tuple([X[k]] * nu), names)
        S = _normal_form(_made(FamApp(t, (diag,)), names), names)
    return S
