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
from .terms import (
    App, DepFun, FamApp, Lam, Prod, Proj, Tuple, Univ, Var, _Names, _fresh,
    _info, _normal_form, _prod, _proj, _table, _tuple,
)


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
        S = _normal_form(FamApp(t, (diag,)), names)
    return S
