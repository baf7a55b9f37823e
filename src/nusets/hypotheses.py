"""A telescope's hypotheses and their counts by family level."""

import re

from .errors import NotATelescope
from .terms import DepFun, FamApp, Univ, Var


def _atom_level(d, bound):
    """Level p when d is X_p or X_p applied to arguments, with X_p not
    among the names bound, else None."""
    head = d
    if isinstance(head, FamApp):
        head = head.head
    if (isinstance(head, Var) and head.name not in bound
            and re.fullmatch(r"X\d+", head.name)):
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
    """Hypothesis counts of a normalized telescope, keyed by family level.
    A domain counts under the family X_p only when X_p is free there: a
    head bound by an earlier binder of the telescope is no family."""
    stats = {}
    bound = set()
    for name, dom in flatten_telescope(T):
        level = _atom_level(dom, bound)
        if level is None:
            raise NotATelescope(f"domain is not a family atom: {dom!r}")
        stats[level] = stats.get(level, 0) + 1
        bound.add(name)
    return stats
