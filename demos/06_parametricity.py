"""
Binary parametricity and iterated translation
=============================================

The translation sends a closed type to the telescope of hypotheses its
nu-fold relational interpretation imposes. Iterating it from U alone
rebuilds the shape categories: the number of depth-p hypotheses after n
steps equals the number of words from p to n.
"""

from nusets.hypotheses import telescope_stats
from nusets.normal import normalize
from nusets.parametricity import App, Pair, iterate_types, translate
from nusets.syntax import parse_type
from nusets.telescopes import same_telescope
from nusets.terms import Univ, Var, print_type
from nusets.words import hom_count

# parse and print are inverse on the nose modulo binder names
T = parse_type("Pi f:(Pi x:A. B x). C f")
print("parsed back:", print_type(T))

# one translation step at arity 2: a universe becomes the type of
# relations between its two copies
rel = App(translate(Univ(), 2), Pair(Var("AL"), Var("AR")))
print("U translates to:", print_type(normalize(rel)))

# iterating from U: the first few telescopes at both arities
for nu in (1, 2):
    for n in range(3):
        print(f"nu={nu} step {n}:", print_type(iterate_types(nu, n)))

# hypothesis counts match word counts, depth by depth
for nu in (1, 2):
    for n in range(5):
        stats = telescope_stats(iterate_types(nu, n))
        assert all(stats.get(p, 0) == hom_count(nu, p, n) for p in range(n))
print("hypothesis counts == word counts for nu in {1,2}, n < 5")

# the two-step binary telescope is the square: 4 points, 4 lines, one
# 2-cell asked for at the end. Comparison is up to renaming, reordering,
# and currying.
display = ("Pi a:X0. Pi b:X0. Pi c:X0. Pi d:X0. "
           "X1 (a, b) * X1 (c, d) * X1 (a, c) * X1 (b, d) -> U")
print("square display matches:",
      same_telescope(iterate_types(2, 2), parse_type(display)))

# rewiring one line breaks the match
rewired = display.replace("X1 (b, d)", "X1 (d, b)")
print("rewired square matches:",
      same_telescope(iterate_types(2, 2), parse_type(rewired)))
