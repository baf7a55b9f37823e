"""The word category underlying nu-sets.

Objects are natural numbers. A morphism from p to n is a word of length n
over an alphabet of nu direction letters plus the star, with exactly p stars.
For nu=1 this is the morphism category of augmented semi-simplicial sets, for
nu=2 the one of semi-cubical sets.

Composition g . f (written ``compose(g, f)``) is defined by recursion on g:
the stars of g consume the letters of f in order, the direction letters of g
pass through unchanged. The identity on n is the word of n stars.

Letters are stored as small integers: ``STAR == -1`` and direction i as i,
so that tuple comparison gives the lexicographic order with star first.
"""

import math

from .errors import (
    ArityError, ArityMismatch, NotComposable, IndexOutOfRange, NoLetter,
    ParseError,
)
from .frozen import Frozen

STAR = -1

_DIR_SYMBOLS = {1: ("0",), 2: ("L", "R")}

# One character per letter. Past it directions take two digits, and only
# words with one direction letter (face-map keys) keep their text distinct.
TEXT_ARITY = 10


def check_text_arity(nu):
    if nu > TEXT_ARITY:
        raise ArityError(f"arity must be <= {TEXT_ARITY} to be written as "
                         f"text, got {nu}")


def letter_symbol(nu, letter):
    """Render one letter: star as ``*``, directions per the arity."""
    if letter == STAR:
        return "*"
    if nu in _DIR_SYMBOLS:
        return _DIR_SYMBOLS[nu][letter]
    return str(letter)


def parse_letter(nu, ch):
    """Inverse of letter_symbol, liberal about synonyms.

    Accepts ``*`` and the star glyph for the star, ``L``/``R`` when nu >= 2,
    and decimal digits below nu.
    """
    if ch in ("*", "⋆"):
        return STAR
    if ch == "L" and nu >= 2:
        return 0
    if ch == "R" and nu >= 2:
        return 1
    if ch.isdigit() and int(ch) < nu:
        return int(ch)
    raise ParseError(f"letter {ch!r} is not valid at arity {nu}")


class Word(Frozen):
    """A morphism of the word category.

    ``letters`` is the letter tuple; a word of length n with p stars is a
    morphism p -> n. Immutable, and equal and hashed by its fields.
    """

    __slots__ = ("nu", "letters")

    def __init__(self, nu, letters):
        if nu < 1:
            raise IndexOutOfRange(f"arity must be >= 1, got {nu}")
        for a in letters:
            if a != STAR and not (0 <= a < nu):
                raise IndexOutOfRange(
                    f"direction {a} out of range for arity {nu}")
        set_nu, set_letters = self._setters
        set_nu(self, nu)
        set_letters(self, letters)

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return self.nu == other.nu and self.letters == other.letters

    def __hash__(self):
        return hash((self.nu, self.letters))

    @property
    def length(self):
        """The codomain object."""
        return len(self.letters)

    @property
    def stars(self):
        """The domain object."""
        return sum(1 for a in self.letters if a == STAR)

    def is_identity(self):
        return all(a == STAR for a in self.letters)

    def __str__(self):
        return "".join(letter_symbol(self.nu, a) for a in self.letters)

    def __repr__(self):
        return f"Word({self.nu}, {str(self) or 'e'!r})"


def parse_word(nu, text):
    """Parse the no-separator text syntax. The empty string is the empty word.
    ArityError beyond arity TEXT_ARITY, where the syntax is ambiguous.

    The star glyph and the letter synonyms of parse_letter are accepted; the
    Greek epsilon glyph is accepted as a spelling of the empty word.
    """
    check_text_arity(nu)
    text = text.strip()
    if text in ("", "ε"):
        return Word(nu, ())
    letters = []
    for i, ch in enumerate(text):
        try:
            letters.append(parse_letter(nu, ch))
        except ParseError:
            raise ParseError(
                f"letter {ch!r} is not valid at arity {nu}", line=1, col=i + 1)
    return Word(nu, tuple(letters))


def identity(nu, n):
    """The word of n stars, neutral on both sides of compose."""
    if n < 0:
        raise IndexOutOfRange(f"object must be a natural, got {n}")
    return Word(nu, (STAR,) * n)


def compose(g, f):
    """Composite g . f, defined when stars(g) == length(f).

    Recursion on g: an empty g returns f; a leading direction letter of g is
    emitted and the recursion continues on the tail; a leading star of g
    consumes the head letter of f, emitting it.
    """
    if g.nu != f.nu:
        raise ArityMismatch(f"arity {g.nu} vs {f.nu}")
    if g.stars != f.length:
        raise NotComposable(
            f"stars(g)={g.stars} but length(f)={f.length} for g={g}, f={f}")
    out = []
    fi = 0
    for a in g.letters:
        if a == STAR:
            out.append(f.letters[fi])
            fi += 1
        else:
            out.append(a)
    return Word(g.nu, tuple(out))


def hom_enumerate(nu, p, n):
    """All length-n words with exactly p stars, lexicographically.

    The letter order is star < direction 0 < direction 1 < ..., which the
    integer encoding gives for free. Empty when p > n.
    """
    if p < 0 or n < 0 or p > n:
        return []
    # An odometer, so that long words need no recursion: start from the
    # least word (stars first) and step in place. A step raises the
    # rightmost letter that can still rise (a star becomes direction 0
    # only if the suffix after it has room for one more star) and resets
    # that suffix to its least form.
    word = [STAR] * p + [0] * (n - p)
    out = [Word(nu, tuple(word))]
    while True:
        i = n - 1
        stars = 0  # stars in word[i + 1:]
        while i >= 0:
            if word[i] == STAR:
                if n - 1 - i > stars:
                    break
                stars += 1
            elif word[i] < nu - 1:
                break
            i -= 1
        if i < 0:
            return out
        if word[i] == STAR:
            word[i] = 0
            stars += 1
        else:
            word[i] += 1
        word[i + 1:] = [STAR] * stars + [0] * (n - 1 - i - stars)
        out.append(Word(nu, tuple(word)))


def hom_count(nu, p, n):
    """|Hom(p, n)| in closed form: C(n,p) * nu^(n-p); 0 when p > n."""
    if p < 0 or n < 0 or p > n:
        return 0
    return math.comb(n, p) * nu ** (n - p)


def face_word(nu, eps, q, n):
    """The codimension-1 word with direction eps at position q (from the
    left, 0-based) and stars elsewhere: a member of Hom(n-1, n)."""
    if not (0 <= q < n):
        raise IndexOutOfRange(f"position q={q} not in [0, {n})")
    if not (0 <= eps < nu):
        raise IndexOutOfRange(f"direction {eps} out of range for arity {nu}")
    return Word(nu, (STAR,) * q + (eps,) + (STAR,) * (n - 1 - q))


def factor_leftmost(f):
    """Peel the leftmost non-star letter of f.

    Returns (w, rest) with w the codimension-1 word carrying that letter at
    its position and rest = f with the letter deleted; compose(w, rest) == f.
    That is the first of factorizations(f).
    """
    found = factorizations(f)
    if not found:
        raise NoLetter(f"{f} is an identity, nothing to factor")
    return found[0]


def factorizations(f):
    """All (w, rest) with w codimension-1 and compose(w, rest) == f.

    One per non-star letter of f; used by the functor-law checker.
    """
    out = []
    for j, a in enumerate(f.letters):
        if a != STAR:
            w = face_word(f.nu, a, j, f.length)
            rest = Word(f.nu, f.letters[:j] + f.letters[j + 1:])
            out.append((w, rest))
    return out
