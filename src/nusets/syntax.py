"""The surface syntax of types, read into terms stamped as they are built.

    type  ::=  "Pi" ident ":" arrow "." type  |  arrow
    arrow ::=  prod ("->" arrow)?
    prod  ::=  app ("*" app)*
    app   ::=  atom atom*
    atom  ::=  "U"  |  ident  |  "(" type ("," type)* ")"

A parenthesized comma list is a tuple; "Pi" and "U" are keywords. Binders
named "_" are arrows.
"""

import re

from .errors import ParseError
from .terms import DepFun, FamApp, Prod, Tuple, Univ, Var, _Names, _stamp


# A symbol, an identifier, or a stray character: the group that matched
# says which.
_TOKEN = re.compile(r"(->|[()*:.,])|([A-Za-z_][A-Za-z0-9_]*)|\S")
_ID = "ident"  # the kind of every identifier but the keywords
_ARGUMENT = frozenset(("(", _ID, "U"))  # the kinds an argument starts with


def _tokenize(text):
    """The tokens of text as (kind, text, line, column), then an end token
    of kind and text None. A symbol's kind is the symbol, a keyword's the
    keyword, any other identifier's _ID."""
    tokens = []
    append = tokens.append
    for ln, line in enumerate(text.splitlines() or [""], start=1):
        for m in _TOKEN.finditer(line):
            tok = m.group()
            if m.lastindex == 1:
                kind = tok
            elif m.lastindex == 2:
                kind = tok if tok in ("Pi", "U") else _ID
            else:
                raise ParseError(f"stray character {tok!r}",
                                 line=ln, col=m.start() + 1)
            append((kind, tok, ln, m.start() + 1))
    append((None, None, ln if text else 1,
            len(text.splitlines()[-1]) + 1 if text else 1))
    return tokens


def _found(tok):
    """How an error message names the token tok found out of place."""
    return "the end of the input" if tok is None else repr(tok)


class _Reader:
    """Recursive descent over the token list, by index. Every node is
    stamped under the reader's name table as it is built (see "scoping"
    in nusets.terms), and each name's variable and the universe are one
    node each, so normalize and print_type read the masks as they are."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = _Names()
        self.vars = {}
        self.univ = _stamp(Univ(), (), self.names)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, what):
        kind, tok, ln, col = self.take()
        if kind != what:
            raise ParseError(f"expected {what!r}, found {_found(tok)}",
                             line=ln, col=col)

    def type_(self):
        return self.spine([])

    def arrow(self):
        left = self.prod()
        if self.tokens[self.pos][0] == "->":
            self.pos += 1
            return self.spine([("_", left)])
        return left

    def spine(self, binders):
        """The rest of a type after the given (binder, domain) pairs: read
        "Pi x:A." and "A ->" in a loop, so a long telescope does not
        recurse, then nest the binders around the final product."""
        tokens = self.tokens
        while True:
            if tokens[self.pos][0] == "Pi":
                kind, tok, ln, col = tokens[self.pos + 1]
                self.pos += 2
                if kind != _ID:
                    raise ParseError(
                        f"expected binder name, found {_found(tok)}",
                        line=ln, col=col)
                self.expect(":")
                dom = self.arrow()
                self.expect(".")
                binders.append((tok, dom))
                continue
            out = self.prod()
            if tokens[self.pos][0] != "->":
                break
            self.pos += 1
            binders.append(("_", out))
        for binder, dom in reversed(binders):
            out = _stamp(DepFun(binder, dom, out), (dom, out), self.names)
        return out

    def prod(self):
        items = [self.app()]
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            items.append(self.app())
        if len(items) == 1:
            return items[0]
        return _stamp(Prod(items), items, self.names)

    def app(self):
        head = self.atom()
        args = []
        while self.tokens[self.pos][0] in _ARGUMENT:
            args.append(self.atom())
        if not args:
            return head
        return _stamp(FamApp(head, args), (head, *args), self.names)

    def atom(self):
        kind, tok, ln, col = self.take()
        if kind == _ID:
            var = self.vars.get(tok)
            if var is None:
                var = self.vars[tok] = _stamp(Var(tok), (), self.names)
            return var
        if kind == "U":
            return self.univ
        if kind == "(":
            items = [self.type_()]
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                items.append(self.type_())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return _stamp(Tuple(items), items, self.names)
        raise ParseError(f"expected a type, found {_found(tok)}",
                         line=ln, col=col)


def parse_type(text):
    """The term text writes, stamped under a name table of its own; a
    ParseError gives the line and column of the first token out of
    place."""
    reader = _Reader(text)
    out = reader.type_()
    kind, tok, ln, col = reader.tokens[reader.pos]
    if kind is not None:
        raise ParseError(f"trailing input {tok!r}", line=ln, col=col)
    return out
