"""The surface syntax of types, read into terms stamped as they are built.

    type  ::=  "Pi" ident ":" arrow "." type  |  arrow
    arrow ::=  prod ("->" arrow)?
    prod  ::=  app ("*" app)*
    app   ::=  atom atom*
    atom  ::=  "U"  |  ident  |  "(" type ("," type)* ")"

A parenthesized comma list is a tuple; "Pi" and "U" are keywords. Binders
named "_" are arrows.

The tokens are read as the reader asks for them, one ahead, so a
reader's memory follows the term it builds, not the length of its text.
"""

import re

from .errors import ParseError
from .terms import DepFun, FamApp, Prod, Tuple, Univ, Var, _Names, _stamp


# A symbol, an identifier, or a stray character: the group that matched
# says which.
_TOKEN = re.compile(r"(->|[()*:.,])|([A-Za-z_][A-Za-z0-9_]*)|\S")
# The line breaks of str.splitlines, which number the lines of a message.
_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_ID = "ident"  # the kind of every identifier but the keywords
_ARGUMENT = frozenset(("(", _ID, "U"))  # the kinds an argument starts with


def _where(text, at):
    """The line and column of offset at in text, with the lines
    str.splitlines cuts: the end of a text that ends in a line break is
    the end of its last line."""
    breaks = list(_BREAK.finditer(text, 0, at))
    if breaks and at == len(text) == breaks[-1].end():
        at = breaks.pop().start()
    return len(breaks) + 1, at - (breaks[-1].end() if breaks else 0) + 1


def _tokens(text, at=0):
    """The tokens of text from offset at as (kind, text, offset), then an
    end token of kind and text None, each made when the reader asks for
    it. A symbol's kind is the symbol, a keyword's the keyword, any other
    identifier's _ID; a stray character raises ParseError."""
    for m in _TOKEN.finditer(text, at):
        tok = m.group()
        if m.lastindex == 1:
            kind = tok
        elif m.lastindex == 2:
            kind = tok if tok in ("Pi", "U") else _ID
        else:
            line, col = _where(text, m.start())
            raise ParseError(f"stray character {tok!r}", line=line, col=col)
        yield kind, tok, m.start()
    yield None, None, len(text)


def _found(tok):
    """How an error message names the token tok found out of place."""
    return "the end of the input" if tok is None else repr(tok)


class _Reader:
    """Recursive descent over the tokens, with one token of lookahead:
    kind, tok and at are the current token's. Every node is stamped under
    the reader's name table as it is built (see "scoping" in
    nusets.terms), and each name's variable and the universe are one node
    each, so normalize and print_type read the masks as they are."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokens(text)
        self.names = _Names()
        self.vars = {}
        self.univ = _stamp(Univ(), (), self.names)
        self.tok = None
        self.advance()

    def advance(self):
        """Make the next token current; return the text of the one that
        was."""
        tok = self.tok
        self.kind, self.tok, self.at = next(self.tokens)
        return tok

    def strays(self):
        """Raise ParseError at the first stray character from the current
        token on, if there is one: a stray character is reported before
        any other error, wherever it stands."""
        for _ in _tokens(self.text, self.at):
            pass

    def fail(self, message):
        """Raise ParseError at the current token, unless strays does."""
        self.strays()
        line, col = _where(self.text, self.at)
        raise ParseError(message, line=line, col=col)

    def expect(self, what):
        if self.kind != what:
            self.fail(f"expected {what!r}, found {_found(self.tok)}")
        self.advance()

    def type_(self):
        return self.spine([])

    def arrow(self):
        left = self.prod()
        if self.kind == "->":
            self.advance()
            return self.spine([("_", left)])
        return left

    def spine(self, binders):
        """The rest of a type after the given (binder, domain) pairs: read
        "Pi x:A." and "A ->" in a loop, so a long telescope does not
        recurse, then nest the binders around the final product."""
        while True:
            if self.kind == "Pi":
                self.advance()
                if self.kind != _ID:
                    self.fail(
                        f"expected binder name, found {_found(self.tok)}")
                binder = self.advance()
                self.expect(":")
                dom = self.arrow()
                self.expect(".")
                binders.append((binder, dom))
                continue
            out = self.prod()
            if self.kind != "->":
                break
            self.advance()
            binders.append(("_", out))
        for binder, dom in reversed(binders):
            out = _stamp(DepFun(binder, dom, out), (dom, out), self.names)
        return out

    def prod(self):
        items = [self.app()]
        while self.kind == "*":
            self.advance()
            items.append(self.app())
        if len(items) == 1:
            return items[0]
        return _stamp(Prod(items), items, self.names)

    def app(self):
        head = self.atom()
        args = []
        while self.kind in _ARGUMENT:
            args.append(self.atom())
        if not args:
            return head
        return _stamp(FamApp(head, args), (head, *args), self.names)

    def atom(self):
        kind = self.kind
        if kind == _ID:
            tok = self.advance()
            var = self.vars.get(tok)
            if var is None:
                var = self.vars[tok] = _stamp(Var(tok), (), self.names)
            return var
        if kind == "U":
            self.advance()
            return self.univ
        if kind == "(":
            self.advance()
            items = [self.type_()]
            while self.kind == ",":
                self.advance()
                items.append(self.type_())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return _stamp(Tuple(items), items, self.names)
        self.fail(f"expected a type, found {_found(self.tok)}")


def parse_type(text):
    """The term text writes, stamped under a name table of its own; a
    ParseError gives the line and column of the first token out of
    place."""
    reader = _Reader(text)
    try:
        out = reader.type_()
    except RecursionError:
        reader.strays()
        raise
    if reader.kind is not None:
        reader.fail(f"trailing input {reader.tok!r}")
    return out
