"""The streaming reader of nusets.syntax against the list-based one it
replaced.

The reader before it tokenized the whole text into a list of (kind, text,
line, column) tuples, then read the list by index; it is copied below
unchanged as the oracle. On printed telescopes, on every one-token
deletion or duplication of some of them, on edge cases and on random
texts, both give the same term or the same ParseError: message, line and
column. A stray character anywhere is reported before any error of
syntax, as the oracle reports it, having tokenized everything first.
"""

import gc
import io
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nusets import syntax
from nusets.cli import main
from nusets.errors import ParseError
from nusets.parametricity import iterate_types
from nusets.terms import (
    DepFun, FamApp, Prod, Tuple, Univ, Var, _Names, _stamp, print_type,
)


# ------------------------------------------------------------- oracle


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


# ------------------------------------------------------------- checks


def _outcome(read, text):
    """The term read gives for text, or its ParseError as (message, line,
    column), or "nested too deeply"."""
    try:
        return read(text)
    except ParseError as e:
        return str(e), e.line, e.col
    except RecursionError:
        return "nested too deeply"


def _agree(text):
    want = _outcome(parse_type, text)
    assert _outcome(syntax.parse_type, text) == want, repr(text)
    return want


_STEPS = ([(1, n) for n in range(8)] + [(2, n) for n in range(5)]
          + [(3, n) for n in range(4)])


@pytest.fixture(scope="module")
def printed():
    return {(nu, n): print_type(iterate_types(nu, n)) for nu, n in _STEPS}


@pytest.mark.parametrize("nu, n", _STEPS,
                         ids=[f"{nu}-{n}" for nu, n in _STEPS])
def test_printed_telescopes_read_as_before(nu, n, printed):
    text = printed[nu, n]
    T = _agree(text)
    assert print_type(T) == text
    _agree(text + "\n")


@pytest.mark.parametrize("nu, n", [(1, 4), (2, 2), (3, 2)])
def test_every_one_token_edit_reads_as_before(nu, n, printed):
    """Each token deleted, and each token doubled, reads to the same term
    or the same error in both readers."""
    text = printed[nu, n]
    tokens = list(_TOKEN.finditer(text))
    assert len(tokens) > 40
    outcomes = [_agree(edited) for m in tokens for edited in (
        text[:m.start()] + text[m.end():],
        text[:m.end()] + " " + m.group() + text[m.end():])]
    errors = sum(isinstance(o, tuple) for o in outcomes)
    assert 0 < errors < len(outcomes)  # both errors and terms are read


@pytest.mark.parametrize("text", [
    "", " ", "   \t ", "\n", "\n\n", " \r\n ", "\x0c",
    "U", "U\n", "U\n\n", "U \r\n", "U\x85", "\u2028U",
    "Pi a:X0.\n  X1 a\r\n  -> U",
    "Pi a:X0.\rX1 a\x0b->\x0cU\x1c",
    "Pi a:X0.\n  X1 a ->\n",
    "Pi a:X0.\n\n  X1 a *\n\n",
    "U @", "U\n@", "U ->\n  U\n  $", "Pi a:X0. X1 a -> U #",
    "Pi :X0. U @", "Pi x", "(U", "U U)", "U U) ~", "-U", "U -> > U",
    "1", "X1 2a", "Pi U:A. B", "(U,)", "(,U)", "\xe9",
], ids=repr)
def test_edge_cases_read_as_before(text):
    _agree(text)


_PIECES = ["Pi ", "Pi", "U", "X0", "X1", "a", "a2", "_", ":", ".", ",",
           "(", ")", "*", "->", "-", ">", " ", "  ", "\t", "\n", "\r",
           "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
           "\u2028", "\u2029", "\xa0", "@", "9", "\xe9"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PIECES), max_size=40))
def test_random_texts_read_as_before(pieces):
    _agree("".join(pieces))


@pytest.mark.parametrize("tail", ["", " @", "\n\n  @", " -> U $"])
def test_deep_nesting_reads_as_before_and_exits_two(tail, monkeypatch,
                                                    capsys):
    """Nesting deeper than the recursion limit ends with exit 2 and no
    traceback; a stray character after it is still reported as one."""
    text = "(" * 5000 + "X0" + ")" * 5000 + " -> U" + tail
    want = _agree(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["param"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if tail:
        assert err == f"error: {want[0]}\n"
    else:
        assert err == "error: input nested too deeply\n"


def test_reader_memory_follows_its_term():
    """Under tracemalloc, reading the printed (2, 5) telescope peaks at
    most half again above what the returned term holds: the tokens are
    read one at a time, not held in a list (which peaked at 2.4 to 2.9
    times the term)."""
    text = print_type(iterate_types(2, 5))
    syntax.parse_type(text)
    gc.collect()
    tracemalloc.start()
    try:
        T = syntax.parse_type(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert print_type(T) == text
    assert peak <= 1.5 * held, (peak, held)
