"""The command-line reader against the argparse parser it replaced.

``_natural`` and ``_build_parser`` below are the parser that
``nusets.cli`` built with argparse, kept verbatim as the reference. The
reader (``nusets.cmdline.read`` over ``nusets.cli._COMMANDS``) must end
every command line the way it does: both print help and exit 0, both
reject with exit 2, or both accept with the same handler and the same
value in every field. A parametrized corpus and a hypothesis property
check it; the property draws words from the table's vocabulary.

Where argparse's own reading differs between Python versions (3.10 to
3.13), or reads a word as no user would mean it, the reader's reading is
pinned in PINNED instead. The property's vocabulary leaves those words
out, and it compares with argparse only the lines ``_settled`` passes.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from nusets.cli import (
    _COMMANDS, _cmd_coh_check, _cmd_compose, _cmd_convert, _cmd_extend,
    _cmd_hom, _cmd_param, _cmd_roundtrip, _cmd_shape, _cmd_validate,
)
from nusets.cmdline import read


def _natural(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a natural, got {text!r}")
    return int(text)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="nusets",
        description="semi-simplicial and semi-cubical set toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-parseable JSON on stdout")
        return p

    p = add("hom", _cmd_hom, "list the words from p to n")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("-p", type=_natural, required=True)
    p.add_argument("-n", type=_natural, required=True)

    p = add("compose", _cmd_compose,
            "compose two words (shell-quote the '*'s)")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("g")
    p.add_argument("f")

    p = add("shape", _cmd_shape, "standard shape at dimension n")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("--dot", action="store_true", help="DOT graph text")

    p = add("validate", _cmd_validate,
            "check a nu-set file (either format)")
    p.add_argument("file", nargs="?", help="path or - for stdin")

    p = add("convert", _cmd_convert,
            "convert between the fibred and indexed formats")
    p.add_argument("file", nargs="?", help="path or - for stdin")

    p = add("coh-check", _cmd_coh_check,
            "run the coherence sweep on an indexed file")
    p.add_argument("file", nargs="?", help="path or - for stdin")

    p = add("param", _cmd_param,
            "normalized telescope plus hypothesis counts")
    p.add_argument("file", nargs="?",
                   help="type in the surface syntax; path or - for stdin")
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("-n", "--steps", dest="steps", type=_natural,
                   default=None,
                   help="emit the step-n iterated telescope instead")

    p = add("extend", _cmd_extend,
            "extend an indexed file by singleton levels")
    p.add_argument("file", nargs="?", help="path or - for stdin")
    p.add_argument("--levels", type=_natural, required=True,
                   help="number of levels to add")

    p = add("roundtrip", _cmd_roundtrip,
            "round-trip a nu-set file through the other form")
    p.add_argument("file", nargs="?", help="path or - for stdin")
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("-n", type=_natural, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="randomized instance when no file is given")

    return top


def _oracle(argv):
    """How argparse ends argv: "help", "error" or (handler, fields)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as e:
            return {0: "help", 2: "error"}[e.code]
    fields = vars(ns)
    del fields["command"]
    return fields.pop("func"), fields


def _reader(argv):
    """How the reader ends argv, in the same terms as _oracle; an error
    must write a usage line and an error line, and help some text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            handler, args = read(_COMMANDS, argv)
        except SystemExit as e:
            if e.code == 0:
                assert out.getvalue().startswith("usage: nusets")
                assert err.getvalue() == ""
                return "help"
            assert e.code == 2
            usage, error = err.getvalue().splitlines()
            assert usage.startswith("usage: nusets")
            assert error.startswith("nusets") and ": error: " in error
            assert out.getvalue() == ""
            return "error"
    assert out.getvalue() == err.getvalue() == ""
    fields = dict(vars(args))
    assert fields.pop("given") <= set(fields)
    return handler, fields


# Command lines as users write them, and the corners of argparse's
# reading: prefixes, "=", attached values, options after positionals,
# "--", "-", negative numbers, repeats, unknown and missing options,
# extra positionals, help.
CORPUS = [
    ["hom", "--nu", "2", "-p", "1", "-n", "2"],
    ["hom", "-n", "2", "-p", "1", "--nu", "2", "--json"],
    ["hom", "--n=2", "-p1", "-n=2"],
    ["hom", "--nu", "2", "-p", "1"],
    ["hom", "--nu", "2", "-p", "1", "-n", "2", "-n", "3"],
    ["hom", "--nu", "-1", "-p", "0", "-n", "2"],
    ["hom", "--nu", "1", "-p", "-1", "-n", "1"],
    ["hom", "--nu", "1", "-p-1", "-n", "1"],
    ["hom", "--nu", "x", "-p", "0", "-n", "2"],
    ["hom", "--nu", " 2", "-p", "1", "-n", "2"],
    ["hom", "--nu", "2", "-p", "1", "-n", "\u0663"],
    ["hom", "--nu", "2", "-p", "1", "-n", "2", "extra"],
    ["hom", "--nu", "2", "-p", "1", "-n", "2", "--foo"],
    ["hom", "--nu"],
    ["hom", "--nu", "-p", "1"],
    ["hom", "--nu=", "-p", "1", "-n", "1"],
    ["compose", "--nu", "2", "L*", "*"],
    ["compose", "L*", "--nu", "2", "*"],
    ["compose", "L*", "*", "--nu", "2", "--json"],
    ["compose", "--nu", "2", "--", "-5", "*"],
    ["compose", "--nu", "2", "-5", "-12"],
    ["compose", "--nu", "2", "L*", "--", "-h"],
    ["compose", "--nu", "2", "a b", "-x y"],
    ["compose", "--nu", "2", "L*"],
    ["compose", "--nu", "2", "a", "b", "c"],
    ["shape", "--nu", "2", "-n", "2", "--dot"],
    ["shape", "--nu", "2", "-n", "2", "--d", "--j"],
    ["shape", "--nu", "2", "-n", "2", "--dot=yes"],
    ["shape", "--nu", "2", "-n", "2", "--json="],
    ["validate", "square.json"],
    ["validate", "--json", "square.json"],
    ["validate", "square.json", "--json"],
    ["validate", "-"],
    ["validate", ""],
    ["validate"],
    ["validate", "--", "-weird.json"],
    ["validate", "a.json", "b.json"],
    ["validate", "a.json", "--json", "b.json"],
    ["convert", "square.json"],
    ["coh-check", "--json", "-"],
    ["param", "--nu", "2", "--steps", "2"],
    ["param", "--nu", "2", "-n", "5", "--json"],
    ["param", "--s=3"],
    ["param", "--st", "3", "--n", "3"],
    ["param", "-"],
    ["param", "t.ty", "-n", "2"],
    ["param", "-n", "2", "t.ty"],
    ["param", "-n", "-2"],
    ["param", "--nu", "0", "-n", "1"],
    ["extend", "square.json", "--levels", "2"],
    ["extend", "--lev", "2", "square.json"],
    ["extend", "square.json"],
    ["extend", "--levels", "two", "square.json"],
    ["roundtrip", "--nu", "1", "-n", "3", "--seed", "11"],
    ["roundtrip", "--se", "-3"],
    ["roundtrip", "--seed=-3", "--nu=-1"],
    ["roundtrip", "square.json"],
    ["roundtrip", "-n", "1", "-n", "2"],
    [],
    ["nope"],
    ["val", "x"],
    ["-"],
    ["-5", "hom"],
    ["--foo", "validate", "x"],
    ["-x", "validate", "x", "-h"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--help=x"],
    ["-h=x"],
    ["-h", "hom"],
    ["hom", "-h"],
    ["hom", "--he"],
    ["hom", "--nu", "x", "-h"],
    ["hom", "-h", "--nu", "x"],
    ["hom", "--help=x"],
    *([name, "--help"] for name in _COMMANDS),
]


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_reader_agrees_with_argparse_on_the_corpus(argv):
    assert _settled(argv)
    assert _reader(argv) == _oracle(argv)


def _fields(handler, **fields):
    return handler, fields


# The reader's reading where argparse's depends on the Python version
# (seen on 3.10.13, 3.11.7, 3.12.1 and 3.13.0) or reads a word as no
# user would mean it; the comment gives argparse's reading.
PINNED = [
    # "--" before the subcommand: an error up to 3.13.0, as "--" is then
    # read as the subcommand's name
    (["--", "hom", "--nu", "2", "-p", "1", "-n", "2"], "error"),
    # a "--" that ends the line ends the options: argparse 3.11 rejects it
    # as an unrecognized argument when no positional is left to take it
    (["hom", "--nu", "2", "-p", "1", "-n", "2", "--"],
     _fields(_cmd_hom, json=False, nu=2, p=1, n=2)),
    (["validate", "x", "--json", "--"],
     _fields(_cmd_validate, json=True, file="x")),
    # a "--" after the one that ends the options is a value: up to 3.13.0
    # argparse drops it, and f is then an empty list
    (["compose", "--nu", "2", "--", "a", "--"],
     _fields(_cmd_compose, json=False, nu=2, g="a", f="--")),
    (["validate", "--", "--"], _fields(_cmd_validate, json=False, file="--")),
    # "--" attached with "=" is a value, not an int: up to 3.12 argparse
    # drops it and nu is an empty list
    (["compose", "--nu=--", "a", "b"], "error"),
    # text attached to -h: 3.10-3.12 read -hn5 and -h=n5 as help and -hx
    # as an error, 3.13.0 -hn5 and -hx as help and -h=n5 as an error
    (["hom", "-hn5"], "error"),
    (["hom", "-hx"], "error"),
    (["hom", "-h=n5"], "error"),
    # a prefix of several options is an unknown option, so help met first
    # wins: argparse 3.11 rejects the line before it reads -h
    (["hom", "-h", "--=5"], "help"),
    (["hom", "--nu", "2", "-p", "1", "-n", "2", "--=5"], "error"),
    # a word that starts with "-" and a digit, or "-." and a digit, is a
    # value: argparse 3.11 reads -1e5, -1_000 and -5x as unknown options
    (["compose", "--nu", "2", "-.5", "-1e5"],
     _fields(_cmd_compose, json=False, nu=2, g="-.5", f="-1e5")),
    (["roundtrip", "--seed", "-1_000"],
     _fields(_cmd_roundtrip, json=False, file=None, nu=2, n=2, seed=-1000)),
    (["compose", "--nu", "2", "-5x", "y"],
     _fields(_cmd_compose, json=False, nu=2, g="-5x", f="y")),
]


@pytest.mark.parametrize("argv, expected", PINNED,
                         ids=[" ".join(argv) for argv, _ in PINNED])
def test_reader_where_argparse_varies(argv, expected):
    assert _reader(argv) == expected


# The vocabulary of the property: every spelling of every option of the
# table, with each unique prefix of the long ones; values (naturals,
# negative numbers, words with spaces, "-" and the empty word); unknown
# options, the help options, "--", and words before the subcommand.
_SPELLINGS = sorted({name for _, _, spec in _COMMANDS.values()
                     for flags, *_ in [("--json",), *spec]
                     if flags[0] == "-" for name in flags.split()})
_TAKING = sorted({name for _, _, spec in _COMMANDS.values()
                  for flags, convert, *_ in spec
                  if flags[0] == "-" and convert is not None
                  for name in flags.split()})
_PREFIXES = sorted({name[:k] for name in _SPELLINGS if name[1] == "-"
                    for k in range(3, len(name))})
_VALUES = ["0", "1", "2", "12", "-1", "-12", "-0", "x", "", " 3", "3 ",
           "-", "a b", "-x y", "-n 5", "L*", "*", "\u0663", "f.json"]
_UNKNOWN = ["--foo", "-x", "--nux", "-q5", "--json5", "-Z"]
_NATURALS = ["0", "1", "2", "12"]
_BEFORE = [[]] * 30 + [["-x"], ["--foo"], ["-5"], ["-h"], ["--he"]]
_COMMAND_NAMES = [*_COMMANDS] * 4 + ["nope", "val"]


def _spellings(flags):
    return sorted({name[:k] for name in flags.split()
                   for k in range(3 if name[1] == "-" else 2,
                                  len(name) + 1)})


def _given(pick, flags, convert):
    """The words that give one argument of a subcommand, spelled one of
    the ways it can be."""
    if flags[0] != "-":
        return [pick(_NATURALS * 4 + _VALUES)]
    name = pick(_spellings(flags))
    if convert is None:
        return [name]
    value = pick(_NATURALS * 4 + _VALUES)
    if name[1] != "-" and pick([0, 1]):
        return [name + value]
    return pick([[name, value], [f"{name}={value}"]])


def _noise(pick):
    """Words that may make the line wrong, or ask for help."""
    kind = pick(range(8))
    value = pick(_VALUES)
    if kind == 0:
        return [pick(_SPELLINGS + _PREFIXES), value]
    if kind == 1:
        return [f"{pick(_SPELLINGS + _PREFIXES)}={value}"]
    if kind == 2:
        return [pick([o for o in _TAKING if o[1] != "-"]) + value]
    if kind == 3:
        return [pick(_SPELLINGS + _PREFIXES)]
    if kind == 4:
        return [value]
    if kind == 5:
        return ["--"]
    if kind == 6:
        return [pick(_UNKNOWN)]
    return [pick(["-h", "--help", "--he"])]


def _line(pick):
    """One command line, each choice made by pick(sequence): the
    subcommand's own arguments, each most often given, and some noise,
    in any order."""
    words = [*pick(_BEFORE), pick(_COMMAND_NAMES)]
    spec = _COMMANDS.get(words[-1], (None, None, []))[2]
    units = [_given(pick, flags, convert)
             for flags, convert, *_ in [("--json", None), *spec]
             if pick(range(6))]
    for _ in range(pick([0, 0, 0, 1, 1, 2])):
        units.append(_noise(pick))
    line = []
    for unit in units:
        at = pick(range(len(line) + 1))
        line[at:at] = [unit]
    return words + [word for unit in line for word in unit]


def _settled(argv):
    """Whether argparse reads argv alike on Python 3.10 to 3.13: the
    lines of _line are, unless a "--" is repeated or ends the line."""
    return argv.count("--") <= 1 and argv[-1:] != ["--"]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.composite(lambda draw: _line(
    lambda seq: draw(st.sampled_from(seq))))())
def test_reader_agrees_with_argparse(argv):
    ours = _reader(argv)
    if _settled(argv):
        assert ours == _oracle(argv)
