"""Reads the command line from a table of subcommands.

The table (``nusets.cli._COMMANDS``) maps each subcommand to its handler,
its help line and its arguments. An argument is ``(flags, convert,
default, help)``: ``flags`` is one option or two spellings of it
(``"-n --steps"``), or a positional's name; ``convert`` turns the text
into the value, and None marks a flag that takes no value; a ``default``
of REQUIRED marks an argument that must be given. Every subcommand also
takes ``--json`` and ``-h``/``--help``.

Words are read as argparse reads them for such a table: long options or
any unique prefix of one, ``--opt=value``, short options with the value
attached (``-n5``), options before, between or after positionals, ``--``
ending the options, ``-`` as a value, a word that starts like a negative
number (``-5``, ``-.5``) as a value, and the last of a repeated option.
``-h`` prints help made from the table and exits 0; a usage error writes
a ``usage:`` line and an ``error:`` line to stderr and exits 2. Where
argparse's readings differ between Python versions (``--`` before the
subcommand, text attached to ``-h``, a ``--`` ending the words), this
reader keeps one, which ``tests/test_cmdline.py`` lists. argparse is not
imported: importing it and building the parser took about 6 ms and
0.6 MiB of every call.
"""

import sys

_PROG = "nusets"
_ABOUT = "semi-simplicial and semi-cubical set toolkit"
REQUIRED = object()
_HELP = ("-h --help", None, None, "show this help message and exit")
_JSON = ("--json", None, False, "machine-parseable JSON on stdout")
_TOP = {"-h": _HELP, "--help": _HELP}


def natural(text):
    """The convert of an argument that takes a natural number."""
    if not text.isdecimal():
        raise ValueError(f"must be a natural, got {text!r}")
    return int(text)


class Args:
    """The fields of one command line, an attribute each, and ``given``:
    the set of the fields it set, so that a handler can tell a value
    given from a default."""


def _dest(flags):
    # the long spelling names the field, as in argparse
    return max(flags.split(), key=len).lstrip("-").replace("-", "_")


def _usage(prog, spec):
    parts = ["usage:", prog, "[-h]"]
    for flags, convert, default, _ in spec:
        text = flags.split()[0]
        if text[0] == "-" and convert is not None:
            text += " " + _dest(flags).upper()
        parts.append(text if default is REQUIRED else f"[{text}]")
    return " ".join(parts)


def _fail(prog, usage, message):
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(text):
    sys.stdout.write(text)
    raise SystemExit(0)


def _spelled(word, names):
    """How a word reads against the option names of a parser: None for a
    value, else the option it spells (the word itself when it spells none
    of the names, or the prefix of more than one) and the text attached
    to it, None when none is. The caller handles ``--``."""
    if word in names:
        return word, None
    if word[:1] != "-" or len(word) == 1:
        return None
    key, eq, text = word.partition("=")
    if eq and key in names:
        return key, text
    if word[1] == "-":
        found = [name for name in names
                 if name[1] == "-" and name.startswith(key)]
        if len(found) == 1:
            return found[0], text if eq else None
    elif word[:2] in names:
        return word[:2], word[2:]
    if word[1].isdecimal() or word[1] == "." and word[2:3].isdecimal():
        return None  # a negative number
    if " " in word:
        return None
    return word, None


def read(commands, argv=None):
    """The handler of the subcommand that argv (``sys.argv[1:]`` when
    None) names, and the Args read from the words after it."""
    words = sys.argv[1:] if argv is None else list(argv)
    usage = f"usage: {_PROG} [-h] COMMAND ..."
    unknown = []
    for i, word in enumerate(words):
        spelled = None if word == "--" else _spelled(word, _TOP)
        if spelled is None:
            break
        if spelled[0] not in _TOP:
            unknown.append(word)
        elif spelled[1] is not None:
            _fail(_PROG, usage, "argument -h/--help: ignored explicit "
                  f"argument {spelled[1]!r}")
        else:
            _help(f"{usage}\n\n{_ABOUT}\n\ncommands:\n" + "".join(
                f"  {name:<12}{entry[1]}\n"
                for name, entry in commands.items())
                + f"\n'{_PROG} COMMAND -h' shows the arguments of one "
                "command.\n")
    else:
        _fail(_PROG, usage, "the following arguments are required: COMMAND")
    if word not in commands:
        _fail(_PROG, usage, f"invalid choice: {word!r} (choose from "
              f"{', '.join(commands)})")
    handler, about, spec = commands[word]
    args, extra = _read(f"{_PROG} {word}", about, [_JSON, *spec],
                        iter(words[i + 1:]))
    if unknown or extra:
        _fail(_PROG, usage, "unrecognized arguments: "
              + " ".join(unknown + extra))
    return handler, args


def _read(prog, about, spec, words):
    """The Args of one subcommand, whose arguments spec lists, read from
    the iterator words, and the words it has no use for. Help and usage
    errors end the call where they are met; unknown options and words no
    positional takes are left for the caller."""
    usage = _usage(prog, spec)
    names = dict(_TOP)
    waiting = []
    args = Args()
    args.given = set()
    for entry in spec:
        flags, _, default, _ = entry
        if flags[0] == "-":
            names.update(dict.fromkeys(flags.split(), entry))
        else:
            waiting.append(entry)
        setattr(args, _dest(flags), None if default is REQUIRED else default)
    extra = []
    ended = False
    for word in words:
        if word == "--" and not ended:
            ended = True
            continue
        spelled = None if ended else _spelled(word, names)
        if spelled is not None:
            entry, text = names.get(spelled[0]), spelled[1]
        else:
            entry, text = (waiting.pop(0) if waiting else None), word
        if entry is None:
            extra.append(word)
            continue
        flags, convert, _, _ = entry
        name = flags.replace(" ", "/")
        if convert is None:
            if text is not None:
                _fail(prog, usage, f"argument {name}: ignored explicit "
                      f"argument {text!r}")
            if entry is _HELP:
                _help(f"{usage}\n\n{about}\n\narguments:\n" + "".join(
                    map(_describe, [_HELP, *spec])))
            value = True
        else:
            if text is None:
                # no word left, or the "--" that ends the options: either
                # way no value
                text = next(words, "--")
                if text == "--" or _spelled(text, names) is not None:
                    _fail(prog, usage,
                          f"argument {name}: expected one argument")
            try:
                value = convert(text)
            except ValueError as e:
                _fail(prog, usage, f"argument {name}: {e}")
        setattr(args, _dest(flags), value)
        args.given.add(_dest(flags))
    missing = [flags.replace(" ", "/") for flags, _, default, _ in spec
               if default is REQUIRED and _dest(flags) not in args.given]
    if missing:
        _fail(prog, usage, "the following arguments are required: "
              + ", ".join(missing))
    return args, extra


def _describe(entry):
    flags, convert, _, text = entry
    left = ", ".join(flags.split())
    if flags[0] == "-" and convert is not None:
        left += " " + _dest(flags).upper()
    return f"  {left:<22} {text}".rstrip() + "\n"
