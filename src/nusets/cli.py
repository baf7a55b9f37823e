"""Command line front end.

One subcommand per library operation, uniform conventions: exit 0 when the
operation succeeds and any report comes back clean, 1 when a checker finds
violations or a conversion detects a law failure in the input, 2 for usage
errors and malformed input. ``--json`` switches every subcommand to a single
machine-parseable document on stdout. Word arguments contain ``*``, so they
need shell quoting.
"""

import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .cmdline import REQUIRED, natural, read
from .errors import CoherenceMismatch, LawViolation, NuSetError, ParseError, \
    ValidationFailure

# Each subcommand imports the modules it uses when it runs: a call
# compiles what it imports, so no call pays for the others' modules.


def _read(path):
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: {e.reason} at byte {e.start}")


def _write(text):
    """Write text to stdout, every byte of it or an OSError: the one path
    every command's output takes.

    Unbuffered (``python -u``), stdout's text layer hands the encoded text
    to the raw file in one call and drops what a short write leaves, which
    a pipe whose reader goes away makes. So the text is encoded here and
    its bytes written to stdout's binary layer in a loop, until all are
    sent; the next write after a short one meets the closed pipe and
    raises. A stream with no binary layer takes the text as it is."""
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
        return
    out.flush()  # what the text layer holds goes first
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data):]


def _emit_report(rep, as_json):
    _write((rep.to_json() if as_json else str(rep)) + "\n")
    return 0 if rep.ok else 1


def _cmd_hom(args):
    from .words import check_text_arity, hom_count, hom_enumerate

    check_text_arity(args.nu)
    ws = [str(w) for w in hom_enumerate(args.nu, args.p, args.n)]
    assert len(ws) == hom_count(args.nu, args.p, args.n)
    if args.json:
        _write(json.dumps({"nu": args.nu, "p": args.p, "n": args.n,
                           "count": len(ws), "words": ws},
                          indent=2, sort_keys=True) + "\n")
    else:
        _write("".join(w + "\n" for w in ws))
    return 0


def _cmd_compose(args):
    from .words import compose, parse_word

    g = parse_word(args.nu, args.g)
    f = parse_word(args.nu, args.f)
    out = str(compose(g, f))
    if args.json:
        out = json.dumps({"nu": args.nu, "g": args.g, "f": args.f,
                          "result": out}, indent=2, sort_keys=True)
    _write(out + "\n")
    return 0


def _cmd_shape(args):
    from .shapes import dot_pieces, geometric_inventory, standard_shape

    P = standard_shape(args.nu, args.n)
    sizes = [c.size for c in P.carriers]
    if args.dot and not args.json:
        for piece in dot_pieces(P):
            _write(piece)
        return 0
    if args.json:
        doc = {"nu": args.nu, "n": args.n, "carriers": sizes,
               "inventory": list(geometric_inventory(P))}
        if not args.dot:
            _write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            return 0
        # The DOT text is the one string of the document: it is written
        # around, piece by piece, as json.dumps would escape it whole (the
        # escape works character by character).
        doc["dot"] = ""
        head, tail = json.dumps(doc, indent=2,
                                sort_keys=True).split('"dot": ""')
        _write(head + '"dot": "')
        for piece in dot_pieces(P):
            _write(encode_basestring_ascii(piece)[1:-1])
        _write('"' + tail + "\n")
        return 0
    _write(f"standard shape nu={args.nu} n={args.n}\n"
           f"carriers: {sizes}\n"
           f"cells by geometric dimension: {list(geometric_inventory(P))}\n")
    return 0


def _cmd_validate(args):
    # The laws' module compiles before the set is built, not on top of it,
    # and the text goes before the laws run.
    from .fileformat import parser

    text = _read(args.file)
    parse, indexed = parser(text)
    if indexed:
        from .indexed import validate_indexed as check
    else:
        from .presheaf import check_functor_laws as check
    obj = parse(text)
    del text
    return _emit_report(check(obj), args.json)


def _cmd_convert(args):
    from .equivalence import to_fibred, to_indexed
    from .fileformat import load_any
    from .indexedfile import emit_indexed
    from .presheaf import emit_nuset

    obj, indexed = load_any(_read(args.file))
    if indexed:
        _write(emit_nuset(to_fibred(obj)))
    else:
        _write(emit_indexed(to_indexed(obj)))
    return 0


def _cmd_coh_check(args):
    from .indexed import coherence_sweep
    from .indexedfile import parse_indexed

    S = parse_indexed(_read(args.file))
    return _emit_report(coherence_sweep(S), args.json)


def _cmd_param(args):
    from .hypotheses import telescope_stats
    from .normal import normalize
    from .terms import print_type

    if args.steps is not None:
        if args.file is not None:
            raise NuSetError("give a FILE or -n/--steps, not both")
        from .parametricity import iterate_types
        T = iterate_types(args.nu, args.steps)
    else:
        if "nu" in args.given:
            raise NuSetError("--nu goes with -n/--steps, not a FILE")
        from .syntax import parse_type
        T = normalize(parse_type(_read(args.file)))
    stats = telescope_stats(T)
    if args.json:
        _write(json.dumps({"telescope": print_type(T),
                           "stats": {str(k): v for k, v in stats.items()}},
                          indent=2, sort_keys=True) + "\n")
    else:
        _write(print_type(T) + "\n" + "".join(
            f"X{level}: {stats[level]}\n" for level in sorted(stats)))
    return 0


def _cmd_extend(args):
    from .indexedfile import emit_indexed, parse_indexed
    from .streams import extend_singleton, take

    S = parse_indexed(_read(args.file))
    out = take(extend_singleton(S), S.trunc + args.levels)
    _write(emit_indexed(out))
    return 0


def _cmd_roundtrip(args):
    from .equivalence import random_indexed, round_trip_report
    from .fileformat import load_any

    if args.file is not None:
        if args.given & {"nu", "n", "seed"}:
            raise NuSetError("give a FILE or --nu/-n/--seed, not both")
        obj = load_any(_read(args.file))[0]
    else:
        obj = random_indexed(args.nu, args.n, args.seed)
    return _emit_report(round_trip_report(obj), args.json)


# Each subcommand's handler, help line and arguments, as nusets.cmdline
# reads them: (flags or a positional's name, convert, default, help).
_NU = ("--nu", int, REQUIRED, "")
_N = ("-n", natural, REQUIRED, "")
_FILE = ("file", str, None, "path or - for stdin")
_COMMANDS = {
    "hom": (_cmd_hom, "list the words from p to n",
            [_NU, ("-p", natural, REQUIRED, ""), _N]),
    "compose": (_cmd_compose, "compose two words (shell-quote the '*'s)",
                [_NU, ("g", str, REQUIRED, ""), ("f", str, REQUIRED, "")]),
    "shape": (_cmd_shape, "standard shape at dimension n",
              [_NU, _N, ("--dot", None, False, "DOT graph text")]),
    "validate": (_cmd_validate, "check a nu-set file (either format)",
                 [_FILE]),
    "convert": (_cmd_convert,
                "convert between the fibred and indexed formats", [_FILE]),
    "coh-check": (_cmd_coh_check,
                  "run the coherence sweep on an indexed file", [_FILE]),
    "param": (_cmd_param, "normalized telescope plus hypothesis counts",
              [("file", str, None,
                "type in the surface syntax; path or - for stdin"),
               ("--nu", int, 2, ""),
               ("-n --steps", natural, None,
                "emit the step-n iterated telescope instead")]),
    "extend": (_cmd_extend, "extend an indexed file by singleton levels",
               [_FILE, ("--levels", natural, REQUIRED,
                        "number of levels to add")]),
    "roundtrip": (_cmd_roundtrip,
                  "round-trip a nu-set file through the other form",
                  [_FILE, ("--nu", int, 2, ""), ("-n", natural, 2, ""),
                   ("--seed", int, 0,
                    "randomized instance when no file is given")]),
}


def main(argv=None):
    handler, args = read(_COMMANDS, argv)
    try:
        code = handler(args)
        sys.stdout.flush()  # a reader gone shows here, not at exit
        return code
    except (LawViolation, ValidationFailure, CoherenceMismatch) as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    except NuSetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        if isinstance(e, BrokenPipeError):
            # stdout's reader is gone: what is still buffered goes to
            # devnull, so the flush at exit does not fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # The parsers and the term code recurse on the input's nesting.
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        # A small file can denote a structure too large to build. The
        # message is fixed: the traceback still holds what filled memory.
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
