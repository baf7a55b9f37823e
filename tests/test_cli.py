"""Command line conventions: the exit-code contract, JSON mode on every
subcommand, and the documented example invocations."""

import ast
import importlib
import io
import json
import os
import subprocess
import sys
import tokenize
import tracemalloc
import weakref
from pathlib import Path

import pytest

from nusets import shapes
from nusets.cli import _COMMANDS, main
from nusets.cmdline import REQUIRED
from nusets.equivalence import random_indexed, to_indexed
from nusets.errors import ParseError
from nusets.frames import grow_indexed
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.parametricity import iterate_types
from nusets.presheaf import emit_nuset, parse_nuset
from nusets.shapes import geometric_inventory, standard_shape, to_dot
from nusets.terms import print_type
from nusets.words import hom_count


@pytest.fixture
def square_indexed(tmp_path):
    path = tmp_path / "square.indexed.json"
    path.write_text(emit_indexed(to_indexed(standard_shape(2, 2))))
    return str(path)


@pytest.fixture
def square_fibred(tmp_path):
    path = tmp_path / "square.fibred.json"
    path.write_text(emit_nuset(standard_shape(2, 2)))
    return str(path)


@pytest.fixture
def grown_indexed(tmp_path):
    S = grow_indexed(2, 1, lambda n, d: 2 if n == 0 else 1)
    path = tmp_path / "grown.indexed.json"
    path.write_text(emit_indexed(S))
    return str(path)


def test_hom_lists_the_four_lines_of_the_square(capsys):
    assert main(["hom", "--nu", "2", "-p", "1", "-n", "2"]) == 0
    words = capsys.readouterr().out.split()
    assert len(words) == 4
    assert sorted(words) == ["*L", "*R", "L*", "R*"]


def test_hom_json(capsys):
    assert main(["hom", "--nu", "1", "-p", "1", "-n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3 and len(doc["words"]) == 3


def test_hom_deterministic(capsys):
    main(["hom", "--nu", "2", "-p", "0", "-n", "3"])
    first = capsys.readouterr().out
    main(["hom", "--nu", "2", "-p", "0", "-n", "3"])
    assert capsys.readouterr().out == first


def test_compose(capsys):
    assert main(["compose", "--nu", "1", "**0", "*0"]) == 0
    assert capsys.readouterr().out.strip() == "*00"


def test_compose_json(capsys):
    assert main(["compose", "--nu", "2", "--json", "**L", "LR"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "LRL"


def test_compose_not_composable_is_usage_error(capsys):
    assert main(["compose", "--nu", "1", "00", "*0"]) == 2
    assert "error" in capsys.readouterr().err


def test_compose_bad_word_is_usage_error(capsys):
    assert main(["compose", "--nu", "1", "*L", "0"]) == 2


def test_shape_dot_has_four_nodes(capsys):
    assert main(["shape", "--nu", "2", "-n", "2", "--dot"]) == 0
    out = capsys.readouterr().out
    node_lines = [ln for ln in out.splitlines()
                  if ln.strip().endswith('";') and "--" not in ln]
    assert len(node_lines) == 4
    assert out.startswith("graph")


def test_shape_json(capsys):
    assert main(["shape", "--nu", "2", "-n", "2", "--json", "--dot"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["carriers"] == [4, 4, 1]
    assert doc["dot"].startswith("graph")


def _shape_text(nu, n, as_json, dot):
    """What ``shape`` printed when it rendered its output in memory."""
    P = standard_shape(nu, n)
    sizes = [c.size for c in P.carriers]
    inventory = list(geometric_inventory(P))
    if as_json:
        doc = {"nu": nu, "n": n, "carriers": sizes, "inventory": inventory}
        if dot:
            doc["dot"] = to_dot(P)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if dot:
        return to_dot(P)
    return (f"standard shape nu={nu} n={n}\ncarriers: {sizes}\n"
            f"cells by geometric dimension: {inventory}\n")


_FLAGS = {"plain": [], "dot": ["--dot"], "json": ["--json"],
          "json-dot": ["--json", "--dot"]}


@pytest.mark.parametrize("flags", list(_FLAGS), ids=list(_FLAGS))
@pytest.mark.parametrize("nu, n", [(nu, n) for nu in range(1, 4)
                                   for n in range(6)] + [(2, 8)])
def test_shape_streams_the_text_it_renders_in_memory(nu, n, flags, capsys):
    assert main(["shape", "--nu", str(nu), "-n", str(n),
                 *_FLAGS[flags]]) == 0
    out = capsys.readouterr().out
    assert out == _shape_text(nu, n, "--json" in _FLAGS[flags],
                              "--dot" in _FLAGS[flags])


@pytest.mark.parametrize("piece_lines", [1, 4, 11, 12])
@pytest.mark.parametrize("flags", ["dot", "json-dot"])
def test_shape_streams_pieces_of_any_size(piece_lines, flags, capsys,
                                          monkeypatch):
    # The square's DOT text has 11 lines: 1 and 11 divide it exactly.
    assert to_dot(standard_shape(2, 2)).count("\n") == 11
    monkeypatch.setattr(shapes, "DOT_PIECE_LINES", piece_lines)
    assert main(["shape", "--nu", "2", "-n", "2", *_FLAGS[flags]]) == 0
    assert capsys.readouterr().out == _shape_text(2, 2, flags == "json-dot",
                                                  True)


def test_shape_json_escapes_the_point_label(capsys):
    assert main(["shape", "--nu", "2", "-n", "0", "--json", "--dot"]) == 0
    out = capsys.readouterr().out
    assert '\\u03b5' in out and "ε" not in out
    assert json.loads(out)["dot"] == to_dot(standard_shape(2, 0))


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_shape_memory_is_the_structure_plus_a_piece(monkeypatch):
    """Streamed, ``shape --json --dot`` never holds the DOT text (426 kB
    at nu=2, n=8) whole: its traced peak stays below that of building
    the structure plus half the text."""
    argv = ["shape", "--nu", "2", "-n", "8", "--json", "--dot"]
    half_text = len(to_dot(standard_shape(2, 8))) // 2
    monkeypatch.setattr(sys, "stdout", _Sink())
    main(argv)  # warm: nothing left to import
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        P = standard_shape(2, 8)
        build = tracemalloc.get_traced_memory()[1] - base
        del P
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        call = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert call < build + half_text, (call, build, half_text)


# A reader that goes away ends the call with exit 2 and one error line,
# whether stdout is buffered or not and whether any text was read.
@pytest.mark.parametrize("read", [0, 1], ids=["closed", "one-line-read"])
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags", ["dot", "json-dot"])
def test_shape_into_a_closed_pipe_exits_two(flags, unbuffered, read):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nusets.cli", "shape", "--nu", "2", "-n", "8",
         *_FLAGS[flags]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(read):
            proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)  # one line of stderr fits its pipe
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 2, err
    assert b"Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"error:"), err


@pytest.fixture(scope="module")
def large_outputs(tmp_path_factory):
    """Inputs of calls that write one document larger than a pipe holds
    (64 KiB): convert of the fibred standard shape (2, 6), 251 kB of
    indexed JSON, and extend of nine binary points by two levels, 356 kB."""
    root = tmp_path_factory.mktemp("large")
    shape = root / "shape26.fibred.json"
    shape.write_text(emit_nuset(standard_shape(2, 6)))
    points = root / "points9.indexed.json"
    points.write_text(emit_indexed(
        grow_indexed(2, 0, lambda n, d: 9 if n == 0 else 1)))
    return {"convert": ["convert", str(shape)],
            "extend": ["extend", str(points), "--levels", "2"]}


def _cli_env(unbuffered):
    """The environment of a CLI child, with stdout unbuffered or not."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# Unbuffered, stdout's text layer once dropped what a short write to the
# pipe left: the call exited 0 with its document cut short and no message.
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["convert", "extend"])
def test_document_into_a_closed_pipe_exits_two(command, unbuffered,
                                               large_outputs):
    proc = subprocess.Popen(
        [sys.executable, "-m", "nusets.cli", *large_outputs[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_cli_env(unbuffered))
    try:
        proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 2, err
    assert b"Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"error:"), err


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["convert", "extend"])
def test_document_read_whole_is_whole(command, unbuffered, large_outputs,
                                      capsys):
    """Read to its end, the document is the one main writes in process,
    every byte of it."""
    assert main(large_outputs[command]) == 0
    want = capsys.readouterr().out.encode()
    proc = subprocess.run(
        [sys.executable, "-m", "nusets.cli", *large_outputs[command]],
        capture_output=True, timeout=60, env=_cli_env(unbuffered))
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(want) > 1 << 16 and proc.stdout == want


def test_validate_ok(square_indexed, square_fibred):
    assert main(["validate", square_indexed]) == 0
    assert main(["validate", square_fibred]) == 0


def test_validate_json_document(square_indexed, capsys):
    assert main(["validate", "--json", square_indexed]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["violations"] == []


def test_validate_missing_fibre_exits_one(grown_indexed, tmp_path, capsys):
    doc = json.loads(Path(grown_indexed).read_text())
    doc["families"]["1"].popitem()
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", str(broken), "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any(v["kind"] == "missing-fibre" for v in out["violations"])


def test_validate_orphan_keys_come_out_in_text_order(grown_indexed,
                                                     tmp_path, capsys):
    """Two orphan keys written in the reverse of their text order are
    reported in text order, whatever order the file (and so the family)
    holds them in."""
    doc = json.loads(Path(grown_indexed).read_text())
    doc["families"]["1"]["([{0} {9}])"] = 1
    doc["families"]["1"]["([{0} {8}])"] = 1
    broken = tmp_path / "orphans.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "--json", str(broken)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == [
        {"kind": "orphan-frame-key", "dimension": 1, "frame": key}
        for key in ("([{0} {8}])", "([{0} {9}])")]


@pytest.mark.parametrize("command", ["validate", "convert", "roundtrip"])
@pytest.mark.parametrize("text, key", [
    ('{"families": {"0": {"()": 1, "()": 3}}, "nu": 1, "trunc": 0}', "()"),
    ('{"carriers": [1], "faces": {}, "nu": 1, "nu": 2, "trunc": 0}', "nu"),
    ('{"nu": 1, "nu": 2}', "nu"),
], ids=["indexed", "fibred", "neither"])
def test_repeated_json_key_exits_two(command, text, key, tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: duplicate key {key!r}\n"


@pytest.mark.parametrize("argv", [
    ["hom", "--nu", "12", "-p", "0", "-n", "2"],
    ["shape", "--nu", "12", "-n", "2"],
    ["compose", "--nu", "11", "*10", "*"],
], ids=["hom", "shape", "compose"])
def test_words_past_arity_ten_have_no_text(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: arity must be <= 10 to be written as "
                            f"text, got {argv[2]}\n")


def test_conversion_past_arity_ten(tmp_path, capsys):
    """Only word listings are refused past arity 10: face maps are keyed by
    face words, whose text stays distinct, so files still convert."""
    S = random_indexed(11, 2, 0, sizes=(0, 1), dim0=1)
    src = tmp_path / "nu11.indexed.json"
    src.write_text(emit_indexed(S))
    for command in ("validate", "roundtrip"):
        assert main([command, str(src)]) == 0
    capsys.readouterr()
    assert main(["convert", str(src)]) == 0
    fibred = tmp_path / "nu11.fibred.json"
    fibred.write_text(capsys.readouterr().out)
    assert '"*10"' in fibred.read_text()
    for command in ("validate", "roundtrip"):
        assert main([command, str(fibred)]) == 0
    capsys.readouterr()
    assert main(["convert", str(fibred)]) == 0
    assert capsys.readouterr().out == src.read_text()


def test_hom_at_arity_ten_uses_every_digit(capsys):
    assert main(["hom", "--nu", "10", "-p", "0", "-n", "1"]) == 0
    assert capsys.readouterr().out.split() == [str(i) for i in range(10)]


def test_validate_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


_LONG = "9" * 5000  # past the 4300 digits CPython converts by default


@pytest.mark.parametrize("parse, text, error", [
    (parse_nuset, '{"nu": 1, "trunc": 0, "carriers": [%s], "faces": {}}'
     % _LONG, "error: "),
    (parse_indexed, '{"nu": 1, "trunc": 0, "families": {"0": {"()": %s}}}'
     % _LONG, "error: "),
    (parse_indexed, '{"nu": 1, "trunc": 1, "families": {"0": {"()": 1}, '
     '"1": {"([{%s}])": 1}}}' % _LONG, "error: families["),
    (parse_indexed, '{"nu": 1, "trunc": 1, "families": {"0": {"()": 1}, '
     '"1": {"([{\\u00b2}])": 1}}}', "error: families["),
    (parse_indexed, '{"nu": 2, "trunc": 1, "families": {"0": {"()": 2}, '
     '"1": {"([{0} {0}])": 1, "([{0} {1}])": 1, "([{1}  {0}])": 1, '
     '"([{1} {1}])": 1}}}', "error: families["),
], ids=["fibred", "indexed-size", "indexed-key", "indexed-key-superscript",
        "indexed-key-non-canonical"])
def test_long_or_odd_integer_exits_two(parse, text, error, tmp_path, capsys):
    """A JSON integer or a key's cell index too long to convert, a digit
    that is no decimal digit, and a key not written as frame_key writes
    it, are malformed input, not a crash, for each command that reads a
    set from a file."""
    with pytest.raises(ParseError):
        parse(text)
    path = tmp_path / "long.json"
    path.write_text(text)
    for command in (["validate"], ["convert"], ["coh-check"],
                    ["extend", "--levels", "1"], ["roundtrip"]):
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(error)
        assert "Traceback" not in captured.err


def test_validate_unknown_format_exits_two(tmp_path):
    odd = tmp_path / "odd.json"
    odd.write_text('{"nu": 1}')
    assert main(["validate", str(odd)]) == 2


def test_missing_file_exits_two(capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 2


def test_convert_indexed_to_fibred(square_indexed, capsys):
    assert main(["convert", square_indexed]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [len(c) if isinstance(c, list) else c
            for c in doc["carriers"]] == [4, 4, 1]


def test_convert_fibred_to_indexed(square_fibred, capsys):
    assert main(["convert", square_fibred]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trunc"] == 2
    assert sum(v if isinstance(v, int) else len(v)
               for v in doc["families"]["1"].values()) == 4


def test_convert_then_validate(square_fibred, tmp_path, capsys):
    main(["convert", square_fibred])
    out = tmp_path / "converted.json"
    out.write_text(capsys.readouterr().out)
    assert main(["validate", str(out)]) == 0


def test_coh_check_ok(grown_indexed, capsys):
    assert main(["coh-check", grown_indexed, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


# Non-total cube files: one fibre dropped at dimension 1, one at dimension
# 2, and both. Exit codes and outputs are pinned byte for byte.
EDGE = "([{0} {0}])"
SQUARE = "([{[{0} {1}] 0} {[{1} {3}] 0}] [{0} {0}])"
NO_EDGE = "no fibre for frame ([{0} {0}]) at dimension 1"
NO_SQUARE = ("no fibre for frame ([{[{0} {1}] 0} {[{1} {3}] 0}] [{0} {0}])"
             " at dimension 2")
VALIDATE_EDGE = """{
  "data": {},
  "ok": false,
  "title": "indexed validation",
  "violations": [
    {
      "dimension": 1,
      "frame": "([{0} {0}])",
      "kind": "missing-fibre"
    },
    {
      "detail": "no fibre for frame ([{0} {0}]) at dimension 1",
      "dimension": 2,
      "kind": "enumeration-failed"
    }
  ]
}
"""
VALIDATE_SQUARE = """{
  "data": {},
  "ok": false,
  "title": "indexed validation",
  "violations": [
    {
      "dimension": 2,
      "frame": "([{[{0} {1}] 0} {[{1} {3}] 0}] [{0} {0}])",
      "kind": "missing-fibre"
    },
    {
      "detail": "no fibre for frame ([{[{0} {1}] 0} {[{1} {3}] 0}] \
[{0} {0}]) at dimension 2",
      "dimension": 3,
      "kind": "enumeration-failed"
    }
  ]
}
"""


@pytest.mark.parametrize("dropped, command, rc, out, err", [
    ([(1, EDGE)], "coh-check", 2, "", f"error: {NO_EDGE}\n"),
    ([(2, SQUARE)], "coh-check", 2, "", f"error: {NO_SQUARE}\n"),
    ([(1, EDGE), (2, SQUARE)], "coh-check", 2, "", f"error: {NO_EDGE}\n"),
    ([(1, EDGE)], "validate", 1, VALIDATE_EDGE, ""),
    ([(2, SQUARE)], "validate", 1, VALIDATE_SQUARE, ""),
    ([(1, EDGE), (2, SQUARE)], "validate", 1, VALIDATE_EDGE, ""),
], ids=["coh-check-1", "coh-check-2", "coh-check-1-2",
        "validate-1", "validate-2", "validate-1-2"])
def test_non_total_cube_outputs(dropped, command, rc, out, err, tmp_path,
                                capsys):
    doc = json.loads(emit_indexed(to_indexed(standard_shape(2, 3))))
    for n, key in dropped:
        del doc["families"][str(n)][key]
    path = tmp_path / "non_total.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--json", str(path)]) == rc
    assert capsys.readouterr() == (out, err)


def test_param_iterated(capsys):
    assert main(["param", "--nu", "2", "-n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] == {"0": 4, "1": 4}
    assert doc["telescope"].endswith("U")


def test_param_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("X0 * X0 -> U"))
    assert main(["param"]) == 0
    out = capsys.readouterr().out
    assert "X0: 2" in out


def test_param_file(tmp_path, capsys):
    f = tmp_path / "t.ty"
    f.write_text("Pi a:X0. X1 a -> X1 a -> U")
    assert main(["param", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] == {"0": 1, "1": 2}


@pytest.fixture(scope="module")
def telescope_1_9():
    return print_type(iterate_types(1, 9))


def test_param_511_binders_exits_zero(telescope_1_9, capsys):
    """The step-9 unary telescope has a 511-binder spine, past the
    recursion limit when every binder took a frame."""
    assert main(["param", "--nu", "1", "-n", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] == {str(p): hom_count(1, p, 9) for p in range(9)}
    assert doc["telescope"] == telescope_1_9


def test_param_file_reads_511_binders_back(telescope_1_9, tmp_path, capsys):
    f = tmp_path / "t9.ty"
    f.write_text(telescope_1_9 + "\n")
    assert main(["param", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["telescope"] == telescope_1_9
    assert doc["stats"] == {str(p): hom_count(1, p, 9) for p in range(9)}


@pytest.mark.parametrize("steps", ["-n", "--steps"])
def test_param_file_and_steps_exit_two(steps, tmp_path, capsys):
    """A file and a step count are two inputs for one telescope: the
    command names the conflict instead of reading one and ignoring the
    other."""
    f = tmp_path / "t.ty"
    f.write_text("Pi a:X0. X1 a -> U")
    assert main(["param", steps, "1", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give a FILE or -n/--steps, not both\n"


@pytest.mark.parametrize("nu", ["3", "2"], ids=["nu3", "default"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_param_nu_without_steps_exits_two(nu, source, tmp_path, monkeypatch,
                                          capsys):
    """--nu is the arity of the iterated telescope, so with a FILE or
    stdin, whose telescope it would not change, it is a usage error, even
    given with its default value. The line used to exit 0 with --nu
    ignored."""
    text = "Pi a:X0. X1 a -> U"
    argv = ["param", "--nu", nu]
    if source == "file":
        f = tmp_path / "t.ty"
        f.write_text(text)
        argv.append(str(f))
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --nu goes with -n/--steps, not a FILE\n"
    assert main(["param", *argv[3:]]) == 0  # the same input without it


def test_param_non_telescope_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Pi a:X0. X0"))
    assert main(["param"]) == 2


@pytest.mark.parametrize("text", ["Pi X1:X0. Pi a:X1. U",
                                  "Pi X1:X0. X1 X1 -> U"])
def test_param_bound_head_exits_two(text, monkeypatch, capsys):
    """A domain whose head an earlier binder binds is no hypothesis over a
    family, however the binder is named: the line used to count it under
    X1 and exit 0."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["param", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: domain is not a family atom: ")


def test_param_syntax_error_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Pi :X0. U"))
    assert main(["param"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("Pi x", "expected ':', found the end of the input (line 1, column 5)"),
    ("(U", "expected ')', found the end of the input (line 1, column 3)"),
    ("U ->", "expected a type, found the end of the input (line 1, column 5)"),
    ("", "expected a type, found the end of the input (line 1, column 1)"),
], ids=["pi-binder", "open-paren", "arrow", "empty"])
def test_param_input_ending_early_names_the_end(text, message, monkeypatch,
                                                capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["param"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_extend_adds_singleton_levels(grown_indexed, capsys):
    assert main(["extend", grown_indexed, "--levels", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trunc"] == 3
    assert set(doc["families"]["2"].values()) == {1}
    assert set(doc["families"]["3"].values()) == {1}


def test_extend_output_validates(grown_indexed, tmp_path, capsys):
    main(["extend", grown_indexed, "--levels", "1"])
    out = tmp_path / "extended.json"
    out.write_text(capsys.readouterr().out)
    assert main(["validate", str(out)]) == 0


def test_roundtrip_file(square_indexed, square_fibred, capsys):
    assert main(["roundtrip", square_indexed, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert main(["roundtrip", square_fibred]) == 0


@pytest.mark.parametrize("option", [["--nu", "2"], ["-n", "2"],
                                    ["--seed", "0"]], ids=lambda o: o[0])
def test_roundtrip_file_with_random_options_exits_two(option, square_indexed,
                                                      capsys):
    """--nu, -n and --seed shape only the random instance, so with a FILE
    they are a usage error, even given with their default values."""
    assert main(["roundtrip", square_indexed, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give a FILE or --nu/-n/--seed, not both\n"


def test_roundtrip_random_seeded(capsys):
    assert main(["roundtrip", "--nu", "2", "-n", "2", "--seed", "3",
                 "--json"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["ok"] is True
    main(["roundtrip", "--nu", "2", "-n", "2", "--seed", "3", "--json"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", [None, *_COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_and_lists_every_argument(command, flag, capsys):
    with pytest.raises(SystemExit) as e:
        main([flag] if command is None else [command, flag])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: nusets")
    if command is None:
        listed = list(_COMMANDS)
    else:
        listed = ["--help", "--json", *(name for flags, *_ in
                                         _COMMANDS[command][2]
                                         for name in flags.split())]
    assert all(name in out.split() or name + "," in out.split()
               for name in listed), out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["hom", "--nu", "2", "-p", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


# The value of each argument a line must give, by its name.
_REQUIRED_VALUES = {"nu": "2", "p": "1", "n": "2", "g": "L*", "f": "*",
                    "levels": "1"}
# The options whose output is one JSON document with the flag or without
# it: they print the same bytes either way.
_SAME_BYTES = {("convert", "--json"), ("extend", "--json")}


def _option_lines():
    """(command, option words, input kind) for each optional argument of
    each subcommand in _COMMANDS, --json among them, with a value that is
    not its default, and each way the subcommand takes its input: a FILE,
    "-" for stdin, or none (stdin, or roundtrip's random instance)."""
    for command, (_, _, spec) in _COMMANDS.items():
        kinds = ["file", "stdin", "none"] if any(
            flags == "file" for flags, *_ in spec) else ["none"]
        for flags, convert, default, _ in [("--json", None, False, ""),
                                           *spec]:
            if flags[0] != "-" or default is REQUIRED:
                continue
            words = [flags.split()[0]]
            if convert is not None:
                words.append("1" if default is None else str(default + 1))
            for kind in kinds:
                case = (command, words, kind)
                if case == ("roundtrip", ["-n", "3"], "none"):
                    # seed 0 draws no cell above dimension 1, and the
                    # report names no truncation
                    case = pytest.param(*case, marks=pytest.mark.xfail(
                        strict=True, reason="the report shows no trunc"))
                yield case


def _outcome(argv, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command, option, kind", _option_lines(),
                         ids=lambda v: v if isinstance(v, str) else
                         "=".join(v))
def test_every_option_given_is_used_or_refused(command, option, kind,
                                               square_indexed, tmp_path,
                                               monkeypatch, capsys):
    """A line that gives an optional argument a value other than its
    default prints other bytes than the line without it, or exits 2: no
    option given is dropped unseen."""
    if command == "param":
        path = tmp_path / "t.ty"
        path.write_text("Pi a:X0. X1 a -> U")
    else:
        path = Path(square_indexed)
    line = [command]
    for flags, _, default, _ in _COMMANDS[command][2]:
        if default is REQUIRED:
            word = flags.split()[0]
            value = _REQUIRED_VALUES[word.lstrip("-")]
            line += [word, value] if word[0] == "-" else [value]
    line += {"file": [str(path)], "stdin": ["-"], "none": []}[kind]
    text = path.read_text()
    base = _outcome(line, text, monkeypatch, capsys)
    assert base[0] in (0, 1)
    got = _outcome(line + option, text, monkeypatch, capsys)
    if (command, option[0]) in _SAME_BYTES:
        assert got == base
    else:
        assert got[0] == 2 or got[1] != base[1]


@pytest.mark.parametrize("p, n", [("-1", "1"), ("0", "-1")])
def test_hom_negative_object_is_usage_error(p, n, capsys):
    with pytest.raises(SystemExit) as e:
        main(["hom", "--nu", "1", "-p", p, "-n", n])
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("nu", ["0", "-1"])
def test_hom_non_positive_arity_exits_two(nu, capsys):
    assert main(["hom", "--nu", nu, "-p", "0", "-n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("steps", ["0", "1"])
def test_param_non_positive_arity_exits_two(steps, capsys):
    assert main(["param", "--nu", "0", "-n", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arity must be >= 1, got 0\n"


def test_hom_long_word_does_not_recurse(capsys):
    assert main(["hom", "--nu", "1", "-p", "0", "-n", "1200"]) == 0
    assert capsys.readouterr().out == "0" * 1200 + "\n"


def test_param_nested_too_deep_exits_two(monkeypatch, capsys):
    nested = "(" * 5000 + "X0" + ")" * 5000 + " -> U"
    monkeypatch.setattr("sys.stdin", io.StringIO(nested))
    assert main(["param"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# Runs the CLI with its own address space limited to 400 MiB.
_MEMORY_PROBE = """
import resource
import sys

resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from nusets.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_out_of_memory_exits_two(tmp_path):
    """A 65-byte file can denote a structure too large to build: 30,000
    points make the join list 9 x 10^8 1-frames. Memory running out ends
    the call with exit 2 and one fixed line, not a traceback."""
    path = tmp_path / "points.json"
    path.write_text('{"nu": 2, "trunc": 1, '
                    '"families": {"0": {"()": 30000}, "1": {}}}')
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, "validate", str(path)],
        capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: out of memory\n")


FILE_COMMANDS = [["validate"], ["convert"], ["coh-check"], ["param"],
                 ["extend", "--levels", "1"], ["roundtrip"]]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_file_not_utf8_exits_two(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err


# Under the C locale Python reads stdin with surrogateescape, so the bytes
# arrive as text that is not JSON; with a UTF-8 locale it decodes strictly.
# Both end in exit 2.
@pytest.mark.parametrize(
    "env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8"}],
    ids=["c-locale", "strict-utf8"])
def test_stdin_not_utf8_exits_two(env):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nusets.cli", "validate", "-"],
        input=b"\xff\xfe", capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src), **env))
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr


# Each command runs in a fresh interpreter and pays on every run for what
# it imports: each module is compiled from source when no bytecode is
# written, and the dataclasses module takes milliseconds to import, and
# each dataclass about a millisecond to create.
_IMPORT_PROBE = """
import sys
from nusets.cli import main
try:
    main(sys.argv[1:])
finally:
    sys.stderr.write("\\nimported: " + " ".join(sorted(sys.modules)))
"""


def _modules(argv, files):
    """The modules running the CLI on argv imports, in a fresh
    interpreter; the keys of files in argv name fixture files."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE,
         *(files.get(a, a) for a in argv)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.rsplit("\n", 1)[-1]
    assert last.startswith("imported: "), proc.stderr
    return set(last[len("imported: "):].split())


# Each call, and the nusets modules it imports besides nusets.cli,
# nusets.cmdline and nusets.errors. Only validate and coh-check of an
# indexed file restrict (nusets.indexed). An indexed file is read without
# the fibred format (presheaf) and words, unless the call builds a fibred
# structure.
# Iterating a telescope does not read one (syntax), reading one does not
# iterate (parametricity), both count its hypotheses (hypotheses), and
# neither compares up to names (telescopes).
_CALLS = {
    "hom": (["hom", "--nu", "2", "-p", "1", "-n", "2"], "frozen words"),
    "compose": (["compose", "--nu", "2", "L*", "*"], "frozen words"),
    "shape": (["shape", "--nu", "2", "-n", "2"],
              "fileformat frozen presheaf report shapes words"),
    "validate-indexed": (["validate", "{indexed}"], "fileformat frames "
                         "frozen indexed indexedfile join report values"),
    "validate-fibred": (["validate", "{fibred}"],
                        "fileformat frozen presheaf report words"),
    "convert-indexed": (["convert", "{indexed}"], "equivalence fileformat "
                        "frames frozen indexedfile join presheaf report "
                        "values words"),
    "convert-fibred": (["convert", "{fibred}"], "equivalence fileformat "
                       "frames frozen indexedfile join presheaf report "
                       "values words"),
    "coh-check": (["coh-check", "{indexed}"], "fileformat frames frozen "
                  "indexed indexedfile join report values"),
    "roundtrip-indexed": (["roundtrip", "{indexed}"], "equivalence "
                          "fileformat frames frozen indexedfile join "
                          "presheaf report values words"),
    "roundtrip-fibred": (["roundtrip", "{fibred}"], "equivalence "
                         "fileformat frames frozen join presheaf report "
                         "values words"),
    "roundtrip-random": (["roundtrip", "--nu", "2", "-n", "2", "--seed", "1"],
                         "equivalence fileformat frames frozen join "
                         "presheaf report values words"),
    "extend": (["extend", "{indexed}", "--levels", "1"],
               "fileformat frames frozen indexedfile join report streams "
               "values"),
    "param": (["param", "--nu", "2", "-n", "2"],
              "frozen hypotheses normal pending parametricity terms"),
    "param-file": (["param", "{type}"],
                   "frozen hypotheses normal pending syntax terms"),
}


@pytest.fixture
def probe_files(square_indexed, square_fibred, tmp_path):
    ty = tmp_path / "t.ty"
    ty.write_text("Pi a:X0. X1 a -> U")
    return {"{indexed}": square_indexed, "{fibred}": square_fibred,
            "{type}": str(ty)}


@pytest.mark.parametrize("argv", [argv for argv, _ in _CALLS.values()],
                         ids=list(_CALLS))
def test_no_command_imports_dataclasses(argv, probe_files):
    """Nor argparse, nor the gettext and locale modules it imports: its
    import and parser cost every call about 6 ms and 0.5 MiB."""
    assert not {"dataclasses", "argparse", "gettext", "locale"} & _modules(
        argv, probe_files)


@pytest.mark.parametrize("argv, expected", list(_CALLS.values()),
                         ids=list(_CALLS))
def test_each_call_imports_only_the_modules_it_runs(argv, expected,
                                                    probe_files):
    ours = {m for m in _modules(argv, probe_files)
            if m.startswith("nusets.")}
    assert ours == {f"nusets.{m}" for m in ["cli", "cmdline", "errors",
                                            *expected.split()]}


# Runs the CLI with the indexed reader watched: it writes whether the laws'
# module was imported when the reader was called.
_ORDER_PROBE = """
import sys
import nusets.indexedfile

parse = nusets.indexedfile.parse_indexed


def watched(text):
    sys.stderr.write("laws before the set: %s\\n"
                     % ("nusets.indexed" in sys.modules))
    return parse(text)


nusets.indexedfile.parse_indexed = watched
from nusets.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_validate_compiles_the_laws_before_it_reads_the_set(probe_files):
    """validate of an indexed file imports the laws (nusets.indexed)
    before it reads the set, so that compile peaks before the set is
    built, not on top of it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _ORDER_PROBE, "validate",
         probe_files["{indexed}"]],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "laws before the set: True\n"


class _Text(str):
    """File text that a weak reference can watch."""


@pytest.mark.parametrize("fmt, laws", [
    ("{indexed}", "nusets.indexed.validate_indexed"),
    ("{fibred}", "nusets.presheaf.check_functor_laws")])
def test_validate_drops_the_text_before_the_laws_run(fmt, laws, probe_files,
                                                    monkeypatch):
    """The file's text is freed once the structure is read: held through
    the sweep, the 4.76 MB text of random_indexed(2, 3, 5) raised
    validate's VmHWM from about 85 to 90 MiB."""
    texts = []

    def read(path):
        text = _Text(Path(path).read_text())
        texts.append(weakref.ref(text))
        return text

    module, name = laws.rsplit(".", 1)
    check = getattr(importlib.import_module(module), name)

    def checked(obj):
        assert texts and texts[-1]() is None
        return check(obj)

    monkeypatch.setattr("nusets.cli._read", read)
    monkeypatch.setattr(laws, checked)
    assert main(["validate", probe_files[fmt]]) == 0


def test_truncated_file_compiles_no_format(probe_files, tmp_path):
    """validate of a file cut short is refused by the JSON decoder, before
    either format's modules, or the laws, are imported."""
    text = Path(probe_files["{indexed}"]).read_text()
    cut = tmp_path / "cut.json"
    cut.write_text(text[:len(text) // 2])
    ours = {m for m in _modules(["validate", str(cut)], probe_files)
            if m.startswith("nusets.")}
    assert ours == {f"nusets.{m}" for m in
                    ["cli", "cmdline", "errors", "fileformat", "frozen"]}


MAX_MODULE_NODES = 2500


def test_every_module_compiles_small():
    """No module of the package has more than MAX_MODULE_NODES AST nodes.

    With no bytecode written, as the benchmark's children run, each call
    compiles every module it imports, and its compiles, more than its
    data, set the call's peak memory. Measured under tracemalloc on
    CPython 3.11, compiling the 4,032-node module that held the indexed
    values and sets peaked at 1,507 KiB, and the 3,913-node one that held
    the terms and their normalizer at 1,712 KiB, while every other module
    stayed under about 830 KiB; importing either raised VmHWM by about
    1.4-1.7 MiB. The data of a benchmark call adds at most about
    0.75 MiB above importing the same modules alone (``shape --nu 2 -n 8
    --json --dot``). Split, the largest compile peaks at about 710 KiB
    (``indexed``)."""
    src = Path(__file__).resolve().parent.parent / "src" / "nusets"
    sizes = {path.name: sum(1 for _ in ast.walk(ast.parse(
        path.read_text(encoding="utf-8"))))
        for path in sorted(src.glob("*.py"))}
    assert len(sizes) > 10
    assert max(sizes.values()) <= MAX_MODULE_NODES, sizes


MAX_START_TOKENS = 2048


def test_every_call_compiles_below_the_token_step():
    """The modules every call compiles (cli, cmdline, errors) and those
    some call of _CALLS compiles have at most MAX_START_TOKENS tokens,
    counted without comments and blank lines; _CALLS is the one table of
    which modules a call compiles.

    Past a power of two, CPython's parser doubles its token array and
    allocates a token record per new slot: measured under tracemalloc on
    CPython 3.11, cli.py's compile peaked at 853 KiB with 2,114 tokens and
    at 683 KiB with 1,888, and frames.py's at 940 KiB with 2,328 tokens;
    every call pays it, with no bytecode written, as the benchmark's
    children run. Python 3.12 splits f-strings into more tokens; the
    bound holds there too."""
    src = Path(__file__).resolve().parent.parent / "src" / "nusets"
    skip = {tokenize.COMMENT, tokenize.NL}
    names = {"cli", "cmdline", "errors"}
    names.update(m for _, ours in _CALLS.values() for m in ours.split())
    counts = {}
    for name in sorted(names):
        with open(src / f"{name}.py", encoding="utf-8") as fh:
            counts[name] = sum(
                1 for tok in tokenize.generate_tokens(fh.readline)
                if tok.type not in skip)
    assert max(counts.values()) <= MAX_START_TOKENS, counts


def test_format_told_by_decoded_keys(square_indexed, tmp_path, capsys):
    """An indexed file whose "families" key is written with an escape is
    still read as indexed: the format is told by the decoded keys."""
    text = Path(square_indexed).read_text()
    escaped = tmp_path / "escaped.json"
    escaped.write_text(text.replace('"families"', '"\\u0066amilies"', 1))
    assert '"families"' not in escaped.read_text()
    assert main(["validate", "--json", square_indexed]) == 0
    plain = capsys.readouterr().out
    assert main(["validate", "--json", str(escaped)]) == 0
    assert capsys.readouterr().out == plain
