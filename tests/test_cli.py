"""Command line conventions: the exit-code contract, JSON mode on every
subcommand, and the documented example invocations."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nusets.cli import main
from nusets.equivalence import to_indexed
from nusets.indexed import emit_indexed, grow_indexed
from nusets.presheaf import emit_nuset
from nusets.shapes import standard_shape


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
    S = grow_indexed(2, 1, lambda n, key: 2 if n == 0 else 1)
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


def test_validate_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


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


def test_param_non_telescope_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Pi a:X0. X0"))
    assert main(["param"]) == 2


def test_param_syntax_error_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Pi :X0. U"))
    assert main(["param"]) == 2
    assert "error" in capsys.readouterr().err


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


def test_roundtrip_random_seeded(capsys):
    assert main(["roundtrip", "--nu", "2", "-n", "2", "--seed", "3",
                 "--json"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["ok"] is True
    main(["roundtrip", "--nu", "2", "-n", "2", "--seed", "3", "--json"])
    assert capsys.readouterr().out == first


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["hom", "--nu", "2", "-p", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


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
