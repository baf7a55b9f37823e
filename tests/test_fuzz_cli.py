"""The exit-code contract under fuzzing: whatever file the file-reading
subcommands are given, ``nusets.cli.main`` returns 0, 1 or 2 and raises
nothing. The files are raw-byte and JSON-level mutations of a small valid
indexed set (the triangle) and a small valid fibred one (the square)."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from nusets.cli import main
from nusets.equivalence import to_indexed
from nusets.indexedfile import emit_indexed
from nusets.presheaf import emit_nuset
from nusets.shapes import standard_shape

FIXTURES = (emit_indexed(to_indexed(standard_shape(1, 2))).encode(),
            emit_nuset(standard_shape(2, 2)).encode())

COMMANDS = (["validate"], ["convert"], ["coh-check"], ["param"],
            ["extend", "--levels", "1"], ["roundtrip"])

# Integers stay small: a mutated fibre or carrier size is a size the
# commands then enumerate over.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


@st.composite
def byte_mutations(draw, raw):
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        if kind == "replace" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "delete":
            del data[i:i + draw(st.integers(1, 8))]
        elif kind == "cut":
            del data[i:]
    return bytes(data)


@st.composite
def json_mutations(draw, raw):
    """Walk down from the top to some container, then replace, delete or
    add one entry of it."""
    doc = json.loads(raw)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys)) if keys else None
        child = None if key is None else node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        break
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if key is not None and action == "replace":
        node[key] = draw(SMALL_JSON)
    elif key is not None and action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.text(max_size=4))] = draw(SMALL_JSON)
    else:
        node.append(draw(SMALL_JSON))
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_commands_keep_the_exit_code_contract(data):
    raw = data.draw(st.sampled_from(FIXTURES), label="fixture")
    mutate = data.draw(st.sampled_from((byte_mutations, json_mutations)),
                       label="mutation")
    content = data.draw(mutate(raw), label="content")
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(content)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2)
