"""The indexed file format of ``nusets.indexedfile``: every set, however
its dimensions, fibres and labels fall, is written as json.dumps writes
its document and reads back to itself; the writer and the reader agree
with the ones that render and read every key from scratch, on every set,
the one-character edits of keys and a lost fibre at each dimension; and
the empty
fibres of a set read, grown, converted or extended are two shared
objects."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from nusets.equivalence import random_indexed, to_indexed
from nusets.errors import ParseError
from nusets.fileformat import FinSet, finset, load_header, parse_finset
from nusets.frames import IndexedNuSet, enumerate_frames, grow_indexed
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.shapes import standard_shape
from nusets.streams import NuSetStream, take
from nusets.values import (
    _VALUES, FrameVal, LayerVal, PaintingVal, _read, frame_key,
)

from test_indexed import _EDITS, _value_pool


# ------------------------------------------------------------ oracles

def _render(v):
    """frame_key without its memo: every subtree rendered again at each
    use."""
    if isinstance(v, FrameVal):
        return "(" + " ".join(_render(x) for x in v.layers) + ")"
    if isinstance(v, LayerVal):
        return "[" + " ".join(_render(x) for x in v.components) + "]"
    if isinstance(v, PaintingVal):
        inner = [_render(x) for x in v.layers] + [str(v.cell)]
        return "{" + " ".join(inner) + "}"
    raise TypeError(f"not a frame/layer/painting: {v!r}")


def _emit_by_render(S):
    """emit_indexed with every key rendered by _render."""
    families = {str(n): {_render(d): list(fib.labels)
                         if fib.labels is not None else fib.size
                         for d, fib in S.families[n].items()}
                for n in range(S.trunc + 1)}
    doc = {"nu": S.nu, "trunc": S.trunc, "families": families}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_by_read(text):
    """parse_indexed without the lookup: every key read by ``_read``, in
    file order, into one intern table, and the families built after."""
    doc, nu, trunc = load_header(text, "families")
    raw = doc["families"]
    if not isinstance(raw, dict):
        raise ParseError("field 'families' must be an object")
    extra = set(raw) - {str(n) for n in range(trunc + 1)}
    if extra:
        raise ParseError(
            f"families mention dimension {sorted(extra)[0]} outside "
            f"0..{trunc}")
    families, values = {}, {}
    for n in range(trunc + 1):
        block = raw.get(str(n))
        if block is None:
            raise ParseError(f"families missing dimension {n}")
        if not isinstance(block, dict):
            raise ParseError(f"families[{n}] must be an object")
        fam = {}
        for key, entry in block.items():
            try:
                frame = _read(key, nu, n, n, "frame", values)
            except ParseError as exc:
                raise ParseError(
                    f"families[{n}] key {key!r} is not a full frame at "
                    f"dimension {n}: {exc}")
            fam[frame] = parse_finset(entry, f"families[{n}][{key!r}]")
        families[n] = fam
    S = IndexedNuSet(nu, trunc, families)
    S._memo[_VALUES] = values
    return S


# ------------------------------------------------------------ sets

def _relabelled(S, label):
    """S with every fibre labelled: cell c over the i-th frame of a family
    gets ``label(i, c)``."""
    return IndexedNuSet(S.nu, S.trunc, {
        n: {d: FinSet(f.size, tuple(label(i, c) for c in range(f.size)))
            for i, (d, f) in enumerate(S.families[n].items())}
        for n in range(S.trunc + 1)})


# Labels json.dumps escapes: quotes, backslashes, controls, the line
# separators JSON allows raw, non-ASCII letters and an astral character
# (a surrogate pair).
_ODD = ['"', "\\", "\n", "\t\x00\x1f", "été", "  ",
        "\U0001f600", "", "/", "\x7f"]


def _odd_label(i, c):
    return f"{_ODD[(i + c) % len(_ODD)]}{i}.{c}"


def _sets():
    """(id, set): random sets at nu 1-3, sets past dimension 9 (whose
    dimensions sort as strings), sets with empty families, labelled sets
    and a family keyed by frames of several strata."""
    for nu, trunc, seeds in ((1, 4, range(4)), (2, 3, range(3)),
                             (2, 2, [3]), (3, 2, range(3))):
        for seed in seeds:
            yield (f"random-{nu}-{trunc}-{seed}",
                   random_indexed(nu, trunc, seed, dim0=2))
    yield "nu1-trunc11", grow_indexed(1, 11, lambda n, d: 2 if n == 0 else 1)
    yield "nu2-trunc10", grow_indexed(2, 10, lambda n, d: 1)
    yield "empty-above-2", grow_indexed(1, 11,
                                        lambda n, d: 1 if n <= 2 else 0)
    yield "empty-1", grow_indexed(2, 2, lambda n, d: 2 if n == 0 else 0)
    yield "no-points", grow_indexed(3, 1, lambda n, d: 0)
    yield "labelled-square", to_indexed(standard_shape(2, 2))
    yield "odd-labels", _relabelled(random_indexed(2, 2, 1, dim0=2),
                                    _odd_label)
    square = to_indexed(standard_shape(2, 2))
    mixed = dict(square.families[2])
    for d in list(mixed)[:3]:
        mixed[d.prefix(1)] = FinSet(1)  # no full frame: only text orders
    yield "several-strata", IndexedNuSet(2, 2, {**square.families, 2: mixed})


_SETS = dict(_sets())


# ------------------------------------------------------------ round trip

@pytest.mark.parametrize("name", list(_SETS))
def test_written_as_json_dumps_and_read_back(name):
    """The text is json.dumps of the document: families under their
    dimensions as strings ("10" before "2"), keys sorted, labels escaped.
    It reads back to the set, each key its intern table's object."""
    S = _SETS[name]
    text = emit_indexed(S)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert sorted(doc["families"]) == sorted(map(str, range(S.trunc + 1)))
    for n, family in S.families.items():
        block = doc["families"][str(n)]
        assert len(block) == len(family)
        for d, fib in family.items():
            entry = block[frame_key(d)]
            assert entry == (fib.size if fib.labels is None
                             else list(fib.labels))
    if name == "several-strata":  # its keys are not all full frames
        with pytest.raises(ParseError):
            parse_indexed(text)
        return
    T = parse_indexed(text)
    assert T == S
    values = T._memo[_VALUES]
    assert all(values[d] is d for family in T.families.values()
               for d in family)


# ------------------------------------------------------------ empty fibres

def test_empty_fibres_share_two_objects():
    """The ternary square read from its file holds at most two distinct
    empty FinSets, the shared ones, and writes the same text back; so do
    sets grown, converted and extended."""
    text = emit_indexed(to_indexed(standard_shape(3, 2)))
    S = parse_indexed(text)
    assert emit_indexed(S) == text
    shared = {id(finset(0)), id(finset(0, ()))}
    empty_above = NuSetStream(grow_indexed(2, 0, lambda n, d: 2),
                              lambda prefix, n: dict.fromkeys(
                                  enumerate_frames(prefix, n, n), 0))
    for T in (S, to_indexed(standard_shape(3, 2)), random_indexed(3, 2, 0),
              parse_indexed(emit_indexed(random_indexed(2, 3, 1))),
              take(empty_above, 2)):
        empties = {id(f) for family in T.families.values()
                   for f in family.values() if f.size == 0}
        assert empties and empties <= shared
    assert sum(f.size == 0 for f in S.families[1].values()) == 723
    assert finset(0) == FinSet(0) and finset(0, ()) == FinSet(0, ())
    assert finset(0) != finset(0, ())


# ------------------------------------------------------------ writer oracle

@pytest.mark.parametrize("name", list(_SETS))
def test_writer_renders_as_the_oracle(name):
    """emit_indexed, rendering each painting once, writes the bytes of
    the writer that renders every key from scratch."""
    assert emit_indexed(_SETS[name]) == _emit_by_render(_SETS[name])


def test_writer_renders_the_seed_5_set_as_the_oracle():
    S = random_indexed(2, 3, 5)
    assert emit_indexed(S) == _emit_by_render(S)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 3), (3, 2)]), st.integers(0, 7),
       st.integers(0, 7), st.data())
def test_memoized_frame_key_is_the_oracle(shape, seed, other, data):
    """frame_key with a memo renders as _render, whatever the memo already
    holds: the texts of values rendered before it, of this set or of
    another one (equal values, other objects); and the memo holds only
    paintings, each with its text."""
    texts = {}
    for s in (seed, other):
        pool = _value_pool(*shape, s)
        for v in data.draw(st.lists(st.sampled_from(pool), max_size=12)):
            frame_key(v, texts)
    v = data.draw(st.sampled_from(_value_pool(*shape, seed)))
    assert frame_key(v, texts) == _render(v) == frame_key(v)
    assert all(text == _render(w) for w, text in texts.items())
    assert all(isinstance(w, PaintingVal) for w in texts)


# ------------------------------------------------------------ reader oracle

def _outcome(parse, text):
    """What ``parse`` makes of text: the set, each key its intern table's
    object, or the type and message of what it raised."""
    try:
        S = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    table = S._memo[_VALUES]
    assert all(table[d] is d for family in S.families.values()
               for d in family)
    return S


def _agree(text):
    outcome = _outcome(parse_indexed, text)
    assert outcome == _outcome(_parse_by_read, text)
    return outcome


@pytest.mark.parametrize("name", list(_SETS))
def test_reader_agrees_with_the_oracle_on_every_set(name):
    assert isinstance(_agree(emit_indexed(_SETS[name])),
                      tuple if name == "several-strata" else IndexedNuSet)


def _edits(key):
    """Every one-character delete, insert or replace of key, from the
    characters the reader tests use (_EDITS)."""
    out = {key[:i] + key[i + 1:] for i in range(len(key))}
    out |= {key[:i] + ch + key[j:] for i in range(len(key) + 1)
            for j in (i, i + 1) for ch in _EDITS}
    return out - {key}


def _edited(text, key, new):
    """The file text with one key written as ``new`` where it stood; a key
    equal to another one of its family makes the object name it twice."""
    at = text.index(json.dumps(key) + ": ")
    return text[:at] + json.dumps(new) + text[at + len(json.dumps(key)):]


def _keys(text):
    return [(n, key) for n, block in json.loads(text)["families"].items()
            for key in block]


_SQUARE = emit_indexed(to_indexed(standard_shape(2, 2)))
_TERNARY = emit_indexed(to_indexed(standard_shape(3, 2)))


@pytest.mark.parametrize("n, key", _keys(_SQUARE))
def test_reader_agrees_on_every_edit_of_a_square_key(n, key):
    """Every one-character edit of each key of the nu=2 square: an error
    at the same position, a stray frame or a named-twice key, as the
    oracle has it."""
    kinds = {type(_agree(_edited(_SQUARE, key, new))) for new in _edits(key)}
    assert tuple in kinds


_TERNARY_KEYS = {n: list(block)
                 for n, block in json.loads(_TERNARY)["families"].items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_reader_agrees_on_edits_of_ternary_keys(data):
    """One-character edits of the ternary square's keys, drawn a family,
    a key and an edit at a time, so that the 3 keys at 0 and 2 are drawn
    as often as the 729 at 1. Every edit of every key is 312,811 files,
    each read twice in about 14 ms: more than an hour."""
    n = data.draw(st.sampled_from(sorted(_TERNARY_KEYS)))
    key = data.draw(st.sampled_from(_TERNARY_KEYS[n]))
    _agree(_edited(_TERNARY, key, data.draw(st.sampled_from(
        sorted(_edits(key))))))


@pytest.mark.parametrize("name", ["labelled-square", "odd-labels",
                                  "random-2-3-0", "random-3-2-1",
                                  "nu1-trunc11"])
def test_reader_agrees_with_a_fibre_lost_at_each_dimension(name):
    """A file that lacks the first fibre with a cell of one dimension reads
    as the oracle reads it: the join above it cannot enumerate, so those
    levels are read key by key."""
    text = emit_indexed(_SETS[name])
    doc = json.loads(text)
    for n, block in doc["families"].items():
        key = next((k for k, v in block.items() if v), next(iter(block)))
        lost = json.loads(text)
        del lost["families"][n][key]
        S = _agree(json.dumps(lost))
        assert isinstance(S, IndexedNuSet) and S != _SETS[name]


@pytest.mark.parametrize("entry_first", [True, False])
def test_first_of_two_faults_in_file_order(entry_first):
    """A family with a refused entry and a malformed key raises what the
    first of them in file order raises, whichever comes first."""
    doc = json.loads(_SQUARE)
    block = doc["families"]["1"]
    good, bad = list(block)[:2]
    entries = {good: -1, bad.replace(" ", "  ", 1): block[bad]}
    rest = {k: v for k, v in block.items() if k not in (good, bad)}
    order = list(entries.items()) if entry_first else \
        list(entries.items())[::-1]
    doc["families"]["1"] = dict(order + list(rest.items()))
    kind, message = _agree(json.dumps(doc))
    if entry_first:
        assert message == f"families[1][{good!r}] has negative size"
    else:
        assert message.startswith(f"families[1] key {order[0][0]!r} is "
                                  "not a full frame at dimension 1: ")


@pytest.mark.parametrize("entry", [-1, True, "2", [1], ["a", "a"]])
def test_refused_entry_under_canonical_keys(entry):
    """A family whose keys are all its frames' texts, one entry of which
    parse_finset refuses, raises what the key-by-key reader raises."""
    doc = json.loads(_SQUARE)
    block = doc["families"]["2"]
    block[list(block)[-1]] = entry
    kind, message = _agree(json.dumps(doc))
    assert message.startswith("families[2][")
