"""The indexed file format of ``nusets.indexedfile``: every set, however
its dimensions, fibres and labels fall, is written as json.dumps writes
its document and reads back to itself; and the empty fibres of a set
read, grown, converted or extended are two shared objects."""

import json

import pytest

from nusets.equivalence import random_indexed, to_indexed
from nusets.errors import ParseError
from nusets.fileformat import FinSet, finset
from nusets.frames import IndexedNuSet, enumerate_frames, grow_indexed
from nusets.indexedfile import emit_indexed, parse_indexed
from nusets.shapes import standard_shape
from nusets.streams import NuSetStream, take
from nusets.values import _VALUES, frame_key


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
