"""The indexed file format: a JSON object with "nu", "trunc" and
"families", which maps each dimension n, written as a string, to an
object that maps the text of each full frame at n (``frame_key``) to its
fibre, a size or a list of labels.

Both ways render each painting once per call, through one ``frame_key``
memo. The writer renders each key of the set. The reader builds the set
level by level, as ``grow_indexed`` does: it enumerates the full frames
at n by the join over the levels already read, and looks each one's text
up among the keys. A level with a key that no frame claims, or with an
entry that is refused, is read again key by key with ``values._read``,
in file order, so every error, its position and every stray key are what
that reader makes of them.
"""

import json

from .errors import ParseError, UnknownFrame
from .fileformat import load_header, parse_finset
from .frames import IndexedNuSet, _frames
from .values import _VALUES, _read, frame_key


def emit_indexed(S):
    """Serialize to the indexed JSON format (sorted keys, 2-space)."""
    families, texts = {}, {}
    for n in range(S.trunc + 1):
        block = {}
        for d, fib in S.families[n].items():
            block[frame_key(d, texts)] = list(fib.labels) \
                if fib.labels is not None else fib.size
        families[str(n)] = block
    doc = {"nu": S.nu, "trunc": S.trunc, "families": families}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_indexed(text):
    """Parse the indexed JSON format; structural errors are precise.

    Each key is read as a full frame of its dimension, in the one text
    frame_key writes for it, into the set's intern table, and the
    families are keyed by those frames. Any other key raises ParseError
    naming ``families[n]``, the key, the dimension and the position of its
    first non-canonical character. Totality is check_totality's job.
    """
    doc, nu, trunc = load_header(text, "families")
    raw = doc["families"]
    if not isinstance(raw, dict):
        raise ParseError("field 'families' must be an object")
    extra = set(raw) - {str(n) for n in range(trunc + 1)}
    if extra:
        raise ParseError(
            f"families mention dimension {sorted(extra)[0]} outside "
            f"0..{trunc}")
    S, texts = IndexedNuSet(nu, 0, {}), {}
    for n in range(trunc + 1):
        block = raw.pop(str(n), None)  # freed once its level is read
        if block is None:
            raise ParseError(f"families missing dimension {n}")
        if not isinstance(block, dict):
            raise ParseError(f"families[{n}] must be an object")
        fam = _looked_up(S, n, block, texts)
        if fam is None:
            fam = _read_keys(S, n, block)
        if n:
            S = S.extended(fam)
        else:
            S.families[0] = fam
    return S


def _looked_up(S, n, block, texts):
    """The family at n, each full frame the join enumerates over S taking
    the entry its text keys in ``block``; None when the frames cannot be
    enumerated, some key is no such text, or some entry is refused."""
    try:
        frames = _frames(S, n, n)
    except UnknownFrame:
        return None
    fam = {}
    for d in frames:
        entry = block.get(frame_key(d, texts), block)  # block: no such key
        if entry is not block:
            try:
                fam[d] = parse_finset(entry, "")
            except ParseError:
                return None
    return fam if len(fam) == len(block) else None


def _read_keys(S, n, block):
    """The family at n, each key of ``block`` read by ``_read`` in file
    order into S's intern table, and the first error raised."""
    nu, values, fam = S.nu, S._memo.setdefault(_VALUES, {}), {}
    for key, entry in block.items():
        try:
            frame = _read(key, nu, n, n, "frame", values)
        except ParseError as exc:
            raise ParseError(
                f"families[{n}] key {key!r} is not a full frame at "
                f"dimension {n}: {exc}")
        fam[frame] = parse_finset(entry, f"families[{n}][{key!r}]")
    return fam
