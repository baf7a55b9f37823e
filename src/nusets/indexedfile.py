"""The indexed file format: a JSON object with "nu", "trunc" and
"families", which maps each dimension n, written as a string, to an
object that maps the text of each full frame at n (``frame_key``) to its
fibre, a size or a list of labels. The writer renders each key with
``frame_key``, and the reader reads it back with ``values._read``.
"""

import json

from .errors import ParseError
from .fileformat import load_header, parse_finset
from .frames import IndexedNuSet
from .values import _VALUES, _read, frame_key


def emit_indexed(S):
    """Serialize to the indexed JSON format (sorted keys, 2-space)."""
    families = {}
    for n in range(S.trunc + 1):
        block = {}
        for d, fib in S.families[n].items():
            block[frame_key(d)] = list(fib.labels) \
                if fib.labels is not None else fib.size
        families[str(n)] = block
    doc = {"nu": S.nu, "trunc": S.trunc, "families": families}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_indexed(text):
    """Parse the indexed JSON format; structural errors are precise.

    Each key is read by ``_read`` as a full frame of its dimension, in the
    one text frame_key writes for it, into the set's intern table, and the
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
    S._memo[_VALUES] = values  # the keys and their subtrees, interned
    return S
