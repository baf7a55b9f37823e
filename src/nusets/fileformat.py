"""What the two file formats share: finite sets, the decoding of a
file's JSON and its header, and telling one format from the other.

Both formats are JSON objects with a positive integer "nu" and a natural
"trunc" (see ``presheaf`` for the fibred format and ``indexedfile`` for
the indexed one), and both write a carrier or fibre as a size or a list of
distinct labels.
"""

import json

from .errors import ArityError, ParseError, RangeError
from .frozen import Record


class FinSet(Record):
    """A finite set addressed 0..size-1 with optional distinct labels."""

    __slots__ = ("size", "labels")

    def __init__(self, size, labels=None):
        if size < 0:
            raise RangeError(f"negative size {size}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise RangeError(f"{len(labels)} labels for size {size}")
            if len(set(labels)) != size:
                raise RangeError("labels are not distinct")
        set_size, set_labels = self._setters
        set_size(self, size)
        set_labels(self, labels)

    def label(self, i):
        if not (0 <= i < self.size):
            raise RangeError(f"element {i} outside size {self.size}")
        return self.labels[i] if self.labels is not None else str(i)

    def __iter__(self):
        return iter(range(self.size))


# Most fibres of an indexed set are empty, and a FinSet is immutable: every
# empty one is one of these two, which files write as 0 and [].
_EMPTY = {None: FinSet(0), (): FinSet(0, ())}


def finset(size, labels=None):
    """FinSet(size, labels), shared when it is empty: ``labels`` is None
    or a tuple."""
    return FinSet(size, labels) if size else _EMPTY[labels]


def load_json(text):
    """Decode the JSON of either file format. ParseError for malformed text,
    for an object naming a key twice (json.loads would keep the last) and
    for an integer longer than Python converts from text.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e.msg}", line=e.lineno,
                         col=e.colno)
    except ValueError as e:  # the integer string conversion limit
        raise ParseError(f"integer too long: {str(e).split(';')[0]}")


def load_header(text, *fields):
    """Decode a file of either format: an object with a positive integer
    "nu", a natural "trunc" and ``fields``. Returns (doc, nu, trunc)."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for field in ("nu", "trunc") + fields:
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    nu, trunc = doc["nu"], doc["trunc"]
    # type(x) is int: JSON true and false are ints to isinstance
    if type(nu) is not int or nu < 1:
        raise ArityError(f"field 'nu' must be a positive integer, got {nu!r}")
    if type(trunc) is not int or trunc < 0:
        raise ParseError(f"field 'trunc' must be a natural, got {trunc!r}")
    return doc, nu, trunc


def parser(text):
    """The parse function of text's nu-set format, and whether that format
    is the indexed one, not the fibred one. The decoded keys decide, so a
    key written with escapes is still found; ParseError when it is
    neither.

    Only the chosen format's module is imported, once the decoded
    document is dropped: a module compiled beside it peaks higher in
    memory. Measured as VmHWM with no bytecode written (Python 3.11,
    median of 9 runs), ``validate`` of the ternary 2-cell (nu=3, n=2)
    peaks at 16.04 MiB this way and at 16.20 MiB with the document kept;
    importing the indexed modules before decoding, on a sniff of the
    text, read 16.02 MiB, so no sniff is made.
    """
    doc = load_json(text)
    indexed = isinstance(doc, dict) and "families" in doc
    if not (indexed or isinstance(doc, dict) and "carriers" in doc):
        raise ParseError(
            "cannot tell the format: expected a 'families' (indexed) or "
            "'carriers' (fibred) field")
    del doc
    if indexed:
        from .indexedfile import parse_indexed as parse
    else:
        from .presheaf import parse_nuset as parse
    return parse, indexed


def load_any(text):
    """Parse either nu-set JSON format; returns the structure and whether
    it is indexed."""
    parse, indexed = parser(text)
    return parse(text), indexed


def parse_finset(entry, where):
    """A carrier or fibre as files write it: a size, or a list of distinct
    string labels. ``where`` names the entry in errors."""
    if type(entry) is int:
        if entry < 0:
            raise RangeError(f"{where} has negative size")
        return finset(entry)
    if not isinstance(entry, list):
        raise ParseError(f"{where} must be a size or a label list")
    if not all(isinstance(x, str) for x in entry):
        raise ParseError(f"{where} labels must be strings")
    if len(set(entry)) < len(entry):
        raise RangeError(f"{where} labels are not distinct")
    return finset(len(entry), tuple(entry))


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc
