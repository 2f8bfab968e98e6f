"""Flat-file formats: brace documents, coordinate matrix export, reports.

Brace documents are canonical JSON (sorted keys, two-space indent,
trailing newline) with row-major flat operation tables; parsing always
revalidates, so a file either yields a checked brace or a precise error.
A file in exactly the canonical form has its tables read from its bytes
straight into arrays; any other file goes through ``json.loads``, with the
same result.
Matrices use the text coordinate format::

    rows cols nnz
    row col value      (one line per nonzero, ascending row-major)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .braces import SkewBrace, check_carrier_cap, make_skew_brace
from .groups import INDEX_DTYPE, validate_group

if TYPE_CHECKING:
    from .tensor import PermMatrix

BRACE_FORMAT = "zbrace-brace/1"


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, kind, path: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing field")
    val = doc[key]
    if kind is int and isinstance(val, bool):
        raise SchemaError(f"{path}.{key}", "expected an integer")
    if not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return val


def _table_from_flat(flat: list | np.ndarray, order: int, path: str) -> np.ndarray:
    """The order x order table of a flat list of JSON entries, or of an array read from a canonical file."""
    if len(flat) != order * order:
        raise SchemaError(path, f"expected {order * order} entries, got {len(flat)}")
    if isinstance(flat, np.ndarray):  # entries 0..9999, checked as they were read
        return flat.reshape(order, order)
    if not set(map(type, flat)) <= {int}:  # excludes bool, a subclass of int
        for i, v in enumerate(flat):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaError(f"{path}[{i}]", "entries must be integers")
    try:
        table = np.asarray(flat, dtype=np.int64)
    except OverflowError:
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        i = next(i for i, v in enumerate(flat) if not lo <= v <= hi)
        raise SchemaError(f"{path}[{i}]", "entries must fit in a signed 64-bit integer") from None
    return table.reshape(order, order)


def brace_to_dict(b: SkewBrace) -> dict:
    return {
        "format": BRACE_FORMAT,
        "name": b.name,
        "order": b.order,
        "labels": list(b.labels),
        "add": b.add.table.ravel().tolist(),
        "mul": b.mul.table.ravel().tolist(),
    }


def brace_from_dict(doc: Any, tables: dict[str, np.ndarray] | None = None) -> SkewBrace:
    """Validate a brace document and build its brace; else ``SchemaError`` or the first law that fails.

    ``tables`` holds flat tables already read as arrays from a canonical
    file (``parse_brace``), keyed "add" and "mul"; a table found there is
    not read from ``doc``.  Every check runs in the same order either way.
    """
    tables = tables or {}
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    fmt = _require(doc, "format", str, "$")
    if fmt != BRACE_FORMAT:
        raise SchemaError("$.format", f"unsupported format {fmt!r}")
    name = _require(doc, "name", str, "$")
    order = _require(doc, "order", int, "$")
    if order < 1:
        raise SchemaError("$.order", "order must be positive")
    check_carrier_cap(order)
    labels = _require(doc, "labels", list, "$")
    if len(labels) != order:
        raise SchemaError("$.labels", f"expected {order} labels, got {len(labels)}")
    labels = [str(x) for x in labels]
    seen: set[str] = set()
    for i, label in enumerate(labels):
        if label in seen:
            raise SchemaError(f"$.labels[{i}]", f"duplicate label {label!r}")
        seen.add(label)
    add, mul = (
        _table_from_flat(tables[key] if key in tables else _require(doc, key, list, "$"), order, f"$.{key}")
        for key in ("add", "mul")
    )
    add_group = validate_group(add, labels=labels)
    mul_group = validate_group(mul, labels=labels)
    return make_skew_brace(add_group, mul_group, name=name)


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for a dict with string keys.

    ``indent`` sends the whole document through ``json``'s pure-Python
    encoder. A flat list of ints and strings, such as an operation table or
    the labels, goes instead through the C encoder, with the line break and
    indent of its items as the item separator. Every other value is
    ``json.dumps``'d at the top level and indented one level deeper: JSON
    text holds newlines only between tokens, so that is its nested form.
    """
    if not doc:
        return "{}\n"
    fields = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, list) and val and set(map(type, val)) <= {int, str}:
            items = json.dumps(val, separators=(",\n    ", ":"))[1:-1]
            text = f"[\n    {items}\n  ]"
        else:
            text = json.dumps(val, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def write_brace(b: SkewBrace, path: str | Path) -> None:
    Path(path).write_text(canonical_json(brace_to_dict(b)), encoding="utf-8")


def parse_brace(path: str | Path) -> SkewBrace:
    """Read and fully validate a brace file.

    A file that is exactly ``canonical_json`` of a brace document, as
    ``write_brace`` writes it, has its tables read from its bytes straight
    into arrays (``canonical_document``), with no text copy of the file and
    no Python list.  Any other file is read as text by ``json.loads``.
    ``brace_from_dict`` validates the document either way, so the brace,
    or the error, is the same.
    """
    canonical = canonical_document(Path(path).read_bytes())
    if canonical is not None:
        return brace_from_dict(*canonical)
    # read as text, as it always was, so every error is the general parser's
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return brace_from_dict(doc)


# How ``canonical_json`` writes a brace document's tables: the first field
# is "add", and each table is a list of integers, one to a line.
_ADD_FIELD = b'{\n  "add": '
_MUL_FIELD = b'\n  "mul": '
_TABLE_OPEN = b"[\n    "
_TABLE_SEP = b",\n    "
_TABLE_CLOSE = b"\n  ]"
# Bytes of a table decoded at once: its temporaries are a small multiple of this.
DECODE_BYTES = 1 << 16


def canonical_document(raw: bytes) -> tuple[dict, dict[str, np.ndarray]] | None:
    """(document, flat tables) of a file that is exactly ``canonical_json`` of a brace document; else None.

    Two checks prove the form.  First, cut to ``[]`` the values of the
    leading "add" field and of the first "mul" field after it (a line
    break, two spaces and the quoted key): the result is the skeleton, and
    ``canonical_json`` of the skeleton's document must give back the
    skeleton's own text.  In canonical text a line break followed by
    exactly two spaces and a quote starts a top-level key (strings hold no
    line break, and nested values are indented further), so the cuts are
    the values of the top-level "add" and "mul", and the skeleton has no
    other key of those names.  Second, each cut value is integers of at
    most 4 digits, with no leading zero, joined by ``",\n    "``
    (``_decode_table``), which is how ``canonical_json`` writes a
    non-empty list of integers.  So the file is ``canonical_json`` of the
    skeleton's document with those two lists put back, and ``json.loads``
    of the file gives that document.  Anything else, an empty table or an
    encoding error included, returns None and is left to the general
    parser.
    """
    if not raw.startswith(_ADD_FIELD + _TABLE_OPEN):
        return None
    add_lo = len(_ADD_FIELD + _TABLE_OPEN)
    add_hi = raw.find(_TABLE_CLOSE, add_lo)
    mul_field = raw.find(_MUL_FIELD + _TABLE_OPEN, add_hi)
    if add_hi < 0 or mul_field < 0:
        return None
    mul_lo = mul_field + len(_MUL_FIELD + _TABLE_OPEN)
    mul_hi = raw.find(_TABLE_CLOSE, mul_lo)
    if mul_hi < 0:
        return None
    skeleton = b"[]".join((
        raw[: add_lo - len(_TABLE_OPEN)],
        raw[add_hi + len(_TABLE_CLOSE) : mul_lo - len(_TABLE_OPEN)],
        raw[mul_hi + len(_TABLE_CLOSE) :],
    ))
    try:
        # canonical JSON escapes every character outside ASCII
        text = skeleton.decode("ascii")
        doc = json.loads(text)
        if canonical_json(doc) != text:
            return None
    except (ValueError, RecursionError):
        return None
    tables = {}
    for key, lo, hi in (("add", add_lo, add_hi), ("mul", mul_lo, mul_hi)):
        table = _decode_table(raw, lo, hi)
        if table is None:
            return None
        tables[key] = table
    return doc, tables


def _decode_table(raw: bytes, lo: int, hi: int) -> np.ndarray | None:
    """The entries of ``raw[lo:hi]`` as ``INDEX_DTYPE``, if they are canonical; else None.

    Canonical entries are integers 0..9999 with no leading zero, joined by
    ``_TABLE_SEP``.  The bytes are read in place, ``DECODE_BYTES`` at a
    time, each block ending before a separator.
    """
    out = np.empty(raw.count(b",", lo, hi) + 1, dtype=INDEX_DTYPE)
    filled = 0
    while True:
        cut = hi if hi - lo <= DECODE_BYTES else raw.rfind(b",", lo, lo + DECODE_BYTES)
        if cut <= lo:  # an empty entry, or a block of no separator: not canonical entries
            return None
        values = _decode_entries(np.frombuffer(raw, dtype=np.uint8, count=cut - lo, offset=lo))
        if values is None:
            return None
        out[filled : filled + values.size] = values
        filled += values.size
        if cut == hi:
            return out
        if raw[cut : cut + len(_TABLE_SEP)] != _TABLE_SEP:
            return None
        lo = cut + len(_TABLE_SEP)


def _decode_entries(b: np.ndarray) -> np.ndarray | None:
    """The values of one block of canonical entries, given as bytes; None unless every entry is canonical.

    Each comma must open a whole separator.  Separators hold no digit and
    no comma past their first byte, so they do not overlap; when they
    account for every byte that is not a digit, the entries between them
    are runs of digits, and their lengths and first digits are checked.
    """
    commas = np.flatnonzero(b == ord(","))
    sep = len(_TABLE_SEP)
    # uint8 arithmetic sends every byte that is not a digit past 9
    if np.count_nonzero(b - np.uint8(ord("0")) > 9) != sep * commas.size:
        return None
    if commas.size and commas[-1] + sep > b.size:
        return None
    for k in range(1, sep):
        if not (b[commas + k] == _TABLE_SEP[k]).all():
            return None
    starts = np.concatenate(([0], commas + sep))
    ends = np.append(commas, b.size)
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > 4 or (b[starts[lengths > 1]] == ord("0")).any():
        return None
    values = np.zeros(lengths.size, dtype=INDEX_DTYPE)
    for place in range(4):
        digit = b[np.maximum(ends - 1 - place, 0)].astype(INDEX_DTYPE) - ord("0")
        digit[lengths <= place] = 0
        values += digit * 10**place
    return values


# Coordinate lines formatted per block: text of at most this many rows is held at once.
COO_BLOCK_ROWS = 1 << 16


def _coo_blocks(m: PermMatrix):
    """The header line, then the coordinate lines of one block of rows at a time."""
    yield f"{m.size} {m.size} {m.size}\n"
    for lo in range(0, m.size, COO_BLOCK_ROWS):
        cols = m.perm[lo : lo + COO_BLOCK_ROWS].tolist()
        yield "".join(f"{i} {j} 1\n" for i, j in enumerate(cols, lo))


def matrix_coo_text(m: PermMatrix) -> str:
    """Coordinate text form of a permutation matrix: all-ones values."""
    return "".join(_coo_blocks(m))


def write_matrix(m: PermMatrix, path: str | Path) -> None:
    """Write ``matrix_coo_text(m)`` one block of rows at a time, never holding the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_coo_blocks(m))
