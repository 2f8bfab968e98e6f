"""Flat-file formats: brace documents, coordinate matrix export, reports.

Brace documents are canonical JSON (sorted keys, two-space indent,
trailing newline) with row-major flat operation tables; parsing always
revalidates, so a file either yields a checked brace or a precise error.
Matrices use the text coordinate format::

    rows cols nnz
    row col value      (one line per nonzero, ascending row-major)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .braces import SkewBrace, check_carrier_cap, make_skew_brace
from .groups import validate_group
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


def _table_from_flat(flat: list, order: int, path: str) -> np.ndarray:
    if len(flat) != order * order:
        raise SchemaError(path, f"expected {order * order} entries, got {len(flat)}")
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


def brace_from_dict(doc: Any) -> SkewBrace:
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
    add = _table_from_flat(_require(doc, "add", list, "$"), order, "$.add")
    mul = _table_from_flat(_require(doc, "mul", list, "$"), order, "$.mul")
    add_group = validate_group(add, labels=[str(x) for x in labels])
    mul_group = validate_group(mul, labels=[str(x) for x in labels])
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
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return brace_from_dict(doc)


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
