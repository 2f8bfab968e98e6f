"""The canonical-bytes brace reader against the general ``json.loads`` path, its oracle.

``parse_brace`` reads a file that is exactly ``canonical_json`` of a brace
document straight into arrays (``fileio.canonical_document``) and sends
any other file to ``json.loads``.  Each test parses a file both ways: the
result must be the same brace, or the same exception type and message.
"""

import json
import warnings

import pytest

from zbrace import fileio
from zbrace.cli import main
from zbrace.fileio import canonical_document, parse_brace

# ``make`` options of every built-in family; product reads the first two files
FAMILIES = {
    "cyclic2n": ["--family", "cyclic2n", "--n", "3"],
    "trivial-s3": ["--family", "trivial", "--group", "s3"],
    "oddmatrix": ["--family", "oddmatrix"],
    "radical": ["--family", "radical", "--modulus", "16"],
    "trivial-z5": ["--family", "trivial", "--group", "z5"],
    "product": ["--family", "product", "--left", "{cyclic2n}", "--right", "{trivial-s3}"],
}

_ADD_OPEN = b'{\n  "add": [\n    '
_LABELS_OPEN = b'"labels": [\n    '


def _first_add_entry(token: bytes):
    """A mutation that writes ``token`` in place of the first entry of the add table."""
    def mutate(raw: bytes) -> bytes:
        end = raw.index(b",", len(_ADD_OPEN))
        return raw[: len(_ADD_OPEN)] + token + raw[end:]
    return mutate


def _first_label(text: bytes):
    """A mutation that writes the JSON ``text`` in place of the first label."""
    def mutate(raw: bytes) -> bytes:
        start = raw.index(_LABELS_OPEN) + len(_LABELS_OPEN)
        return raw[:start] + text + raw[raw.index(b'",', start) + 1 :]
    return mutate


MUTATIONS = {
    "space-after-comma": lambda raw: raw.replace(b",\n    ", b", \n    ", 1),
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "leading-zero": _first_add_entry(b"01"),
    "negative": _first_add_entry(b"-1"),
    "float": _first_add_entry(b"1.0"),
    "boolean": _first_add_entry(b"true"),
    "past-int16": _first_add_entry(b"65541"),
    "bom": lambda raw: b"\xef\xbb\xbf" + raw,
    "non-utf8-label": _first_label(b'"\xff"'),
    "duplicate-add": lambda raw: raw.replace(b'\n  "format"', b'\n  "add": [\n    0\n  ],\n  "format"', 1),
    "add-in-labels": _first_label(b'{"add": [0]}'),
    "extra-key": lambda raw: raw.replace(b'\n  "format"', b'\n  "extra": 1,\n  "format"', 1),
    "truncated": lambda raw: raw[: len(raw) // 2],
}
# the one mutation that keeps the canonical form: brace_from_dict ignores the key
STILL_CANONICAL = {"extra-key"}


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """The ``make`` output of every family, by family name."""
    root = tmp_path_factory.mktemp("made")
    paths = {}
    for name, args in FAMILIES.items():
        paths[name] = root / f"{name}.brace"
        args = [a.format(**{k: str(v) for k, v in paths.items()}) for a in args]
        assert main(["make", *args, "-o", str(paths[name])]) == 0
    return paths


def _outcome(path, monkeypatch, fast: bool):
    """The parsed brace's name, labels and tables, or the exception's type and message."""
    with monkeypatch.context() as m:
        if not fast:
            m.setattr(fileio, "canonical_document", lambda raw: None)
        try:
            b = parse_brace(path)
        except Exception as exc:  # noqa: BLE001  the outcome itself is compared
            return type(exc), str(exc)
    return b.name, b.labels, b.add.table.dtype, b.add.table.tolist(), b.mul.table.tolist()


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_reads_the_same_both_ways(made, monkeypatch, family):
    raw = made[family].read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert canonical_document(raw) is not None  # make writes the canonical form
        fast = _outcome(made[family], monkeypatch, fast=True)
    assert not isinstance(fast[0], type), fast
    assert fast == _outcome(made[family], monkeypatch, fast=False)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_mutated_files_read_the_same_both_ways(made, tmp_path, monkeypatch, family, mutation):
    raw = MUTATIONS[mutation](made[family].read_bytes())
    assert raw != made[family].read_bytes()
    path = tmp_path / "mutated.brace"
    path.write_bytes(raw)
    assert (canonical_document(raw) is not None) == (mutation in STILL_CANONICAL)
    assert _outcome(path, monkeypatch, fast=True) == _outcome(path, monkeypatch, fast=False)


@pytest.mark.parametrize("block", [5, 7, 16, 4096, 1 << 16])
def test_tables_read_the_same_in_any_block_size(made, monkeypatch, block):
    # a block of at least 5 bytes holds the comma after an entry of at most 4 digits;
    # the odd-matrix file (1.1 MB) is read in blocks of 4096 bytes or more, to keep the test short
    monkeypatch.setattr(fileio, "DECODE_BYTES", block)
    for name, path in made.items():
        if name == "oddmatrix" and block < 4096:
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        _, tables = canonical_document(path.read_bytes())
        assert {key: t.tolist() for key, t in tables.items()} == {"add": doc["add"], "mul": doc["mul"]}, path.name


def test_a_table_of_one_entry_reads_the_same_both_ways(tmp_path, monkeypatch):
    path = tmp_path / "trivial-z1.brace"
    assert main(["make", "--family", "trivial", "--group", "z1", "-o", str(path)]) == 0
    assert canonical_document(path.read_bytes())[1]["add"].tolist() == [0]
    assert _outcome(path, monkeypatch, fast=True) == _outcome(path, monkeypatch, fast=False)
