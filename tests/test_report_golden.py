"""Byte contract: SHA-256 of fixed outputs, pinned when the values were first recorded.

A change that alters one of these bytes on purpose announces the format
change and records the new digest here.
"""

import hashlib

from zbrace.braces import cyclic_unit_brace, trivial_skew_brace
from zbrace.cli import main
from zbrace.fileio import write_brace
from zbrace.groups import symmetric_group
from zbrace.reporting import build_report, select_shifts, serialize_report

CYCLIC3_REPORT = "7a13681e28f950ca32263ba8be574663c5545c5ca3961b1cfe0aa318247d9607"
TRIVIAL_S3_REPORT = "f50aa8e40cb78941e3b61da838676b9b863c2609901a27ee12056ac3b0324350"
CYCLIC4_SOLVE_DEDUP = "c58809211a92eb0e46f449ebdcd2550cddb6dbf3704dc86a44b134c8be91c138"
# budget 256 < 8^3 sends every arity-3 check of cyclic2n n=4 down the sampled path
CYCLIC4_SAMPLED_REPORT = "219ee3fe9cd82989e2a675b526cd8bde6578a2f8cc1f612af4976d4fc863089f"
# `twist --z all` with every check family, stdout only
CYCLIC4_TWIST = "c3070d3c61288ed5958b51cedf9ccd19c61f2ebd311afb476f5063175457259e"
TRIVIAL_S3_TWIST = "13b6363cdb3c5e159c2554a967fc8c376af8ac0507d16b12ef62256077b9de0a"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(b, family):
    zs = select_shifts(b, "all", seed=0)
    return _sha(serialize_report(build_report(b, zs, level="all", family=family, seed=0)))


def test_cyclic3_report_bytes():
    assert _report_digest(cyclic_unit_brace(3), "cyclic2n") == CYCLIC3_REPORT


def test_trivial_s3_report_bytes():
    b = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
    assert _report_digest(b, "trivial") == TRIVIAL_S3_REPORT


def test_cyclic4_sampled_report_bytes():
    b = cyclic_unit_brace(4)
    zs = select_shifts(b, "all", seed=0)
    report = build_report(b, zs, level="all", family="cyclic2n", seed=0, budget=256, sample_points=300)
    assert report["summary"]["sampled"] == 104
    assert _sha(serialize_report(report)) == CYCLIC4_SAMPLED_REPORT


def test_cyclic4_solve_dedup_stdout(tmp_path, capsys):
    path = tmp_path / "c4.brace"
    write_brace(cyclic_unit_brace(4), path)
    assert main(["solve", str(path), "--z", "all", "--dedup"]) == 0
    assert _sha(capsys.readouterr().out) == CYCLIC4_SOLVE_DEDUP


def test_twist_stdout_and_exit_codes(tmp_path, capsys):
    cases = [
        (cyclic_unit_brace(4), CYCLIC4_TWIST),
        (trivial_skew_brace(symmetric_group(3), name="trivial-S3"), TRIVIAL_S3_TWIST),
    ]
    for b, digest in cases:
        path = tmp_path / f"{b.name}.brace"
        write_brace(b, path)
        assert main(["twist", str(path), "--z", "all"]) == 0
        assert _sha(capsys.readouterr().out) == digest
