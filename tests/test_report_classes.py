"""A report verifies each distinct solution once and restates it for the other shifts of its class.

The per-shift oracle (``oracles.per_shift_report``) runs every suite at
every shift; the report must equal it byte for byte.
"""

import time

import pytest

from oracles import per_shift_report
from zbrace import reporting
from zbrace.braces import cyclic_unit_brace, odd_matrix_brace, trivial_skew_brace
from zbrace.groups import symmetric_group
from zbrace.reporting import build_report, serialize_report
from zbrace.settings import select_shifts
from zbrace.solutions import dedup_solutions

RERUN_AT_EACH_SHIFT = {"involutivity-criterion", "sigma-shift-criterion"}


def _oddmatrix_two_classes():
    # every member of the classes of 168 (the socle) and 106, 16 shifts each
    b = odd_matrix_brace()
    classes = [cls for cls in dedup_solutions(b, range(b.order)).classes if 168 in cls or 106 in cls]
    return b, sorted(z for cls in classes for z in cls), {}


CASES = {
    **{
        f"cyclic2n-{n}": (lambda n=n: (cyclic_unit_brace(n), "all", {}))
        for n in (3, 4, 5, 6)
    },
    "trivial-S3": lambda: (trivial_skew_brace(symmetric_group(3), name="trivial-S3"), "all", {}),
    "cyclic2n-4-sampled": lambda: (cyclic_unit_brace(4), "all", {"budget": 256, "sample_points": 300}),
    "oddmatrix-two-classes": _oddmatrix_two_classes,
}
# classes per case: trivial S3 has six one-member classes, every other
# case has classes that restate
CLASS_COUNTS = {
    "cyclic2n-3": 2, "cyclic2n-4": 4, "cyclic2n-5": 8, "cyclic2n-6": 16,
    "trivial-S3": 6, "cyclic2n-4-sampled": 4, "oddmatrix-two-classes": 2,
}


@pytest.mark.parametrize("level", ["all", "maps"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_equal_the_per_shift_oracle(case, level):
    b, selection, settings = CASES[case]()
    zs = select_shifts(b, selection, seed=0)
    assert len(dedup_solutions(b, zs).classes) == CLASS_COUNTS[case]
    report = build_report(b, zs, level=level, family="test", seed=0, **settings)
    assert serialize_report(report) == serialize_report(per_shift_report(b, report))


def test_matrices_report_equals_the_per_shift_oracle():
    b = cyclic_unit_brace(4)
    report = build_report(b, select_shifts(b, "all", seed=0), level="matrices", seed=0)
    assert report["dedup"] is None
    assert serialize_report(report) == serialize_report(per_shift_report(b, report))


def test_restated_entries_record_no_work():
    b = cyclic_unit_brace(4)
    zs = select_shifts(b, "all", seed=0)
    representatives = {cls[0] for cls in dedup_solutions(b, zs).classes}
    report = build_report(b, zs, level="all", seed=0, timings=True)
    shift_entries = [c for c in report["checks"] if c["section"] in ("solution", "tensor")]
    restated = [c for c in shift_entries if c["z"] not in representatives]
    assert len(restated) == len(shift_entries) // 2
    for c in restated:
        if c["name"] in RERUN_AT_EACH_SHIFT:
            assert c["elapsed_ms"] > 0, c
        else:
            assert c["elapsed_ms"] == 0.001, c
    # a representative's braid sweep and twisted coproduct record their own work
    own = [c for c in shift_entries if c["z"] in representatives]
    assert any(c["elapsed_ms"] > 0.001 for c in own)
    assert all(c["elapsed_ms"] > 0 for c in own)


def test_section_times_sum_over_representatives(monkeypatch):
    # each suite call sleeps, so a section's time counts its suite calls
    delay_s = 0.05

    def slowed(fn):
        def slow(*args, **kwargs):
            time.sleep(delay_s)
            return fn(*args, **kwargs)

        return slow

    for name in ("solution_suite", "tensor_suite"):
        monkeypatch.setattr(reporting, name, slowed(getattr(reporting, name)))
    b = cyclic_unit_brace(4)
    zs = select_shifts(b, "all", seed=0)
    classes = len(dedup_solutions(b, zs).classes)
    assert 2 * classes == len(zs)
    elapsed = build_report(b, zs, level="all", seed=0, timings=True)["elapsed_ms"]
    for section in ("maps", "matrices"):
        assert classes * delay_s * 1000 <= elapsed[section] < len(zs) * delay_s * 1000, elapsed
    assert elapsed["total"] >= elapsed["maps"] + elapsed["matrices"]
