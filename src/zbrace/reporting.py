"""Verification report assembly.

A report is a plain dict (serialized as canonical JSON) with one entry
per executed check, run in a fixed documented order:

  1. brace construction, flags, socle, admissible shifts
  2. per-shift map-level suite (non-degeneracy, the three braid
     constraints, product identity, transpose identity, involutivity with
     its socle-criterion cross-check, the sigma-shift criterion, inverse
     composition)
  3. dedup partition (with the published pair criterion when the tables
     are those of the odd-matrix brace)
  4. correspondence with the undeformed map
  5. per-shift matrix-level suite (braid/YBE, commutations, cocycle,
     twisted forms, group-likeness, coassociativity defects)

Each distinct solution is verified once.  The shifts are first
partitioned into classes of equal sigma and tau tables
(``solutions.dedup_solutions``, which builds no solution), and the dedup
section reports that partition.  Each class's first shift, its
representative, is built once: its solution feeds the map-level suite and
one twist bundle for the matrix-level suite, and is then dropped; only
its report entries are held.  Every other shift of the class restates
those entries under its own z (``_restated_entry``).  The identity shift,
which the sigma-shift criterion and the correspondence section compare
against, is built once per report.

Reports are byte-stable for fixed inputs and seed: timings are recorded
as 0.0 unless explicitly requested, and no other nondeterministic data
is emitted.  Any entry with status "fail" makes the run exit nonzero.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Any, Callable, Collection, Iterator, Sequence

import numpy as np

from . import __version__
from .braces import (
    SkewBrace,
    admissible_z,
    cyclic_unit_brace,
    is_odd_matrix_brace,
    odd_matrix_pair_criterion,
)
from .solutions import (
    Check,
    DedupPartition,
    DeformedSolution,
    InadmissibleZError,
    build_solution,
    dedup_solutions,
    gv_correspondence_check,
    inverse_composition_check,
    involutivity_check,
    involutivity_check_at,
    product_identity_check,
    sigma_shift_check_at,
    sigma_shift_criterion,
    transpose_identity_check,
)
from .tensor import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE_POINTS,
    SEED_LIMIT,
    TwistBundle,
    braid_matrix_check,
    cocycle_check,
    coproduct_commutation_check,
    coproduct_defect,
    lift_commutation_check,
    r_lift_defects,
    splitmix64,
    twisted_coproduct_check,
    twisted_solution_check,
    ybe_matrix_check,
)

_LABELS_IN_REPORT_MAX = 64


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _entry(section: str, check: Check, z: int | None, timings: bool) -> dict:
    """The report entry of one check; its ``elapsed_ms`` is 0.0 without timings."""
    return {
        "section": section,
        "name": check.name,
        "z": z,
        "status": check.status,
        "points": int(check.points),
        "witness": _jsonable(check.witness),
        "note": check.note,
        "elapsed_ms": entry_ms(check.elapsed_ms, timings),
    }


def _restated_entry(entry: dict, b: SkewBrace, z: int, timings: bool) -> dict:
    """A class representative's report ``entry``, restated for shift ``z`` of its class.

    Equal tables give equal verdicts, so the entry is copied under z and
    records no work (0.001 ms with timings); so is ``admissible``, as
    ``dedup_solutions`` checked z's admissibility.  The two checks that
    also read z run again at z, in at most n steps, from the
    representative's verdict on the tables.
    """
    witness = entry["witness"]
    if entry["name"] == "involutivity-criterion":
        check = involutivity_check_at(b, z, witness.get("two_step_witness"))
    elif entry["name"] == "sigma-shift-criterion":
        check = sigma_shift_check_at(b, z, witness["sigma_equals_identity_shift"])
    else:
        return {**entry, "z": z, "elapsed_ms": entry_ms(0.0, timings)}
    return _entry(entry["section"], check, z, timings)


def entry_ms(elapsed_ms: float, timings: bool) -> float:
    """The ``elapsed_ms`` of a report entry: 0.0 without timings.

    With timings a check's wall time is rounded up to the microsecond, so
    a check that ran never reads 0.0, the value of an untimed entry.
    """
    return max(math.ceil(elapsed_ms * 1000), 1) / 1000 if timings else 0.0


def solution_suite(s: DeformedSolution, identity_shift: DeformedSolution, timings: bool = False) -> list[dict]:
    """Map-level checks for one built shift, in fixed order.

    ``identity_shift`` is the same brace's solution at the identity.  The
    admissibility and the two non-degeneracy entries restate what
    ``build_solution`` established (it raises before it returns a solution
    with a sigma or tau row that is not a permutation), so they always
    pass and take no time.  With ``timings`` every other entry records its
    own check's wall time.
    """
    n = s.order
    checks = [
        Check("admissible", "pass", 0, note="every shift of a two-sided brace is admissible")
        if s.brace.is_two_sided
        else Check("admissible", "pass", n * n, note="shift law checked elementwise"),
        Check("nondegenerate-sigma", "pass", n * n),
        Check("nondegenerate-tau", "pass", n * n),
        *(dataclasses.replace(c, name=f"constraint-{c.name}") for c in s.braid_constraints),
        product_identity_check(s),
        transpose_identity_check(s),
        involutivity_check(s),  # raises CriterionMismatchError on a bug
        sigma_shift_criterion(s, identity_shift),
        inverse_composition_check(s),
    ]
    return [_entry("solution", c, s.z, timings) for c in checks]


def _defect_probes(bundle: TwistBundle, **kw: Any) -> list[Check]:
    """Coassociativity defects of V_eta at the identity and the next element, then the r lifts.

    The probes are informational: a nonzero defect is expected content
    away from the involutive case, never a failure.  So a probe that
    finds one passes, and its witness records the defect.
    """
    b = bundle.solution.brace
    etas = [b.identity] + [i for i in range(b.order) if i != b.identity][:1]
    probes = []
    for eta in etas:
        check = coproduct_defect(bundle, eta, **kw)
        probes.append(dataclasses.replace(check, name=f"{check.name}:eta={eta}"))
    return [
        dataclasses.replace(
            probe,
            status="sampled" if probe.status == "sampled" else "pass",
            witness={"defect_nonzero": probe.status == "fail", "witness": probe.witness},
            note="informational defect probe",
        )
        for probe in probes + r_lift_defects(bundle, **kw)
    ]


# Matrix-level check families, in report order.  Each entry looks its
# check functions up when called, so a wrapper installed on the module
# sees every call.  "braid" (the braid relation and the YBE) runs only in
# reports; ``twist --check`` chooses among the others.  "defect" holds the
# informational probes.
_TENSOR_FAMILIES: dict[str, Callable[..., list[Check]]] = {
    "braid": lambda bundle, **kw: [braid_matrix_check(bundle, **kw), ybe_matrix_check(bundle, **kw)],
    "commute": lambda bundle, **kw: [coproduct_commutation_check(bundle), *lift_commutation_check(bundle, **kw)],
    "cocycle": lambda bundle, **kw: cocycle_check(bundle, **kw),
    "twisted": lambda bundle, **kw: twisted_solution_check(bundle, **kw),
    "grouplike": lambda bundle, **kw: twisted_coproduct_check(bundle),
    "defect": lambda bundle, **kw: _defect_probes(bundle, **kw),
}
TENSOR_FAMILIES = tuple(_TENSOR_FAMILIES)


def tensor_checks(
    bundle: TwistBundle,
    families: Collection[str],
    budget: int,
    sample_points: int,
    seed: int,
) -> Iterator[tuple[str, Check]]:
    """Yield (family, check) for the selected families, in ``TENSOR_FAMILIES`` order."""
    for family, run in _TENSOR_FAMILIES.items():
        if family in families:
            for check in run(bundle, budget=budget, sample_points=sample_points, seed=seed):
                yield family, check


def tensor_suite(
    bundle: TwistBundle, budget: int, sample_points: int, seed: int, timings: bool = False
) -> list[dict]:
    """Matrix-level report entries for one shift's bundle, in fixed order.

    With ``timings`` each entry records its check's own wall time; otherwise 0.0.
    """
    checks = tensor_checks(bundle, TENSOR_FAMILIES, budget, sample_points, seed)
    return [_entry("tensor", c, bundle.solution.z, timings) for _, c in checks]


_CYCLIC3_NOTE = (
    "known-discrepancy: exhaustive table comparison gives classes {1,5} and {3,7}; "
    "the published example for this family asserts r_3, r_5, r_7 are pairwise "
    "distinct, which direct computation contradicts (the socle is {1,5}, forcing "
    "r_1 = r_5). The computed partition is authoritative here."
)


def dedup_section(b: SkewBrace, partition: DedupPartition, criterion: Callable[[int, int], bool] | None) -> dict:
    """The equality classes of the solutions of ``b``, from ``dedup_solutions``.

    ``criterion`` is the pair criterion that scored ``partition``, or None;
    the report chooses it from the tables (``is_odd_matrix_brace``), and
    the cyclic2n n=3 discrepancy note from the tables and labels, never
    from the brace's name.
    """
    class_labels = [[b.labels[z] for z in cls] for cls in partition.classes]
    notes: list[str] = []
    # The note names labels, so it also needs them: the radical brace mod 8
    # has the same tables as cyclic2n n=3 under the labels 0, 2, 4, 6.
    if class_labels == [["1", "5"], ["3", "7"]]:
        ref = cyclic_unit_brace(3)
        if np.array_equal(b.add.table, ref.add.table) and np.array_equal(b.mul.table, ref.mul.table):
            notes.append(_CYCLIC3_NOTE)
    section = {
        "classes": [[int(z) for z in cls] for cls in partition.classes],
        "class_labels": class_labels,
        "notes": notes,
    }
    if criterion is not None:
        pairs = [
            {"z1": z1, "z2": z2, "criterion": crit, "tables_equal": eq, "agree": crit == eq}
            for z1, z2, crit, eq in partition.criterion_pairs
        ]
        section["criterion_pairs"] = pairs
        section["criterion_agrees_everywhere"] = all(p["agree"] for p in pairs)
    return section


def gv_section(identity_shift: DeformedSolution, timings: bool = False) -> list[dict]:
    """Correspondence entries; with ``timings`` each records its own comparison's wall time."""
    return [_entry("gv", c, None, timings) for c in gv_correspondence_check(identity_shift)]


def config_int(value: Any, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A config field that must be an integer (a Python or NumPy integer, not a boolean); else a one-line ValueError.

    Floats, even integral ones like 3.0, and numeric strings are rejected,
    as integer entries of brace tables are.  With ``minimum`` or
    ``maximum``, an integer outside them is rejected too.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{where} must be <= {maximum}, got {value}")
    return int(value)


def seed_setting(value: Any) -> int:
    """A ``seed`` setting: the 64-bit start state of the sample stream, 0 <= seed < 2^64; else a one-line ValueError."""
    return config_int(value, "seed", minimum=0, maximum=SEED_LIMIT - 1)


LEVELS = ("maps", "matrices", "all")


def level_setting(value: Any) -> str:
    """A ``level`` setting: one of ``LEVELS``; else a one-line ValueError."""
    if value not in LEVELS:
        raise ValueError(f"unknown level {value!r}")
    return value


def sample_points_setting(value: Any) -> int:
    """A ``sample_points`` setting: an integer of at least 1; else a one-line ValueError."""
    if config_int(value, "sample_points") < 1:
        raise ValueError("sample_points must be >= 1")
    return int(value)


def select_shifts(b: SkewBrace, selection: Any, seed: int) -> list[int]:
    """Resolve a shift selection: "all" (or None), a list of element indices, or {"sample": k}.

    {"sample": k} takes the k admissible shifts whose positions carry the
    smallest values of the splitmix64 stream of ``seed`` (ties by
    position).  Any other form, a count or index that is not an integer,
    or a selection of no shift (an empty list, k < 1) raises ValueError.
    """
    admissible = admissible_z(b).tolist()
    if selection == "all" or selection is None:
        return [int(z) for z in admissible]
    if isinstance(selection, dict) and "sample" in selection:
        k = config_int(selection["sample"], "z.sample", minimum=1)
        if k >= len(admissible):
            return [int(z) for z in admissible]
        keys = splitmix64(seed, 0, len(admissible))
        return sorted(admissible[i] for i in np.argsort(keys, kind="stable")[:k])
    if not isinstance(selection, (list, tuple)):
        raise ValueError(f'shift selection must be "all", a list or {{"sample": k}}, got {selection!r}')
    zs = [config_int(z, f"z[{i}]") for i, z in enumerate(selection)]
    if not zs:
        raise ValueError("shift selection is empty")
    allowed = set(admissible)
    bad = [z for z in zs if z not in allowed]
    if bad:
        raise InadmissibleZError(f"requested shifts not admissible: {bad}")
    return sorted(set(zs))


def build_report(
    b: SkewBrace,
    zs: Sequence[int],
    level: str = "all",
    family: str | None = None,
    params: dict | None = None,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
    timings: bool = False,
) -> dict:
    """Run the selected suites in fixed order and assemble the report."""
    level = level_setting(level)
    sample_points = sample_points_setting(sample_points)
    seed = seed_setting(seed)
    t_start = time.perf_counter()

    # the brace was built and validated before the report; its entry times
    # the brace-level work done here, the socle and the admissible shifts
    soc = sorted(b.socle_members)
    adm = admissible_z(b)
    construction = Check(
        "construction",
        "pass",
        b.order**3,
        {"is_left_brace": b.is_left_brace, "is_two_sided": b.is_two_sided, "identity": b.identity},
        "group axioms, shared identity and left distributivity verified eagerly",
        (time.perf_counter() - t_start) * 1000,
    )
    checks = [_entry("brace", construction, None, timings)]

    zs = [int(z) for z in zs]
    maps = level in ("maps", "all")
    matrices = level in ("matrices", "all")
    identity_shift = build_solution(b, b.identity) if maps else None
    # Section timings are sums over class representatives; the partition
    # and the dedup and gv sections count towards the map-level time,
    # restating towards none, and a section that does not run reads 0.0.
    start = time.perf_counter()
    criterion = odd_matrix_pair_criterion if maps and is_odd_matrix_brace(b) else None
    partition = dedup_solutions(b, zs, pair_criterion=criterion)
    maps_s = time.perf_counter() - start if maps else 0.0
    matrices_s = 0.0

    verified: dict[int, tuple[list[dict], list[dict]]] = {}  # representative -> its entries
    for rep in (cls[0] for cls in partition.classes):
        lap = time.perf_counter()
        s = build_solution(b, rep)
        maps_out: list[dict] = []
        tensors_out: list[dict] = []
        if maps:
            maps_out = solution_suite(s, identity_shift, timings)
            now = time.perf_counter()
            maps_s += now - lap
            lap = now
        if matrices:
            tensors_out = tensor_suite(TwistBundle(s), budget, sample_points, seed, timings)
            matrices_s += time.perf_counter() - lap
        verified[rep] = maps_out, tensors_out
        del s  # only the solution in flight is held

    # entries in shift order: a representative's own, every other shift's restated
    representative_of = {z: cls[0] for cls in partition.classes for z in cls}
    tensor_entries: list[dict] = []
    for z in zs:
        maps_out, tensors_out = verified[representative_of[z]]
        if z != representative_of[z]:
            maps_out = [_restated_entry(e, b, z, timings) for e in maps_out]
            tensors_out = [_restated_entry(e, b, z, timings) for e in tensors_out]
        checks.extend(maps_out)
        tensor_entries.extend(tensors_out)
    dedup = None
    if maps:
        start = time.perf_counter()
        dedup = dedup_section(b, partition, criterion)
        checks.extend(gv_section(identity_shift, timings))
        maps_s += time.perf_counter() - start
    checks.extend(tensor_entries)
    maps_ms, matrices_ms = maps_s * 1000, matrices_s * 1000

    counts = {"pass": 0, "fail": 0, "sampled": 0}
    for c in checks:
        counts[c["status"]] += 1

    report = {
        "format": "zbrace-report/1",
        "version": __version__,
        "brace": {
            "name": b.name,
            "family": family,
            "params": params,
            "order": b.order,
            "identity": b.identity,
            "is_left_brace": b.is_left_brace,
            "is_two_sided": b.is_two_sided,
            "labels": list(b.labels) if b.order <= _LABELS_IN_REPORT_MAX else None,
            "socle": [int(i) for i in soc],
            "socle_labels": [b.labels[i] for i in soc] if b.order <= _LABELS_IN_REPORT_MAX else None,
            "admissible_z": "all" if len(adm) == b.order else [int(i) for i in adm],
        },
        "config": {
            "z": zs,
            "level": level,
            "seed": seed,
            "budget": budget,
            "sample_points": sample_points,
            "timings": timings,
        },
        "checks": checks,
        "dedup": dedup,
        "summary": {
            **counts,
            "all_passed": counts["fail"] == 0,
        },
        "elapsed_ms": {
            "maps": round(maps_ms, 3) if timings else 0.0,
            "matrices": round(matrices_ms, 3) if timings else 0.0,
            "total": round((time.perf_counter() - t_start) * 1000, 3) if timings else 0.0,
        },
    }
    return report


def report_failed(report: dict) -> bool:
    return not report["summary"]["all_passed"]


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def report_chunks(report: dict) -> Iterator[str]:
    """The canonical byte-stable JSON form of ``report`` in the encoder's chunks, a newline last.

    A writer streams them, so the whole text is never held at once.
    """
    yield from _ENCODER.iterencode(report)
    yield "\n"


def serialize_report(report: dict) -> str:
    """Canonical byte-stable JSON form: the join of ``report_chunks``."""
    return "".join(report_chunks(report))
