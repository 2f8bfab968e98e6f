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

Reports are byte-stable for fixed inputs and seed: timings are recorded
as 0.0 unless explicitly requested, and no other nondeterministic data
is emitted.  Any entry with status "fail" makes the run exit nonzero.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .braces import SkewBrace, admissible_z, is_odd_matrix_brace, odd_matrix_pair_criterion, socle
from .solutions import (
    InverseCheckFailedError,
    build_solution,
    dedup_solutions,
    gv_correspondence_check,
    inverse_solution,
    involutivity_witness,
    is_involutive,
    product_identity_check,
    sigma_shift_criterion,
    transpose_identity_check,
    verify_braid_constraints,
)
from .tensor import (
    TensorCheck,
    TwistBundle,
    braid_matrix_check,
    cocycle_check,
    coproduct_commutation_check,
    coproduct_defect,
    default_full_budget,
    lift_commutation_check,
    r_lift_defects,
    twisted_coproduct_check,
    twisted_solution_check,
    ybe_matrix_check,
)

_LABELS_IN_REPORT_MAX = 64


def default_thread_count() -> int:
    raw = os.environ.get("ZBRACE_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


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


def _entry(
    section: str,
    name: str,
    status: str,
    points: int,
    z: int | None = None,
    witness: Any = None,
    note: str = "",
    elapsed_ms: float = 0.0,
) -> dict:
    return {
        "section": section,
        "name": name,
        "z": z,
        "status": status,
        "points": int(points),
        "witness": _jsonable(witness),
        "note": note,
        "elapsed_ms": elapsed_ms,
    }


def _perm_rows_ok(table: np.ndarray) -> bool:
    n = table.shape[0]
    return bool(
        np.array_equal(np.sort(table, axis=1), np.broadcast_to(np.arange(n), table.shape))
    )


def solution_suite(b: SkewBrace, z: int) -> list[dict]:
    """Map-level checks for one shift, in fixed order."""
    out: list[dict] = []
    s = build_solution(b, z)
    n = b.order

    out.append(
        _entry(
            "solution",
            "admissible",
            "pass",
            n * n if not b.is_two_sided else 0,
            z=z,
            note=(
                "every shift of a two-sided brace is admissible"
                if b.is_two_sided
                else "shift law checked elementwise"
            ),
        )
    )
    out.append(
        _entry(
            "solution",
            "nondegenerate-sigma",
            "pass" if _perm_rows_ok(s.sigma) else "fail",
            n * n,
            z=z,
        )
    )
    out.append(
        _entry(
            "solution",
            "nondegenerate-tau",
            "pass" if _perm_rows_ok(s.tau) else "fail",
            n * n,
            z=z,
        )
    )
    for rep in verify_braid_constraints(s):
        out.append(
            _entry(
                "solution",
                f"constraint-{rep.name}",
                "pass" if rep.ok else "fail",
                rep.points,
                z=z,
                witness=rep.witness,
            )
        )
    pid = product_identity_check(s)
    out.append(
        _entry("solution", "product-identity", "pass" if pid.ok else "fail", pid.points, z=z, witness=pid.witness)
    )
    tok, collision = transpose_identity_check(s)
    out.append(
        _entry("solution", "transpose-identity", "pass" if tok else "fail", n * n, z=z, witness=collision)
    )

    involutive = is_involutive(s)  # raises CriterionMismatchError on a bug
    in_socle = bool(z in set(socle(b).tolist()))
    payload: dict[str, Any] = {
        "involutive": involutive,
        "left_brace": b.is_left_brace,
        "socle_member": in_socle,
    }
    if not involutive:
        payload["two_step_witness"] = involutivity_witness(s)
    out.append(
        _entry("solution", "involutivity-criterion", "pass", n * n, z=z, witness=payload,
               note="direct double-application test agrees with the socle criterion")
    )
    tables_equal, commutes = sigma_shift_criterion(b, z)
    out.append(
        _entry(
            "solution",
            "sigma-shift-criterion",
            "pass" if tables_equal == commutes else "fail",
            n * n,
            z=z,
            witness={"sigma_equals_identity_shift": tables_equal, "shift_commutation": commutes},
        )
    )
    try:
        inverse_solution(b, z)
        out.append(_entry("solution", "inverse-composition", "pass", 2 * n * n, z=z))
    except InverseCheckFailedError as exc:
        out.append(
            _entry("solution", "inverse-composition", "fail", 2 * n * n, z=z, witness=exc.witness)
        )
    return out


def tensor_suite(
    b: SkewBrace,
    z: int,
    budget: int,
    sample_points: int,
    seed: int,
) -> list[dict]:
    """Matrix-level checks for one shift, in fixed order."""
    s = build_solution(b, z)
    bundle = TwistBundle(s)
    out: list[dict] = []

    def add(check: TensorCheck) -> None:
        out.append(
            _entry("tensor", check.name, check.status, check.points, z=z,
                   witness=check.witness, note=check.note)
        )

    add(braid_matrix_check(bundle, budget=budget, sample_points=sample_points, seed=seed))
    add(ybe_matrix_check(bundle, budget=budget, sample_points=sample_points, seed=seed))
    add(coproduct_commutation_check(bundle))
    for c in lift_commutation_check(bundle, budget=budget, sample_points=sample_points, seed=seed):
        add(c)
    for c in cocycle_check(bundle, budget=budget, sample_points=sample_points, seed=seed):
        add(c)
    for c in twisted_solution_check(bundle, budget=budget, sample_points=sample_points, seed=seed):
        add(c)
    for c in twisted_coproduct_check(bundle):
        add(c)

    # Defect probes are informational: a nonzero defect is expected content
    # away from the involutive case, never a failure.
    def add_probe(check: TensorCheck, suffix: str = "") -> None:
        nonzero = check.status == "fail"
        status = "sampled" if check.status == "sampled" else "pass"
        out.append(
            _entry(
                "tensor",
                check.name + suffix,
                status,
                check.points,
                z=z,
                witness={"defect_nonzero": nonzero, "witness": check.witness},
                note="informational defect probe",
            )
        )

    probes = [b.identity]
    alt = next((i for i in range(b.order) if i != b.identity), None)
    if alt is not None:
        probes.append(alt)
    for eta in probes:
        check = coproduct_defect(
            bundle, eta, budget=budget, sample_points=sample_points, seed=seed
        )
        add_probe(check, suffix=f":eta={eta}")
    for check in r_lift_defects(bundle, budget=budget, sample_points=sample_points, seed=seed):
        add_probe(check)
    return out


def dedup_section(b: SkewBrace, zs: Sequence[int], family: str | None) -> dict:
    criterion = odd_matrix_pair_criterion if is_odd_matrix_brace(b) else None
    partition = dedup_solutions((build_solution(b, z) for z in zs), pair_criterion=criterion)
    notes: list[str] = []
    if family == "cyclic2n" and b.order == 4:
        classes = {tuple(sorted(b.labels[i] for i in cls)) for cls in partition.classes}
        if classes == {("1", "5"), ("3", "7")}:
            notes.append(
                "known-discrepancy: exhaustive table comparison gives classes {1,5} and {3,7}; "
                "the published example for this family asserts r_3, r_5, r_7 are pairwise "
                "distinct, which direct computation contradicts (the socle is {1,5}, forcing "
                "r_1 = r_5). The computed partition is authoritative here."
            )
    section = {
        "classes": [[int(z) for z in cls] for cls in partition.classes],
        "class_labels": [[b.labels[z] for z in cls] for cls in partition.classes],
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


def gv_section(b: SkewBrace) -> list[dict]:
    rep = gv_correspondence_check(b)
    n2 = b.order * b.order
    out = [
        _entry(
            "gv",
            "gv-conjugation-identity",
            "pass" if rep.conjugation_ok else "fail",
            n2,
            witness=rep.conjugation_witness,
        ),
        _entry(
            "gv",
            "gv-inverse-relation",
            "pass" if rep.inverse_ok else "fail",
            n2,
            witness=rep.inverse_witness,
            note="undeformed map composes with the identity-shift deformation to the identity",
        ),
    ]
    if rep.tables_equal is not None:
        out.append(
            _entry(
                "gv",
                "gv-tables-equal-at-identity-shift",
                "pass" if rep.tables_equal else "fail",
                n2,
                witness=rep.tables_witness,
            )
        )
    return out


def select_shifts(b: SkewBrace, selection: Any, seed: int) -> list[int]:
    """Resolve a shift selection: "all", an explicit list, or {"sample": k}."""
    admissible = admissible_z(b).tolist()
    if selection == "all" or selection is None:
        return [int(z) for z in admissible]
    if isinstance(selection, dict) and "sample" in selection:
        k = int(selection["sample"])
        rng = np.random.default_rng(seed)
        if k >= len(admissible):
            return [int(z) for z in admissible]
        picked = rng.choice(np.asarray(admissible), size=k, replace=False)
        return sorted(int(z) for z in picked)
    zs = [int(z) for z in selection]
    bad = [z for z in zs if z not in set(admissible)]
    if bad:
        from .solutions import InadmissibleZError

        raise InadmissibleZError(f"requested shifts not admissible: {bad}")
    return sorted(set(zs))


def build_report(
    b: SkewBrace,
    zs: Sequence[int],
    level: str = "all",
    family: str | None = None,
    params: dict | None = None,
    budget: int | None = None,
    sample_points: int = 100_000,
    seed: int = 0,
    timings: bool = False,
    threads: int | None = None,
) -> dict:
    """Run the selected suites in fixed order and assemble the report."""
    if level not in ("maps", "matrices", "all"):
        raise ValueError(f"unknown level {level!r}")
    budget = default_full_budget() if budget is None else budget
    t_start = time.perf_counter()

    soc = socle(b).tolist()
    adm = admissible_z(b)
    checks: list[dict] = [
        _entry(
            "brace",
            "construction",
            "pass",
            b.order * b.order * b.order,
            witness={
                "is_left_brace": b.is_left_brace,
                "is_two_sided": b.is_two_sided,
                "identity": b.identity,
            },
            note="group axioms, shared identity and left distributivity verified eagerly",
        )
    ]

    zs = [int(z) for z in zs]
    threads = default_thread_count() if threads is None else threads
    threads = max(1, min(threads, len(zs), os.cpu_count() or 1))

    def run_z(fn: Callable[[SkewBrace, int], list[dict]]) -> list[dict]:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda z: fn(b, z), zs))
            merged: list[dict] = []
            for res in results:
                merged.extend(res)
            return merged
        merged = []
        for z in zs:
            merged.extend(fn(b, z))
        return merged

    timer = time.perf_counter()
    if level in ("maps", "all"):
        checks.extend(run_z(solution_suite))
    maps_ms = (time.perf_counter() - timer) * 1000

    dedup = None
    if level in ("maps", "all"):
        dedup = dedup_section(b, zs, family)
        checks.extend(gv_section(b))

    timer = time.perf_counter()
    if level in ("matrices", "all"):
        checks.extend(
            run_z(lambda bb, z: tensor_suite(bb, z, budget, sample_points, seed))
        )
    matrices_ms = (time.perf_counter() - timer) * 1000

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
    return _jsonable(report)


def report_failed(report: dict) -> bool:
    return not report["summary"]["all_passed"]


def serialize_report(report: dict) -> str:
    """Canonical byte-stable JSON form."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
