"""Command-line surface.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input or
usage error.  The report builder and the tensor layer are imported by the
commands that run their checks (``verify``, ``twist``, ``export`` and
``report``), so ``make``, ``validate``, ``socle`` and ``solve`` load
neither.  Shift arguments (--z) accept "all", or a comma-separated
list of element labels; a token that matches no label must be ASCII
digits, a 0-based element index.  So must the N of a ``--group sN|zN``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .braces import (
    BraceError,
    SkewBrace,
    check_carrier_cap,
    cyclic_unit_brace,
    is_odd_matrix_brace,
    odd_matrix_brace,
    odd_matrix_pair_criterion,
    product_brace,
    radical_even_brace,
    socle,
    trivial_skew_brace,
)
from .fileio import SchemaError, parse_brace, write_brace, write_matrix
from .groups import GroupValidationError, cyclic_group, symmetric_group
from .settings import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE_POINTS,
    LEVELS,
    config_int,
    level_setting,
    sample_points_setting,
    seed_setting,
    select_shifts,
    unknown_keys,
)
from .solutions import InadmissibleZError, build_solution, cross_check_involutive, dedup_solutions

_INPUT_ERRORS = (
    SchemaError,
    GroupValidationError,
    BraceError,
    InadmissibleZError,
    OSError,
    ValueError,
)


def _resolve_element(b: SkewBrace, token: str) -> int:
    token = token.strip()
    if token in b.labels:
        return b.labels.index(token)
    if not (token.isascii() and token.isdigit()):
        raise InadmissibleZError(f"{token!r} is neither a label nor an index")
    idx = int(token)
    if not (0 <= idx < b.order):
        raise InadmissibleZError(f"index {idx} out of range [0, {b.order})")
    return idx


def _parse_z(b: SkewBrace, selection: str):
    if selection == "all":
        return "all"
    return [_resolve_element(b, tok) for tok in selection.split(",") if tok.strip()]


FAMILIES = ("cyclic2n", "oddmatrix", "radical", "trivial", "product")
# Parameters of the built-in families; a missing or None value takes its default.
_FAMILY_DEFAULTS = {"n": 3, "modulus": 8, "group": "s3"}


def _make_brace(family: str | None, params: dict) -> SkewBrace:
    """Construct a built-in family from ``make`` options or a report config's brace object."""
    p = {**_FAMILY_DEFAULTS, **{k: v for k, v in params.items() if v is not None}}
    if family == "cyclic2n":
        return cyclic_unit_brace(config_int(p["n"], "n"))
    if family == "oddmatrix":
        return odd_matrix_brace()
    if family == "radical":
        return radical_even_brace(config_int(p["modulus"], "modulus"))
    if family == "trivial":
        return trivial_skew_brace(_group_by_name(str(p["group"])), name=f"trivial-{p['group']}")
    if family == "product":
        if "left" not in p or "right" not in p:
            raise ValueError("family 'product' needs both 'left' and 'right' brace files")
        return product_brace(parse_brace(p["left"]), parse_brace(p["right"]))
    raise ValueError(f"unknown family {family!r} (choose from {', '.join(FAMILIES)})")


def _group_by_name(name: str):
    key = name.lower()
    if key[1:].isascii() and key[1:].isdigit():
        if key[0] == "s":
            return symmetric_group(int(key[1:]))
        if key[0] in "zc":
            check_carrier_cap(int(key[1:]))
            return cyclic_group(int(key[1:]))
    raise ValueError(f"unknown group {name!r} (use sN or zN)")


def _print_checks(checks: list[dict]) -> None:
    for c in checks:
        where = f" z={c['z']}" if c["z"] is not None else ""
        line = f"[{c['status']:>7}] {c['section']}:{c['name']}{where} ({c['points']} points)"
        if c["status"] == "fail" and c["witness"] is not None:
            line += f" witness={c['witness']}"
        print(line)


def _family_of(b: SkewBrace) -> str | None:
    """The family label a report shows for a brace file: its name prefix, or None."""
    for fam in FAMILIES:
        if b.name.startswith(fam):
            return fam
    return None


def cmd_make(args) -> int:
    b = _make_brace(args.family, vars(args))
    write_brace(b, args.output)
    print(f"wrote {b.name} (order {b.order}) to {args.output}")
    return 0


def cmd_validate(args) -> int:
    b = parse_brace(args.file)
    soc = socle(b)
    print(
        f"{b.name}: order {b.order}, left brace: {b.is_left_brace}, "
        f"two-sided: {b.is_two_sided}, socle size: {len(soc)}"
    )
    return 0


def cmd_socle(args) -> int:
    b = parse_brace(args.file)
    members = socle(b)
    print("socle indices:", " ".join(str(int(i)) for i in members))
    print("socle labels: ", " ".join(b.labels[int(i)] for i in members))
    return 0


def cmd_solve(args) -> int:
    """One involutive= line per shift, then with ``--dedup`` the classes.

    Shifts with the same map form one class (``dedup_solutions``, which
    builds nothing), and one solution is built per class: its
    non-degeneracy checks and its direct r o r = id test decide the map
    once, and each shift's line cross-checks that verdict against its own
    socle criterion.  Only the solution in flight is held.
    """
    b = parse_brace(args.file)
    zs = select_shifts(b, _parse_z(b, args.z), seed=args.seed)
    criterion = odd_matrix_pair_criterion if args.dedup and is_odd_matrix_brace(b) else None
    partition = dedup_solutions(b, zs, pair_criterion=criterion)
    first = {z: cls[0] for cls in partition.classes for z in cls}
    involutive: dict[int, bool] = {}  # class's first member -> r o r = id
    for z in zs:
        rep = first[z]
        if rep not in involutive:
            involutive[rep] = build_solution(b, rep).involutive
        print(f"z={z} (label {b.labels[z]}): involutive={cross_check_involutive(b, z, involutive[rep])}")
    if not args.dedup:
        return 0
    for cls in partition.classes:
        print("class {" + ",".join(b.labels[z] for z in cls) + "}")
    pairs = partition.criterion_pairs
    if pairs is not None and pairs.z1.size:
        agree = bool((pairs.criterion == pairs.tables_equal).all())
        print(f"pair criterion agrees with table equality: {agree}")
    return 0


def cmd_verify(args) -> int:
    from .reporting import build_report, report_failed

    seed_setting(args.seed)
    config_int(args.budget, "budget", minimum=0)
    b = parse_brace(args.file)
    zs = select_shifts(b, _parse_z(b, args.z), seed=args.seed)
    report = build_report(
        b,
        zs,
        level=args.level,
        family=_family_of(b),
        budget=args.budget,
        seed=args.seed,
    )
    _print_checks(report["checks"])
    summary = report["summary"]
    print(f"pass={summary['pass']} fail={summary['fail']} sampled={summary['sampled']}")
    return 1 if report_failed(report) else 0


def cmd_twist(args) -> int:
    from .reporting import TENSOR_FAMILIES, tensor_checks
    from .tensor import TwistBundle

    # "braid" (the braid relation and the YBE) runs only in reports
    choices = tuple(f for f in TENSOR_FAMILIES if f != "braid")
    wanted = choices if args.check is None else [w.strip() for w in args.check.split(",") if w.strip()]
    if not wanted:
        raise ValueError(f"no twist check selected (choose from {', '.join(choices)})")
    for w in wanted:
        if w not in choices:
            raise ValueError(f"unknown twist check {w!r} (choose from {', '.join(choices)})")
    seed_setting(args.seed)
    config_int(args.budget, "budget", minimum=0)
    b = parse_brace(args.file)
    zs = select_shifts(b, _parse_z(b, args.z), seed=args.seed)
    failed = False
    for z in zs:
        bundle = TwistBundle(build_solution(b, z))
        for family, c in tensor_checks(bundle, wanted, args.budget, DEFAULT_SAMPLE_POINTS, args.seed):
            if family == "defect":
                nz = c.witness["defect_nonzero"]
                print(f"[   info] z={z} {c.name} defect_nonzero={nz}"
                      + (f" witness={c.witness['witness']}" if nz else ""))
                continue
            failed |= c.status == "fail"
            print(f"[{c.status:>7}] z={z} {c.name} ({c.points} points)"
                  + (f" witness={c.witness}" if c.witness else ""))
    return 1 if failed else 0


def cmd_export(args) -> int:
    from .tensor import TwistBundle, export_object

    b = parse_brace(args.file)
    z = _resolve_element(b, args.z)
    zs = select_shifts(b, [z], seed=0)
    bundle = TwistBundle(build_solution(b, zs[0]))
    matrix = export_object(bundle, args.object)
    write_matrix(matrix, args.output)
    print(f"wrote {args.object} ({matrix.size}x{matrix.size}) to {args.output}")
    return 0


# The top-level keys a report config may hold, and those of its brace object;
# any other key is an input error.
_REPORT_CONFIG_KEYS = ("brace", "z", "level", "seed", "budget", "sample_points", "timings")
_BRACE_KEYS = ("file", "family", "n", "modulus", "group", "left", "right")


def cmd_report(args) -> int:
    from .reporting import build_report, report_chunks, report_failed

    cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise SchemaError("$", "config must be an object")
    unknown_keys(cfg, _REPORT_CONFIG_KEYS, "config key")
    src_doc = cfg.get("brace")
    if not isinstance(src_doc, dict):
        raise SchemaError("$.brace", "missing brace source")
    unknown_keys(src_doc, _BRACE_KEYS, "brace key")
    seed = seed_setting(cfg.get("seed", 0))
    budget = config_int(cfg.get("budget", DEFAULT_BUDGET), "budget", minimum=0)
    sample_points = sample_points_setting(cfg.get("sample_points", DEFAULT_SAMPLE_POINTS))
    timings = cfg.get("timings", False)
    if not isinstance(timings, bool):
        raise ValueError(f"timings must be true or false, got {timings!r}")
    level = level_setting(cfg.get("level", "all"))
    family = src_doc.get("family")
    if "file" in src_doc:
        b = parse_brace(src_doc["file"])
        family = family or _family_of(b)
    else:
        b = _make_brace(family, src_doc)
    zs = select_shifts(b, cfg.get("z", "all"), seed=seed)
    report = build_report(
        b,
        zs,
        level=level,
        family=family,
        params={k: v for k, v in src_doc.items() if k != "family"} or None,
        budget=budget,
        sample_points=sample_points,
        seed=seed,
        timings=timings,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(report_chunks(report))
        print(f"wrote report to {args.output}")
    else:
        sys.stdout.writelines(report_chunks(report))
    return 1 if report_failed(report) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zbrace",
        description="Construct finite skew braces and verify their deformed Yang-Baxter solutions exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="construct a built-in brace family and write it to a file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, help=f"modulus exponent for cyclic2n (default {_FAMILY_DEFAULTS['n']})")
    p.add_argument("--modulus", type=int, help=f"ring modulus for radical (default {_FAMILY_DEFAULTS['modulus']})")
    p.add_argument("--group", help=f"group for trivial, sN or zN (default {_FAMILY_DEFAULTS['group']})")
    p.add_argument("--left", help="left factor brace file for product")
    p.add_argument("--right", help="right factor brace file for product")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_make)

    p = sub.add_parser("validate", help="parse and fully validate a brace file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("socle", help="print the socle of a brace")
    p.add_argument("file")
    p.set_defaults(fn=cmd_socle)

    p = sub.add_parser("solve", help="build deformed solutions for selected shifts")
    p.add_argument("file")
    p.add_argument("--z", default="all")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run verification suites and report pass/fail")
    p.add_argument("file")
    p.add_argument("--z", default="all")
    p.add_argument("--level", choices=LEVELS, default="maps")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("twist", help="run selected matrix-level twist checks")
    p.add_argument("file")
    p.add_argument("--z", default="all")
    p.add_argument("--check", help="comma-separated twist checks (default: every one)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("export", help="export an operator in coordinate text form")
    p.add_argument("file")
    p.add_argument("--z", required=True)
    p.add_argument("--object", required=True,
                   help="rcheck, r, P, F, Fhat, rF, rFhat, F123, Fhat123, or V:x, W:y, DeltaV:x, DeltaW:y")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("report", help="run a full verification report from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that closes stdout early is met here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # not an input error; send the output still buffered to devnull so
        # that the final flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
