"""Entry points that bench/run.py starts in fresh processes, with src/ on PYTHONPATH.

    child.py setup --family F [--n N] --brace FILE [--z all | --z-labels L1;L2]
    child.py setup --lazy
    child.py lazy --seed S --out FILE
    child.py import
    child.py trace --out FILE (--argv JSON --stdout FILE ... | --lazy-seed S --lazy-out FILE ...)

Every command works in the current directory, which run.py sets to the
workload's work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

LAZY_Z = Fraction(3, 5)
LAZY_W = Fraction(1)
LAZY_SAMPLES = 10_000


def setup(args) -> None:
    """Import zbrace and write the workload's brace file and report config."""
    if args.lazy:
        import zbrace.lazy  # noqa: F401  the import is the lazy workload's whole set-up
        return
    from zbrace import cli

    make = ["make", "--family", args.family, "-o", args.brace]
    if args.n is not None:
        make += ["--n", str(args.n)]
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(make)
    if code != 0:
        raise SystemExit(code)
    if args.z is None and args.z_labels is None:
        return
    if args.z_labels is not None:
        labels = json.loads(Path(args.brace).read_text(encoding="utf-8"))["labels"]
        zs = [labels.index(lab) for lab in args.z_labels.split(";")]
    else:
        zs = args.z
    config = {"brace": {"file": args.brace}, "z": zs, "level": "all", "seed": 0, "timings": False}
    Path("config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v


def lazy_checks(seed: int, lb=None) -> list[dict]:
    """The criterion-11 lazy calls plus the law sweep, as plain JSON records."""
    from zbrace import lazy

    lb = lazy.odd_fraction_brace() if lb is None else lb
    checks = lazy.sampled_verify_lazy(lb, LAZY_Z, samples=LAZY_SAMPLES, seed=seed, w=LAZY_W)
    checks += lazy.sampled_brace_laws(lb, samples=LAZY_SAMPLES, seed=seed)
    return [
        {"name": c.name, "status": c.status, "points": c.points, "witness": _jsonable(c.witness)}
        for c in checks
    ]


def write_json(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def run_lazy(args) -> None:
    write_json(args.out, lazy_checks(args.seed))


def measure_import(_args) -> None:
    start = time.perf_counter()
    import zbrace.cli  # noqa: F401

    print(repr(time.perf_counter() - start))


def _run_cli(argv: list[str], stdout_path: str) -> int:
    from zbrace import cli

    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        return cli.main(argv)


def trace(args) -> None:
    """The operation in process: untraced, traced, untraced; spans become per-layer metrics.

    The tracing overhead is the traced wall time minus the mean of the two
    untraced ones, which bracket it.
    """
    from spans import Tracer  # bench/spans.py, beside this file

    import zbrace.cli  # noqa: F401  loads every module, so install() sees every binding

    tracer = Tracer()
    walls, codes = [], []
    for i, traced in enumerate((False, True, False)):
        if traced:
            tracer.install()
        start = time.perf_counter()
        if args.lazy_seed is not None:
            lb = None
            if traced:
                from zbrace import lazy

                lb = tracer.counting(lazy.odd_fraction_brace(), ("circle", "add"))
            write_json(args.lazy_out[i], lazy_checks(args.lazy_seed, lb))
            codes.append(0)
        else:
            codes.append(_run_cli(json.loads(args.argv[i]), args.stdout[i]))
        walls.append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
    write_json(args.out, {
        "untraced_s": (walls[0] + walls[2]) / 2,
        "traced_s": walls[1],
        "exit_codes": codes,
        "spans": len(tracer.spans),
        "metrics": tracer.layer_metrics(),
    })


def main() -> None:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--brace")
    p.add_argument("--z", choices=["all"])
    p.add_argument("--z-labels")
    p.set_defaults(fn=setup)
    p = sub.add_parser("lazy")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_lazy)
    p = sub.add_parser("import")
    p.set_defaults(fn=measure_import)
    p = sub.add_parser("trace")
    p.add_argument("--out", required=True)
    p.add_argument("--argv", action="append", help="CLI argv as JSON, for each of the three runs")
    p.add_argument("--stdout", action="append", help="stdout file of each CLI run")
    p.add_argument("--lazy-seed", type=int)
    p.add_argument("--lazy-out", action="append", help="output file of each lazy run")
    p.set_defaults(fn=trace)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
