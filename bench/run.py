"""The zbrace benchmark: four verification workloads through the program's own front door.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is taken from ./src.
Each operation is a fresh process (``python3 -m zbrace.cli ...`` or
``bench/child.py lazy``), launched one at a time and timed from launch to
exit; its output is then checked against closed forms (bench/checks.py)
outside the timed interval.  ``--trace 1`` instead runs the operation in
process, untraced and under spans (bench/spans.py), and reports the
per-layer metrics.  The last line of standard output is one JSON object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import CheckError, ODD_MATRICES, ODD_RESIDUES_64
from child import LAZY_SAMPLES, LAZY_W, LAZY_Z
from spans import PER_LAYER, unit_of

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("oddmatrix-report", "oddmatrix-dedup", "cyclic-report", "lazy-odd-fractions")
SETUPS = 5              # set-ups per run; setup_s is their median
MIN_OPS = 2             # operations per run at least; their reports are compared byte for byte
IMPORTS = 3             # fresh-process imports per traced run; cli.import_s is their median
OP_TIMEOUT_S = 120.0    # an operation still running after this is killed and counted failed
RUN_DEADLINE_S = 150.0  # no operation starts that is expected to end after this


@dataclass
class Plan:
    """What one workload sets up, runs, and checks."""

    name: str
    seed: int
    setup: list[str]
    cli: list[str] | None = None  # zbrace CLI argv of one operation; None for the lazy workload
    output: str = "stdout"        # "stdout", or "report" for the file given to -o
    ring: object = None
    brace: str | None = None
    shift_labels: list[str] | None = None  # None means every element
    exhaustive: bool = False
    notes: list[str] = field(default_factory=list)


def make_plan(name: str, seed: int) -> Plan:
    rng = random.Random(seed)
    if name == "oddmatrix-report":
        ring = ODD_MATRICES
        inside = [x for x in ring.elements() if checks.in_socle(ring, x) and x != ring.one]
        outside = [x for x in ring.elements() if not checks.in_socle(ring, x)]
        labels = [ring.label(rng.choice(inside)), ring.label(rng.choice(outside))]
        return Plan(
            name, seed,
            setup=["--family", "oddmatrix", "--brace", "oddmatrix.brace", "--z-labels", ";".join(labels)],
            cli=["report", "--config", "config.json", "-o", "{out}"], output="report",
            ring=ring, brace="oddmatrix.brace", shift_labels=labels,
            notes=[f"shifts {labels[0]} (socle) and {labels[1]} (outside the socle)"],
        )
    if name == "oddmatrix-dedup":
        return Plan(
            name, seed,
            setup=["--family", "oddmatrix", "--brace", "oddmatrix.brace"],
            cli=["solve", "oddmatrix.brace", "--z", "all", "--dedup", "--seed", str(seed)],
            ring=ODD_MATRICES, brace="oddmatrix.brace",
        )
    if name == "cyclic-report":
        return Plan(
            name, seed,
            setup=["--family", "cyclic2n", "--n", "6", "--brace", "cyclic2n-6.brace", "--z", "all"],
            cli=["report", "--config", "config.json", "-o", "{out}"], output="report",
            ring=ODD_RESIDUES_64, brace="cyclic2n-6.brace", exhaustive=True,
        )
    if name == "lazy-odd-fractions":
        return Plan(name, seed, setup=["--lazy"])
    raise SystemExit(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)} or all)")


class Runner:
    def __init__(self, root: Path, plan: Plan):
        self.plan = plan
        self.work = root / "bench" / ".work" / plan.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k not in ("ZBRACE_THREADS", "ZBRACE_BUDGET")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.elems = None
        self.zs = None
        self.first_report: bytes | None = None

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], stdout_name: str) -> tuple[float, int, float]:
        """Run argv in the work directory; (wall seconds, exit code, peak RSS in MB)."""
        with open(self.work / stdout_name, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            print(f"exit {proc.returncode}: {' '.join(argv[1:])}: {' | '.join(tail)}", file=sys.stderr)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(BENCH / "child.py"), *args]

    def cli_argv(self, out: str) -> list[str]:
        return [a.replace("{out}", out) for a in self.plan.cli]

    # -- set-up ------------------------------------------------------------

    def set_up(self, times: int) -> list[float]:
        walls, braces = [], set()
        for _ in range(times):
            wall, code, _ = self.spawn(self.child("setup", *self.plan.setup), "setup.txt")
            if code != 0:
                raise SystemExit(f"set-up failed with exit code {code}")
            walls.append(wall)
            if self.plan.brace:
                braces.add((self.work / self.plan.brace).read_bytes())
        if self.plan.brace:
            if len(braces) != 1:
                raise SystemExit("zbrace make wrote different brace files for the same input")
            self.elems = checks.load_labels(self.work / self.plan.brace, self.plan.ring)
            if self.plan.shift_labels is None:
                self.zs = list(range(len(self.elems)))
            else:
                labels = [self.plan.ring.label(x) for x in self.elems]
                self.zs = [labels.index(lab) for lab in self.plan.shift_labels]
        return walls

    # -- checks ------------------------------------------------------------

    def check(self, out_name: str) -> None:
        """Raise CheckError unless the output in out_name is correct."""
        plan, path = self.plan, self.work / out_name
        if plan.cli is None:
            lazy = json.loads(path.read_text(encoding="utf-8"))
            checks.check_lazy(lazy, LAZY_Z, LAZY_W, LAZY_SAMPLES)
        elif plan.output == "report":
            raw = path.read_bytes()
            if self.first_report is None:
                self.first_report = raw
            checks.expect(raw == self.first_report, "report bytes differ from the run's first report")
            checks.check_report(json.loads(raw), plan.ring, self.elems, self.zs, plan.exhaustive)
        else:
            checks.check_solve(path.read_text(encoding="utf-8"), plan.ring, self.elems)

    def checked(self, code: int, out_name: str) -> tuple[bool, bool]:
        """(operation failed, output wrong) for one finished operation."""
        if code != 0:
            return True, False
        try:
            self.check(out_name)
        except (CheckError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return True, True
        return False, False

    # -- runs --------------------------------------------------------------

    def run_op(self, out: str) -> tuple[float, int, float]:
        """One operation in a fresh process, its output in out; (wall s, exit code, peak RSS MB)."""
        if self.plan.cli is None:
            return self.spawn(self.child("lazy", "--seed", str(self.plan.seed), "--out", out), "op.txt")
        argv = [sys.executable, "-m", "zbrace.cli", *self.cli_argv(out)]
        return self.spawn(argv, out if self.plan.output == "stdout" else "op.txt")

    def run_ops(self, seconds: float, started: float) -> dict:
        setup = self.set_up(SETUPS)
        walls, rss = [], []
        failed = wrong = 0
        loop = time.perf_counter()
        while True:
            expected = statistics.median(walls) if walls else 0.0
            if time.perf_counter() - started + expected > RUN_DEADLINE_S:
                break
            if len(walls) >= MIN_OPS and time.perf_counter() - loop + expected > seconds:
                break
            out = "first.out" if not walls else "next.out"
            wall, code, peak = self.run_op(out)
            walls.append(wall)
            rss.append(peak)
            bad, incorrect = self.checked(code, out)
            failed += bad
            wrong += incorrect
        print(f"{self.plan.name}: {len(walls)} operations, wall s "
              + " ".join(f"{w:.3f}" for w in walls) + ", set-up s " + " ".join(f"{w:.3f}" for w in setup))
        return {
            "correct": wrong == 0,
            "attempted": len(walls),
            "failed": failed,
            "metrics": {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "verdict_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            },
        }

    def run_traced(self) -> dict:
        self.set_up(1)
        imports = []
        for _ in range(IMPORTS):
            _, code, _ = self.spawn(self.child("import"), "import.txt")
            if code != 0:
                raise SystemExit("importing zbrace.cli failed")
            imports.append(float((self.work / "import.txt").read_text()))
        outs = ["inproc-untraced-1.out", "inproc-traced.out", "inproc-untraced-2.out"]
        if self.plan.cli is None:
            args = ["--lazy-seed", str(self.plan.seed)] + [a for o in outs for a in ("--lazy-out", o)]
        else:
            args = []
            for o in outs:
                stdout = o if self.plan.output == "stdout" else o + ".stdout"
                args += ["--argv", json.dumps(self.cli_argv(o)), "--stdout", stdout]
        _, code, _ = self.spawn(self.child("trace", "--out", "trace.json", *args), "trace.txt")
        if code != 0:
            raise SystemExit(f"traced run failed with exit code {code}")
        doc = json.loads((self.work / "trace.json").read_text(encoding="utf-8"))
        failed = wrong = 0
        for exit_code, o in zip(doc["exit_codes"], outs):
            bad, incorrect = self.checked(exit_code, o)
            failed += bad
            wrong += incorrect
        overhead = doc["traced_s"] - doc["untraced_s"]
        print(f"{self.plan.name}: in process untraced {doc['untraced_s']:.3f} s (mean of two), traced "
              f"{doc['traced_s']:.3f} s, tracing overhead {overhead:.3f} s "
              f"({100 * overhead / doc['untraced_s']:.1f}%), {doc['spans']} spans")
        values = dict(doc["metrics"], **{"cli.import_s": statistics.median(imports)})
        return {
            "correct": wrong == 0,
            "attempted": len(outs),
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": unit_of(m)} for m in PER_LAYER},
        }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    plan = make_plan(name, seed)
    runner = Runner(root, plan)
    for note in plan.notes:
        print(f"{name}: {note}")
    result = runner.run_traced() if trace else runner.run_ops(seconds, started)
    for metric, m in result["metrics"].items():
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="zbrace benchmark")
    parser.add_argument("--workload", required=True, help=f"{', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "zbrace" / "cli.py").is_file():
        print("error: run from the root of a zbrace checkout (no src/zbrace/cli.py here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        make_plan(name, args.seed)
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
