"""Self-test of the benchmark's output checks: real outputs pass, corrupted copies are rejected.

    python3 bench/selftest.py        # from the root of a checkout; runs one operation per workload

Each workload is set up and its operation run once, exactly as bench/run.py
does.  The real output must pass its check; then each corruption below is
written to a copy and the check must raise CheckError.  Exits 1 if a
corrupted copy is accepted or a real output is rejected.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

from checks import CheckError, in_socle
from run import WORKLOADS, Runner, make_plan


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _payload(doc: dict, z: int) -> dict:
    return next(c for c in doc["checks"] if c["name"] == "involutivity-criterion" and c["z"] == z)["witness"]


def report_corruptions(runner: Runner) -> dict:
    ring, elems, n = runner.plan.ring, runner.elems, len(runner.elems)
    inside = next(z for z in runner.zs if in_socle(ring, elems[z]) and elems[z] != ring.one)
    outside = next(z for z in runner.zs if not in_socle(ring, elems[z]))

    def socle_index(doc):
        doc["brace"]["socle"][1] += 1

    def flipped_involutive(doc):
        _payload(doc, inside)["involutive"] = False

    def false_witness(doc):
        w = _payload(doc, outside)["two_step_witness"]
        w[1] = [w[1][0], (w[1][1] + 1) % n]

    def moved_class_member(doc):
        classes = doc["dedup"]["classes"]
        classes[1].append(classes[0].pop())
        doc["dedup"]["classes"] = [c for c in classes if c]

    def failed_check(doc):
        doc["summary"]["fail"] = 1

    def dropped(name, z):
        def corrupt(doc):
            doc["checks"] = [c for c in doc["checks"] if not (c["z"] == z and c["name"] == name)]
        return corrupt

    out = {
        "wrong socle index": socle_index,
        "flipped involutive": flipped_involutive,
        "false two-step witness": false_witness,
        "moved class member": moved_class_member,
        "summary with a failure": failed_check,
        "missing braid constraint": dropped("constraint-c2", outside),
        "missing tensor check": dropped("twisted-braid:F", outside),
        "missing gv entry": dropped("gv-inverse-relation", None),
    }
    if runner.plan.exhaustive:
        def short_points(doc):
            next(c for c in doc["checks"] if c["name"] == "matrix-ybe")["points"] -= 1

        def sampled_status(doc):
            next(c for c in doc["checks"] if c["name"] == "cocycle:F-closed-form")["status"] = "sampled"

        out["arity-3 check short of n^3 points"] = short_points
        out["sampled status where exhaustive"] = sampled_status
    else:
        def criterion_disagrees(doc):
            doc["dedup"]["criterion_agrees_everywhere"] = False

        def few_samples(doc):
            next(c for c in doc["checks"] if c["status"] == "sampled")["points"] = 1000

        out["pair criterion disagrees"] = criterion_disagrees
        out["sampled check with too few points"] = few_samples
    return out


def solve_corruptions(runner: Runner) -> dict:
    def flipped_involutive(lines):
        i = next(i for i, line in enumerate(lines) if line.endswith("involutive=True"))
        lines[i] = lines[i].replace("involutive=True", "involutive=False")

    def moved_class_member(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("class {"))
        first, second = (re.findall(r"\[\[\d+,\d+\],\[\d+,\d+\]\]", line) for line in lines[i:i + 2])
        second.append(first.pop())
        lines[i:i + 2] = ["class {" + ",".join(labels) + "}" for labels in (first, second)]

    def criterion_disagrees(lines):
        lines[-1] = "pair criterion agrees with table equality: False"

    def wrong_label(lines):
        lines[1], lines[2] = lines[2].replace("z=2", "z=1"), lines[1].replace("z=1", "z=2")

    return {
        "flipped involutive": flipped_involutive,
        "moved class member": moved_class_member,
        "pair criterion disagrees": criterion_disagrees,
        "labels swapped between shifts": wrong_label,
    }


def lazy_corruptions(_runner: Runner) -> dict:
    def by_name(doc, name):
        return next(c for c in doc if c["name"] == name)

    def false_two_step(doc):
        w = by_name(doc, "non-involutive-witness")["witness"]
        w[1][0] = w[0][0]

    def false_separation(doc):
        w = by_name(doc, "distinct-shift-witness")["witness"]
        w[2] = w[1]

    def failed_constraint(doc):
        by_name(doc, "constraint-c1")["status"] = "fail"

    def unproved_law(doc):
        by_name(doc, "left-distributivity")["witness"] = ["1", "1", "1"]

    return {
        "false non-involutive witness": false_two_step,
        "false distinct-shift witness": false_separation,
        "failed constraint": failed_constraint,
        "law with a witness": unproved_law,
    }


def self_test(root: Path, name: str) -> int:
    """Number of checks that behaved wrongly for one workload."""
    runner = Runner(root, make_plan(name, seed=0))
    runner.set_up(1)
    _, code, _ = runner.run_op("real.out")
    if code != 0:
        print(f"{name}: the operation exited {code}")
        return 1
    errors = 0
    try:
        runner.check("real.out")
        print(f"{name}: real output accepted")
    except CheckError as exc:
        print(f"{name}: real output REJECTED: {exc}")
        errors += 1

    text = (runner.work / "real.out").read_text(encoding="utf-8")
    if runner.plan.cli is None:
        cases = lazy_corruptions(runner)
    elif runner.plan.output == "report":
        cases = report_corruptions(runner)
    else:
        cases = solve_corruptions(runner)
    for label, corrupt in cases.items():
        if runner.plan.output == "stdout" and runner.plan.cli is not None:
            lines = text.splitlines()
            corrupt(lines)
            bad = "\n".join(lines) + "\n"
        else:
            doc = copy.deepcopy(json.loads(text))
            corrupt(doc)
            bad = _dump(doc) if runner.plan.output == "report" else json.dumps(doc)
        (runner.work / "corrupt.out").write_text(bad, encoding="utf-8")
        runner.first_report = None
        try:
            runner.check("corrupt.out")
        except CheckError as exc:
            print(f"{name}: {label}: rejected ({exc})")
        else:
            print(f"{name}: {label}: ACCEPTED")
            errors += 1

    if runner.plan.output == "report":
        runner.first_report = text.encode("utf-8")
        (runner.work / "corrupt.out").write_text(text.replace('"elapsed_ms": 0.0', '"elapsed_ms": 0.5', 1),
                                                 encoding="utf-8")
        try:
            runner.check("corrupt.out")
        except CheckError as exc:
            print(f"{name}: report bytes differ from the first report: rejected ({exc})")
        else:
            print(f"{name}: report bytes differ from the first report: ACCEPTED")
            errors += 1
    return errors


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "zbrace" / "cli.py").is_file():
        print("error: run from the root of a zbrace checkout", file=sys.stderr)
        return 2
    errors = sum(self_test(root, name) for name in WORKLOADS)
    print("self-test passed" if errors == 0 else f"self-test FAILED: {errors} wrong verdicts")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
