"""Output checks made apart from zbrace, from closed forms of the two finite families.

Both finite workloads use braces whose operations come from a ring: the
odd 2x2 matrices mod 8 (odd diagonal, even off-diagonal) and the odd
residues mod 64.  In both, a + b = a + b - 1 and a o b = ab in ring
arithmetic, so for a shift z

    sigma_x(y) = x(y - z) + z,    tau_y(x) = sigma_x(y)^-1 x y,

the socle is {z = 1 mod 4} (matrices) or {z = 1 mod 32} (residues), r_z is
involutive exactly on the socle, and r_z = r_w exactly when z = w modulo
that same number.  Nothing here imports zbrace: every expected value is
computed from these formulas, and every check raises ``CheckError`` with a
one-line reason.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class OddMatrices:
    """2x2 matrices mod 8 with odd diagonal and even off-diagonal, as (a, b, c, d)."""

    name = "odd matrices mod 8"
    key_mod = 4
    pair_criterion = True  # zbrace applies the published odd-matrix pair criterion
    one = (1, 0, 0, 1)

    def elements(self) -> list[tuple[int, int, int, int]]:
        return [(a, b, c, d) for a in range(1, 8, 2) for b in range(0, 8, 2)
                for c in range(0, 8, 2) for d in range(1, 8, 2)]

    def label(self, x) -> str:
        a, b, c, d = x
        return f"[[{a},{b}],[{c},{d}]]"

    def parse(self, label: str):
        m = re.fullmatch(r"\[\[(\d+),(\d+)\],\[(\d+),(\d+)\]\]", label)
        expect(m is not None, f"label {label!r} is not a 2x2 matrix")
        x = tuple(int(v) for v in m.groups())
        expect(x[0] % 2 == 1 and x[3] % 2 == 1 and x[1] % 2 == 0 and x[2] % 2 == 0
               and all(0 <= v < 8 for v in x), f"label {label!r} is not an odd matrix mod 8")
        return x

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 8, (a * f + b * h) % 8, (c * e + d * g) % 8, (c * f + d * h) % 8)

    def add(self, x, y):
        return tuple((u + v) % 8 for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple((u - v) % 8 for u, v in zip(x, y))

    def inv(self, x):
        a, b, c, d = x
        det_inv = pow((a * d - b * c) % 8, -1, 8)
        return ((d * det_inv) % 8, (-b * det_inv) % 8, (-c * det_inv) % 8, (a * det_inv) % 8)

    def key(self, x):
        return tuple(v % self.key_mod for v in x)


class OddResidues:
    """Odd residues mod 2^k."""

    pair_criterion = False

    def __init__(self, k: int):
        self.mod = 1 << k
        self.key_mod = self.mod // 2
        self.name = f"odd residues mod {self.mod}"
        self.one = 1

    def elements(self) -> list[int]:
        return list(range(1, self.mod, 2))

    def label(self, x) -> str:
        return str(x)

    def parse(self, label: str) -> int:
        expect(label.isdigit() and int(label) % 2 == 1 and int(label) < self.mod,
               f"label {label!r} is not an odd residue mod {self.mod}")
        return int(label)

    def mul(self, x, y):
        return (x * y) % self.mod

    def add(self, x, y):
        return (x + y) % self.mod

    def sub(self, x, y):
        return (x - y) % self.mod

    def inv(self, x):
        return pow(x, -1, self.mod)

    def key(self, x):
        return x % self.key_mod


ODD_MATRICES = OddMatrices()
ODD_RESIDUES_64 = OddResidues(6)


def brace_add(ring, x, y):
    return ring.sub(ring.add(x, y), ring.one)


def sigma(ring, z, x, y):
    return ring.add(ring.mul(x, ring.sub(y, z)), z)


def r_map(ring, z, x, y):
    s = sigma(ring, z, x, y)
    return s, ring.mul(ring.inv(s), ring.mul(x, y))


def in_socle(ring, x) -> bool:
    return ring.key(x) == ring.key(ring.one)


def classes_of(ring, xs) -> set[frozenset]:
    groups: dict = {}
    for x in xs:
        groups.setdefault(ring.key(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


# -- brace file --------------------------------------------------------


def load_labels(brace_file: Path, ring) -> list:
    """Elements of a brace file, in index order, after checking both tables at every pair."""
    doc = json.loads(Path(brace_file).read_text(encoding="utf-8"))
    labels = doc["labels"]
    elems = [ring.parse(lab) for lab in labels]
    n = len(elems)
    expect(sorted(elems) == sorted(ring.elements()),
           f"{brace_file}: labels are not the {ring.name}")
    index = {x: i for i, x in enumerate(elems)}
    add, mul = doc["add"], doc["mul"]
    expect(len(add) == n * n and len(mul) == n * n, f"{brace_file}: tables are not {n}x{n}")
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            expect(add[i * n + j] == index[brace_add(ring, x, y)],
                   f"{brace_file}: add[{i}][{j}] is not {ring.label(brace_add(ring, x, y))}")
            expect(mul[i * n + j] == index[ring.mul(x, y)],
                   f"{brace_file}: mul[{i}][{j}] is not {ring.label(ring.mul(x, y))}")
    return elems


# -- witnesses and identities -------------------------------------------


def check_two_step_witness(ring, elems, z: int, witness) -> None:
    """The witness moves its pair under r_z twice, and no smaller pair index is moved."""
    n = len(elems)
    zz = elems[z]
    expect(isinstance(witness, list) and len(witness) == 3
           and all(isinstance(p, list) and len(p) == 2 for p in witness),
           f"z={z}: two_step_witness {witness!r} is not three pairs")
    (x, y), (u, v), (uu, vv) = witness
    expect(all(isinstance(i, int) and 0 <= i < n for i in (x, y, u, v, uu, vv)),
           f"z={z}: two_step_witness {witness!r} has an index out of range")
    first = r_map(ring, zz, elems[x], elems[y])
    expect(first == (elems[u], elems[v]), f"z={z}: r_z({x},{y}) is not ({u},{v})")
    second = r_map(ring, zz, elems[u], elems[v])
    expect(second == (elems[uu], elems[vv]), f"z={z}: r_z({u},{v}) is not ({uu},{vv})")
    expect((uu, vv) != (x, y), f"z={z}: two_step_witness ({x},{y}) is not moved")
    for p in range(x * n + y):
        a, b = elems[p // n], elems[p % n]
        expect(r_map(ring, zz, *r_map(ring, zz, a, b)) == (a, b),
               f"z={z}: pair index {p} is moved too, so ({x},{y}) is not the smallest witness")


# -- reports -------------------------------------------------------------

# Every check of a level-all report, in report order: the construction, the
# solution section of each shift, the gv section, the tensor section of each
# shift.  The two involutive-collapse checks run only where r_z is involutive.
SOLUTION_CHECKS = (
    "admissible", "nondegenerate-sigma", "nondegenerate-tau",
    "constraint-c1", "constraint-c2", "constraint-c3", "product-identity",
    "transpose-identity", "involutivity-criterion", "sigma-shift-criterion",
    "inverse-composition",
)
GV_CHECKS = ("gv-conjugation-identity", "gv-inverse-relation", "gv-tables-equal-at-identity-shift")
TENSOR_CHECKS = (
    "matrix-braid", "matrix-ybe", "coproduct-commutation",
    "lift-commutation:rc12-with-Fstar_12_3", "lift-commutation:rc23-with-F_1_23",
    "lift-commutation:rc12-with-Fhat_12_3", "lift-commutation:rc23-with-Fhatstar_1_23",
    "cocycle:F-factorizations", "cocycle:F-closed-form",
    "cocycle:Fhat-factorizations", "cocycle:Fhat-closed-form",
    "twisted-closed-form:F", "twisted-braid:F", "twisted-closed-form:Fhat", "twisted-braid:Fhat",
    "group-like:V", "group-like:W", "mixed-coproduct:F-on-W", "mixed-coproduct:Fhat-on-V",
    "coassociativity:V-iterated-coproduct:eta=0", "coassociativity:V-iterated-coproduct:eta=1",
    "coassociativity:split-r-left-vs-r13r23", "coassociativity:split-r-right-vs-r13r12",
)
COLLAPSE_CHECKS = ("involutive-collapse:F", "involutive-collapse:Fhat")


def expected_checks(ring, elems, zs: list[int]) -> list[tuple]:
    """(section, name, z) of every check a level-all report on the shifts zs must hold."""
    out = [("brace", "construction", None)]
    out += [("solution", name, z) for z in sorted(zs) for name in SOLUTION_CHECKS]
    out += [("gv", name, None) for name in GV_CHECKS]
    for z in sorted(zs):
        names = list(TENSOR_CHECKS)
        if in_socle(ring, elems[z]):
            at = names.index("twisted-braid:Fhat") + 1
            names[at:at] = COLLAPSE_CHECKS
        out += [("tensor", name, z) for name in names]
    return out


# Informational defect probes: a nonzero defect stops at its witness point.
_PROBE_PREFIX = "coassociativity:"
_ARITY2_PREFIXES = ("twisted-closed-form:", "involutive-collapse:")
# A sampled arity-3 check draws the program's default 100 000 points, less at
# most 1% that its sampler drops (it keeps 99 680 at n = 256).
SAMPLED_POINTS_MIN = 99_000


def _want_points(c: dict, n: int, exhaustive: bool):
    """Points a tensor check must cover, or None where only SAMPLED_POINTS_MIN applies."""
    name = c["name"]
    if name.startswith(_ARITY2_PREFIXES):
        return n * n
    if name.startswith(_PROBE_PREFIX):
        if not exhaustive:
            return None
        w = c["witness"]
        return w["witness"]["point"] + 1 if w["defect_nonzero"] else n ** 3
    if c["status"] == "sampled":
        return None
    return 2 * n ** 3 if name == "coproduct-commutation" else n ** 3


def check_report(report: dict, ring, elems, zs: list[int], exhaustive: bool) -> None:
    """A zbrace report on a ring brace, for the shifts zs, at level all."""
    n = len(elems)
    expect(report["summary"]["fail"] == 0 and report["summary"]["all_passed"] is True,
           f"summary reports {report['summary']['fail']} failed checks")
    expect(report["config"]["z"] == sorted(zs), f"config.z is {report['config']['z']}, not {sorted(zs)}")
    want_socle = [i for i, x in enumerate(elems) if in_socle(ring, x)]
    expect(report["brace"]["socle"] == want_socle,
           f"socle is {report['brace']['socle']}, not {want_socle}")

    got_list = [(c["section"], c["name"], c["z"]) for c in report["checks"]]
    want_list = expected_checks(ring, elems, zs)
    got_set, want_set = set(got_list), set(want_list)
    missing = [k for k in want_list if k not in got_set]
    extra = [k for k in got_list if k not in want_set]
    expect(not missing, f"{len(missing)} checks missing, first {missing[:1]}")
    expect(not extra, f"{len(extra)} unexpected checks, first {extra[:1]}")
    expect(got_list == want_list, "checks are not in report order")

    by_z: dict[int, dict[str, dict]] = {z: {} for z in zs}
    for c in report["checks"]:
        where = f"{c['section']}:{c['name']} z={c['z']}"
        expect(c["status"] in (("pass",) if exhaustive else ("pass", "sampled")),
               f"check {where} is {c['status']}")
        if c["section"] in ("brace", "gv"):
            want = n ** 3 if c["section"] == "brace" else n * n
            expect(c["points"] == want, f"check {where} covers {c['points']} points, not {want}")
        elif c["section"] == "tensor":
            want = _want_points(c, n, exhaustive)
            if want is None:
                expect(SAMPLED_POINTS_MIN <= c["points"] <= n ** 3,
                       f"check {where} covers {c['points']} sampled points")
            else:
                expect(c["points"] == want, f"check {where} covers {c['points']} points, not {want}")
        if c["z"] is not None:
            by_z[c["z"]][c["name"]] = c

    for z in zs:
        got = by_z[z]
        for name in ("constraint-c1", "constraint-c2", "constraint-c3"):
            expect(got[name]["points"] == n ** 3, f"z={z}: {name} covers {got[name]['points']} points")
        payload = got["involutivity-criterion"]["witness"]
        member = in_socle(ring, elems[z])
        expect(payload["involutive"] is member,
               f"z={z}: involutive is {payload['involutive']}, closed form says {member}")
        expect(payload["socle_member"] is member,
               f"z={z}: socle_member is {payload['socle_member']}, closed form says {member}")
        expect(("two_step_witness" in payload) is (not member),
               f"z={z}: two_step_witness presence does not match involutive={member}")
        if not member:
            check_two_step_witness(ring, elems, z, payload["two_step_witness"])

    want_classes = classes_of(ring, [elems[z] for z in zs])
    got_classes = {frozenset(elems[z] for z in cls) for cls in report["dedup"]["classes"]}
    expect(got_classes == want_classes, "dedup classes differ from the closed form")
    expect(("criterion_pairs" in report["dedup"]) is ring.pair_criterion,
           f"dedup section {'lacks' if ring.pair_criterion else 'has'} the published pair criterion")
    if ring.pair_criterion:
        pairs = report["dedup"]["criterion_pairs"]
        want_pairs = [(a, b) for i, a in enumerate(sorted(zs)) for b in sorted(zs)[i + 1:]]
        expect(sorted((p["z1"], p["z2"]) for p in pairs) == want_pairs,
               f"criterion pairs are not every pair of the {len(zs)} shifts once")
        expect(report["dedup"]["criterion_agrees_everywhere"] is True,
               "published pair criterion does not agree with table equality")
        for p in pairs:
            same = ring.key(elems[p["z1"]]) == ring.key(elems[p["z2"]])
            expect(p["tables_equal"] is same and p["criterion"] is same,
                   f"pair ({p['z1']},{p['z2']}): criterion/tables_equal differ from {same}")


# -- solve --dedup ---------------------------------------------------------

_SOLVE_LINE = re.compile(r"z=(\d+) \(label (.+)\): involutive=(True|False)")
_CLASS_LINE = re.compile(r"class \{(.+)\}")


def check_solve(text: str, ring, elems) -> None:
    """``zbrace solve --z all --dedup`` output for a ring brace with the pair criterion."""
    lines = text.splitlines()
    n = len(elems)
    solved = [_SOLVE_LINE.fullmatch(line) for line in lines[:n]]
    expect(all(solved), "the first lines are not one involutive= line per shift")
    for z, m in enumerate(solved):
        expect(int(m.group(1)) == z and m.group(2) == ring.label(elems[z]),
               f"line {z} names z={m.group(1)} label {m.group(2)}")
        member = in_socle(ring, elems[z])
        expect((m.group(3) == "True") is member,
               f"z={z}: involutive={m.group(3)}, closed form says {member}")
    rest = lines[n:]
    expect(rest and rest[-1] == "pair criterion agrees with table equality: True",
           "no 'pair criterion agrees with table equality: True' line")
    got = set()
    for line in rest[:-1]:
        m = _CLASS_LINE.fullmatch(line)
        expect(m is not None, f"unexpected line {line!r}")
        members = re.findall(r"\[\[\d+,\d+\],\[\d+,\d+\]\]|\d+", m.group(1))
        got.add(frozenset(ring.parse(lab) for lab in members))
    expect(got == classes_of(ring, elems), "dedup classes differ from the closed form")


# -- lazy odd fractions --------------------------------------------------

LAZY_NAMES = (
    "constraint-c1", "constraint-c2", "constraint-c3", "product-identity",
    "non-involutive-witness", "distinct-shift-witness",
    "closure", "add-associativity", "add-identity-inverse",
    "circle-associativity", "circle-identity-inverse", "left-distributivity",
)


def _frac(v) -> Fraction:
    f = Fraction(v)
    expect(f.numerator % 2 == 1 and f.denominator % 2 == 1, f"{v} is not an odd fraction")
    return f


def lazy_r(z: Fraction, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    s = x * (y - z) + z
    return s, x * y / s


def check_lazy(checks: list[dict], z: Fraction, w: Fraction, samples: int) -> None:
    """Statuses of the lazy run, and its witnesses re-verified in Fractions."""
    by_name = {c["name"]: c for c in checks}
    expect(tuple(c["name"] for c in checks) == LAZY_NAMES, f"check names are {list(by_name)}")
    for c in checks:
        expect(c["status"] == "sampled", f"{c['name']} is {c['status']}, not sampled")
    for name in LAZY_NAMES[:4] + LAZY_NAMES[6:]:
        expect(by_name[name]["points"] == samples and by_name[name]["witness"] is None,
               f"{name}: {by_name[name]['points']} points, witness {by_name[name]['witness']}")

    wit = by_name["non-involutive-witness"]["witness"]
    expect(isinstance(wit, list) and len(wit) == 3, f"non-involutive witness {wit!r} is not three pairs")
    (x, y), (u, v), (uu, vv) = [[_frac(t) for t in pair] for pair in wit]
    expect(lazy_r(z, x, y) == (u, v), f"r_z({x},{y}) is not ({u},{v})")
    expect(lazy_r(z, u, v) == (uu, vv), f"r_z({u},{v}) is not ({uu},{vv})")
    expect((uu, vv) != (x, y), f"non-involutive witness ({x},{y}) is not moved")

    sep = by_name["distinct-shift-witness"]["witness"]
    expect(isinstance(sep, list) and len(sep) == 3, f"distinct-shift witness {sep!r} is not a triple")
    a, lhs, rhs = (_frac(t) for t in sep)
    # -(a o z) + z = 1 - az + z in the odd-fraction brace.
    expect(lhs == 1 - a * z + z and rhs == 1 - a * w + w,
           f"distinct-shift witness {sep!r} does not evaluate -(a o z) + z")
    expect(lhs != rhs, f"distinct-shift witness {sep!r} does not separate z and w")
