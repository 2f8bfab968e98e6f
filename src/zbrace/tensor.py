"""Permutation-matrix layer: the solution matrix, twists, and their identities.

Every operator here is a sum of matrix units with exactly one unit per
row, hence a permutation matrix on a tensor-power index space.  We store
the row-to-column map: the operator sum_i E[i, perm[i]].  Under this
encoding the matrix product A.B has map perm_B o perm_A, i.e. chains
evaluate left to right in product order; compositions below rely on this.

Basis index convention (fixed): the tuple (i1, ..., ik) with factor
dimension n encodes to i1*n^(k-1) + ... + ik, leftmost factor most
significant.  Leg subscripts 12, 23, 13 and the split subscripts (1,23),
(12,3) all refer to this encoding.  Legs are ``INDEX_DTYPE`` arrays, and
flat indices int64, widened in ``_encode`` before any multiply: n^3 is
past int32 at the carrier cap.

Each operator has one definition: an index formula in the table
``TwistBundle.ops``, from the legs of a row to the legs of its column, of
arity 1 to 3.  A parametric family (V_x, W_y, Delta(V_eta), Delta(W_y),
the mixed closed forms and the iterated coproducts) takes its element
first.  Formulas read the tables their ``DeformedSolution`` derives, and
are built from each other in three ways only:

  * lifts put a pair operator on legs 12, 23 or 13 of the triple space;
  * products apply one formula after another, left to right
    (r = P rcheck, Fstar_12,3 = F13 F23, F123 = F12 Fstar_12,3, ...);
  * the coproduct splitting rule, written once in four primitives:
    D_p(a, b) = (sigma_p(a), sigma_{tau_a(p)}(b)) splits a V_p leg,
    D'_q(e, x) = (tau_{sigma_x(q)}(e), tau_q(x)) splits a W_q leg, and
    Delta(V_p), Delta(W_q) are their inverses.  F_1,23, Fhat_12,3, both
    bracketings of the iterated coproduct of V_eta and both split-leg
    lifts of r call them.

The twisted r-matrices rF, rFhat and the two mixed coproducts are the
paper's closed forms.  ``twisted_solution_check`` derives rF and rFhat
from their conjugation chains, and the mixed forms are compared with
theirs where no braid constraint proves them.  A mixed form is written
from columns to rows; its matrix is that map's inverse, and RuntimeError
where the map is not a bijection.  ``TwistBundle.matrix`` is the one
materializer: it evaluates a formula on the index grid one block of rows
at a time.  Export and the per-element fallbacks call it.

Arity-3 identities compare two chains of operators given as index
formulas.  Most of them are braid constraints c1-c3 of the solution under
a bijective change of variables, so ``_PREMISES`` names the constraints
each check follows from, and a check whose constraints hold (decided once
per solution, ``DeformedSolution.braid_constraints``) passes at all n^3
points without evaluating one; each check's docstring derives its
relabelling.  Otherwise both chains run on the same points and their
output legs are compared.  Within the point budget the points are the
broadcast index grid, one block of rows e at a time in row-major order
(``groups.first_difference``), so a comparison holds a few arrays of at
most ``BLOCK_POINTS`` entries; beyond the budget they are a seeded sample
of decoded points, drawn once per (n, sample_points, seed) from zbrace's
own splitmix64 stream (``splitmix64``) rather than a NumPy generator.

The coassociativity defect probes are compared with no sweep: whether a
defect exists, and its row-major first point, are decided exactly in
O(n^2) steps from the sigma and tau tables (``coproduct_defect`` and
``r_lift_defects`` derive the reductions).  The probes return the verdict
a comparison would, on the grid or the sample, and run their chains only
at the witness.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import INDEX_DTYPE, first_difference, row_blocks
from .solutions import Check, DeformedSolution, _first_pair, _ms_since, _verdict

DEFAULT_SAMPLE_POINTS = 100_000
# Arity-3 checks run exhaustively when n^3 is at most this many points.
DEFAULT_BUDGET = 1 << 22
# Points per block of the exhaustive index grid.
BLOCK_POINTS = 1 << 20
# Sampled points per block of a defect probe's search for its first sampled defect.
SAMPLE_BLOCK = 1 << 12
# A seed is the 64-bit start state of the splitmix64 stream: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 1 << 64
# Stream values per block of a draw.
DRAW_BLOCK = 1 << 14
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))

Triple = tuple[np.ndarray, np.ndarray, np.ndarray]
# a row-to-column index formula: row legs in, column legs out
Formula = Callable[..., tuple[np.ndarray, ...]]
Formula2 = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
Formula3 = Callable[[np.ndarray, np.ndarray, np.ndarray], Triple]
# where two chains differ, at the points given by three legs
Mask3 = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class UnknownObjectError(ValueError):
    pass


@dataclass(frozen=True)
class PermMatrix:
    """Permutation matrix on an n^arity index space, stored as its row map."""

    dim: int
    arity: int
    perm: np.ndarray

    def __post_init__(self) -> None:
        self.perm.setflags(write=False)

    @property
    def size(self) -> int:
        return self.dim**self.arity

    def __matmul__(self, other: "PermMatrix") -> "PermMatrix":
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("operator spaces differ")
        return PermMatrix(self.dim, self.arity, other.perm[self.perm])

    def inverse(self) -> "PermMatrix":
        """The inverse matrix; RuntimeError unless the row map is a bijection."""
        inv = np.full(self.size, -1, dtype=np.int64)
        inv[self.perm] = np.arange(self.size, dtype=np.int64)
        # a row map that repeats a column leaves some column unreached
        if (inv < 0).any():
            raise RuntimeError("operator rows do not form a bijection")
        return PermMatrix(self.dim, self.arity, inv)

    def tensor(self, other: "PermMatrix") -> "PermMatrix":
        if self.dim != other.dim:
            raise ValueError("factor dimensions differ")
        m = other.size
        perm = (self.perm[:, None] * m + other.perm[None, :]).ravel()
        return PermMatrix(self.dim, self.arity + other.arity, perm)

    def equals(self, other: "PermMatrix") -> bool:
        return (
            (self.dim, self.arity) == (other.dim, other.arity)
            and np.array_equal(self.perm, other.perm)
        )


def _decode3(p: np.ndarray, n: int) -> Triple:
    """The legs of flat points, each narrowed to ``INDEX_DTYPE`` as soon as it is computed."""
    return (p // (n * n)).astype(INDEX_DTYPE), (p // n % n).astype(INDEX_DTYPE), (p % n).astype(INDEX_DTYPE)


def _encode(legs: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The int64 flat index of a tuple of legs, leftmost leg most significant."""
    flat = np.asarray(legs[0], dtype=np.int64)
    for leg in legs[1:]:
        flat = flat * n + leg
    return flat


def _product(*fns: Formula) -> Formula:
    """The formula of the matrix product of ``fns``: their row maps applied left to right."""
    def g(*legs):
        for f in fns:
            legs = f(*legs)
        return legs
    return g


def _chain(fns: Sequence[Formula3], pts: Triple) -> Triple:
    return _product(*fns)(*pts)


def _grid(lo: int, hi: int, n: int, arity: int = 3) -> tuple[np.ndarray, ...]:
    """The index grid of rows in [lo, hi): one arange per leg, each along its own broadcast axis.

    A formula on the grid gathers only over the shape its legs actually
    span (n^2 for a lifted pair operator) and decodes no flat index.
    """
    legs = (np.arange(lo, hi, dtype=INDEX_DTYPE), *(np.arange(n, dtype=INDEX_DTYPE),) * (arity - 1))
    return tuple(leg.reshape((1,) * k + (-1,) + (1,) * (arity - 1 - k)) for k, leg in enumerate(legs))


def splitmix64(seed: int, start: int, size: int) -> np.ndarray:
    """Values ``start`` to ``start + size - 1`` of the splitmix64 stream of ``seed``, as uint64.

    Value i is mix(seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64), where mix
    is z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
    z *= 0x94D049BB133111EB, z ^= z >> 31, all modulo 2^64: the output of
    Vigna's reference splitmix64.c started at state ``seed`` (Steele, Lea
    and Flood, OOPSLA 2014).  It works in place on the result and one
    scratch array, and depends on no NumPy generator.
    """
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed)
    t = np.empty_like(z)
    for shift, mult in _MIX:
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def seeded_points(total: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` draws below ``total`` from the stream of ``seed``, sorted and distinct, as int64.

    A draw is the top (total - 1).bit_length() bits of a stream value and
    is rejected unless it is below ``total``, so at least half are kept.
    Values are made ``DRAW_BLOCK`` at a time.
    """
    shift = 64 - (total - 1).bit_length()
    p = np.empty(count, dtype=np.int64)
    filled = start = 0
    while filled < count:
        v = splitmix64(seed, start, DRAW_BLOCK)
        start += DRAW_BLOCK
        # NumPy defines a shift by 64 as 0: the only draw below a total of 1
        v >>= np.uint64(shift)
        v = v[v < total][: count - filled]
        p[filled : filled + v.size] = v
        filled += v.size
    # sorted distinct draws (the result of np.unique, without its cost)
    p.sort()
    keep = np.ones(p.size, dtype=bool)
    np.not_equal(p[1:], p[:-1], out=keep[1:])
    return p[keep]


@functools.lru_cache(maxsize=1)
def _sample(n: int, sample_points: int, seed: int) -> tuple[np.ndarray, Triple]:
    """The seeded sample of distinct flat points in ascending order, with its decoded triples.

    Every sampled check of a report draws the same points, so they are
    drawn once and shared as read-only arrays.
    """
    p = seeded_points(n**3, min(sample_points, n**3), seed)
    pts = _decode3(p, n)
    for a in (p, *pts):
        a.setflags(write=False)
    return p, pts


def _compare_chains(
    name: str,
    n: int,
    lhs: Sequence[Formula3],
    rhs: Sequence[Formula3],
    budget: int,
    sample_points: int,
    seed: int,
) -> Check:
    """Exact or seeded-sample equality of two left-to-right operator chains.

    Within the budget both chains run on the index grid, one block of rows
    e at a time in row-major order (``first_difference``), and the first
    point where an output leg differs is the witness, with ``points`` up
    to it; beyond the budget they run on a seeded sample of decoded
    points.  Either way the witness's outputs are encoded from its points.
    """
    start = time.perf_counter()
    total = n**3
    if total <= budget:
        def sides(lo: int, hi: int) -> tuple[Triple, Triple]:
            pts = _grid(lo, hi, n)
            return _chain(lhs, pts), _chain(rhs, pts)

        hit = first_difference(n, sides, BLOCK_POINTS)
        if hit is None:
            return _verdict(name, total, None, start)
        # the witness alone, as a one-point sample: both chains run again there
        p, pts = np.array([_encode(hit, n)]), tuple(np.array([v], dtype=INDEX_DTYPE) for v in hit)
    else:
        p, pts = _sample(n, sample_points, seed)
    le = _encode(_chain(lhs, pts), n)
    re = _encode(_chain(rhs, pts), n)
    if np.array_equal(le, re):
        return Check(
            name, "sampled", int(p.size), None, note="seeded sample, not exhaustive", elapsed_ms=_ms_since(start)
        )
    i = int(np.flatnonzero(le != re)[0])
    witness = {
        "point": int(p[i]),
        "triple": [int(x[i]) for x in pts],
        "lhs": int(le[i]),
        "rhs": int(re[i]),
    }
    points = int(p.size) if total > budget else witness["point"] + 1
    return _verdict(name, points, witness, start)


def _lift12(f2: Formula2) -> Formula3:
    def g(a, b, c):
        a2, b2 = f2(a, b)
        return a2, b2, c
    return g


def _lift23(f2: Formula2) -> Formula3:
    def g(a, b, c):
        b2, c2 = f2(b, c)
        return a, b2, c2
    return g


def _lift13(f2: Formula2) -> Formula3:
    def g(a, b, c):
        a2, c2 = f2(a, c)
        return a2, b, c2
    return g


@dataclass(frozen=True)
class Operator:
    """A tensor operator: its row-to-column index formula on ``arity`` legs.

    A parametric operator's formula takes its element before the legs.  An
    inverted operator's formula maps columns to rows, and its matrix is the
    checked inverse of that map.
    """

    arity: int
    formula: Formula
    parametric: bool = False
    inverted: bool = False


class TwistBundle:
    """Every twist-related operator of one deformed solution, as one table of index formulas.

    ``ops`` maps each operator name to its ``Operator``; ``formula`` reads
    one off and ``matrix`` materializes it.  The chain comparison runs
    arity-3 formulas on blocks of the index grid or on sampled points.
    """

    def __init__(self, s: DeformedSolution):
        s.require_nondegenerate()  # the formulas read the row inverses
        self.solution = s
        self.n = s.order
        self.ops = _operators(s.sigma, s.taut, s.sigma_inv, s.tau_inv)

    def formula(self, name: str, element: int | None = None) -> Formula:
        """The row formula of operator ``name``, at ``element`` if it is parametric."""
        op = self.ops[name]
        return functools.partial(op.formula, element) if op.parametric else op.formula

    def matrix(self, name: str, element: int | None = None) -> PermMatrix:
        """The permutation matrix of operator ``name``: its formula over ``_grid`` row blocks, encoded.

        A block holds at most ``BLOCK_POINTS`` points, so an arity-3 map
        is filled with no n^3-sized temporary.  An inverted operator's
        formula runs over the column grid, and its map is inverted.
        """
        op, fn, n = self.ops[name], self.formula(name, element), self.n
        k = op.arity
        inner = n ** (k - 1)
        perm = np.empty(n**k, dtype=np.int64)
        for lo, hi in row_blocks(n, BLOCK_POINTS * n * n // inner):
            block = perm[lo * inner : hi * inner].reshape(hi - lo, *(n,) * (k - 1))
            block[...] = _encode(fn(*_grid(lo, hi, n, k)), n)
        m = PermMatrix(n, k, perm)
        return m.inverse() if op.inverted else m


def _operators(S: np.ndarray, TT: np.ndarray, Si: np.ndarray, Ti: np.ndarray) -> dict[str, Operator]:
    """The operator table on sigma (S), tau transposed (TT, [x, y] = tau_y(x)) and their row inverses.

    The formulas close over the tables only, not over a bundle, so a
    bundle is freed as soon as its last reference goes.
    """

    # -- the coproduct splitting rule: one leg with parameter p becomes two --
    def d_v(p, a, b):
        # D_p(a, b) = (sigma_p(a), sigma_{tau_a(p)}(b))
        return S[p, a], S[TT[p, a], b]

    def delta_v(p, u, v):
        # Delta(V_p), the row map of D_p^{-1}
        a = Si[p, u]
        return a, Si[TT[p, a], v]

    def d_w(q, e, x):
        # D'_q(e, x) = (tau_{sigma_x(q)}(e), tau_q(x))
        return TT[e, S[x, q]], TT[x, q]

    def delta_w(q, a, b):
        # Delta(W_q), the row map of D'_q^{-1}
        x = Ti[q, b]
        return Ti[S[x, q], a], x

    def rcheck(x, y):
        # the solution matrix: (x, y) -> (sigma_x(y), tau_y(x))
        return S[x, y], TT[x, y]

    def flip(x, y):
        return y, x

    def f(x, v):
        # F = sum_x E[x,x] (x) V_x, with V_x = sum_y E[sigma_x(y), y]
        return x, Si[x, v]

    def fhat(u, y):
        # Fhat = sum_y W_y (x) E[y,y], with W_y = sum_e E[tau_y(e), e]
        return Ti[y, u], y

    def r_f(x, v):
        # closed form of F rcheck F^{-1}:
        # (x, sigma_x(y)) -> (sigma_x(y), sigma_{sigma_x(y)}(tau_y(x)))
        return v, S[v, TT[x, Si[x, v]]]

    def r_fhat(u, y):
        # closed form of Fhat rcheck Fhat^{-1}:
        # (tau_y(x), y) -> (tau_{tau_y(x)}(sigma_x(y)), tau_y(x))
        return TT[S[Ti[y, u], y], u], u

    def f_on_w(y, e, c):
        # closed form of F Delta(W_y) F^{-1}, columns to rows:
        # (e, sigma_e(x)) -> (tau_{sigma_x(y)}(e), tau_{sigma_{tau_x(e)}(y)}(sigma_e(x)))
        x = Si[e, c]
        return TT[e, S[x, y]], TT[c, S[TT[e, x], y]]

    def fhat_on_v(eta, u, y):
        # closed form of Fhat Delta(V_eta) Fhat^{-1}, columns to rows:
        # (tau_y(x), y) -> (sigma_{tau_{sigma_x(y)}(eta)}(tau_y(x)), sigma_{tau_x(eta)}(y))
        x = Ti[y, u]
        return S[TT[eta, S[x, y]], u], S[TT[eta, x], y]

    def delta_v_right(eta, u, v, t):
        # (id (x) Delta) Delta(V_eta): split the second leg again
        x = Si[eta, u]
        return (x, *delta_v(TT[eta, x], v, t))

    def delta_v_left(eta, u, v, t):
        # (Delta (x) id) Delta(V_eta): split the first leg, keep the last
        x, y = delta_v(eta, u, v)
        return x, y, Si[TT[eta, x], t]

    pair = {"rcheck": rcheck, "P": flip, "r": _product(flip, rcheck), "F": f, "Fhat": fhat}
    lifted = {
        short + legs: lift(pair[base])
        for base, short in (("rcheck", "rc"), ("r", "r"), ("F", "F"), ("Fhat", "Fhat"))
        for legs, lift in (("12", _lift12), ("23", _lift23), ("13", _lift13))
    }
    fstar = _product(lifted["F13"], lifted["F23"])
    fhatstar = _product(lifted["Fhat13"], lifted["Fhat12"])
    triple = {
        **lifted,
        "F_1_23": lambda e, u, v: (e, *delta_v(e, u, v)),
        "Fhat_12_3": lambda u, v, y: (*delta_w(y, u, v), y),
        "Fstar_12_3": fstar,
        "Fhatstar_1_23": fhatstar,
        "F123": _product(lifted["F12"], fstar),
        "Fhat123": _product(lifted["Fhat23"], fhatstar),
        # r with its first (sigma-type) or second (tau-type) leg split
        "split-r-left": lambda y1, y2, x: (*d_v(x, y1, y2), TT[x, y1]),
        "split-r-right": lambda y, x1, x2: (S[x2, y], *d_w(y, x1, x2)),
    }
    return {
        "V": Operator(1, lambda x, a: (Si[x, a],), parametric=True),
        "W": Operator(1, lambda y, e: (Ti[y, e],), parametric=True),
        **{name: Operator(2, g) for name, g in pair.items()},
        "rF": Operator(2, r_f),
        "rFhat": Operator(2, r_fhat),
        "D_V": Operator(2, d_v, parametric=True),
        "DeltaV": Operator(2, delta_v, parametric=True),
        "D_W": Operator(2, d_w, parametric=True),
        "DeltaW": Operator(2, delta_w, parametric=True),
        "F-on-W": Operator(2, f_on_w, parametric=True, inverted=True),
        "Fhat-on-V": Operator(2, fhat_on_v, parametric=True, inverted=True),
        **{name: Operator(3, g) for name, g in triple.items()},
        "DeltaV-right": Operator(3, delta_v_right, parametric=True),
        "DeltaV-left": Operator(3, delta_v_left, parametric=True),
    }


# -- matrix-level verification ------------------------------------------

# The braid constraints each check follows from, every entry derived in
# its check's docstring by relabelling points through sigma_x and tau_y,
# which ``TwistBundle`` has checked to be permutations.  Each check but
# the twisted braids also fails wherever one of its constraints fails.
_PREMISES: dict[str, tuple[str, ...]] = {
    "matrix-braid": ("c1", "c2", "c3"),
    "matrix-ybe": ("c1", "c2", "c3"),
    "coproduct-commutation": ("c1", "c2", "c3"),
    "lift-commutation:rc12-with-Fstar_12_3": ("c1",),
    "lift-commutation:rc23-with-F_1_23": ("c1", "c3"),
    "lift-commutation:rc12-with-Fhat_12_3": ("c2", "c3"),
    "lift-commutation:rc23-with-Fhatstar_1_23": ("c2",),
    "cocycle:F-factorizations": ("c1",),
    "cocycle:F-closed-form": (),
    "cocycle:Fhat-factorizations": ("c2",),
    "cocycle:Fhat-closed-form": ("c2",),
    "twisted-braid:F": ("c1", "c2", "c3"),
    "twisted-braid:Fhat": ("c1", "c2", "c3"),
    "group-like:V": ("c1",),
    "group-like:W": ("c2",),
    "mixed-coproduct:F-on-W": ("c3",),
    "mixed-coproduct:Fhat-on-V": ("c3",),
}


def _proved(bundle: TwistBundle, name: str) -> bool:
    """Whether every braid constraint that check ``name`` follows from holds for the bundle's solution."""
    premises = _PREMISES[name]
    return not premises or all(rep.ok for rep in bundle.solution.braid_constraints if rep.name in premises)


def _proved_or_compared(
    name: str,
    bundle: TwistBundle,
    lhs: Sequence[Formula3],
    rhs: Sequence[Formula3],
    budget: int,
    sample_points: int,
    seed: int,
) -> Check:
    """``pass`` at all n^3 points when the check's constraints hold, else ``_compare_chains``.

    The proof evaluates no point and holds whatever the budget.
    """
    start = time.perf_counter()
    if _proved(bundle, name):
        return _verdict(name, bundle.n**3, None, start)
    return _compare_chains(name, bundle.n, lhs, rhs, budget, sample_points, seed)


def braid_matrix_check(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> Check:
    """rc12 rc23 rc12 = rc23 rc12 rc23 on the triple space.

    At row (e, x, y) the first, middle and last legs of the two sides are
    the two sides of c1, c3 and c2 at (e, x, y) (``verify_braid_constraints``),
    so the check is c1, c2 and c3.
    """
    a12, a23 = bundle.formula("rc12"), bundle.formula("rc23")
    return _proved_or_compared("matrix-braid", bundle, [a12, a23, a12], [a23, a12, a23], budget, sample_points, seed)


def ybe_matrix_check(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> Check:
    """r12 r13 r23 = r23 r13 r12 for r = P . rcheck.

    r maps (a, b) to (sigma_b(a), tau_a(b)), so at row (a, b, c) the
    first, middle and last legs of the two sides are the two sides of c1,
    c3 and c2 at (c, b, a): the check is c1, c2 and c3 with the legs
    reversed.
    """
    r12, r13, r23 = (bundle.formula(name) for name in ("r12", "r13", "r23"))
    return _proved_or_compared("matrix-ybe", bundle, [r12, r13, r23], [r23, r13, r12], budget, sample_points, seed)


def coproduct_commutation_check(bundle: TwistBundle) -> Check:
    """Delta(V_x) and Delta(W_x) commute with the solution matrix, every x.

    Delta(V_eta) is the row map of D_eta^{-1}, where D_eta(x, y) =
    (sigma_eta(x), sigma_{tau_x(eta)}(y)), so it commutes with rcheck iff
    D_eta rcheck = rcheck D_eta.  The first legs of the two sides are
    sigma_eta(sigma_x(y)) and sigma_{sigma_eta(x)}(sigma_{tau_x(eta)}(y)),
    which is c1 at (eta, x, y); the second legs are
    sigma_{tau_{sigma_x(y)}(eta)}(tau_y(x)) and
    tau_{sigma_{tau_x(eta)}(y)}(sigma_eta(x)), which is c3 at (eta, x, y).
    Likewise Delta(W_y) is the row map of D'_y^{-1}, D'_y(e, x) =
    (tau_{sigma_x(y)}(e), tau_y(x)), and D'_y rcheck = rcheck D'_y is c3
    (first legs) and c2 (second legs) at (e, x, y).  So the check passes
    exactly when c1, c2 and c3 all hold, which the solution's braid
    constraint verdicts decide; only then no element is touched.
    Otherwise the row maps of Delta . rcheck and rcheck . Delta are
    compared element by element, which names the first failing element.
    """
    start = time.perf_counter()
    n = bundle.n
    if _proved(bundle, "coproduct-commutation"):
        return _verdict("coproduct-commutation", 2 * n * n * n, None, start)
    rc = bundle.matrix("rcheck").perm
    for x in range(n):
        for tag in ("V", "W"):
            op = bundle.matrix(f"Delta{tag}", x).perm
            left = rc[op]
            right = op[rc]
            if not np.array_equal(left, right):
                witness = {"family": tag, "element": x, "point": int(np.flatnonzero(left != right)[0])}
                return _verdict("coproduct-commutation", 2 * n * n * n, witness, start)
    return _verdict("coproduct-commutation", 2 * n * n * n, None, start)


_LIFT_RELATIONS = (
    ("rc12-with-Fstar_12_3", "rc12", "Fstar_12_3"),
    ("rc23-with-F_1_23", "rc23", "F_1_23"),
    ("rc12-with-Fhat_12_3", "rc12", "Fhat_12_3"),
    ("rc23-with-Fhatstar_1_23", "rc23", "Fhatstar_1_23"),
)


def lift_commutation_check(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> list[Check]:
    """The four commutation relations between lifted twists and the solution.

    Each is braid constraints at relabelled points:

      * rc12 with Fstar_12,3: Fstar_12,3 maps (e, u, v) to
        (e, u, sigma_u^{-1} sigma_e^{-1}(v)) and rc12 keeps the last leg,
        so the sides differ only there, as
        sigma_{tau_u(e)}^{-1} sigma_{sigma_e(u)}^{-1} against
        sigma_u^{-1} sigma_e^{-1}: c1 at (e, u, y) for every y.
      * rc23 with F_1,23: write the row as (e, sigma_e(x),
        sigma_{tau_x(e)}(y)).  The middle legs are the two sides of c1 at
        (e, x, y), and where they agree the last legs are those of c3.
      * rc12 with Fhat_12,3: write the row as (tau_{sigma_x(y)}(e),
        tau_y(x), y).  The middle legs are the two sides of c2 at
        (e, x, y), and where they agree the first legs are those of c3.
      * rc23 with Fhatstar_1,23: Fhatstar_1,23 maps (u, x, y) to
        (tau_x^{-1} tau_y^{-1}(u), x, y) and rc23 keeps the first leg, so
        the sides differ only there, as
        tau_{sigma_x(y)}^{-1} tau_{tau_y(x)}^{-1} against
        tau_x^{-1} tau_y^{-1}: c2 at (e, x, y) for every e.
    """
    fn = bundle.formula
    return [
        _proved_or_compared(
            f"lift-commutation:{name}", bundle, [fn(a), fn(b)], [fn(b), fn(a)], budget, sample_points, seed
        )
        for name, a, b in _LIFT_RELATIONS
    ]


def cocycle_check(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> list[Check]:
    """Both cocycle factorizations agree and match their closed forms.

    F12 . Fstar_12,3 = F23 . F_1,23 = F123 and
    Fhat12 . Fhat_12,3 = Fhat23 . Fhatstar_1,23 = Fhat123.

      * F-factorizations: at row (e, sigma_e(x), v) both sides give
        (e, x, .) and differ in the last leg, as
        sigma_x^{-1} sigma_e^{-1} against
        sigma_{tau_x(e)}^{-1} sigma_{sigma_e(x)}^{-1}: c1 at (e, x, y)
        for every y.
      * F-closed-form: F123 is written as the composite F12 . Fstar_12,3,
        so the two chains are one formula and the check holds outright.
      * Fhat-factorizations: at row (u, tau_y(x), y) both sides give
        (., x, y) and differ in the first leg, as
        tau_{sigma_x(y)}^{-1} tau_{tau_y(x)}^{-1} against
        tau_x^{-1} tau_y^{-1}: c2 at (e, x, y) for every e.
      * Fhat-closed-form: Fhat123 is written as the composite
        Fhat23 . Fhatstar_1,23, so this is the Fhat factorization: c2.
    """
    jobs = (
        ("cocycle:F-factorizations", ["F12", "Fstar_12_3"], ["F23", "F_1_23"]),
        ("cocycle:F-closed-form", ["F12", "Fstar_12_3"], ["F123"]),
        ("cocycle:Fhat-factorizations", ["Fhat12", "Fhat_12_3"], ["Fhat23", "Fhatstar_1_23"]),
        ("cocycle:Fhat-closed-form", ["Fhat12", "Fhat_12_3"], ["Fhat123"]),
    )
    return [
        _proved_or_compared(
            name, bundle, [*map(bundle.formula, lhs)], [*map(bundle.formula, rhs)], budget, sample_points, seed
        )
        for name, lhs, rhs in jobs
    ]


def twisted_solution_check(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> list[Check]:
    """Conjugated solution matrices match their closed forms and stay braided.

    In the involutive case both twisted matrices must equal the flip
    operator exactly.  Only the twisted braids can evaluate a point.

    twisted-closed-form:F, F rcheck F^{-1} = rF, holds at all n^2 rows by
    derivation.  At row (x, v) put y = sigma_x^{-1}(v): F maps (x, v) to
    (x, y), rcheck maps that to (sigma_x(y), tau_y(x)) = (v, tau_y(x)),
    and F^{-1}, whose row map is (a, b) -> (a, sigma_a(b)), gives
    (v, sigma_v(tau_y(x))), which is rF's row.  twisted-closed-form:Fhat
    likewise: at row (u, y) put x = tau_y^{-1}(u); Fhat gives (x, y),
    rcheck gives (sigma_x(y), u), and Fhat^{-1}, (a, b) -> (tau_b(a), b),
    gives (tau_u(sigma_x(y)), u), which is rFhat's row.  Both use only that
    every sigma_x and tau_y is a permutation, which ``TwistBundle`` checks,
    so no comparison could run.

    involutive-collapse:F and :Fhat are rF = P and rFhat = P.  With
    v = sigma_x(y) and u = tau_y(x), the rows above read
    sigma_{sigma_x(y)}(tau_y(x)) = x and tau_{tau_y(x)}(sigma_x(y)) = y at
    every (x, y), the two legs of applying the solution's map twice.  They
    are emitted only when ``solution.involutive``, the exact n^2 test that
    this map is an involution, holds, and then pass with nothing evaluated.

    twisted-braid:F is the braid relation of F rcheck F^{-1} = rF.  Take
    F123 = F12 Fstar_12,3 = F23 F_1,23 (the F factorizations, c1).  As
    Fstar_12,3 commutes with rc12 (c1) and F_1,23 with rc23 (c1, c3),
    F123 rc12 F123^{-1} = F12 rc12 F12^{-1} and
    F123 rc23 F123^{-1} = F23 rc23 F23^{-1}, so the twisted relation is
    the braid relation of rcheck (c1, c2, c3) conjugated by F123.
    twisted-braid:Fhat is the same with Fhat123 = Fhat12 Fhat_12,3 =
    Fhat23 Fhatstar_1,23 (c2), Fhat_12,3 commuting with rc12 (c2, c3) and
    Fhatstar_1,23 with rc23 (c2).  Unlike the other chain checks, a
    twisted braid can hold where no constraint does, and then the
    comparison of the lifts of rF (or rFhat) decides it.
    """
    n2 = bundle.n**2
    out: list[Check] = []
    for tag in ("F", "Fhat"):
        out.append(_verdict(f"twisted-closed-form:{tag}", n2, None, time.perf_counter()))
        twisted = bundle.formula(f"r{tag}")
        a12, a23 = _lift12(twisted), _lift23(twisted)
        out.append(
            _proved_or_compared(
                f"twisted-braid:{tag}", bundle, [a12, a23, a12], [a23, a12, a23], budget, sample_points, seed
            )
        )
    if bundle.solution.involutive:
        out.extend(_verdict(f"involutive-collapse:{tag}", n2, None, time.perf_counter()) for tag in ("F", "Fhat"))
    return out


def twisted_coproduct_check(bundle: TwistBundle) -> list[Check]:
    """Group-likeness after twisting, plus the mixed closed forms.

    F Delta(V_x) F^{-1} = V_x (x) V_x and Fhat Delta(W_y) Fhat^{-1} =
    W_y (x) W_y for every element; the cross-twisted coproducts match
    their displayed closed forms.

    Each family is a braid constraint relabelled by bijections (every
    sigma_x and tau_y is a permutation), so a family whose constraint
    holds passes without touching an element:

      * group-like:V at eta, with a = sigma_eta(x) and
        b = sigma_a(sigma_{tau_x(eta)}(y)), reads
        sigma_eta sigma_x = sigma_{sigma_eta(x)} sigma_{tau_x(eta)}:
        c1 at (eta, x, y);
      * group-like:W at y, with v = tau_y(x) and
        u = tau_v(tau_{sigma_x(y)}(e)), reads
        tau_y tau_x = tau_{tau_y(x)} tau_{sigma_x(y)}: c2 at (e, x, y);
      * mixed F-on-W at y is c3 at (e, x, y) and mixed Fhat-on-V at eta is
        c3 at (eta, x, y).

    A family whose constraint fails compares the materialized
    twist . Delta(x) . twist^{-1} with the expected operator, element by
    element, and names the first failing element and its first differing
    row.  A mixed closed form whose rows are not a bijection raises
    RuntimeError when it is built.
    """
    n = bundle.n
    m = bundle.matrix
    # family -> (coproduct family, twist, expected operator of one element)
    families = (
        ("group-like:V", "V", "F", lambda x: m("V", x).tensor(m("V", x))),
        ("group-like:W", "W", "Fhat", lambda y: m("W", y).tensor(m("W", y))),
        ("mixed-coproduct:F-on-W", "W", "F", lambda y: m("F-on-W", y)),
        ("mixed-coproduct:Fhat-on-V", "V", "Fhat", lambda eta: m("Fhat-on-V", eta)),
    )
    out: list[Check] = []
    for name, tag, twist, expected in families:
        start = time.perf_counter()
        bad = None
        if not _proved(bundle, name):
            t = m(twist)
            t_inv = t.inverse()
            for x in range(n):
                got, want = t @ m(f"Delta{tag}", x) @ t_inv, expected(x)
                if not got.equals(want):
                    bad = {"family": tag, "element": x, "point": int(np.flatnonzero(got.perm != want.perm)[0])}
                    break
        out.append(_verdict(name, n * n * n, bad, start))
    return out


def _decided_probe(
    name: str,
    bundle: TwistBundle,
    lhs: Sequence[Formula3],
    rhs: Sequence[Formula3],
    first: Callable[[], tuple[int, int, int] | None],
    differs: Mask3,
    budget: int,
    sample_points: int,
    seed: int,
) -> Check:
    """The check ``_compare_chains`` gives for two chains, from a probe's exact reduction.

    ``first()`` is the row-major first point where the chains differ, or
    None, found in O(n^2) steps; ``differs(a, b, c)`` says at which points
    they differ.  Within the budget ``first()`` decides the check.  Beyond
    it a probe without a defect is ``sampled`` on the shared sample with
    no point evaluated; otherwise the first sampled point where the
    chains differ, found ``SAMPLE_BLOCK`` points at a time, is the
    witness, and a sample that misses every defect reads ``sampled``.
    Both chains run at the witness alone, to encode its outputs.
    """
    start = time.perf_counter()
    n = bundle.n
    hit = first()
    if n**3 <= budget:
        if hit is None:
            return _verdict(name, n**3, None, start)
        points = int(_encode(hit, n)) + 1
    else:
        p, pts = _sample(n, sample_points, seed)
        points = int(p.size)
        if hit is not None:
            hit = None
            for lo in range(0, points, SAMPLE_BLOCK):
                block = differs(*(a[lo : lo + SAMPLE_BLOCK] for a in pts))
                if block.any():
                    i = lo + int(np.argmax(block))
                    hit = tuple(int(a[i]) for a in pts)
                    break
        if hit is None:
            return Check(name, "sampled", points, None, note="seeded sample, not exhaustive", elapsed_ms=_ms_since(start))
    one = tuple(np.array([v], dtype=INDEX_DTYPE) for v in hit)
    witness = {
        "point": int(_encode(hit, n)),
        "triple": list(hit),
        "lhs": int(_encode(_chain(lhs, one), n)[0]),
        "rhs": int(_encode(_chain(rhs, one), n)[0]),
    }
    return _verdict(name, points, witness, start)


def coproduct_defect(
    bundle: TwistBundle,
    eta: int,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> Check:
    """Difference of the two iterated coproducts of V_eta, decided in O(n^2) steps.

    At row (u, v, t) let x = sigma_eta^{-1}(u), z1 = tau_x(eta),
    y = sigma_{z1}^{-1}(v) and z2 = tau_y(z1).  Both bracketings give
    (x, y, .), and their last legs are sigma_{z2}^{-1}(t) and
    sigma_{z1}^{-1}(t).  As every sigma row is a permutation, some t
    tells them apart iff sigma_{z1} != sigma_{z2}, which one class label
    per sigma row decides.  So the first (u, v) whose z1 and z2 labels
    differ, with the first t where the two inverse rows differ, is the
    row-major first defect.

    A "fail" status records a nonzero defect (expected away from the
    involutive case).
    """
    S, TT, Si = bundle.solution.sigma, bundle.solution.taut, bundle.solution.sigma_inv
    right, left = bundle.formula("DeltaV-right", eta), bundle.formula("DeltaV-left", eta)

    def first():
        classes: dict[bytes, int] = {}
        label = np.array([classes.setdefault(row.tobytes(), len(classes)) for row in S])
        z1 = TT[eta, Si[eta]]  # [u]
        z2 = TT[z1[:, None], Si[z1]]  # [u, v]
        hit = _first_pair(label[z1][:, None] != label[z2])
        if hit is None:
            return None
        u, v = hit
        return u, v, int(np.argmax(Si[z1[u]] != Si[z2[u, v]]))

    def differs(u, v, t):
        # the bracketings agree on the first two legs
        return right(u, v, t)[2] != left(u, v, t)[2]

    return _decided_probe(
        "coassociativity:V-iterated-coproduct", bundle, [right], [left], first, differs, budget, sample_points, seed
    )


def r_lift_defects(
    bundle: TwistBundle,
    budget: int = DEFAULT_BUDGET,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> list[Check]:
    """Split-leg lifts of r against the bialgebra laws r13 r23 and r13 r12, decided in O(n^2) steps.

      * split-r-left at (y1, y2, x): both sides give
        (sigma_x(y1), sigma_t(y2), .) with t = tau_{y1}(x), and the last
        legs are t against tau_{y2}(t).  A defect exists iff some tau_y is
        not the identity; as x -> tau_0(x) is a bijection, the first one
        is (0, y2, x) for the first such y2 and the first x with
        tau_{y2}(tau_0(x)) != tau_0(x).  That x is the first point
        tau_{y2} moves: either tau_0 is the identity, or y2 = 0 and
        tau_0 moves tau_0(x) iff it moves x.
      * split-r-right at (y, x1, x2): both sides give
        (., tau_{x1}(s), tau_{x2}(y)) with s = sigma_{x2}(y), and the
        first legs are s against sigma_{x1}(s).  So the sides differ iff
        sigma_{x1} moves s: the first y whose column sigma_.(y) reaches a
        moved point, then the first (x1, x2) there, is the first defect.

    These comparisons are element-independent; "fail" records a nonzero
    defect, the expected outcome away from the involutive case.
    """
    S, TT = bundle.solution.sigma, bundle.solution.taut
    idx = np.arange(bundle.n)
    fn = bundle.formula

    def left():
        moves = TT != idx[:, None]  # [x, y]: tau_y moves x
        if not moves.any():
            return None
        y2 = int(np.argmax(moves.any(axis=0)))
        return 0, y2, int(np.argmax(moves[:, y2]))

    def left_differs(y1, y2, x):
        t = TT[x, y1]
        return TT[t, y2] != t

    def right():
        moves = S != idx  # [x, s]: sigma_x moves s
        reached = moves.any(axis=0)[S].any(axis=0)  # [y]: some sigma_x2(y) is moved
        if not reached.any():
            return None
        y = int(np.argmax(reached))
        return (y, *_first_pair(moves[:, S[:, y]]))

    def right_differs(y, x1, x2):
        s = S[x2, y]
        return S[x1, s] != s

    probes = (
        ("coassociativity:split-r-left-vs-r13r23", "left", [fn("r13"), fn("r23")], left, left_differs),
        ("coassociativity:split-r-right-vs-r13r12", "right", [fn("r13"), fn("r12")], right, right_differs),
    )
    return [
        _decided_probe(name, bundle, [fn(f"split-r-{side}")], rhs, first, differs, budget, sample_points, seed)
        for name, side, rhs, first, differs in probes
    ]


# operators ``export`` writes; "V", "W", "DeltaV" and "DeltaW" take an element
EXPORTABLE = ("rcheck", "r", "P", "F", "Fhat", "rF", "rFhat", "F123", "Fhat123", "V", "W", "DeltaV", "DeltaW")


def export_object(bundle: TwistBundle, name: str) -> PermMatrix:
    """Resolve an export object name: a bare name like "rcheck" or "F123", or a family and an element like "V:3"."""
    base, colon, arg = name.partition(":")
    if base in EXPORTABLE and bundle.ops[base].parametric:
        if not arg:
            raise UnknownObjectError(f"object {base!r} needs an element index, e.g. {base}:0")
        if not (arg.isascii() and arg.isdigit()):
            raise UnknownObjectError(f"bad element index {arg!r}")
        x = int(arg)
        if not (0 <= x < bundle.n):
            raise UnknownObjectError(f"element index {x} out of range [0, {bundle.n})")
        return bundle.matrix(base, x)
    if colon:
        raise UnknownObjectError(f"object {base!r} takes no element index")
    if base not in EXPORTABLE:
        raise UnknownObjectError(f"unknown object {base!r}")
    return bundle.matrix(base)
