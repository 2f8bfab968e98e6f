"""Brute-force reference implementations, independent of the library paths.

Everything here is deliberately written as plain Python triple loops over
small carriers so the vectorized library code can be checked against an
implementation that shares none of its machinery.  Others are former
library loops, kept as the reference for the faster paths that replaced
them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass

import numpy as np

from zbrace.braces import (
    NotLeftDistributiveError,
    is_odd_matrix_brace,
    make_skew_brace,
    odd_matrix_entries,
    odd_matrix_pair_criterion,
)
from zbrace.groups import (
    INDEX_DTYPE,
    MissingInverseError,
    NoIdentityError,
    NotAssociativeError,
    NotClosedError,
    cyclic_group,
    row_blocks,
    validate_group,
)
from zbrace.reporting import dedup_section, gv_section, solution_suite, tensor_suite
from zbrace.solutions import (
    Check,
    DeformedSolution,
    TableMismatchError,
    build_solution,
    dedup_solutions,
    sigma_table,
    tau_table_from_sigma,
)
from zbrace.tensor import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE_POINTS,
    PermMatrix,
    TwistBundle,
    _decode3,
    _encode,
    _lift12,
    _lift13,
    _lift23,
    _proved_or_compared,
    seeded_points,
)

SPARSE_ENTRY_LIMIT = 4096

# (Z/6, +) with the dihedral circle a o b = a + (-1)^a b: a left brace that is
# not two-sided, so only the shifts 0 and 3 are admissible
Z6_DIHEDRAL = make_skew_brace(
    cyclic_group(6),
    validate_group([[(a + (-1) ** a * b) % 6 for b in range(6)] for a in range(6)]),
    name="z6-dihedral",
)


@dataclass(frozen=True)
class SparseIntMatrix:
    """Coordinate-form integer matrix, for defect witnesses."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]
    nnz: int
    truncated: bool = False


def brute_group_facts(table):
    """(identity, inverses) via exhaustive axiom checks; None on any failure."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            return None
    identity = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        return None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return None
    inverses = []
    for a in range(n):
        found = None
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                found = b
                break
        if found is None:
            return None
        inverses.append(found)
    return identity, inverses


def brute_left_distributive_witness(add, mul, neg):
    """First (a,b,c) with a o (b+c) != a o b - a + a o c, or None."""
    n = len(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = mul[a][add[b][c]]
                rhs = add[add[mul[a][b]][neg[a]]][mul[a][c]]
                if lhs != rhs:
                    return (a, b, c)
    return None


def brute_right_distributes_at(add, mul, neg, z):
    """True iff (a-b+c) o z = a o z - b o z + c o z for all triples."""
    n = len(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = mul[add[add[a][neg[b]]][c]][z]
                rhs = add[add[mul[a][z]][neg[mul[b][z]]]][mul[c][z]]
                if lhs != rhs:
                    return False
    return True


def brute_sigma_tau(add, mul, neg, minv, z):
    """Sigma and tau lookup tables straight from the defining formulas."""
    n = len(add)
    sigma = [[add[add[mul[x][y]][neg[mul[x][z]]]][z] for y in range(n)] for x in range(n)]
    tau = [[mul[mul[minv[sigma[x][y]]][x]][y] for x in range(n)] for y in range(n)]
    return sigma, tau


def brute_braid_witness(sigma, tau):
    """Stepwise three-strand composition of the set map; first mismatch or None.

    Independent of the three coordinate constraints: it applies the map to
    adjacent pairs of a triple exactly as the braid relation states.
    """
    n = len(sigma)

    def r(x, y):
        return sigma[x][y], tau[y][x]

    for e in range(n):
        for x in range(n):
            for y in range(n):
                a1, b1 = r(e, x)
                b2, c2 = r(b1, y)
                a3, b3 = r(a1, b2)
                lhs = (a3, b3, c2)
                u1, v1 = r(x, y)
                u2, v2 = r(e, u1)
                u3, v3 = r(v2, v1)
                rhs = (u2, u3, v3)
                if lhs != rhs:
                    return (e, x, y, lhs, rhs)
    return None


def dense_matrix(perm, size):
    """0/1 matrix rows x cols for the row map ``perm`` (one unit per row)."""
    out = [[0] * size for _ in range(size)]
    for i, j in enumerate(perm):
        out[i][int(j)] = 1
    return out


def dense_mult(a, b):
    size = len(a)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        row = a[i]
        for k, v in enumerate(row):
            if v:
                for j in range(size):
                    out[i][j] += v * b[k][j]
    return out


def dense_kron(a, b):
    ra, rb = len(a), len(b)
    out = [[0] * (ra * rb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ra):
            if a[i][j]:
                for k in range(rb):
                    for l in range(rb):
                        if b[k][l]:
                            out[i * rb + k][j * rb + l] = a[i][j] * b[k][l]
    return out


def matrix_unit(n, r, c):
    out = [[0] * n for _ in range(n)]
    out[r][c] = 1
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def brute_gv_conjugation_witness(b):
    """Row-major first (a, b) where r_1(a, -a^{-1} + b + a^{-1}) != r_gv(a, b), or None.

    r_1 is the deformation at the identity shift, r_gv(a, b) =
    (-a + a o b, (-a + a o b)^{-1} o a o b); both are evaluated from their
    defining formulas with scalar brace operations.
    """
    n, e = b.order, b.identity

    def r1(x, y):
        s = b.plus(b.plus(b.circ(x, y), b.neg(b.circ(x, e))), e)
        return s, b.circ(b.circ_inv(s), b.circ(x, y))

    def rgv(x, y):
        s = b.plus(b.neg(x), b.circ(x, y))
        return s, b.circ(b.circ_inv(s), b.circ(x, y))

    for a in range(n):
        ai = b.circ_inv(a)
        for y in range(n):
            c = b.plus(b.plus(b.neg(ai), y), ai)
            if r1(a, c) != rgv(a, y):
                return (a, y)
    return None


def brute_lazy_constraints(lb, z, samples, seed):
    """First failing sample of c1, c2, c3 and the product identity, or None each.

    The direct nested evaluation of each constraint, drawing (e, x, y) from
    ``random.Random(seed)`` in the same order as ``sampled_verify_lazy``.
    """

    def sig(a, b):
        return lb.add(lb.add(lb.circle(a, b), lb.neg(lb.circle(a, z))), z)

    def tau(b, a):
        return lb.circle(lb.circle_inv(sig(a, b)), lb.circle(a, b))

    rng = random.Random(seed)
    c1 = c2 = c3 = prod = None
    for _ in range(samples):
        e, x, y = lb.sample(rng), lb.sample(rng), lb.sample(rng)
        if c1 is None and not lb.equal(sig(e, sig(x, y)), sig(sig(e, x), sig(tau(x, e), y))):
            c1 = (e, x, y)
        if c2 is None and not lb.equal(tau(y, tau(x, e)), tau(tau(y, x), tau(sig(x, y), e))):
            c2 = (e, x, y)
        if c3 is None and not lb.equal(
            tau(sig(tau(x, e), y), sig(e, x)), sig(tau(sig(x, y), e), tau(y, x))
        ):
            c3 = (e, x, y)
        if prod is None and not lb.equal(lb.circle(sig(x, y), tau(y, x)), lb.circle(x, y)):
            prod = (x, y)
    return {"constraint-c1": c1, "constraint-c2": c2, "constraint-c3": c3, "product-identity": prod}


def brute_lazy_laws(lb, samples, seed):
    """First failing sample of each group and distributivity law, or None each.

    Each law evaluated from its definition, every term afresh, drawing
    (a, b, c) from ``random.Random(seed)`` in the same order as
    ``sampled_brace_laws``.
    """
    add, neg, circle, inv, eq, one = lb.add, lb.neg, lb.circle, lb.circle_inv, lb.equal, lb.one
    rng = random.Random(seed)
    first = dict.fromkeys(
        (
            "closure",
            "add-associativity",
            "add-identity-inverse",
            "circle-associativity",
            "circle-identity-inverse",
            "left-distributivity",
        )
    )
    for _ in range(samples):
        a, b, c = lb.sample(rng), lb.sample(rng), lb.sample(rng)
        laws = {
            "closure": (
                all(lb.contains(v) for v in (add(a, b), neg(a), circle(a, b), inv(a))),
                (a, b),
            ),
            "add-associativity": (eq(add(add(a, b), c), add(a, add(b, c))), (a, b, c)),
            "add-identity-inverse": (
                eq(add(a, one), a) and eq(add(one, a), a) and eq(add(a, neg(a)), one),
                (a,),
            ),
            "circle-associativity": (eq(circle(circle(a, b), c), circle(a, circle(b, c))), (a, b, c)),
            "circle-identity-inverse": (eq(circle(a, one), a) and eq(circle(a, inv(a)), one), (a,)),
            "left-distributivity": (
                eq(circle(a, add(b, c)), add(add(circle(a, b), neg(a)), circle(a, c))),
                (a, b, c),
            ),
        }
        for name, (held, witness) in laws.items():
            if first[name] is None and not held:
                first[name] = witness
    return first


def brute_dedup(b, zs, pair_criterion=None):
    """(classes, criterion_pairs) by pairwise comparison of full sigma tables.

    The former dedup loop: each shift's table is computed from its
    definition x o y - x o z + z, each is compared with the representative
    of every earlier class, and every pair z1 < z2 gets its own full table
    comparison next to the criterion's verdict.  Tables are held in the
    smallest unsigned dtype that holds every index, so all 256 odd-matrix
    shifts fit in 16 MB.
    """
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    dtype = np.min_scalar_type(b.order - 1)
    zs_sorted = sorted(set(int(v) for v in zs))
    sigmas = {z: A[A[M, neg[M[:, z]][:, None]], z].astype(dtype) for z in zs_sorted}
    classes = []
    for z in zs_sorted:
        for cls in classes:
            if np.array_equal(sigmas[cls[0]], sigmas[z]):
                cls.append(z)
                break
        else:
            classes.append([z])
    pairs = []
    if pair_criterion is not None:
        for i, z1 in enumerate(zs_sorted):
            for z2 in zs_sorted[i + 1 :]:
                equal = bool(np.array_equal(sigmas[z1], sigmas[z2]))
                pairs.append((z1, z2, bool(pair_criterion(z1, z2)), equal))
    return tuple(tuple(cls) for cls in classes), tuple(pairs)


def brute_odd_matrix_pair_criterion(z1, z2):
    """(D - I)(B - A) = 0 mod 8 for all 256 odd matrices D, looped with no memo."""
    a1, b1, c1, d1 = odd_matrix_entries(z1)
    a2, b2, c2, d2 = odd_matrix_entries(z2)
    diff = np.array([[a2 - a1, b2 - b1], [c2 - c1, d2 - d1]], dtype=np.int64) % 8
    eye = np.eye(2, dtype=np.int64)
    for idx in range(256):
        ea, eb, ec, ed = odd_matrix_entries(idx)
        dmat = np.array([[ea, eb], [ec, ed]], dtype=np.int64)
        if ((dmat - eye) @ diff % 8).any():
            return False
    return True


def permutation_p(n: int) -> PermMatrix:
    """The flip operator: basis pair (x, y) -> (y, x)."""
    idx = np.arange(n)
    perm = (idx[None, :] * n + idx[:, None]).ravel()
    return PermMatrix(n, 2, perm.astype(np.int64))


def _scatter(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Assemble a row map from matching (row, col) index arrays."""
    r = rows.ravel()
    perm = np.full(size, -1, dtype=np.int64)
    perm[r] = cols.ravel()
    if (perm < 0).any() or np.bincount(r, minlength=size).max() != 1:
        raise RuntimeError("operator rows do not form a bijection")
    return perm


class FormerBuilders:
    """The former ``TwistBundle`` builders and formulas, kept verbatim as the oracle of ``TwistBundle.matrix``.

    Arity-1 and arity-2 operators were scattered or hand-built permutation
    maps; arity-3 ones were formulas, materialized here by ``brute_row_map``.
    """

    def __init__(self, bundle):
        # the builders form flat codes as x * n + y on the tables, which need int64
        self.n = bundle.n
        s = self.solution = bundle.solution
        self.sigma = s.sigma.astype(np.int64)
        self.taut = s.taut.astype(np.int64)
        self.sigma_inv = s.sigma_inv.astype(np.int64)
        self.tau_inv = s.tau_inv.astype(np.int64)

    # -- arity 1 families ------------------------------------------------
    def v_op(self, x: int) -> PermMatrix:
        """V_x = sum_y E[sigma_x(y), y]."""
        return PermMatrix(self.n, 1, self.sigma_inv[x].copy())

    def w_op(self, y: int) -> PermMatrix:
        """W_y = sum_e E[tau_y(e), e]."""
        return PermMatrix(self.n, 1, self.tau_inv[y].copy())

    # -- arity 2 operators -----------------------------------------------
    def rcheck(self) -> PermMatrix:
        """The solution matrix: row (x,y) -> column (sigma_x(y), tau_y(x))."""
        return PermMatrix(self.n, 2, (self.sigma * self.n + self.taut).ravel().copy())

    def p(self) -> PermMatrix:
        return permutation_p(self.n)

    def r_matrix(self) -> PermMatrix:
        """r = P . rcheck; row (y,x) -> column (sigma_x(y), tau_y(x))."""
        return PermMatrix(self.n, 2, (self.sigma * self.n + self.taut).T.ravel().copy())

    def f_twist(self) -> PermMatrix:
        """F = sum_x E[x,x] (x) V_x; rows (x, sigma_x(y)) -> columns (x, y)."""
        n = self.n
        grid = np.arange(n)
        rows = grid[:, None] * n + self.sigma
        cols = grid[:, None] * n + grid[None, :]
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def fhat_twist(self) -> PermMatrix:
        """Fhat = sum_y W_y (x) E[y,y]; rows (tau_y(e), y) -> columns (e, y)."""
        n = self.n
        grid = np.arange(n)
        rows = self.taut * n + grid[None, :]
        cols = grid[:, None] * n + grid[None, :]
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def delta_v(self, eta: int) -> PermMatrix:
        """Coproduct of V_eta: rows (sigma_eta(x), sigma_{tau_x(eta)}(y)) -> (x, y)."""
        n = self.n
        x = self.sigma_inv[eta]  # [a] = x with sigma_eta(x) = a
        y = self.sigma_inv[self.taut[eta, x]]  # [a, b] = y with sigma_{tau_x(eta)}(y) = b
        return PermMatrix(n, 2, (x[:, None] * n + y).ravel())

    def delta_w(self, y: int) -> PermMatrix:
        """Coproduct of W_y: rows (tau_{sigma_x(y)}(e), tau_y(x)) -> (e, x)."""
        n = self.n
        x = self.tau_inv[y]  # [b] = x with tau_y(x) = b
        e = self.tau_inv[self.sigma[x, y]]  # [b, a] = e with tau_{sigma_x(y)}(e) = a
        return PermMatrix(n, 2, (e * n + x[:, None]).T.ravel())

    def rcheck_f_closed(self) -> PermMatrix:
        """Twisted matrix under F: rows (x, sigma_x(y)) -> (sigma_x(y), sigma_{sigma_x(y)}(tau_y(x)))."""
        n = self.n
        rows = np.arange(n)[:, None] * n + self.sigma
        cols = self.sigma * n + self.sigma[self.sigma, self.taut]
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def rcheck_fhat_closed(self) -> PermMatrix:
        """Twisted matrix under Fhat: rows (tau_y(x), y) -> (tau_{tau_y(x)}(sigma_x(y)), tau_y(x))."""
        n = self.n
        rows = self.taut * n + np.arange(n)[None, :]
        cols = self.taut[self.sigma, self.taut] * n + self.taut
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def delta_f_w_closed(self, y: int) -> PermMatrix:
        """Closed form of the F-twisted coproduct of W_y (mixed family).

        Rows (tau_{sigma_x(y)}(e), tau_{sigma_{tau_x(e)}(y)}(sigma_e(x)))
        map to columns (e, sigma_e(x)) over the (e, x) grid.
        """
        n = self.n
        inner = self.sigma[self.taut, y]  # [e, x] = sigma_{tau_x(e)}(y)
        rows = self.taut[:, self.sigma[:, y]] * n + self.taut[self.sigma, inner]
        cols = np.arange(n)[:, None] * n + self.sigma
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def delta_fhat_v_closed(self, eta: int) -> PermMatrix:
        """Closed form of the Fhat-twisted coproduct of V_eta (mixed family).

        Rows (sigma_{tau_{sigma_x(y)}(eta)}(tau_y(x)), sigma_{tau_x(eta)}(y))
        map to columns (tau_y(x), y) over the (x, y) grid.
        """
        n = self.n
        v1 = self.taut[eta, self.sigma]  # [x, y] = tau_{sigma_x(y)}(eta)
        rows = self.sigma[v1, self.taut] * n + self.sigma[self.taut[eta]]
        cols = self.taut * n + np.arange(n)[None, :]
        return PermMatrix(n, 2, _scatter(rows, cols, n * n))

    def _pointwise(self) -> dict[str, Formula3]:
        """Arity-3 operators as row-to-column index formulas."""
        S, TT, Si, Ti = self.sigma, self.taut, self.sigma_inv, self.tau_inv

        def rc2(x, y):
            return S[x, y], TT[x, y]

        def r2(a, b):
            return S[b, a], TT[b, a]

        def f_1_23(e, u, v):
            x = Si[e, u]
            return e, x, Si[TT[e, x], v]

        def fstar_12_3(e, u, v):
            return e, u, Si[u, Si[e, v]]

        def fhatstar_1_23(u, x, y):
            return Ti[x, Ti[y, u]], x, y

        def fhat_12_3(u, v, y):
            x = Ti[y, v]
            return Ti[S[x, y], u], x, y

        def f123(e, u, v):
            x = Si[e, u]
            return e, x, Si[x, Si[e, v]]

        def fhat123(u, v, y):
            x = Ti[y, v]
            return Ti[x, Ti[y, u]], x, y

        def f2(x, v):
            return x, Si[x, v]

        def fhat2(u, y):
            return Ti[y, u], y

        return {
            "rc12": _lift12(rc2),
            "rc23": _lift23(rc2),
            "r12": _lift12(r2),
            "r23": _lift23(r2),
            "r13": _lift13(r2),
            "F12": _lift12(f2),
            "F23": _lift23(f2),
            "Fhat12": _lift12(fhat2),
            "Fhat23": _lift23(fhat2),
            "F_1_23": f_1_23,
            "Fstar_12_3": fstar_12_3,
            "Fhatstar_1_23": fhatstar_1_23,
            "Fhat_12_3": fhat_12_3,
            "F123": f123,
            "Fhat123": fhat123,
        }

    # -- iterated coproducts (coassociativity probes) ----------------------
    def iterated_delta_v(self, eta: int, bracketing: str) -> Formula3:
        """Three-leg coproducts of V_eta under the two bracketings.

        The splitting rule, read off the two-leg coproduct, turns one
        sigma-leg with parameter p into two legs with patterns sigma_p and
        sigma_{tau_first_input(p)}.  Right bracketing re-threads the
        parameter through the new middle leg (p, tau_x(p), tau_y(tau_x(p)));
        left bracketing splits the first leg and keeps the trailing leg's
        parameter expression tau_x(p) as written.  The two disagree exactly
        when the coproduct fails to be coassociative.
        """
        S, TT, Si = self.sigma, self.taut, self.sigma_inv
        if bracketing == "right":
            def g(u, v, t):
                x = Si[eta, u]
                z1 = TT[eta, x]
                y = Si[z1, v]
                z2 = TT[z1, y]
                return x, y, Si[z2, t]
            return g
        if bracketing == "left":
            def g(u, v, t):
                x = Si[eta, u]
                z1 = TT[eta, x]
                return x, Si[z1, v], Si[z1, t]
            return g
        raise ValueError(f"unknown bracketing {bracketing!r}")

    def split_r(self, side: str) -> Formula3:
        """The r-matrix with one leg split by the same coproduct rule.

        side="left" splits the first (sigma-type) leg; side="right" splits
        the second (tau-type) leg.  Both act on natural row triples.
        """
        S, TT = self.sigma, self.taut
        if side == "left":
            def g(y1, y2, x):
                t = TT[x, y1]
                return S[x, y1], S[t, y2], t
            return g
        if side == "right":
            def g(y, x1, x2):
                s = S[x2, y]
                return s, TT[x1, s], TT[x2, y]
            return g
        raise ValueError(f"unknown side {side!r}")


def brute_delta_v(bundle, eta):
    """Coproduct of V_eta scattered from its rows (sigma_eta(x), sigma_{tau_x(eta)}(y)) -> (x, y)."""
    n, grid = bundle.n, np.arange(bundle.n)
    S, TT = bundle.solution.sigma.astype(np.int64), bundle.solution.taut
    rows = S[eta][:, None] * n + S[TT[eta]]
    return PermMatrix(n, 2, _scatter(rows, grid[:, None] * n + grid[None, :], n * n))


def brute_delta_w(bundle, y):
    """Coproduct of W_y scattered from its rows (tau_{sigma_x(y)}(e), tau_y(x)) -> (e, x)."""
    n, grid = bundle.n, np.arange(bundle.n)
    S, TT = bundle.solution.sigma, bundle.solution.taut.astype(np.int64)
    rows = TT[:, S[:, y]] * n + TT[:, y][None, :]
    return PermMatrix(n, 2, _scatter(rows, grid[:, None] * n + grid[None, :], n * n))


def brute_coproduct_commutation(bundle):
    """The former per-element loop: compose Delta(V_x), Delta(W_x) with rcheck both ways."""
    rc = FormerBuilders(bundle).rcheck()
    n = bundle.n
    for x in range(n):
        for tag, op in (("V", brute_delta_v(bundle, x)), ("W", brute_delta_w(bundle, x))):
            left = (op @ rc).perm
            right = (rc @ op).perm
            if not np.array_equal(left, right):
                i = int(np.flatnonzero(left != right)[0])
                return Check(
                    "coproduct-commutation", "fail", 2 * n * n * n, {"family": tag, "element": x, "point": i}
                )
    return Check("coproduct-commutation", "pass", 2 * n * n * n)


def brute_twisted_coproduct(bundle):
    """The former per-element loops: conjugate each coproduct and compare full permutations."""
    n = bundle.n
    bundle = FormerBuilders(bundle)
    f = bundle.f_twist()
    fh = bundle.fhat_twist()
    f_inv = f.inverse()
    fh_inv = fh.inverse()
    families = (
        ("group-like:V", "V", lambda x: (f @ brute_delta_v(bundle, x) @ f_inv,
                                         bundle.v_op(x).tensor(bundle.v_op(x)))),
        ("group-like:W", "W", lambda y: (fh @ brute_delta_w(bundle, y) @ fh_inv,
                                         bundle.w_op(y).tensor(bundle.w_op(y)))),
        ("mixed-coproduct:F-on-W", "W", lambda y: (f @ brute_delta_w(bundle, y) @ f_inv,
                                                   bundle.delta_f_w_closed(y))),
        ("mixed-coproduct:Fhat-on-V", "V", lambda eta: (fh @ brute_delta_v(bundle, eta) @ fh_inv,
                                                        bundle.delta_fhat_v_closed(eta))),
    )
    out = []
    for name, tag, pair in families:
        bad = None
        for x in range(n):
            got, want = pair(x)
            if not got.equals(want):
                bad = {"family": tag, "element": x, "point": int(np.flatnonzero(got.perm != want.perm)[0])}
                break
        out.append(Check(name, "fail" if bad else "pass", n * n * n, bad))
    return out


def identity_matrix(dim, arity):
    return PermMatrix(dim, arity, np.arange(dim**arity, dtype=np.int64))


def is_identity(m):
    return bool(np.array_equal(m.perm, np.arange(m.size)))


def lift12(op):
    n = op.dim
    perm = (op.perm[:, None] * n + np.arange(n)[None, :]).ravel()
    return PermMatrix(n, 3, perm)


def lift23(op):
    n = op.dim
    n2 = n * n
    perm = (np.arange(n)[:, None] * n2 + op.perm[None, :]).ravel()
    return PermMatrix(n, 3, perm)


def lift13(op):
    # row (i, j, k) -> (a, j, c) where the pair map of op sends (i, k) to (a, c)
    n = op.dim
    qa, qc = np.divmod(op.perm.reshape(n, n), n)
    j = np.arange(n)[None, :, None]
    perm = (qa[:, None, :] * n + j) * n + qc[:, None, :]
    return PermMatrix(n, 3, perm.reshape(-1).astype(np.int64))


def sparse_perm_difference(a, b):
    """a - b as a SparseIntMatrix, keeping the first SPARSE_ENTRY_LIMIT // 2 differing rows."""
    diff = np.flatnonzero(a.perm != b.perm)
    entries = []
    for i in diff[: SPARSE_ENTRY_LIMIT // 2]:
        pair = sorted(((int(a.perm[i]), 1), (int(b.perm[i]), -1)))
        for col, val in pair:
            entries.append((int(i), col, val))
    return SparseIntMatrix(
        rows=a.size,
        cols=a.size,
        entries=tuple(entries),
        nnz=2 * diff.size,
        truncated=diff.size > SPARSE_ENTRY_LIMIT // 2,
    )


def brute_row_map(fn, n):
    """Row map of an arity-3 formula by decoding every flat index (the former materializer)."""
    return _encode(fn(*_decode3(np.arange(n**3, dtype=np.int64), n)), n)


_LIFTS = {"12": lift12, "23": lift23, "13": lift13}


def former_matrix(bundle, name, element=None):
    """The former builder's matrix of ``TwistBundle`` operator ``name``, at ``element`` if it takes one.

    Lifted pair operators (``rc12``, ``F13``, ...) lift the former pair
    matrix; arity-3 formulas are decoded point by point.
    """
    former, n = FormerBuilders(bundle), bundle.n
    arg = () if element is None else (element,)
    built = {
        "V": former.v_op,
        "W": former.w_op,
        "rcheck": former.rcheck,
        "P": former.p,
        "r": former.r_matrix,
        "F": former.f_twist,
        "Fhat": former.fhat_twist,
        "DeltaV": former.delta_v,
        "DeltaW": former.delta_w,
        "D_V": lambda eta: former.delta_v(eta).inverse(),
        "D_W": lambda y: former.delta_w(y).inverse(),
        "rF": former.rcheck_f_closed,
        "rFhat": former.rcheck_fhat_closed,
        "F-on-W": former.delta_f_w_closed,
        "Fhat-on-V": former.delta_fhat_v_closed,
    }
    if name in built:
        return built[name](*arg)
    base, legs = name[:-2], name[-2:]
    if legs in _LIFTS and base in ("rc", "r", "F", "Fhat"):
        return _LIFTS[legs](built["rcheck" if base == "rc" else base]())
    formulas = {
        **former._pointwise(),
        "split-r-left": former.split_r("left"),
        "split-r-right": former.split_r("right"),
    }
    if name in formulas:
        return PermMatrix(n, 3, brute_row_map(formulas[name], n))
    bracketing = {"DeltaV-right": "right", "DeltaV-left": "left"}[name]
    return PermMatrix(n, 3, brute_row_map(former.iterated_delta_v(element, bracketing), n))


def iterated_coproduct_difference(bundle, eta):
    """Sparse difference of the right- and left-bracketed coproducts of V_eta, materialized."""
    n, former = bundle.n, FormerBuilders(bundle)
    right = PermMatrix(n, 3, brute_row_map(former.iterated_delta_v(eta, "right"), n))
    left = PermMatrix(n, 3, brute_row_map(former.iterated_delta_v(eta, "left"), n))
    return sparse_perm_difference(right, left)


def _chain(fns, pts):
    for f in fns:
        pts = f(*pts)
    return pts


_MASK64 = (1 << 64) - 1


def splitmix64_reference(seed):
    """The splitmix64 stream started at state ``seed``, one Python integer at a time.

    A line-by-line transcription of Vigna's reference splitmix64.c, with
    no NumPy: the state advances by the golden gamma and each value is the
    mixed state, every step modulo 2^64.
    """
    x = seed
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def seeded_points_reference(total, count, seed):
    """The sorted distinct first ``count`` draws below ``total``: top bits of each value, the rest rejected."""
    shift = 64 - (total - 1).bit_length()
    draws = (v >> shift for v in splitmix64_reference(seed))
    return sorted(set(itertools.islice((d for d in draws if d < total), count)))


def sample_shifts_reference(admissible, k, seed):
    """The k shifts whose positions carry the smallest stream values, ties by position, in ascending order."""
    keys = list(itertools.islice(splitmix64_reference(seed), len(admissible)))
    return sorted(admissible[i] for i in sorted(range(len(admissible)), key=lambda i: (keys[i], i))[:k])


def brute_compare_chains(name, n, lhs, rhs, budget, sample_points, seed, block=1 << 22):
    """The former chain comparison: decode each block of flat indices and run both chains on it.

    Exhaustive within the budget, one block of ``block`` points at a time;
    beyond it, the library's seeded sample (``seeded_points``, checked
    against ``seeded_points_reference``).
    """
    total = n**3
    if total <= budget:
        for lo in range(0, total, block):
            p = np.arange(lo, min(lo + block, total), dtype=np.int64)
            pts = _decode3(p, n)
            le = _encode(_chain(lhs, pts), n)
            re = _encode(_chain(rhs, pts), n)
            if not np.array_equal(le, re):
                i = int(np.flatnonzero(le != re)[0])
                witness = {
                    "point": int(p[i]),
                    "triple": [int(x[i]) for x in pts],
                    "lhs": int(le[i]),
                    "rhs": int(re[i]),
                }
                return Check(name, "fail", int(p[i]) + 1, witness)
        return Check(name, "pass", total)

    p = seeded_points(total, min(sample_points, total), seed)
    pts = _decode3(p, n)
    le = _encode(_chain(lhs, pts), n)
    re = _encode(_chain(rhs, pts), n)
    if np.array_equal(le, re):
        return Check(name, "sampled", int(p.size), None, note="seeded sample, not exhaustive")
    i = int(np.flatnonzero(le != re)[0])
    witness = {
        "point": int(p[i]),
        "triple": [int(x[i]) for x in pts],
        "lhs": int(le[i]),
        "rhs": int(re[i]),
    }
    return Check(name, "fail", int(p.size), witness)


def _pair_formula(op: PermMatrix):
    """The index formula of an arity-2 permutation matrix: (x, y) -> its column pair."""
    qa, qc = (q.astype(INDEX_DTYPE) for q in np.divmod(op.perm.reshape(op.dim, op.dim), op.dim))

    def op2(x, y):
        return qa[x, y], qc[x, y]
    return op2


def brute_twisted_solution(bundle, budget=DEFAULT_BUDGET, sample_points=DEFAULT_SAMPLE_POINTS, seed=0):
    """The former ``twisted_solution_check``: each twisted matrix materialized and compared whole.

    F rcheck F^{-1} (and Fhat rcheck Fhat^{-1}) is built from the three
    matrices and compared with ``rF`` (``rFhat``); the twisted braid runs
    on the pair formula of that product; for an involutive solution
    ``rF`` and ``rFhat`` are compared with P.  A failure's witness is the
    first differing row.
    """

    def equality(name, got, want):
        witness = None if got.equals(want) else {"point": int(np.flatnonzero(got.perm != want.perm)[0])}
        return Check(name, "pass" if witness is None else "fail", got.size, witness)

    rc = bundle.matrix("rcheck")
    out = []
    for tag in ("F", "Fhat"):
        t = bundle.matrix(tag)
        conj = t @ rc @ t.inverse()
        out.append(equality(f"twisted-closed-form:{tag}", conj, bundle.matrix(f"r{tag}")))
        op2 = _pair_formula(conj)
        a12, a23 = _lift12(op2), _lift23(op2)
        out.append(
            _proved_or_compared(
                f"twisted-braid:{tag}", bundle, [a12, a23, a12], [a23, a12, a23], budget, sample_points, seed
            )
        )
    if bundle.solution.involutive:
        for tag in ("F", "Fhat"):
            out.append(equality(f"involutive-collapse:{tag}", bundle.matrix(f"r{tag}"), bundle.matrix("P")))
    return out


def brute_coproduct_defect(
    bundle, eta, budget=DEFAULT_BUDGET, sample_points=DEFAULT_SAMPLE_POINTS, seed=0, block=1 << 22
):
    """The former ``coproduct_defect``: the two bracketings of V_eta compared point by point."""
    return brute_compare_chains(
        "coassociativity:V-iterated-coproduct",
        bundle.n,
        [FormerBuilders(bundle).iterated_delta_v(eta, "right")],
        [FormerBuilders(bundle).iterated_delta_v(eta, "left")],
        budget,
        sample_points,
        seed,
        block,
    )


def brute_r_lift_defects(bundle, budget=DEFAULT_BUDGET, sample_points=DEFAULT_SAMPLE_POINTS, seed=0, block=1 << 22):
    """The former ``r_lift_defects``: each split-leg lift of r compared point by point with its law."""
    former = FormerBuilders(bundle)
    fns = former._pointwise()
    return [
        brute_compare_chains(name, bundle.n, [former.split_r(side)], rhs, budget, sample_points, seed, block)
        for name, side, rhs in (
            ("coassociativity:split-r-left-vs-r13r23", "left", [fns["r13"], fns["r23"]]),
            ("coassociativity:split-r-right-vs-r13r12", "right", [fns["r13"], fns["r12"]]),
        )
    ]


def swap_sigma_entries(s, x, y1, y2):
    """``s`` with sigma_x(y1) and sigma_x(y2) swapped and tau kept: a forged solution."""
    sigma = s.sigma.copy()
    sigma.setflags(write=True)
    sigma[x, y1], sigma[x, y2] = sigma[x, y2], sigma[x, y1]
    return dataclasses.replace(s, sigma=sigma)


def brute_inverse_composition(s):
    """The former inverse-composition check: the inverse's own row test, then both orders composed.

    Builds the closed-form inverse of ``s``, raises ``TableMismatchError``
    unless each of its sigma and tau rows sorts to 0..n-1, and composes it
    with ``s`` as inverse after forward, then forward after inverse; the
    witness is the first pair where a composition is not the identity.
    """
    b, z, n = s.brace, s.z, s.order
    A, M, neg, minv = b.add.table, b.mul.table, b.add.inverses, b.mul.inverses
    zi = minv[z]
    shat = A[neg[M[:, zi]][:, None], M[M, zi]]
    inverse = DeformedSolution(b, z, shat, tau_table_from_sigma(b, shat))
    for table in (inverse.sigma, inverse.tau):
        if not (np.sort(table, axis=1) == np.arange(n)).all():
            raise TableMismatchError("an inverse row is not a permutation")
    idx = np.arange(n * n)
    witness = None
    for composed in (inverse.combined[s.combined], s.combined[inverse.combined]):
        if not np.array_equal(composed, idx):
            p = int(np.flatnonzero(composed != idx)[0])
            witness = (p // n, p % n)
            break
    return Check("inverse-composition", "pass" if witness is None else "fail", 2 * n * n, witness)


def brute_braid_constraints(s):
    """The former block sweep of the three braid constraints over all n^3 triples.

    Constraint 1: sigma_e(sigma_x(y)) = sigma_{sigma_e(x)}(sigma_{tau_x(e)}(y))
    Constraint 2: tau_y(tau_x(e))     = tau_{tau_y(x)}(tau_{sigma_x(y)}(e))
    Constraint 3: tau_{sigma_{tau_x(e)}(y)}(sigma_e(x))
                                      = sigma_{tau_{sigma_x(y)}(e)}(tau_y(x))

    Each row block of e evaluates all three constraints as n^3-sized
    arrays.  Failures carry the lexicographically smallest witness triple
    (e, x, y) and the points up to the end of its block.
    """
    S = s.sigma
    TT = s.tau.T  # TT[x, y] = tau_y(x)
    n = s.order
    total = n * n * n
    state: dict[str, tuple[tuple[int, int, int], int] | None] = {"c1": None, "c2": None, "c3": None}
    done: set[str] = set()

    for lo, hi in row_blocks(n):
        blk = np.arange(lo, hi)
        tt_blk = TT[blk]                      # [e, x] = tau_x(e)
        s_blk = S[blk]                        # [e, x] = sigma_e(x)
        inner = S[tt_blk]                     # [e, x, y] = sigma_{tau_x(e)}(y)
        v = TT[blk[:, None, None], S[None, :, :]]  # [e, x, y] = tau_{sigma_x(y)}(e)

        if "c1" not in done:
            lhs = S[blk[:, None, None], S[None, :, :]]
            rhs = S[s_blk[:, :, None], inner]
            if not np.array_equal(lhs, rhs):
                e, x, y = np.argwhere(lhs != rhs)[0]
                state["c1"] = ((int(e) + lo, int(x), int(y)), hi * n * n)
                done.add("c1")
        if "c2" not in done:
            lhs = TT[tt_blk]
            rhs = TT[v, TT[None, :, :]]
            if not np.array_equal(lhs, rhs):
                e, x, y = np.argwhere(lhs != rhs)[0]
                state["c2"] = ((int(e) + lo, int(x), int(y)), hi * n * n)
                done.add("c2")
        if "c3" not in done:
            lhs = TT[s_blk[:, :, None], inner]
            rhs = S[v, TT[None, :, :]]
            if not np.array_equal(lhs, rhs):
                e, x, y = np.argwhere(lhs != rhs)[0]
                state["c3"] = ((int(e) + lo, int(x), int(y)), hi * n * n)
                done.add("c3")

    reports = []
    for name in ("c1", "c2", "c3"):
        hit = state[name]
        if hit is None:
            reports.append(Check(name, "pass", total))
        else:
            reports.append(Check(name, "fail", hit[1], hit[0]))
    return reports


def sigma_property_witnesses(b, z, skip_quartic=False):
    """One sweep over the six structural identities of the deformed maps.

    Properties, for all a, b, c (and d where applicable):
      1. sigma_a(b - c + d) = sigma_a(b) - sigma_a(c) + sigma_a(d)
      2. sigma_a(sigma_b(c)) = sigma_{a o b}(c)
      3. a o sigma_b(c) = sigma_{a o b}(c) - z + a o z
      4. a o z^{-1} - b o z^{-1} + c o z^{-1} = (a - b + c) o z^{-1}
      5. sigma_a(b) o tau_b(a) = a o b
      6. sigma_a(b) o sigma_{tau_b(a)}(c) =
         sigma_a(sigma_b(c)) o sigma_{tau_{sigma_b(c)}(a)}(tau_c(b))

    Returns the first witness per property (None when it holds).  The
    quartic property 1 costs O(n^4) and can be skipped for large carriers.
    """
    A, M, neg, minv = b.add.table, b.mul.table, b.add.inverses, b.mul.inverses
    n = b.order
    idx = np.arange(n)
    S = sigma_table(b, z)
    tau = tau_table_from_sigma(b, S)
    TT = tau.T
    out: dict[int, tuple | None] = {}

    out[1] = None
    if not skip_quartic:
        e3 = A[A[idx[:, None], neg[None, :]]]
        for a in range(n):
            lhs = S[a][e3]
            v = A[S[a][:, None], neg[S[a]][None, :]]
            rhs = A[v[:, :, None], S[a][None, None, :]]
            if not np.array_equal(lhs, rhs):
                x, cq, d = np.argwhere(lhs != rhs)[0]
                out[1] = (a, int(x), int(cq), int(d))
                break

    out[2] = None
    out[3] = None
    out[6] = None
    mz = M[:, z]
    for lo, hi in row_blocks(n):
        blk = idx[lo:hi]
        comp = S[M[blk]]                       # [a,b,c] = sigma_{a o b}(c)
        if out[2] is None:
            lhs = S[blk[:, None, None], S[None, :, :]]
            if not np.array_equal(lhs, comp):
                a, bb, cq = np.argwhere(lhs != comp)[0]
                out[2] = (int(a) + lo, int(bb), int(cq))
        if out[3] is None:
            lhs = M[blk[:, None, None], S[None, :, :]]
            rhs = A[A[comp, neg[z]], mz[blk][:, None, None]]
            if not np.array_equal(lhs, rhs):
                a, bb, cq = np.argwhere(lhs != rhs)[0]
                out[3] = (int(a) + lo, int(bb), int(cq))
        if out[6] is None:
            w1 = S[TT[blk]]                    # [a,b,c] = sigma_{tau_b(a)}(c)
            lhs = M[S[blk][:, :, None], w1]
            q = TT[blk[:, None, None], S[None, :, :]]
            rhs = M[S[blk[:, None, None], S[None, :, :]], S[q, TT[None, :, :]]]
            if not np.array_equal(lhs, rhs):
                a, bb, cq = np.argwhere(lhs != rhs)[0]
                out[6] = (int(a) + lo, int(bb), int(cq))

    out[4] = None
    u = M[:, minv[z]]
    for lo, hi in row_blocks(n):
        blk = idx[lo:hi]
        t1 = A[A[blk[:, None], neg[None, :]]]  # [a,b,c] = (a - b) + c
        lhs = A[A[u[blk][:, None], neg[u][None, :]][:, :, None], u[None, None, :]]
        rhs = u[t1]
        if not np.array_equal(lhs, rhs):
            a, bb, cq = np.argwhere(lhs != rhs)[0]
            out[4] = (int(a) + lo, int(bb), int(cq))
            break

    lhs5 = M[S, TT]
    out[5] = None
    if not np.array_equal(lhs5, M):
        a, bb = np.argwhere(lhs5 != M)[0]
        out[5] = (int(a), int(bb))
    return out


def right_distributivity_witness_direct(b, z):
    """Direct triple sweep of the shift law; independent slow path for cross-checks."""
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    n = b.order
    zc = M[:, z]
    for a in range(n):
        t1 = A[A[a, neg], :]  # (a - e) + c over (e, c)
        lhs = zc[t1]
        v1 = A[zc[a], neg[zc]]
        rhs = A[v1[:, None], zc[None, :]]
        if not np.array_equal(lhs, rhs):
            e, c = np.argwhere(lhs != rhs)[0]
            return (a, int(e), int(c))
    return None


def ternary_distributivity_witness(b):
    """First quadruple violating a o (b - c + d) = a o b - a o c + a o d, or None.

    Exhaustive over all n^4 quadruples; intended for carriers small enough
    that this is affordable.
    """
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    n = b.order
    e3 = A[A[np.arange(n)[:, None], neg[None, :]]]  # [x,c,d] = (x - c) + d
    for a in range(n):
        lhs = M[a][e3]
        v = A[M[a][:, None], neg[M[a]][None, :]]
        rhs = A[v[:, :, None], M[a][None, None, :]]
        if not np.array_equal(lhs, rhs):
            x, c, d = np.argwhere(lhs != rhs)[0]
            return (a, int(x), int(c), int(d))
    return None


def cubic_validate_group(table):
    """The former group validation: closure, identity, the cubic associativity sweep, inverses.

    Returns (identity, inverses) or raises the library's exception with
    the message and witness the library raised before its associativity
    certificate.
    """
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    bad = (t < 0) | (t >= n)
    if bad.any():
        a, b = (int(v) for v in np.argwhere(bad)[0])
        raise NotClosedError(
            f"entry table[{a}][{b}] = {int(t[a, b])} is not an index in [0, {n})", witness=(a, b)
        )
    idx = np.arange(n)
    e = next((c for c in range(n) if np.array_equal(t[c], idx) and np.array_equal(t[:, c], idx)), None)
    if e is None:
        raise NoIdentityError("no two-sided identity element")
    for lo, hi in row_blocks(n):
        lhs = t[t[lo:hi], :]
        rhs = t[np.arange(lo, hi)[:, None, None], t[None, :, :]]
        if not np.array_equal(lhs, rhs):
            a, b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise NotAssociativeError(
                f"associativity fails at (a,b,c)=({a + lo},{b},{c})", witness=(a + lo, b, c)
            )
    inverses = []
    for a in range(n):
        two_sided = [int(b) for b in np.flatnonzero(t[a] == e) if t[b, a] == e]
        if not two_sided:
            raise MissingInverseError(f"element {a} has no two-sided inverse", witness=(a,))
        inverses.append(two_sided[0])
    return e, inverses


def cubic_brace_laws(add, mul):
    """The former per-a loops: raise the first left-distributivity witness, else return the two-sided flag."""
    A, M, neg = add.table, mul.table, add.inverses
    n = add.order
    for a in range(n):
        lam = A[neg[a], M[a]]
        lhs = lam[A]
        rhs = A[lam[:, None], lam[None, :]]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise NotLeftDistributiveError((a, int(b), int(c)))
    for a in range(n):
        rho = A[M[:, a], neg[a]]
        if not np.array_equal(rho[A], A[rho[:, None], rho[None, :]]):
            return False
    return True


def brute_radical_ring_laws(add, mul):
    """Plain-loop check of a radical ring: the first witness of each law, or None where it holds.

    ``add`` is the table of an abelian group, ``mul`` any table on the same
    indices (both lists of lists).  Keys, with the order of each scan:

      * "left": (a, b, c) with a(b + c) != ab + ac, row-major;
      * "right": (b, c, a) with (b + c)a != ba + ca, scanning a first,
        then (b, c) row-major;
      * "associative": (a, b, c) with (ab)c != a(bc), row-major;
      * "adjoint": the first group axiom a o b = ab + a + b fails, as
        ("identity",), the first non-associative triple, or the first
        (a,) without a two-sided inverse; None when o is a group.
    """
    r = range(len(add))
    triples = [(a, b, c) for a in r for b in r for c in r]
    circ = [[add[add[mul[a][b]][a]][b] for b in r] for a in r]
    e = next((x for x in r if all(circ[x][y] == y == circ[y][x] for y in r)), None)
    if e is None:
        adjoint = ("identity",)
    else:
        adjoint = next(((a, b, c) for a, b, c in triples if circ[circ[a][b]][c] != circ[a][circ[b][c]]), None)
        if adjoint is None:
            adjoint = next(((a,) for a in r if not any(circ[a][b] == e == circ[b][a] for b in r)), None)
    return {
        "left": next(((a, b, c) for a, b, c in triples if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]), None),
        "right": next(((b, c, a) for a, b, c in triples if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]), None),
        "associative": next(((a, b, c) for a, b, c in triples if mul[mul[a][b]][c] != mul[a][mul[b][c]]), None),
        "adjoint": adjoint,
    }


def per_shift_report(b, report):
    """The report of the former per-shift loop, for the brace ``b`` and the config of ``report``.

    Every shift in the config is built, and each selected suite runs at
    every shift: no shift restates another's entries.  Only the checks,
    the dedup section and the summary depend on how shifts are verified;
    the other fields, and the brace construction entry, are taken from
    ``report``.
    """
    cfg = report["config"]
    zs, level, timings = cfg["z"], cfg["level"], cfg["timings"]
    maps, matrices = level in ("maps", "all"), level in ("matrices", "all")
    identity_shift = build_solution(b, b.identity) if maps else None
    checks, tensor_entries = report["checks"][:1], []
    for z in zs:
        s = build_solution(b, z)
        if maps:
            checks += solution_suite(s, identity_shift, timings)
        if matrices:
            bundle = TwistBundle(s)
            tensor_entries += tensor_suite(bundle, cfg["budget"], cfg["sample_points"], cfg["seed"], timings)
    dedup = None
    if maps:
        criterion = odd_matrix_pair_criterion if is_odd_matrix_brace(b) else None
        dedup = dedup_section(b, dedup_solutions(b, zs, pair_criterion=criterion), criterion)
        checks += gv_section(identity_shift, timings)
    checks += tensor_entries
    counts = {status: sum(c["status"] == status for c in checks) for status in ("pass", "fail", "sampled")}
    return {**report, "checks": checks, "dedup": dedup, "summary": {**counts, "all_passed": counts["fail"] == 0}}
