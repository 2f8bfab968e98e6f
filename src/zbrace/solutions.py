"""Shift-deformed Yang-Baxter solutions on finite skew braces.

For an admissible shift z the deformed map is

    r_z(x, y) = (sigma_x(y), tau_y(x)),
    sigma_x(y) = x o y - x o z + z          (additive subtraction),
    tau_y(x)   = sigma_x(y)^{-1} o x o y    (multiplicative inverse).

Everything here operates on dense n x n lookup tables and verifies the
three braid constraints, involutivity, inverses, dedup classes and the
correspondence with the undeformed map, all exactly: by exhaustive scans,
or by certificates that prove a verdict at every point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .braces import SkewBrace, right_distributes_at
from .groups import INDEX_DTYPE, first_difference, row_blocks


class InadmissibleZError(ValueError):
    pass


class InverseCheckFailedError(RuntimeError):
    def __init__(self, witness: tuple[int, int]):
        super().__init__(f"inverse composition fails at pair {witness}")
        self.witness = witness


class CriterionMismatchError(RuntimeError):
    """Direct involutivity test disagreed with the socle criterion: a bug."""


class TableMismatchError(RuntimeError):
    """A sigma, tau or pair-map table is not a permutation: a construction bug, or forged tables."""


@dataclass(frozen=True)
class DeformedSolution:
    """Lookup-table form of one deformed solution, and the one holder of the tables derived from it.

    sigma[x][y] = sigma_x(y) and tau[y][x] = tau_y(x) are ``INDEX_DTYPE``
    tables; each derived table, and each per-shift verdict (the product
    identity, the pair-map bijection and r o r = id), is computed at most
    once, from this solution's own sigma and tau.  Construction validates
    nothing, so forged tables can be checked too.
    """

    brace: SkewBrace
    z: int
    sigma: np.ndarray
    tau: np.ndarray

    @property
    def order(self) -> int:
        return self.brace.order

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return int(self.sigma[x, y]), int(self.tau[y, x])

    @cached_property
    def taut(self) -> np.ndarray:
        """[x, y] = tau_y(x), C-contiguous: no copy when tau is a transposed view, as built tau is."""
        return np.ascontiguousarray(self.tau.T)

    @cached_property
    def combined(self) -> np.ndarray:
        """The pair map (x, y) -> (sigma_x(y), tau_y(x)) as int32 codes x*n + y, row-major in (x, y)."""
        return pair_map(self.sigma, self.tau)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        """[x, u] = y with sigma_x(y) = u; ``TableMismatchError`` unless every sigma_x is a permutation."""
        return row_inverses(self.sigma, "sigma")

    @cached_property
    def tau_inv(self) -> np.ndarray:
        """[y, u] = x with tau_y(x) = u; ``TableMismatchError`` unless every tau_y is a permutation."""
        return row_inverses(self.tau, "tau")

    def require_nondegenerate(self) -> None:
        """Raise ``TableMismatchError`` unless every sigma_x and tau_y is a permutation (``row_inverses`` decides)."""
        _ = self.sigma_inv, self.tau_inv

    @cached_property
    def product_witness(self) -> tuple[int, int] | None:
        """The row-major first (x, y) with sigma_x(y) o tau_y(x) != x o y, or None: the product identity."""
        M = self.brace.mul.table
        return _first_pair(M[self.sigma, self.taut] != M)

    @cached_property
    def pair_collision(self) -> tuple[int, int] | None:
        """The first two pair indices mapped to the smallest repeated image, or None: the pair map is a bijection.

        n^2 codes reach all n^2 images exactly when no two collide, so one
        boolean scatter decides; the images are counted only on a collision.
        """
        hit = np.zeros(self.order**2, dtype=bool)
        hit[self.combined] = True
        if hit.all():
            return None
        counts = np.bincount(self.combined, minlength=self.order**2)
        p, q = np.flatnonzero(self.combined == np.argmax(counts > 1))[:2]
        return int(p), int(q)

    @cached_property
    def involutivity_witness(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
        """The row-major first pair moved by the double application, with both steps, or None: r o r = id."""
        n, comb = self.order, self.combined
        start = _first_pair((comb[comb] != _pair_codes(n)).reshape(n, n))
        if start is None:
            return None
        mid = int(comb[start[0] * n + start[1]])
        return start, divmod(mid, n), divmod(int(comb[mid]), n)

    @cached_property
    def involutive(self) -> bool:
        """``is_involutive(self)``, cross-checked once per solution."""
        return is_involutive(self)

    @cached_property
    def braid_constraints(self) -> tuple[Check, ...]:
        """``verify_braid_constraints(self)``, decided once per solution.

        The map-level suite reports these verdicts, and the tensor checks
        that follow from them (``tensor._PREMISES``) are decided from them.
        """
        return tuple(verify_braid_constraints(self))


@dataclass(frozen=True)
class Check:
    """The verdict of one check, at any level: what a report entry shows.

    ``status`` is "pass", "fail" or "sampled"; ``points`` counts the points
    examined, and a failure names its first ``witness``.
    """

    name: str
    status: str
    points: int
    witness: Any = None
    note: str = ""
    # wall time of this check alone; not part of its verdict
    elapsed_ms: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000


def _verdict(name: str, points: int, witness: Any, start: float, note: str = "") -> Check:
    """A check that fails exactly when it has a ``witness``, timed from ``start``."""
    return Check(name, "pass" if witness is None else "fail", points, witness, note, _ms_since(start))


def _first_pair(differs: np.ndarray) -> tuple[int, int] | None:
    """The row-major first (x, y) where an n x n boolean array is set, or None."""
    if not differs.any():
        return None
    x, y = np.unravel_index(int(np.argmax(differs)), differs.shape)
    return int(x), int(y)


class CriterionPairs(NamedTuple):
    """Every pair of shifts z1 < z2 in row-major order, as four arrays.

    ``criterion`` is the published pair criterion's verdict and
    ``tables_equal`` the exact one, read off the dedup classes.
    """

    z1: np.ndarray
    z2: np.ndarray
    criterion: np.ndarray
    tables_equal: np.ndarray


@dataclass(frozen=True)
class DedupPartition:
    classes: tuple[tuple[int, ...], ...]
    # None unless a pair criterion was given
    criterion_pairs: CriterionPairs | None = None


def shift_key(b: SkewBrace, z: int) -> np.ndarray:
    """The n-vector g_z(x) = -(x o z) + z, which determines sigma^z (``dedup_solutions``)."""
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    return A[neg[M[:, z]], z]


def sigma_table(b: SkewBrace, z: int) -> np.ndarray:
    """sigma[x][y] = x o y - x o z + z = x o y + g_z(x), by associativity of +."""
    return b.add.table[b.mul.table, shift_key(b, z)[:, None]]


def tau_table_from_sigma(b: SkewBrace, sigma: np.ndarray) -> np.ndarray:
    """tau[y][x] = sigma_x(y)^{-1} o (x o y), as a transposed view: ``DeformedSolution.taut`` copies nothing."""
    M, minv = b.mul.table, b.mul.inverses
    return M[minv[sigma], M].T


def pair_map(sigma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The int32 pair codes sigma_x(y)*n + tau_y(x), row-major in (x, y).

    n^2 is at most 2^24 at the carrier cap, so the codes fit int32.
    """
    n = sigma.shape[0]
    codes = sigma.astype(np.int32, order="C")
    codes *= n
    codes += tau.T
    return codes.ravel()


def _pair_codes(n: int) -> np.ndarray:
    """Every pair code 0 .. n^2 - 1 in the dtype of ``pair_map``: the identity map of the pair space."""
    return np.arange(n * n, dtype=np.int32)


def row_inverses(table: np.ndarray, name: str) -> np.ndarray:
    """[x, table[x, y]] = y: each row's inverse, by one scatter.

    Raises ``TableMismatchError``, naming the table, when a row is not a permutation.
    """
    inv = np.full(table.shape, -1, dtype=table.dtype)
    np.put_along_axis(inv, table, np.arange(table.shape[1], dtype=table.dtype)[None, :], axis=1)
    # a row of n entries in [0, n) that repeats one leaves an inverse entry unwritten; a negative one wraps
    if (inv < 0).any() or table.min() < 0:
        raise TableMismatchError(f"a {name} row is not a permutation")
    return inv


def _require_admissible(b: SkewBrace, z: int) -> None:
    if not (0 <= z < b.order):
        raise InadmissibleZError(f"element index {z} out of range")
    if not b.is_two_sided and right_distributes_at(b, z) is not None:
        raise InadmissibleZError(
            f"z={z} ({b.labels[z]}) does not right-distribute; deformation undefined"
        )


def build_solution(b: SkewBrace, z: int) -> DeformedSolution:
    """Materialize the deformed solution at shift z; rejects inadmissible z."""
    _require_admissible(b, z)
    sigma = sigma_table(b, z)
    s = DeformedSolution(brace=b, z=z, sigma=sigma, tau=tau_table_from_sigma(b, sigma))
    s.require_nondegenerate()
    if s.pair_collision is not None:
        p, q = s.pair_collision
        raise TableMismatchError(f"pair map is not a bijection: pairs {p} and {q} have one image")
    return s


def inverse_solution(forward: DeformedSolution) -> DeformedSolution:
    """The two-sided inverse of a built deformed solution, from its closed form.

    sigma-hat_x(y) = -(x o z^{-1}) + x o y o z^{-1}, tau-hat analogous.
    One composition decides the inverse: if r-hat o r = id on the pair
    space, r is injective, so a bijection of the finite pair space; then
    r-hat = r^{-1} and r o r-hat = id too.  A failure raises
    ``InverseCheckFailedError`` with the row-major first pair (x, y) where
    r-hat(r(x, y)) != (x, y).

    The inverse's rows need no test of their own once the forward's rows
    are permutations, which ``forward.require_nondegenerate`` decides (a
    cached verdict on a built forward).  If sigma-hat_u(v1) =
    sigma-hat_u(v2) = x with v1 != v2, then r^{-1}(u, v1) = (x, y1) and
    r^{-1}(u, v2) = (x, y2) with y1 != y2, as r^{-1} is injective, so
    sigma_x(y1) = u = sigma_x(y2).  If tau-hat_v(u1) = tau-hat_v(u2) = y
    with u1 != u2, then r^{-1}(u1, v) = (x1, y) and r^{-1}(u2, v) = (x2, y)
    with x1 != x2, so tau_y(x1) = v = tau_y(x2).  The forward's rows are
    tested after the composition, so a forged forward still fails with
    its witness, not an exception.
    """
    b, z = forward.brace, forward.z
    A, M, neg, minv = b.add.table, b.mul.table, b.add.inverses, b.mul.inverses
    zi = minv[z]
    u = M[:, zi]
    shat = A[neg[u][:, None], M[M, zi]]
    inverse = DeformedSolution(brace=b, z=z, sigma=shat, tau=tau_table_from_sigma(b, shat))
    n = b.order
    hit = _first_pair((inverse.combined[forward.combined] != _pair_codes(n)).reshape(n, n))
    if hit is not None:
        raise InverseCheckFailedError(hit)
    forward.require_nondegenerate()
    return inverse


def inverse_composition_check(s: DeformedSolution) -> Check:
    """``inverse_solution(s)`` composes with ``s`` to the identity in both orders; else the first pair where not.

    One order decides both (``inverse_solution``); the points count both.
    """
    start = time.perf_counter()
    witness = None
    try:
        inverse_solution(s)
    except InverseCheckFailedError as exc:
        witness = exc.witness
    return _verdict("inverse-composition", 2 * s.order**2, witness, start)


def sigma_is_left_action(s: DeformedSolution) -> bool:
    """sigma_a o sigma_b = sigma_{a o b} as maps, for every a and b.

    The a for which this holds for every b form a set closed under o, so
    it is checked only for the generators of (B, o), at |gens| n^2 lookups.
    """
    S, M = s.sigma, s.brace.mul.table
    return all(np.array_equal(S[g][S], S[M[g]]) for g in s.brace.mul.generators)


def derived_rack_certificate(s: DeformedSolution) -> bool:
    """Whether the derived rack of ``s`` proves c2; meaningful once c1's certificate holds.

    The theorem.  For a left non-degenerate r (every sigma_x a bijection)
    the guitar map J(x, y, w) = (x, sigma_x(y), sigma_x sigma_y(w)) is a
    bijection of B^3.  Put

        x <| u = sigma_u(tau_{sigma_x^{-1}(u)}(x)),   r'(x, u) = (u, x <| u).

    This is the derived solution of Soloviev (2000) and Lebed-Vendramin
    (2019, "On structure groups of set-theoretic solutions to the
    Yang-Baxter equation").  In this convention r12 r23 r12 = r23 r12 r23
    iff
      (i)   sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)}   (c1),
      (ii)  (x <| y) <| w = (x <| w) <| (y <| w)  (<| right self-distributive),
      (iii) sigma_x(y <| w) = sigma_x(y) <| sigma_x(w)  (every sigma_x an
            endomorphism of (B, <|)).
    (i) and (ii) alone do not suffice: a left action of S3 on its own six
    elements meets (i), (ii) and every closed form below, and fails c2
    (``tests/test_certificates.py``).  The proof: J r12 J^{-1} = r'12 by
    the definition of <| and (i) on the third leg, and with no premise
    J r23 J^{-1}(a, b, c) = (a, c, sigma_a(sigma_a^{-1}(b) <| sigma_a^{-1}(c))),
    which is r'23 iff (iii) holds; and
        r'12 r'23 r'12 (a, b, c) = (c, b <| c, (a <| b) <| c),
        r'23 r'12 r'23 (a, b, c) = (c, b <| c, (a <| c) <| (b <| c)),
    equal iff (ii) holds.  So under the premises below r is braided, and
    c2, its third leg, holds at all n^3 triples.  (Conversely, given (i)
    the two sides of the braid relation, read through J, have the middle
    legs b <| c and sigma_a(sigma_a^{-1}(b) <| sigma_a^{-1}(c)), so c3 is
    (iii), and a braided r meets all three.)

    The premises, each exact on the tables:
      * c1's certificate, checked by the caller: sigma is a left action of
        (B, o) with the product identity, which gives (i).  With
        sigma_e = id every sigma_x is a bijection (sigma_x sigma_{x^-1} = id).
      * h(g + w) = h(g) + h(w) for every generator g of (B, +) and every w,
        where h(w) = -z + (w o z - z) + z; the g where this holds are
        closed under +, so h is an endomorphism of (B, +).
      * The derived table, read off the sigma, sigma^{-1} and tau tables,
        equals u + h(x - u) at all n^2 pairs.  For any endomorphism h this
        operation is (ii): both sides expand to w + h(y) + h^2(x - y) - h(w),
        since (x <| y) <| w = w + h(y + h(x - y) - w), and
        (x <| w) - (y <| w) = w + h(x - y) - w gives
        (x <| w) <| (y <| w) = w + h(y - w) + h(w) + h^2(x - y) - h(w).
      * sigma_g(y <| w) = sigma_g(y) <| sigma_g(w) for every generator g of
        (B, o), at n^2 pairs each; with sigma an action the g where this
        holds are closed under o, so this is (iii).

    Every admissible shift meets them.  With y = sigma_x^{-1}(u) the
    product identity gives tau_y(x) = u^{-1} o x o y, and
    sigma_x(y) = x o y - x o z + z gives x o y = u - z + x o z, so
        x <| u = u - z + x o z - u o z + z.
    psi(w) = w o z - z is the map ``braces.right_distributes_at`` tests,
    so it is additive at every admissible z, and then
    x <| u = u - z + psi(x - u) + z = u + h(x - u), h being psi followed by
    conjugation by -z, an automorphism of (B, +).  For (iii), put
    phi_x(a) = x o a - x, an automorphism of (B, +); then
    sigma_x(y) = phi_x(y - z) + z.  In the coordinate a = y - z, sigma_x
    is phi_x and <| is b + psi(a - b), so (iii) says phi_x psi = psi phi_x,
    and both send a to x o a o z - x o z.  Only forged tables reach the
    fallback sweep.
    """
    b, z, S = s.brace, s.z, s.sigma
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    n = s.order
    idx = np.arange(n)
    if not np.array_equal(S[b.mul.identity], idx):
        return False
    h = A[A[neg[z], A[M[:, z], neg[z]]], z]
    if not all(np.array_equal(h[A[g]], A[h[g], h]) for g in b.add.generators):
        return False
    # flat gathers: about 1.5x faster than 2-D broadcast indexing at n = 2048
    rack = A.ravel().take(h[A.take(neg, axis=1)] + idx * n)  # [x, u] = u + h(x - u)
    tau_inner = s.taut.ravel().take(idx[:, None] * n + s.sigma_inv)  # [x, u] = tau_{sigma_x^{-1}(u)}(x)
    if not np.array_equal(S.ravel().take(tau_inner + idx * n), rack):
        return False
    return all(
        np.array_equal(S[g].take(rack), rack.take(S[g], axis=0).take(S[g], axis=1)) for g in b.mul.generators
    )


def _lap_ms(laps: list[float]) -> list[float]:
    """Milliseconds between consecutive ``time.perf_counter()`` readings."""
    return [(b - a) * 1000 for a, b in zip(laps, laps[1:])]


def verify_braid_constraints(s: DeformedSolution) -> list[Check]:
    """Decide the three braid constraints at all n^3 triples.

    Constraint 1: sigma_e(sigma_x(y)) = sigma_{sigma_e(x)}(sigma_{tau_x(e)}(y))
    Constraint 2: tau_y(tau_x(e))     = tau_{tau_y(x)}(tau_{sigma_x(y)}(e))
    Constraint 3: tau_{sigma_{tau_x(e)}(y)}(sigma_e(x))
                                      = sigma_{tau_{sigma_x(y)}(e)}(tau_y(x))

    They are the first, third and middle components of r12 r23 r12 =
    r23 r12 r23.  Each is proved by a certificate in n^2 steps:

      * c1: if sigma is a left action of (B, o) (``sigma_is_left_action``)
        and sigma_x(y) o tau_y(x) = x o y, the right side of c1 is
        sigma_{sigma_e(x) o tau_x(e)}(y) = sigma_{e o x}(y), the left side.
      * c2: once c1's certificate holds, the derived rack x <| u =
        sigma_u(tau_{sigma_x^{-1}(u)}(x)) has the closed form u + h(x - u)
        for an endomorphism h of (B, +), and every sigma_x respects it
        (``derived_rack_certificate``, which holds the proof); then r is
        braided, and c2 holds.
      * c3: each application of r keeps the o-product of its pair, so both
        sides of the braid relation keep e o x o y; once c1, c2 and the
        product identity hold everywhere, the middle components agree by
        cancellation in (B, o).

    A constraint whose certificate premise fails is swept by
    ``first_difference`` one row e at a time, so a failure only ever
    comes from a sweep.  Failures are reported with the lexicographically
    smallest witness triple (e, x, y); they are report content, not
    exceptions.  A failure's points are every triple up to the end of the
    ``row_blocks(n)`` block that holds the witness row.
    """
    S, TT = s.sigma, s.taut
    n = s.order
    flat_s, flat_tt = S.ravel(), TT.ravel()

    # The sweeps take one row e per block (block n * n), and each side is
    # the [x, y] array of that row: written on (1, n, n) blocks, the c2
    # sweep of an odd-matrix shift (n = 256) measured twice as slow.
    # Flat codes widen to int64 first: an int16 x * n overflows from n = 256 on.
    def c1(e: int, _hi: int):
        return (S[e][S],), (flat_s.take(S[e][:, None].astype(np.int64) * n + S[TT[e]]),)

    def c2(e: int, _hi: int):
        return (TT[TT[e]],), (flat_tt.take(TT[e][S].astype(np.int64) * n + TT),)

    def c3(e: int, _hi: int):
        return (
            (flat_tt.take(S[e][:, None].astype(np.int64) * n + S[TT[e]]),),
            (flat_s.take(TT[e][S].astype(np.int64) * n + TT),),
        )

    # each constraint is timed from the end of the previous one, so the
    # product identity, which both certificates read, counts towards c1
    laps = [time.perf_counter()]
    product_ok = s.product_witness is None
    certified_c1 = product_ok and sigma_is_left_action(s)
    hits = {"c1": None if certified_c1 else first_difference(n, c1, n * n)}
    laps.append(time.perf_counter())
    hits["c2"] = None if certified_c1 and derived_rack_certificate(s) else first_difference(n, c2, n * n)
    laps.append(time.perf_counter())
    certified_c3 = product_ok and hits["c1"] is None and hits["c2"] is None
    hits["c3"] = None if certified_c3 else first_difference(n, c3, n * n)
    laps.append(time.perf_counter())

    return [
        Check(name, "pass", n**3, elapsed_ms=ms)
        if hit is None
        else Check(name, "fail", next(hi for _, hi in row_blocks(n) if hit[0] < hi) * n * n, hit, elapsed_ms=ms)
        for (name, hit), ms in zip(hits.items(), _lap_ms(laps))
    ]


def product_identity_check(s: DeformedSolution) -> Check:
    """sigma_x(y) o tau_y(x) = x o y at every pair; the witness is the first failing (x, y, -1).

    It reports ``s.product_witness``, which the braid constraints' certificates read first.
    """
    start = time.perf_counter()
    hit = s.product_witness
    return _verdict("product-identity", s.order**2, None if hit is None else (*hit, -1), start)


def transpose_identity_check(s: DeformedSolution) -> Check:
    """Bijectivity of the pair map; equivalently M M^T = I for the 0/1 matrix.

    It reports ``s.pair_collision``, which ``build_solution`` reads first:
    the first two pair indices with the smallest repeated image.
    """
    start = time.perf_counter()
    return _verdict("transpose-identity", s.order**2, s.pair_collision, start)


def is_involutive(s: DeformedSolution) -> bool:
    """True iff applying the map twice is the identity on the pair space.

    The result is cross-checked against the socle criterion at ``s.z``
    (``cross_check_involutive``); disagreement is an internal error.
    """
    return cross_check_involutive(s.brace, s.z, s.involutivity_witness is None)


def cross_check_involutive(b: SkewBrace, z: int, direct: bool) -> bool:
    """``direct``, the r o r = id verdict for the map at shift z, once the socle criterion agrees.

    The criterion: the map is involutive iff (B, +) is abelian and z lies
    in the socle.  A verdict decided on one shift's tables holds for every
    shift with the same map, and each such shift is cross-checked here;
    disagreement raises ``CriterionMismatchError``.
    """
    criterion = bool(b.is_left_brace and z in b.socle_members)
    if direct != criterion:
        raise CriterionMismatchError(
            f"direct involutivity test ({direct}) disagrees with socle criterion "
            f"({criterion}) for z={z} on {b.name}"
        )
    return direct


def involutivity_check(s: DeformedSolution) -> Check:
    """Involutivity of ``s`` with the inputs of the socle criterion (``involutivity_check_at`` at ``s.z``)."""
    return involutivity_check_at(s.brace, s.z, s.involutivity_witness)


def involutivity_check_at(b: SkewBrace, z: int, two_step_witness: Any) -> Check:
    """Involutivity at shift z of the map whose direct r o r = id test found ``two_step_witness`` (None: involutive).

    ``cross_check_involutive`` raises ``CriterionMismatchError`` unless the
    direct verdict agrees with the socle criterion at z, so the check
    passes whenever it returns.  The witness of a non-involutive shift
    adds the two-step witness.  A report tests r o r = id once per class
    of equal solutions and cross-checks the verdict here at every shift.
    """
    start = time.perf_counter()
    payload: dict[str, Any] = {
        "involutive": cross_check_involutive(b, z, two_step_witness is None),
        "left_brace": b.is_left_brace,
        "socle_member": z in b.socle_members,
    }
    if not payload["involutive"]:
        payload["two_step_witness"] = two_step_witness
    return Check(
        "involutivity-criterion", "pass", b.order**2, payload,
        note="direct double-application test agrees with the socle criterion", elapsed_ms=_ms_since(start),
    )


def sigma_shift_criterion(s: DeformedSolution, identity_shift: DeformedSolution) -> Check:
    """Evaluate both sides of: sigma^z = sigma^1  iff  a o z = z + a for all a.

    ``s`` is the solution at shift z and ``identity_shift`` the one at the
    identity, both built from the same brace (``sigma_shift_check_at``).
    """
    start = time.perf_counter()
    return sigma_shift_check_at(s.brace, s.z, bool(np.array_equal(s.sigma, identity_shift.sigma)), start)


def sigma_shift_check_at(b: SkewBrace, z: int, tables_equal: bool, start: float | None = None) -> Check:
    """The sigma-shift criterion at shift z, given whether sigma^z equals the identity shift's table.

    Only the right side reads z: column z of the o table against row z of
    the + table, n lookups.  The witness holds both sides; the check fails
    when they disagree.
    """
    start = time.perf_counter() if start is None else start
    commutation = bool(np.array_equal(b.mul.table[:, z], b.add.table[z, :]))
    return Check(
        "sigma-shift-criterion", "pass" if tables_equal == commutation else "fail", b.order**2,
        {"sigma_equals_identity_shift": tables_equal, "shift_commutation": commutation},
        elapsed_ms=_ms_since(start),
    )


def dedup_solutions(
    b: SkewBrace,
    zs: Iterable[int],
    pair_criterion: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> DedupPartition:
    """Partition the shifts ``zs`` of ``b`` by exact equality of their sigma tables, building none.

    Each shift is keyed by the n-vector g_z(x) = -(x o z) + z
    (``shift_key``).  By associativity of +,

        sigma^z_x(y) = x o y - x o z + z = x o y + g_z(x).

    So g_z = g_z' gives sigma^z = sigma^z'; conversely, if
    sigma^z_x(y) = sigma^z'_x(y) for any one y, then
    x o y + g_z(x) = x o y + g_z'(x), and left cancellation in (B, +)
    gives g_z(x) = g_z'(x).  Hence sigma^z = sigma^z' iff g_z = g_z': the
    key decides table equality exactly, in n lookups per shift.  The tau
    table and the pair map are computed from sigma alone
    (``tau_table_from_sigma``, ``pair_map``), so shifts of one class have
    equal solutions.  Keys are compared by their full bytes (all keys of
    one brace share shape and dtype, and a dict hit compares the bytes,
    never just the hash).  Each shift is checked for admissibility, as
    ``build_solution`` does; a shift given twice is counted once.

    When ``pair_criterion`` is given (odd-matrix family), every pair of
    shifts z1 < z2 is also scored by the published criterion and reported
    next to the ground truth, whose table equality is read off the classes
    (equality is transitive, so this is exact).  The criterion is called
    once, on the arrays z1 and z2 of every pair, and gives each pair's
    verdict (``braces.odd_matrix_pair_criterion``); the result is
    ``criterion_pairs``.
    """
    class_index: dict[int, int] = {}
    by_key: dict[bytes, int] = {}
    members: list[list[int]] = []
    for z in zs:
        z = int(z)
        if z in class_index:
            continue
        _require_admissible(b, z)
        cls = by_key.setdefault(shift_key(b, z).tobytes(), len(members))
        if cls == len(members):
            members.append([])
        class_index[z] = cls
        members[cls].append(z)
    classes = sorted(tuple(sorted(cls)) for cls in members)

    if pair_criterion is None:
        return DedupPartition(classes=tuple(classes))
    zs_sorted = sorted(class_index)
    first, second = np.triu_indices(len(zs_sorted), 1)
    shifts = np.array(zs_sorted, dtype=INDEX_DTYPE)
    z1, z2 = shifts[first], shifts[second]
    cls = np.array([class_index[z] for z in zs_sorted], dtype=INDEX_DTYPE)
    tables_equal = cls[first] == cls[second]
    criterion = np.asarray(pair_criterion(z1, z2), dtype=bool)
    return DedupPartition(tuple(classes), CriterionPairs(z1, z2, criterion, tables_equal))


def gv_tables(b: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the undeformed map (a,b) -> (-a + a o b, (-a + a o b)^{-1} o a o b)."""
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    sgv = A[neg[:, None], M]
    tgv = tau_table_from_sigma(b, sgv)
    return sgv, tgv


def gv_correspondence_check(s1: DeformedSolution) -> list[Check]:
    """Compare the undeformed map against the identity-shift deformation ``s1``.

    Three independent comparisons, one check each, at n^2 pairs; a
    failure's witness is the first failing pair (the shared tables are
    timed with the first):
      * gv-conjugation-identity: the substitution identity
        r_1(a, -a^{-1} + b + a^{-1}) = r_gv(a, b) at every pair (a^{-1}
        multiplicative, - additive);
      * gv-inverse-relation: r_gv composed with r_1 is the identity in
        both orders;
      * gv-tables-equal-at-identity-shift, for left braces only: exact
        table equality r_gv = r_1.

    The substitution identity holds at every pair exactly when (B,+) is
    abelian, whatever the substituted argument: both maps satisfy
    sigma_a(y) o tau_y(a) = a o y, so equal images force that argument to
    equal b, and the first components then read a o b - a = -a + a o b
    for all b.  The inverse relation holds for every skew brace.  The
    sigma components alone agree everywhere under the substitution
    a^{-1} + b - a^{-1}, but not under the form checked here (seen on
    both S3-based instances); the full-pair verdict is the same for
    either form.
    """
    b = s1.brace
    if s1.z != b.identity:
        raise ValueError(f"gv correspondence needs the identity shift, got z={s1.z}")
    n = b.order
    A, neg, minv = b.add.table, b.add.inverses, b.mul.inverses
    start = time.perf_counter()
    sgv, tgv = gv_tables(b)

    idx = np.arange(n)
    c = A[A[neg[minv][:, None], idx[None, :]], minv[:, None]]
    lhs_sigma = s1.sigma[idx[:, None], c]
    lhs_tau = s1.taut[idx[:, None], c]
    conj = _first_pair((lhs_sigma != sgv) | (lhs_tau != tgv.T))
    checks = [_verdict("gv-conjugation-identity", n * n, conj, start)]

    # r_gv after r_1 is the identity exactly when r_gv is the inverse of
    # the bijection r_1, so one order decides both
    start = time.perf_counter()
    not_inverse = pair_map(sgv, tgv)[s1.combined] != _pair_codes(n)
    checks.append(_verdict(
        "gv-inverse-relation", n * n, _first_pair(not_inverse.reshape(n, n)), start,
        note="undeformed map composes with the identity-shift deformation to the identity",
    ))

    if b.is_left_brace:
        start = time.perf_counter()
        unequal = _first_pair((sgv != s1.sigma) | (tgv.T != s1.taut))
        checks.append(_verdict("gv-tables-equal-at-identity-shift", n * n, unequal, start))
    return checks
