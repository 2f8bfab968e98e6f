"""Finite left skew braces: construction, classification, example families.

A left skew brace is one carrier with two group structures (+, o) sharing
the identity and satisfying a o (b + c) = a o b - a + a o c.  All law
checks here are exact, vectorized over Cayley tables: each proves its law
at every point by a certificate over the additive generators, or names
the first counterexample by the shared sweep ``groups.first_difference``.
Size limits (``check_carrier_cap``) are checked before any table is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import (
    INDEX_DTYPE,
    INDEX_ORDER_MAX,
    FiniteGroup,
    GroupValidationError,
    NotAssociativeError,
    direct_product,
    first_difference,
    validate_group,
)

DEFAULT_CARRIER_CAP = 4096
# every carrier within the cap has its element indices in INDEX_DTYPE
assert DEFAULT_CARRIER_CAP <= INDEX_ORDER_MAX
DEFAULT_CYCLIC_BOUND = 16


class BraceError(ValueError):
    pass


class IdentityMismatchError(BraceError):
    pass


class NotLeftDistributiveError(BraceError):
    def __init__(self, witness: tuple[int, int, int]):
        a, b, c = witness
        super().__init__(f"left distributivity fails at (a,b,c)=({a},{b},{c})")
        self.witness = witness


class BoundExceededError(BraceError):
    pass


def check_carrier_cap(n: int, cap: int = DEFAULT_CARRIER_CAP) -> None:
    """Raise BoundExceededError when a carrier of size n exceeds the cap; called before any table work."""
    if n > cap:
        raise BoundExceededError(f"carrier size {n} exceeds cap {cap}")


class NotRadicalError(BraceError):
    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SkewBrace:
    """Two validated groups on one carrier, with classification flags.

    ``is_left_brace`` means the additive group is abelian; ``is_two_sided``
    means the mirrored distributivity law also holds (and hence every
    element is an admissible shift).
    """

    add: FiniteGroup
    mul: FiniteGroup
    name: str
    is_left_brace: bool
    is_two_sided: bool

    @property
    def order(self) -> int:
        return self.add.order

    @property
    def identity(self) -> int:
        return self.add.identity

    @property
    def labels(self) -> tuple[str, ...]:
        return self.add.labels

    def plus(self, a: int, b: int) -> int:
        return self.add.op(a, b)

    def neg(self, a: int) -> int:
        return self.add.inv(a)

    def circ(self, a: int, b: int) -> int:
        return self.mul.op(a, b)

    def circ_inv(self, a: int) -> int:
        return self.mul.inv(a)

    @functools.cached_property
    def socle_members(self) -> frozenset[int]:
        """The indices of ``socle(self)``, scanned once per brace."""
        return frozenset(socle(self).tolist())


def make_skew_brace(
    add: FiniteGroup,
    mul: FiniteGroup,
    name: str = "brace",
    cap: int = DEFAULT_CARRIER_CAP,
) -> SkewBrace:
    """Check the brace laws at every triple and classify the result.

    Left distributivity is verified through the equivalent per-element
    statement that lambda_a(x) = -a + a o x is an additive endomorphism.
    For fixed a, the c with lambda_a(b + c) = lambda_a(b) + lambda_a(c)
    for every b form a set closed under +, so checking c over the
    generators of (B, +) proves the law at all n^3 triples.  Only on a
    failure does the sweep run (``_first_non_additive``), to name the
    lexicographically first witness; it coincides with the raw law's
    (cancel -a on the left).
    The two-sided flag is the same certificate for rho_a(x) = x o a - a.
    """
    if add.order != mul.order:
        raise BraceError(f"group orders differ: {add.order} != {mul.order}")
    check_carrier_cap(add.order, cap)
    if add.identity != mul.identity:
        raise IdentityMismatchError(
            f"additive identity {add.identity} != multiplicative identity {mul.identity}"
        )

    A, M, neg = add.table, mul.table, add.inverses
    lam = A[neg[:, None], M]  # [a, x] = -a + a o x
    if not _additive_on_generators(A, lam, add.generators):
        raise NotLeftDistributiveError(_first_non_additive(A, lam))

    rho = A[M.T, neg[:, None]]  # [a, x] = x o a - a
    two_sided = _additive_on_generators(A, rho, add.generators)

    return SkewBrace(
        add=add,
        mul=mul,
        name=name,
        is_left_brace=add.is_abelian,
        is_two_sided=two_sided,
    )


def _additive_on_generators(A: np.ndarray, maps: np.ndarray, gens: tuple[int, ...]) -> bool:
    """maps[a](b + g) = maps[a](b) + maps[a](g) for every a, b and every generator g."""
    return all(np.array_equal(maps[:, A[:, g]], A[maps, maps[:, g][:, None]]) for g in gens)


def _first_non_additive(A: np.ndarray, maps: np.ndarray) -> tuple[int, int, int] | None:
    """The row-major first (a, b, c) with maps[a](b + c) != maps[a](b) + maps[a](c), or None."""
    return first_difference(
        A.shape[0], lambda lo, hi: ((maps[lo:hi].take(A, axis=1),), (A[maps[lo:hi, :, None], maps[lo:hi, None, :]],))
    )


def socle(b: SkewBrace) -> np.ndarray:
    """Indices z with a o z = a + z for every a, by exhaustive column scan."""
    members = np.flatnonzero(np.all(b.mul.table == b.add.table, axis=0))
    return members.astype(INDEX_DTYPE)


def right_distributes_at(b: SkewBrace, z: int) -> tuple[int, int, int] | None:
    """First witness (a,e,c) violating (a-e+c) o z = a o z - e o z + c o z, or None.

    Evaluated through the equivalent additive-endomorphism form of
    a -> a o z - z; a witness (a,c) of that form maps to the law triple
    (a, identity, c).
    """
    A, M, neg = b.add.table, b.mul.table, b.add.inverses
    g = A[M[:, z], neg[z]]
    lhs = g[A]
    rhs = A[g[:, None], g[None, :]]
    if np.array_equal(lhs, rhs):
        return None
    a, c = np.argwhere(lhs != rhs)[0]
    return (int(a), b.identity, int(c))


def admissible_z(b: SkewBrace) -> np.ndarray:
    """All shifts z for which the deformation is defined.

    For two-sided braces this is the full carrier; otherwise each z is
    checked individually.
    """
    if b.is_two_sided:
        return np.arange(b.order, dtype=INDEX_DTYPE)
    ok = [z for z in range(b.order) if right_distributes_at(b, z) is None]
    return np.asarray(ok, dtype=INDEX_DTYPE)


def trivial_skew_brace(g: FiniteGroup, name: str | None = None) -> SkewBrace:
    """Both operations equal to g; two-sided, a left brace iff g is abelian."""
    return make_skew_brace(g, g, name=name or "trivial")


def product_brace(
    b1: SkewBrace,
    b2: SkewBrace,
    name: str | None = None,
    cap: int = DEFAULT_CARRIER_CAP,
) -> SkewBrace:
    """Coordinatewise product on pair indices a*|b2| + b, fully revalidated."""
    if b1.order * b2.order > cap:
        raise BoundExceededError(
            f"product carrier {b1.order * b2.order} exceeds cap {cap}"
        )
    add = direct_product(b1.add, b2.add)
    mul = direct_product(b1.mul, b2.mul)
    return make_skew_brace(add, mul, name=name or f"product({b1.name},{b2.name})", cap=cap)


def cyclic_unit_brace(n: int, bound: int = DEFAULT_CYCLIC_BOUND) -> SkewBrace:
    """Odd residues mod 2^n with a +1 b = a+b-1 and a o b = a*b.

    Order 2^(n-1); always a two-sided brace.
    """
    if n < 2:
        raise BraceError(f"modulus exponent must be >= 2, got {n}")
    if n > bound:
        raise BoundExceededError(f"exponent {n} exceeds bound {bound}")
    check_carrier_cap(1 << (n - 1))
    mod = 1 << n
    vals = np.arange(1, mod, 2, dtype=np.int64)
    add_vals = (vals[:, None] + vals[None, :] - 1) % mod
    mul_vals = (vals[:, None] * vals[None, :]) % mod
    labels = [str(v) for v in vals]
    add = validate_group((add_vals - 1) // 2, labels=labels)
    mul = validate_group((mul_vals - 1) // 2, labels=labels)
    return make_skew_brace(add, mul, name=f"cyclic2n-{n}")


_OM_MOD = 8


def odd_matrix_entries(idx: int) -> tuple[int, int, int, int]:
    """Decode an odd-matrix element index to entries (a, b, c, d) of [[a,b],[c,d]]."""
    ia, ib, ic, id_ = (idx >> 6) & 3, (idx >> 4) & 3, (idx >> 2) & 3, idx & 3
    return 2 * ia + 1, 2 * ib, 2 * ic, 2 * id_ + 1


def odd_matrix_tables() -> tuple[np.ndarray, np.ndarray]:
    """Closed-form addition and multiplication tables of the odd-matrix brace.

    Indices follow ``odd_matrix_entries``; addition is A + B - I entrywise
    mod 8, multiplication is the matrix product mod 8.  Every intermediate
    is below 2^8, so the tables are computed in ``INDEX_DTYPE`` throughout.
    """
    idx = np.arange(256, dtype=INDEX_DTYPE)
    a = 2 * ((idx >> 6) & 3) + 1
    bb = 2 * ((idx >> 4) & 3)
    c = 2 * ((idx >> 2) & 3)
    d = 2 * (idx & 3) + 1

    def encode(ea, eb, ec, ed):
        return (
            (((ea - 1) // 2) << 6)
            | ((eb // 2) << 4)
            | ((ec // 2) << 2)
            | ((ed - 1) // 2)
        )

    a1, a2 = a[:, None], a[None, :]
    b1, b2 = bb[:, None], bb[None, :]
    c1, c2 = c[:, None], c[None, :]
    d1, d2 = d[:, None], d[None, :]

    add_table = encode(
        (a1 + a2 - 1) % _OM_MOD,
        (b1 + b2) % _OM_MOD,
        (c1 + c2) % _OM_MOD,
        (d1 + d2 - 1) % _OM_MOD,
    )
    mul_table = encode(
        (a1 * a2 + b1 * c2) % _OM_MOD,
        (a1 * b2 + b1 * d2) % _OM_MOD,
        (c1 * a2 + d1 * c2) % _OM_MOD,
        (c1 * b2 + d1 * d2) % _OM_MOD,
    )
    return add_table, mul_table


def odd_matrix_brace() -> SkewBrace:
    """2x2 matrices over Z/8Z with odd diagonal and even off-diagonal.

    Order 256.  Addition is A + B - I entrywise mod 8, multiplication is
    the matrix product mod 8.
    """
    add_table, mul_table = odd_matrix_tables()
    labels = []
    for i in range(256):
        ea, eb, ec, ed = odd_matrix_entries(i)
        labels.append(f"[[{ea},{eb}],[{ec},{ed}]]")
    add = validate_group(add_table, labels=labels)
    mul = validate_group(mul_table, labels=labels)
    return make_skew_brace(add, mul, name="oddmatrix")


def is_odd_matrix_brace(b: SkewBrace) -> bool:
    """True iff both tables of ``b`` equal the odd-matrix closed forms, index for index.

    Decides from content, not from the name, whether the odd-matrix pair
    criterion applies: the criterion decodes element indices as matrices.
    """
    if b.order != 256:
        return False
    add_table, mul_table = odd_matrix_tables()
    return bool(np.array_equal(b.add.table, add_table) and np.array_equal(b.mul.table, mul_table))


def odd_matrix_pair_criterion(z1: int, z2: int) -> bool:
    """Published equality test for two odd-matrix shifts: (D-I)(B-A) = 0 mod 8 for all D.

    Read from the table of every pair's verdict (``_odd_matrix_pair_verdicts``).
    Reported next to (never merged with) exact table comparison.
    """
    return bool(_odd_matrix_pair_verdicts()[z1, z2])


@functools.lru_cache(maxsize=1)
def _odd_matrix_pair_verdicts() -> np.ndarray:
    """[z1, z2] = the published criterion for odd-matrix shifts z1 and z2, computed once.

    The statement depends on the shifts only through their difference
    matrix B - A mod 8, whose entries are even, so it has at most 256
    values.  Each difference is decided by brute force over all 256 odd
    matrices D (vectorised over D), never by a derived closed form, and
    every pair reads the verdict of its difference.  The codes are built
    one entry column at a time in ``INDEX_DTYPE``, so no 256 x 256 x 4
    array is held.
    """
    entries = np.array([odd_matrix_entries(i) for i in range(256)], dtype=INDEX_DTYPE)
    d_minus_i = (entries - np.array([1, 0, 0, 1], dtype=INDEX_DTYPE)).reshape(256, 2, 2)
    shifts = (6, 4, 2, 0)
    # code the even entries (a, b, c, d) of B - A in base 4, so each difference has one of 256 codes
    codes = np.zeros((256, 256), dtype=INDEX_DTYPE)
    for col, shift in zip(entries.T, shifts):
        codes |= (col[None, :] - col[:, None]) % _OM_MOD // 2 << shift  # [z1, z2]
    by_code = (np.arange(256)[:, None] >> np.array(shifts)) & 3
    holds = [not (d_minus_i @ (2 * c).reshape(2, 2) % _OM_MOD).any() for c in by_code]
    verdicts = np.array(holds)[codes]
    verdicts.flags.writeable = False  # one cached table serves every caller
    return verdicts


def even_residue_ring_tables(modulus: int = 8) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Addition and multiplication tables of the even residues mod ``modulus``."""
    if modulus < 2 or modulus % 2:
        raise BraceError(f"modulus must be a positive even integer, got {modulus}")
    vals = np.arange(0, modulus, 2, dtype=np.int64)
    add = ((vals[:, None] + vals[None, :]) % modulus) // 2
    mul = ((vals[:, None] * vals[None, :]) % modulus) // 2
    return add, mul, [str(v) for v in vals]


def from_radical_ring(
    add_table: Sequence[Sequence[int]] | np.ndarray,
    mul_table: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str] | None = None,
    name: str = "radical",
) -> SkewBrace:
    """Brace (N, +, o) with a o b = a*b + a + b from an associative ring.

    Rejects, in this order: (N, +) not an abelian group; a distributive
    law failing, left before right (every b -> ab, resp. b -> ba, additive:
    the certificate of ``make_skew_brace``, swept only to name a witness);
    the adjoint o failing the group axioms.  Ring associativity needs no
    check of its own: with (N, +) abelian and both distributive laws,
    (a o b) o c and a o (b o c) expand to (ab)c + S and a(bc) + S with
    S = ab + ac + bc + a + b + c.  So the adjoint fails associativity
    exactly where (ab)c != a(bc), at the same row-major first triple.
    """
    add = validate_group(add_table, labels=labels)
    n, A = add.order, add.table
    check_carrier_cap(n)
    if not add.is_abelian:
        raise NotRadicalError("ring addition is not abelian")
    mr = np.asarray(mul_table, dtype=np.int64)
    if mr.shape != (n, n):
        raise NotRadicalError(f"multiplication table shape {mr.shape} does not match order {n}")
    if mr.min() < 0 or mr.max() >= n:
        raise NotRadicalError("multiplication table entries out of range")
    mr = mr.astype(INDEX_DTYPE)

    for side, maps in (("left", mr), ("right", mr.T)):
        if not _additive_on_generators(A, maps, add.generators):
            a, b, c = _first_non_additive(A, maps)
            w = (a, b, c) if side == "left" else (b, c, a)
            raise NotRadicalError(f"ring not {side} distributive at ({w[0]},{w[1]},{w[2]})", witness=w)

    circle = A[A[mr, np.arange(n)[:, None]], np.arange(n)[None, :]]
    try:
        mul = validate_group(circle, labels=add.labels)
    except NotAssociativeError as exc:
        raise NotRadicalError(f"ring multiplication not associative at {exc.witness}", witness=exc.witness) from exc
    except GroupValidationError as exc:
        raise NotRadicalError(
            f"adjoint operation a*b+a+b is not a group: {exc}", witness=exc.witness
        ) from exc
    return make_skew_brace(add, mul, name=name)


def radical_even_brace(modulus: int = 8) -> SkewBrace:
    """Built-in radical-ring brace on the even residues mod ``modulus``."""
    check_carrier_cap(modulus // 2)
    add, mul, labels = even_residue_ring_tables(modulus)
    return from_radical_ring(add, mul, labels=labels, name=f"radical-even-mod-{modulus}")
