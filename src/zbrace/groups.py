"""Finite groups given by Cayley tables on dense indices 0..n-1.

Every higher layer consumes only this interface.  Elements are integer
indices; labels are presentation-only.  Validation is eager: a
``FiniteGroup`` instance always satisfies all group axioms, so sweeps
downstream never re-check them.

Every array of element indices (Cayley tables, inverses, and every table
built from them in higher layers) has the one dtype ``INDEX_DTYPE``.
Only flat codes of several indices, such as x*n + y, are int64, and each
is widened explicitly before its multiply: an int16 x times n overflows
from n = 256 on.

``first_difference`` is the one exhaustive sweep: every law checked at
all n^3 points, in any layer, names its row-major first failure with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

# The dtype of every element-index array, and the largest order it indexes.  The carrier
# cap (``braces.DEFAULT_CARRIER_CAP``) stays within it; ``validate_group`` refuses more.
INDEX_DTYPE = np.int16
INDEX_ORDER_MAX = int(np.iinfo(INDEX_DTYPE).max) + 1

# Row block size for chunked O(n^3) scans; keeps peak memory near
# _BLOCK_ELEMS intermediate entries per array.
_BLOCK_ELEMS = 1 << 22


class GroupValidationError(ValueError):
    """A Cayley table failed a group axiom; carries the first witness."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class NotClosedError(GroupValidationError):
    pass


class NoIdentityError(GroupValidationError):
    pass


class NotAssociativeError(GroupValidationError):
    pass


class MissingInverseError(GroupValidationError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


def _as_table(table: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The table as a square integer array, uncopied in its own dtype, so a range check sees every entry unwrapped."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotClosedError(f"table must be square and non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise NotClosedError("table entries must be integers")
    if arr.shape[0] > INDEX_ORDER_MAX:
        raise GroupValidationError(f"order {arr.shape[0]} exceeds {INDEX_ORDER_MAX}, the most an index table holds")
    return arr


def _first_bad_entry(table: np.ndarray) -> tuple[int, int] | None:
    n = table.shape[0]
    bad = (table < 0) | (table >= n)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return int(a), int(b)
    return None


def row_blocks(n: int, block: int = _BLOCK_ELEMS) -> list[tuple[int, int]]:
    """Half-open row ranges [lo, hi) of 0..n-1 holding at most block // n^2 rows each (at least one)."""
    step = max(1, block // max(1, n * n))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def first_difference(
    n: int, sides: Callable[[int, int], tuple[Sequence[np.ndarray], ...]], block: int = _BLOCK_ELEMS
) -> tuple[int, int, int] | None:
    """The row-major first (a, b, c) in 0..n-1 where two sides of a law differ, or None.

    ``sides(lo, hi)`` gives both sides at the rows a in [lo, hi) as two
    equal-length tuples of arrays broadcastable to (hi - lo, n, n); they
    differ where any pair of arrays does.  Rows go in ``row_blocks(n,
    block)`` order, so one block's sides are the largest arrays a sweep holds.
    """
    for lo, hi in row_blocks(n, block):
        left, right = sides(lo, hi)
        differs = left[0] != right[0]
        if len(left) > 1:
            # one array of the full broadcast shape gathers every pair's differences
            differs = np.broadcast_to(differs, np.broadcast(*left, *right).shape).copy()
            for lhs, rhs in zip(left[1:], right[1:]):
                differs |= lhs != rhs
        if differs.any():
            shape = (hi - lo, n, n)
            a, b, c = np.unravel_index(int(np.argmax(np.broadcast_to(differs, shape))), shape)
            return int(a) + lo, int(b), int(c)
    return None


@dataclass(frozen=True)
class FiniteGroup:
    """A validated finite group: Cayley table, identity, inverse table.

    ``generators`` is the greedy generating set that validation found
    (see ``generating_set``); certificates that quantify over a
    multiplicatively closed set of elements check only these.
    """

    order: int
    table: np.ndarray
    identity: int
    inverses: np.ndarray
    labels: tuple[str, ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)

    def op(self, a: int, b: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRangeError(f"element index out of range: ({a}, {b})")
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        if not (0 <= a < self.order):
            raise IndexOutOfRangeError(f"element index out of range: {a}")
        return int(self.inverses[a])

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def label(self, a: int) -> str:
        return self.labels[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.order, self.table.tobytes()))


def validate_group(
    table: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str] | None = None,
) -> FiniteGroup:
    """Validate a Cayley table and return the group.

    Checks run in a fixed order (closure, identity, associativity,
    inverses) and each failure carries the first counterexample in
    row-major scan order, so rejections are reproducible.

    Associativity is proved by Light's test: the g with (x g) y = x (g y)
    for all x, y form a submagma, so checking the generators found by
    ``generating_set`` proves it at every triple, at |gens| n^2 lookups.
    Only when a generator fails does the cubic sweep run, to name the
    row-major first failing triple.
    """
    wide = _as_table(table)
    n = wide.shape[0]

    bad = _first_bad_entry(wide)
    if bad is not None:
        a, b = bad
        raise NotClosedError(
            f"entry table[{a}][{b}] = {int(wide[a, b])} is not an index in [0, {n})",
            witness=(a, b),
        )
    # narrowed only now: an unchecked entry such as 65541 would wrap to a valid index
    t = wide.astype(INDEX_DTYPE)

    idx = np.arange(n)
    e = None
    for cand in range(n):
        if np.array_equal(t[cand], idx) and np.array_equal(t[:, cand], idx):
            e = cand
            break
    if e is None:
        raise NoIdentityError("no two-sided identity element")

    gens = generating_set(t, e)
    if not all(np.array_equal(t[t[:, g]], t[:, t[g]]) for g in gens):
        a, b, c = first_difference(n, lambda lo, hi: ((t[t[lo:hi]],), (t[lo:hi].take(t, axis=1),)))
        raise NotAssociativeError(
            f"associativity fails at (a,b,c)=({a},{b},{c})", witness=(a, b, c)
        )

    inverses = np.full(n, -1, dtype=INDEX_DTYPE)
    for a in range(n):
        hits = np.flatnonzero(t[a] == e)
        two_sided = [int(b) for b in hits if t[b, a] == e]
        if not two_sided:
            raise MissingInverseError(f"element {a} has no two-sided inverse", witness=(a,))
        inverses[a] = two_sided[0]

    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        if len(labels) != n:
            raise NotClosedError(f"got {len(labels)} labels for order {n}")
        label_tuple = tuple(str(x) for x in labels)

    return FiniteGroup(
        order=n, table=t, identity=e, inverses=inverses, labels=label_tuple, generators=gens
    )


def generating_set(t: np.ndarray, e: int) -> tuple[int, ...]:
    """Greedy generators of a closed table with identity ``e``.

    Each generator is the smallest element not yet reached by right
    products e g1 g2 ... of the earlier ones, so the right-multiplication
    closure of the result together with ``e`` is the whole carrier.  In a
    group each generator at least doubles the reached subgroup, so there
    are at most log2(n) of them.
    """
    n = t.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        # Reached elements already absorb the earlier generators; new ones meet all of them.
        frontier, cols = np.flatnonzero(reached), gens[-1:]
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[t[frontier[:, None], cols]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
            cols = gens
    return tuple(gens)


def cyclic_group(n: int) -> FiniteGroup:
    """Additive cyclic group Z/nZ."""
    if n <= 0:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    idx = np.arange(n)
    return validate_group((idx[:, None] + idx[None, :]) % n, labels=[str(i) for i in idx])


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group S_n (n <= 6), elements in lexicographic one-line order."""
    if not (1 <= n <= 6):
        raise ValueError("symmetric_group supports 1 <= n <= 6")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=INDEX_DTYPE)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    labels = ["".join(map(str, p)) for p in elems]
    return validate_group(table, labels=labels)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with pair index a*|g2| + b and labels "(l1,l2)"."""
    n1, n2 = g1.order, g2.order
    a1, b1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    table = g1.table[a1, a2].astype(np.int64) * n2 + g2.table[b1, b2]
    labels = [f"({g1.labels[a]},{g2.labels[b]})" for a in range(n1) for b in range(n2)]
    return validate_group(table, labels=labels)
