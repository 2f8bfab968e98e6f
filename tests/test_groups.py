import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_group_facts
from zbrace.groups import (
    INDEX_ORDER_MAX,
    GroupValidationError,
    IndexOutOfRangeError,
    MissingInverseError,
    NoIdentityError,
    NotAssociativeError,
    NotClosedError,
    cyclic_group,
    direct_product,
    first_difference,
    row_blocks,
    symmetric_group,
    validate_group,
)

ODD_MOD8_MUL = [[(a * b % 8 - 1) // 2 for b in (1, 3, 5, 7)] for a in (1, 3, 5, 7)]


def test_z2_table():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.inverses.tolist() == [0, 1]


def test_constant_rows_have_no_identity():
    with pytest.raises(NoIdentityError):
        validate_group([[0, 1], [0, 1]])


def test_odd_residues_mod8_is_abelian_group_of_self_inverses():
    facts = brute_group_facts(ODD_MOD8_MUL)
    assert facts is not None
    identity, inverses = facts
    g = validate_group(ODD_MOD8_MUL, labels=["1", "3", "5", "7"])
    assert g.order == 4
    assert g.identity == identity == 0
    assert g.inverses.tolist() == inverses == [0, 1, 2, 3]
    assert g.is_abelian


def test_odd_residue_ops():
    g = validate_group(ODD_MOD8_MUL, labels=["1", "3", "5", "7"])
    assert g.labels[g.op(1, 2)] == "7"  # 3*5 = 15 = 7 mod 8
    assert g.labels[g.inv(1)] == "3"  # 3*3 = 9 = 1 mod 8


def test_op_rejects_out_of_range():
    g = cyclic_group(3)
    with pytest.raises(IndexOutOfRangeError):
        g.op(0, 3)
    with pytest.raises(IndexOutOfRangeError):
        g.inv(-1)


def test_not_closed_first_witness():
    with pytest.raises(NotClosedError) as err:
        validate_group([[0, 1], [1, 5]])
    assert err.value.witness == (1, 1)


def test_order_past_the_index_dtype_is_refused_before_any_table_work(monkeypatch):
    import zbrace.groups

    def no_work(*args, **kwargs):
        raise AssertionError("entries read before the order was checked")

    monkeypatch.setattr(zbrace.groups, "_first_bad_entry", no_work)
    n = INDEX_ORDER_MAX + 1
    # a read-only view of one entry: refusing it allocates nothing
    table = np.broadcast_to(np.int64(0), (n, n))
    message = f"^order {n} exceeds {INDEX_ORDER_MAX}, the most an index table holds$"
    with pytest.raises(GroupValidationError, match=message):
        validate_group(table)


def test_not_associative_first_witness_row_major():
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotAssociativeError) as err:
        validate_group(table)
    assert err.value.witness == (1, 1, 2)
    assert brute_group_facts(table) is None


def test_missing_inverse_witness():
    with pytest.raises(MissingInverseError) as err:
        validate_group([[0, 1], [1, 1]])
    assert err.value.witness == (1,)


def test_s3_is_smallest_nonabelian():
    g = symmetric_group(3)
    assert g.order == 6
    assert not g.is_abelian
    assert g.labels[g.identity] == "012"
    facts = brute_group_facts(g.table.tolist())
    assert facts == (g.identity, g.inverses.tolist())


def test_latin_square_property():
    for g in (cyclic_group(5), symmetric_group(3), validate_group(ODD_MOD8_MUL)):
        n = g.order
        idx = np.arange(n)
        assert np.array_equal(np.sort(g.table, axis=1), np.broadcast_to(idx, (n, n)))
        assert np.array_equal(np.sort(g.table, axis=0), np.broadcast_to(idx[:, None], (n, n)))


def test_inverse_map_is_involution():
    for g in (cyclic_group(7), symmetric_group(4), direct_product(cyclic_group(2), cyclic_group(3))):
        assert np.array_equal(g.inverses[g.inverses], np.arange(g.order))


def test_direct_product_orders_and_commutativity():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    assert g.is_abelian
    h = direct_product(cyclic_group(2), symmetric_group(3))
    assert h.order == 12
    assert not h.is_abelian


_POOL = [cyclic_group(4), cyclic_group(6), symmetric_group(3)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_POOL) - 1), st.randoms(use_true_random=False))
def test_relabeled_groups_still_validate(pick, rnd):
    g = _POOL[pick]
    perm = list(range(g.order))
    rnd.shuffle(perm)
    inv = [0] * g.order
    for i, p in enumerate(perm):
        inv[p] = i
    relabeled = [[perm[g.table[inv[a], inv[b]]] for b in range(g.order)] for a in range(g.order)]
    h = validate_group(relabeled)
    assert h.order == g.order
    assert h.is_abelian == g.is_abelian


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, len(_POOL) - 1),
    st.integers(0, 35),
    st.integers(0, 35),
    st.integers(0, 35),
)
def test_single_cell_corruption_is_rejected(pick, a, b, v):
    g = _POOL[pick]
    n = g.order
    a, b, v = a % n, b % n, v % n
    if g.table[a, b] == v:
        v = (v + 1) % n
    bad = g.table.copy()
    bad.setflags(write=True)
    bad[a, b] = v
    with pytest.raises((NoIdentityError, NotAssociativeError, MissingInverseError)):
        validate_group(bad)
    assert brute_group_facts(bad.tolist()) is None


def test_frozen_tables_are_read_only():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


def _brute_first_difference(n, left, right):
    """Row-major scan of every point, each leg read at its broadcast index."""
    def at(leg, a, b, c):
        return leg[tuple(i if size > 1 else 0 for i, size in zip((a, b, c), leg.shape))]

    for a in range(n):
        for b in range(n):
            for c in range(n):
                if any(at(x, a, b, c) != at(y, a, b, c) for x, y in zip(left, right)):
                    return a, b, c
    return None


@pytest.mark.parametrize("n", [5, 7])
def test_first_difference_matches_row_major_scan(n):
    rng = np.random.default_rng(n)
    shapes = [(n, n, n), (n, 1, n), (1, n, 1), (n, n, 1)]
    # one row, several rows (the last block shorter), all rows
    blocks = [n * n, 3 * n * n, n**3]
    for trial in range(40):
        left = [rng.integers(0, 4, size=shape) for shape in shapes[: 1 + trial % 4]]
        right = [leg.copy() for leg in left]
        for _ in range(trial % 3):  # plant up to two differences
            leg = right[rng.integers(len(right))]
            leg[tuple(rng.integers(0, size) for size in leg.shape)] += 1
        expected = _brute_first_difference(n, left, right)
        assert (expected is None) == (trial % 3 == 0)
        for block in blocks:
            calls = []

            def sides(lo, hi):
                calls.append((lo, hi))
                return [leg[lo:hi] if leg.shape[0] > 1 else leg for leg in left], [
                    leg[lo:hi] if leg.shape[0] > 1 else leg for leg in right
                ]

            assert first_difference(n, sides, block) == expected
            # blocks in order, and none after the one that holds the witness
            assert calls == [(lo, hi) for lo, hi in row_blocks(n, block) if expected is None or lo <= expected[0]]
