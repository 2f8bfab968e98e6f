import numpy as np
import pytest

from oracles import (
    brute_left_distributive_witness,
    brute_right_distributes_at,
    right_distributivity_witness_direct,
    ternary_distributivity_witness,
)
from zbrace.braces import (
    BoundExceededError,
    IdentityMismatchError,
    NotLeftDistributiveError,
    NotRadicalError,
    admissible_z,
    cyclic_unit_brace,
    even_residue_ring_tables,
    from_radical_ring,
    make_skew_brace,
    odd_matrix_brace,
    odd_matrix_entries,
    odd_matrix_pair_criterion,
    product_brace,
    radical_even_brace,
    socle,
    right_distributes_at,
    trivial_skew_brace,
)
from zbrace.groups import cyclic_group, symmetric_group, validate_group


def brace_tables(b):
    return b.add.table.tolist(), b.mul.table.tolist(), b.add.inverses.tolist()


def test_trivial_brace_on_any_group_is_two_sided():
    for g in (cyclic_group(2), cyclic_group(5), symmetric_group(3)):
        b = trivial_skew_brace(g)
        assert b.is_two_sided
        assert b.is_left_brace == g.is_abelian
        assert np.array_equal(b.add.table, b.mul.table)


def test_shifted_odd_addition_with_modular_product_is_a_brace():
    # raw tables for odd residues mod 8: a + b - 1 and a * b
    vals = [1, 3, 5, 7]
    idx = {v: i for i, v in enumerate(vals)}
    add = [[idx[(a + b - 1) % 8] for b in vals] for a in vals]
    mul = [[idx[(a * b) % 8] for b in vals] for a in vals]
    b = make_skew_brace(validate_group(add), validate_group(mul))
    assert b.is_left_brace and b.is_two_sided
    assert brute_left_distributive_witness(*brace_tables(b)) is None


def test_identity_mismatch_is_rejected():
    z4 = cyclic_group(4)
    # Klein table arranged so its identity sits at index 1
    klein = validate_group([[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]])
    assert klein.identity == 1
    with pytest.raises(IdentityMismatchError):
        make_skew_brace(z4, klein)


def test_left_distributivity_failure_witness_matches_brute_force():
    z5 = cyclic_group(5)
    # relabel Z/5 through the transposition (1 2); still a group sharing identity 0,
    # but x -> -a + a o x is no longer additive
    perm = [0, 2, 1, 3, 4]
    twisted = validate_group(
        [[perm[(perm[a] + perm[b]) % 5] for b in range(5)] for a in range(5)]
    )
    with pytest.raises(NotLeftDistributiveError) as err:
        make_skew_brace(z5, twisted)
    expected = brute_left_distributive_witness(
        z5.table.tolist(), twisted.table.tolist(), z5.inverses.tolist()
    )
    assert err.value.witness == expected


def test_cyclic_add_with_klein_circle_is_a_left_brace():
    # the order-4 brace with cyclic addition and Klein circle group (xor tables)
    z4 = cyclic_group(4)
    klein = validate_group([[a ^ b for b in range(4)] for a in range(4)])
    b = make_skew_brace(z4, klein, name="z4-klein")
    assert b.is_left_brace
    assert brute_left_distributive_witness(*brace_tables(b)) is None


def test_cyclic_unit_brace_small_cases():
    b2 = cyclic_unit_brace(2)
    assert b2.order == 2 and b2.labels == ("1", "3")
    b3 = cyclic_unit_brace(3)
    assert b3.order == 4 and b3.labels == ("1", "3", "5", "7")
    b4 = cyclic_unit_brace(4)
    assert b4.order == 8
    for b in (b2, b3, b4):
        assert b.is_left_brace and b.is_two_sided
        assert brute_left_distributive_witness(*brace_tables(b)) is None


def test_cyclic_unit_brace_bounds():
    with pytest.raises(BoundExceededError):
        cyclic_unit_brace(17)
    with pytest.raises(BoundExceededError):
        cyclic_unit_brace(14)  # order 8192 exceeds the default carrier cap
    with pytest.raises(Exception):
        cyclic_unit_brace(1)


def test_radical_ring_brace_on_even_residues_mod8():
    b = radical_even_brace(8)
    assert b.order == 4
    assert b.labels == ("0", "2", "4", "6")
    assert b.is_left_brace and b.is_two_sided
    # adjoint spot values: 2 o 2 = 2*2+2+2 = 8 = 0, 2 o 4 = 8+6 = 14 = 6
    assert b.labels[b.circ(1, 1)] == "0"
    assert b.labels[b.circ(1, 2)] == "6"
    assert [b.labels[i] for i in socle(b)] == ["0", "4"]


def test_zero_ring_gives_trivial_brace():
    add = cyclic_group(4)
    zeros = np.zeros((4, 4), dtype=int)
    b = from_radical_ring(add.table, zeros)
    assert np.array_equal(b.add.table, b.mul.table)


def test_ordinary_z4_multiplication_is_not_radical():
    add = cyclic_group(4)
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(NotRadicalError):
        from_radical_ring(add.table, mul)


def test_even_residues_mod6_are_not_radical():
    add, mul, labels = even_residue_ring_tables(6)
    with pytest.raises(NotRadicalError):
        from_radical_ring(add, mul, labels=labels)


def test_odd_matrix_brace_shape_and_identity():
    om = odd_matrix_brace()
    assert om.order == 256  # four free entries, four values each
    assert om.labels[om.identity] == "[[1,0],[0,1]]"
    assert om.identity == 0
    assert om.is_left_brace and om.is_two_sided


def test_odd_matrix_tables_match_matrix_arithmetic():
    om = odd_matrix_brace()
    rng = np.random.default_rng(5)
    for _ in range(200):
        i, j = int(rng.integers(256)), int(rng.integers(256))
        a = np.array(odd_matrix_entries(i)).reshape(2, 2)
        b = np.array(odd_matrix_entries(j)).reshape(2, 2)
        prod = (a @ b) % 8
        tot = (a + b - np.eye(2, dtype=int)) % 8
        assert odd_matrix_entries(om.circ(i, j)) == tuple(prod.ravel())
        assert odd_matrix_entries(om.plus(i, j)) == tuple(tot.ravel())
        # closure parity: odd diagonal, even off-diagonal
        assert prod[0, 0] % 2 == 1 and prod[1, 1] % 2 == 1
        assert prod[0, 1] % 2 == 0 and prod[1, 0] % 2 == 0


def test_odd_matrix_socle_is_congruence_mod4():
    om = odd_matrix_brace()
    soc = set(socle(om).tolist())
    assert len(soc) == 16
    for i in range(256):
        entries = np.array(odd_matrix_entries(i)).reshape(2, 2)
        in_soc = not ((entries - np.eye(2, dtype=int)) % 4).any()
        assert (i in soc) == in_soc


def test_odd_matrix_pair_criterion_examples():
    # shifts congruent mod 4 satisfy the published pair criterion
    z1 = 0  # identity
    soc = socle(odd_matrix_brace()).tolist()
    assert odd_matrix_pair_criterion(z1, soc[1])
    assert not odd_matrix_pair_criterion(0, 1)


def test_product_brace_orders_and_validation():
    p = product_brace(cyclic_unit_brace(2), trivial_skew_brace(symmetric_group(3), name="trivial-S3"))
    assert p.order == 12
    assert p.is_two_sided and not p.is_left_brace
    q = product_brace(cyclic_unit_brace(3), cyclic_unit_brace(2))
    assert q.order == 8 and q.is_left_brace
    assert brute_left_distributive_witness(*brace_tables(q)) is None


def test_product_with_one_element_brace_is_isomorphic_copy():
    one = trivial_skew_brace(cyclic_group(1), name="one")
    b = cyclic_unit_brace(3)
    p = product_brace(b, one)
    assert np.array_equal(p.add.table, b.add.table)
    assert np.array_equal(p.mul.table, b.mul.table)


def test_product_brace_cap():
    with pytest.raises(BoundExceededError):
        product_brace(cyclic_unit_brace(3), cyclic_unit_brace(3), cap=10)


def test_socle_always_contains_identity():
    for b in (cyclic_unit_brace(3), radical_even_brace(8), trivial_skew_brace(symmetric_group(3))):
        assert b.identity in socle(b).tolist()


def test_socle_of_trivial_brace_on_abelian_group_is_everything():
    b = trivial_skew_brace(cyclic_group(2))
    assert socle(b).tolist() == [0, 1]


def test_cyclic3_socle():
    b = cyclic_unit_brace(3)
    assert [b.labels[i] for i in socle(b)] == ["1", "5"]


def test_admissible_z_full_carrier_for_two_sided():
    for b in (cyclic_unit_brace(3), trivial_skew_brace(symmetric_group(3)), radical_even_brace(8)):
        assert admissible_z(b).tolist() == list(range(b.order))


def test_admissibility_check_matches_brute_force_everywhere():
    braces = [
        cyclic_unit_brace(3),
        radical_even_brace(8),
        trivial_skew_brace(symmetric_group(3)),
        make_skew_brace(
            cyclic_group(4),
            validate_group([[a ^ b for b in range(4)] for a in range(4)]),
            name="z4-klein",
        ),
    ]
    for b in braces:
        add, mul, neg = brace_tables(b)
        for z in range(b.order):
            expected = brute_right_distributes_at(add, mul, neg, z)
            assert (right_distributes_at(b, z) is None) == expected
            assert (right_distributivity_witness_direct(b, z) is None) == expected


def test_identity_is_always_admissible():
    for b in (
        cyclic_unit_brace(3),
        trivial_skew_brace(symmetric_group(3)),
        make_skew_brace(
            cyclic_group(4),
            validate_group([[a ^ b for b in range(4)] for a in range(4)]),
        ),
    ):
        assert b.identity in admissible_z(b).tolist()


def test_ternary_distributivity_lemma_on_families():
    for b in (
        cyclic_unit_brace(3),
        radical_even_brace(8),
        trivial_skew_brace(symmetric_group(3)),
        product_brace(cyclic_unit_brace(2), trivial_skew_brace(symmetric_group(3))),
    ):
        assert ternary_distributivity_witness(b) is None
