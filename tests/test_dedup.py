"""Dedup classes and the published odd-matrix pair criterion against their oracles."""

import numpy as np
import pytest

from oracles import Z6_DIHEDRAL, brute_dedup, brute_odd_matrix_pair_criterion, criterion_pair_tuples
from zbrace.braces import (
    admissible_z,
    cyclic_unit_brace,
    odd_matrix_brace,
    odd_matrix_entries,
    odd_matrix_pair_criterion,
    product_brace,
    radical_even_brace,
    trivial_skew_brace,
)
from zbrace.groups import INDEX_DTYPE, symmetric_group
from zbrace.solutions import InadmissibleZError, build_solution, dedup_solutions

S3_TRIVIAL = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
SMALL = [cyclic_unit_brace(n) for n in range(2, 7)] + [
    radical_even_brace(8),
    radical_even_brace(16),
    S3_TRIVIAL,
    trivial_skew_brace(symmetric_group(4), name="trivial-S4"),
    product_brace(cyclic_unit_brace(2), S3_TRIVIAL),
    Z6_DIHEDRAL,
]


def _odd_index(a, b, c, d):
    """Inverse of odd_matrix_entries for entries reduced mod 8."""
    return ((a % 8) // 2) << 6 | ((b % 8) // 2) << 4 | ((c % 8) // 2) << 2 | (d % 8) // 2


def _parity_criterion(z1, z2):
    # an arbitrary pair verdict, so the pair list's content and order are compared too
    return (z1 + 2 * z2) % 3 == 0


def _assert_matches_oracle(b, zs, criterion):
    expected = brute_dedup(b, zs, pair_criterion=criterion)
    for order in (list(zs), list(reversed(zs))):
        part = dedup_solutions(b, order, pair_criterion=criterion)
        assert (part.classes, criterion_pair_tuples(part.criterion_pairs)) == expected


def _assert_members_build_their_representative(b, classes):
    for cls in classes:
        rep = build_solution(b, cls[0])
        for z in cls[1:]:
            s = build_solution(b, z)
            assert np.array_equal(s.sigma, rep.sigma), (cls[0], z)
            assert np.array_equal(s.tau, rep.tau), (cls[0], z)
            assert np.array_equal(s.combined, rep.combined), (cls[0], z)


@pytest.mark.parametrize("b", SMALL, ids=lambda b: b.name)
def test_dedup_matches_pairwise_oracle_on_small_braces(b):
    zs = admissible_z(b).tolist()
    _assert_matches_oracle(b, zs, _parity_criterion)
    _assert_members_build_their_representative(b, dedup_solutions(b, zs).classes)


def test_dedup_matches_pairwise_oracle_on_every_odd_matrix_shift():
    om = odd_matrix_brace()
    zs = list(range(256))
    _assert_matches_oracle(om, zs, odd_matrix_pair_criterion)
    classes = dedup_solutions(om, zs).classes
    assert len(classes) == 16
    _assert_members_build_their_representative(om, classes)


def test_dedup_matches_pairwise_oracle_on_sampled_odd_matrix_shifts():
    om = odd_matrix_brace()
    rng = np.random.default_rng(1)
    zs = [int(z) for z in rng.choice(256, size=10, replace=False)]
    zs += [zs[0] ^ 0b10000000, zs[1] ^ 0b00100010]  # same matrix mod 4 as an earlier shift
    _assert_matches_oracle(om, zs, odd_matrix_pair_criterion)


@pytest.mark.parametrize("b", [odd_matrix_brace(), cyclic_unit_brace(4)], ids=lambda b: b.name)
def test_criterion_pairs_are_four_arrays_scored_in_one_call(b):
    zs = admissible_z(b).tolist()
    calls = []

    def counted(z1, z2):
        calls.append(len(z1))
        return odd_matrix_pair_criterion(z1, z2)

    pairs = dedup_solutions(b, zs, pair_criterion=counted).criterion_pairs
    assert calls == [len(zs) * (len(zs) - 1) // 2]
    assert [a.dtype for a in pairs] == [INDEX_DTYPE, INDEX_DTYPE, np.bool_, np.bool_]
    assert criterion_pair_tuples(pairs) == brute_dedup(b, zs, pair_criterion=odd_matrix_pair_criterion)[1]
    assert dedup_solutions(b, zs).criterion_pairs is None


def test_memoised_pair_criterion_matches_brute_force_on_every_difference():
    rng = np.random.default_rng(2)
    diffs = [(da, db, dc, dd) for da in range(0, 8, 2) for db in range(0, 8, 2)
             for dc in range(0, 8, 2) for dd in range(0, 8, 2)]
    assert len(diffs) == 256
    for diff in diffs:
        z1 = int(rng.integers(256))
        z2 = _odd_index(*(v + d for v, d in zip(odd_matrix_entries(z1), diff)))
        assert tuple((v2 - v1) % 8 for v1, v2 in zip(odd_matrix_entries(z1), odd_matrix_entries(z2))) == diff
        for pair in ((z1, z2), (z2, z1)):
            assert odd_matrix_pair_criterion(*pair) is brute_odd_matrix_pair_criterion(*pair), (pair, diff)


def test_repeated_shift_is_counted_once():
    b = cyclic_unit_brace(3)
    part = dedup_solutions(b, (1, 0, 1, 3, 0))
    assert part.classes == brute_dedup(b, [0, 1, 3])[0]


def test_inadmissible_shift_is_rejected():
    # 1 is not admissible on the dihedral brace, as build_solution says too
    with pytest.raises(InadmissibleZError):
        build_solution(Z6_DIHEDRAL, 1)
    with pytest.raises(InadmissibleZError):
        dedup_solutions(Z6_DIHEDRAL, [0, 1])
