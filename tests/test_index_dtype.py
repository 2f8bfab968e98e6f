"""One index dtype: every element-index array is ``INDEX_DTYPE``, and flat codes widen to int64 first."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import _pair_formula, brute_braid_constraints, swap_sigma_entries
from zbrace.braces import (
    DEFAULT_CARRIER_CAP,
    _odd_matrix_pair_verdicts,
    admissible_z,
    cyclic_unit_brace,
    odd_matrix_brace,
    socle,
    trivial_skew_brace,
)
from zbrace.groups import INDEX_DTYPE, cyclic_group
from zbrace.solutions import (
    build_solution,
    derived_rack_certificate,
    inverse_solution,
    pair_map,
    row_inverses,
    sigma_is_left_action,
    verify_braid_constraints,
)
from zbrace.tensor import TwistBundle, _encode, _grid, _sample


def test_every_element_index_array_of_an_odd_matrix_shift_has_the_index_dtype():
    b = odd_matrix_brace()
    s = build_solution(b, 106)
    inv = inverse_solution(s)
    bundle = TwistBundle(s)
    p, legs = _sample(b.order, 1000, 0)
    qa, qc = _pair_formula(bundle.matrix("rF"))(*_grid(0, b.order, b.order, 2))
    indices = {
        "add.table": b.add.table,
        "add.inverses": b.add.inverses,
        "mul.table": b.mul.table,
        "mul.inverses": b.mul.inverses,
        "socle": socle(b),
        "admissible_z": admissible_z(b),
        "sigma": s.sigma,
        "tau": s.tau,
        "inverse sigma": inv.sigma,
        "inverse tau": inv.tau,
        "bundle.sigma": bundle.sigma,
        "bundle.taut": bundle.taut,
        "bundle.sigma_inv": bundle.sigma_inv,
        "bundle.tau_inv": bundle.tau_inv,
        **{f"sample leg {k}": leg for k, leg in enumerate(legs)},
        **{f"grid leg {k}": leg for k, leg in enumerate(_grid(0, 4, b.order))},
        "pair formula legs": np.stack([qa, qc]),
        "F123 row legs": np.stack(bundle.formula("F123")(*legs)),
    }
    assert {name: a.dtype for name, a in indices.items() if a.dtype != INDEX_DTYPE} == {}
    codes = {
        "combined": s.combined,
        "inverse combined": inv.combined,
        "sample points": p,
        "rcheck perm": bundle.matrix("rcheck").perm,
        "F123 perm": bundle.matrix("F123").perm,
    }
    assert {name: a.dtype for name, a in codes.items() if a.dtype != np.int64} == {}


def test_flat_codes_widen_before_the_multiply_at_the_cap():
    n = DEFAULT_CARRIER_CAP
    last = np.array([n - 1], dtype=INDEX_DTYPE)
    code = _encode((last, last, last), n)
    assert code.dtype == np.int64 and code.tolist() == [n**3 - 1]
    assert int(_encode((n - 1, n - 1, n - 1), n)) == n**3 - 1
    # read-only views of one entry: only the n^2 codes themselves are allocated
    table = np.broadcast_to(np.array(n - 1, dtype=INDEX_DTYPE), (n, n))
    codes = pair_map(table, table)
    assert codes.dtype == np.int64 and codes.size == n * n and int(codes[-1]) == n * n - 1


def test_certificates_and_sweeps_read_wide_codes_past_int16():
    # From x = 64 at n = 512, and from x = 164 at n = 200, x * n overflows int16.
    # At n = 256 a wrapped code, read as a negative index, still finds its
    # entry (n^2 = 2^16), so these orders are the ones that show a missed widening.
    s = build_solution(cyclic_unit_brace(10), 3)
    assert s.order == 512
    assert sigma_is_left_action(s) and derived_rack_certificate(s)
    # the swap keeps c1 true and fails its certificate, so all three constraints are swept
    forged = swap_sigma_entries(build_solution(trivial_skew_brace(cyclic_group(200)), 0), 199, 0, 2)
    assert verify_braid_constraints(forged) == brute_braid_constraints(forged)


def test_row_inverses_match_argsort_on_permutation_rows():
    rng = np.random.default_rng(7)
    for n in (1, 5, 256):
        table = np.array([rng.permutation(n) for _ in range(n)], dtype=INDEX_DTYPE)
        inv = row_inverses(table)
        assert inv.dtype == INDEX_DTYPE
        assert np.array_equal(inv, np.argsort(table, axis=1))


@pytest.mark.parametrize("table", ["sigma", "tau"])
@pytest.mark.parametrize("forge", ["repeat", "constant"])
def test_twist_bundle_refuses_a_row_that_is_not_a_permutation(table, forge):
    s = build_solution(odd_matrix_brace(), 168)
    forged = getattr(s, table).copy()
    if forge == "repeat":
        forged[3, 7] = forged[3, 8]  # row 3 misses one value
    else:
        forged[5] = forged[5, 0]  # row 5 is constant
    with pytest.raises(RuntimeError, match=f"^a {table} row is not a permutation$"):
        TwistBundle(dataclasses.replace(s, **{table: forged}))


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_table_and_sample_hold_no_wide_whole_table_temporary():
    # the pair codes are built one entry column at a time in INDEX_DTYPE,
    # and the sample sorts in place and narrows each leg as it is decoded;
    # with int64 temporaries they peaked at 4.5 and 5.1 MiB traced
    _odd_matrix_pair_verdicts.cache_clear()
    assert _traced_peak_mib(_odd_matrix_pair_verdicts) < 1
    _sample.cache_clear()
    assert _traced_peak_mib(lambda: _sample(256, 100_000, 0)) < 4
