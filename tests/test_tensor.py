import collections
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from oracles import (
    brute_braid_constraints,
    brute_compare_chains,
    brute_coproduct_commutation,
    brute_coproduct_defect,
    brute_delta_v,
    brute_delta_w,
    brute_r_lift_defects,
    brute_row_map,
    brute_twisted_coproduct,
    sample_shifts_reference,
    seeded_points_reference,
    splitmix64_reference,
    dense_add,
    dense_kron,
    dense_matrix,
    FormerBuilders,
    _pair_formula,
    brute_twisted_solution,
    dense_mult,
    former_matrix,
    identity_matrix,
    is_identity,
    iterated_coproduct_difference,
    lift12,
    lift13,
    lift23,
    matrix_unit,
    permutation_p,
    sparse_perm_difference,
    swap_sigma_entries,
)
from test_certificates import _forged_solutions
from zbrace import reporting, settings, tensor
from zbrace.braces import (
    admissible_z,
    cyclic_unit_brace,
    odd_matrix_brace,
    product_brace,
    radical_even_brace,
    trivial_skew_brace,
)
from zbrace.groups import cyclic_group, row_blocks, symmetric_group
from zbrace.reporting import TENSOR_FAMILIES, tensor_checks
from zbrace.settings import seeded_points, select_shifts, splitmix64
from zbrace.solutions import Check, build_solution
from zbrace.tensor import (
    PermMatrix,
    TwistBundle,
    UnknownObjectError,
    _decode3,
    _encode,
    _grid,
    _lift12,
    _lift13,
    _lift23,
    braid_matrix_check,
    cocycle_check,
    coproduct_commutation_check,
    coproduct_defect,
    export_object,
    lift_commutation_check,
    r_lift_defects,
    twisted_coproduct_check,
    twisted_solution_check,
    ybe_matrix_check,
)

CYCLIC3 = cyclic_unit_brace(3)
S3_TRIVIAL = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
TRIV_INV = trivial_skew_brace(cyclic_group(2), name="trivial-Z2")


def bundle_for(b, z):
    return TwistBundle(build_solution(b, z))


def random_perm_matrix(rng, n, arity):
    return PermMatrix(n, arity, rng.permutation(n**arity).astype(np.int64))


def test_matrix_product_convention_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_perm_matrix(rng, 3, 2)
        b = random_perm_matrix(rng, 3, 2)
        got = dense_matrix((a @ b).perm, 9)
        want = dense_mult(dense_matrix(a.perm, 9), dense_matrix(b.perm, 9))
        assert got == want


def test_inverse_and_tensor_against_dense_oracle():
    rng = np.random.default_rng(8)
    a = random_perm_matrix(rng, 3, 1)
    b = random_perm_matrix(rng, 3, 1)
    assert is_identity(a @ a.inverse())
    got = dense_matrix(a.tensor(b).perm, 9)
    want = dense_kron(dense_matrix(a.perm, 3), dense_matrix(b.perm, 3))
    assert got == want


def test_lifts_against_kron_with_identity():
    rng = np.random.default_rng(9)
    q = random_perm_matrix(rng, 2, 2)
    eye = [[1, 0], [0, 1]]
    dq = dense_matrix(q.perm, 4)
    assert dense_matrix(lift12(q).perm, 8) == dense_kron(dq, eye)
    assert dense_matrix(lift23(q).perm, 8) == dense_kron(eye, dq)
    # leg-13 lift: conjugate the 12 lift by the middle/last swap
    swap23 = identity_matrix(2, 1).tensor(permutation_p(2))
    assert lift13(q).equals(swap23 @ lift12(q) @ swap23)


def test_permutation_p_is_swap_with_diagonal_fixed_points():
    p = bundle_for(TRIV_INV, 0).matrix("P")
    assert p.perm.tolist() == [0, 2, 1, 3]
    assert is_identity(p @ p)


def test_rcheck_matches_matrix_unit_sum():
    s = build_solution(CYCLIC3, 1)
    tb = TwistBundle(s)
    n = 4
    acc = [[0] * 16 for _ in range(16)]
    for x in range(n):
        for y in range(n):
            term = dense_kron(
                matrix_unit(n, x, int(s.sigma[x, y])),
                matrix_unit(n, y, int(s.tau[y, x])),
            )
            acc = dense_add(acc, term)
    assert acc == dense_matrix(tb.matrix("rcheck").perm, 16)


def test_f_and_fhat_match_their_matrix_unit_sums():
    s = build_solution(CYCLIC3, 1)
    tb = TwistBundle(s)
    n = 4
    f_acc = [[0] * 16 for _ in range(16)]
    fh_acc = [[0] * 16 for _ in range(16)]
    for x in range(n):
        v_x = dense_matrix(tb.matrix("V", x).perm, n)
        w_x = dense_matrix(tb.matrix("W", x).perm, n)
        f_acc = dense_add(f_acc, dense_kron(matrix_unit(n, x, x), v_x))
        fh_acc = dense_add(fh_acc, dense_kron(w_x, matrix_unit(n, x, x)))
    assert f_acc == dense_matrix(tb.matrix("F").perm, 16)
    assert fh_acc == dense_matrix(tb.matrix("Fhat").perm, 16)


def test_v_and_w_are_the_sigma_and_tau_unit_sums():
    s = build_solution(CYCLIC3, 1)
    tb = TwistBundle(s)
    n = 4
    for x in range(n):
        acc = [[0] * n for _ in range(n)]
        for y in range(n):
            acc = dense_add(acc, matrix_unit(n, int(s.sigma[x, y]), y))
        assert acc == dense_matrix(tb.matrix("V", x).perm, n)
        acc = [[0] * n for _ in range(n)]
        for e in range(n):
            acc = dense_add(acc, matrix_unit(n, int(s.tau[x, e]), e))
        assert acc == dense_matrix(tb.matrix("W", x).perm, n)


def test_r_equals_p_times_rcheck():
    tb = bundle_for(CYCLIC3, 1)
    assert tb.matrix("r").equals(tb.matrix("P") @ tb.matrix("rcheck"))


def test_braid_relation_for_solution_matrix():
    for b, zs in ((CYCLIC3, range(4)), (S3_TRIVIAL, range(6))):
        for z in zs:
            tb = bundle_for(b, z)
            assert braid_matrix_check(tb).status == "pass"
            assert ybe_matrix_check(tb).status == "pass"


def test_involutive_case_squares_to_identity():
    tb = bundle_for(CYCLIC3, 0)
    rc = tb.matrix("rcheck")
    assert is_identity(rc @ rc)


def test_one_element_brace_matrices_are_scalar_identity():
    one = trivial_skew_brace(cyclic_group(1), name="one")
    tb = bundle_for(one, 0)
    assert tb.matrix("rcheck").size == 1 and is_identity(tb.matrix("rcheck"))
    assert braid_matrix_check(tb).status == "pass"


def test_bundle_members_are_bijections():
    tb = bundle_for(CYCLIC3, 1)
    idx2 = np.arange(16)
    idx3 = np.arange(64)
    for op in (tb.matrix("rcheck"), tb.matrix("F"), tb.matrix("Fhat"), tb.matrix("DeltaV", 2), tb.matrix("DeltaW", 3)):
        assert np.array_equal(np.sort(op.perm), idx2)
    for name in ("F_1_23", "Fstar_12_3", "Fhatstar_1_23", "Fhat_12_3", "F123", "Fhat123"):
        assert np.array_equal(np.sort(tb.matrix(name).perm), idx3)
    for x in range(4):
        inv = tb.matrix("V", x) @ tb.matrix("V", x).inverse()
        assert is_identity(inv)


def test_coproduct_commutation_holds():
    for b, z in ((CYCLIC3, 1), (TRIV_INV, 0), (S3_TRIVIAL, 2)):
        assert coproduct_commutation_check(bundle_for(b, z)).status == "pass"


def test_coproduct_commutation_fails_for_mismatched_shift():
    # coproducts taken from one shift do not commute with the solution
    # matrix of another (on cyclic2n-3 the two shift classes happen to be
    # too close, so this is probed on the S3 instance)
    tb = bundle_for(S3_TRIVIAL, 0)
    rc_other = bundle_for(S3_TRIVIAL, 1).matrix("rcheck")
    mismatch = None
    for x in range(6):
        dv = tb.matrix("DeltaV", x)
        if not (dv @ rc_other).equals(rc_other @ dv):
            mismatch = (x, int(np.flatnonzero((dv @ rc_other).perm != (rc_other @ dv).perm)[0]))
            break
    assert mismatch is not None


def _forged_bundle(s, **tables):
    """The bundle of ``s`` with replaced tables, at a shift whose socle criterion agrees with them.

    ``solution.involutive`` cross-checks the tables' own r o r = id test
    against the socle criterion at the solution's shift, and raises where
    they disagree.  A forgery keeps the shift of ``s`` where they agree,
    and else takes the first shift that does.
    """
    forged = dataclasses.replace(s, **tables)
    b, n = forged.brace, forged.order
    direct = np.array_equal(forged.combined[forged.combined], np.arange(n * n))
    agree = [z for z in range(n) if (b.is_left_brace and z in b.socle_members) == direct]
    return TwistBundle(forged if forged.z in agree else dataclasses.replace(forged, z=agree[0]))


def _forged_bundles():
    """sigma from one shift, tau from another: every ordered pair of shifts."""
    for b in (S3_TRIVIAL, cyclic_unit_brace(4)):
        sols = [build_solution(b, z) for z in range(b.order)]
        for s0 in sols:
            for s1 in sols:
                yield _forged_bundle(s0, tau=s1.tau)


def _failing_families(checks):
    return {(c.name, c.witness["family"]) for c in checks if c.status == "fail"}


def test_delta_v_and_w_match_their_scattered_definitions():
    for b, z in ((CYCLIC3, 1), (S3_TRIVIAL, 4), (cyclic_unit_brace(4), 3)):
        tb = bundle_for(b, z)
        for x in range(b.order):
            assert tb.matrix("DeltaV", x).equals(brute_delta_v(tb, x))
            assert tb.matrix("DeltaW", x).equals(brute_delta_w(tb, x))


def test_twisted_coproduct_witnesses_match_oracle_on_forged_bundles():
    seen = []
    for tb in _forged_bundles():
        got = twisted_coproduct_check(tb)
        assert got == brute_twisted_coproduct(tb)
        seen.extend(got)
    # every family fails somewhere, so the witnesses above are exercised
    assert {name for name, _ in _failing_families(seen)} == {
        "group-like:V", "group-like:W", "mixed-coproduct:F-on-W", "mixed-coproduct:Fhat-on-V",
    }


def test_coproduct_commutation_witnesses_match_oracle_on_forged_bundles():
    seen = []
    for tb in _forged_bundles():
        got = coproduct_commutation_check(tb)
        assert got == brute_coproduct_commutation(tb)
        seen.append(got)
    assert _failing_families(seen) == {("coproduct-commutation", "V"), ("coproduct-commutation", "W")}


def _outcome(check, tb):
    try:
        return check(tb)
    except RuntimeError as exc:
        return str(exc)


def _random_table_bundles():
    """Bundles on random sigma and tau rows, 40 per brace."""
    rng = np.random.default_rng(5)
    for b in (CYCLIC3, S3_TRIVIAL):
        base = build_solution(b, 0)
        n = b.order
        for _ in range(40):
            sigma = np.array([rng.permutation(n) for _ in range(n)])
            tau = np.array([rng.permutation(n) for _ in range(n)])
            yield _forged_bundle(base, sigma=sigma, tau=tau)


def _c1_c2_bundles():
    """Tables on which c1 and c2 hold, so that c3 can fail alone.

    With sigma_x = s and tau_y = t for every x and y, c3 holds exactly when
    s and t commute, and both twisted matrices braid either way.  With
    sigma_0 = id, sigma_x = (2 3) for x != 0 and tau_y = (1 2) on four
    points, c3 fails and so does each twisted braid.
    """
    rng = np.random.default_rng(6)
    for b in (CYCLIC3, S3_TRIVIAL):
        base = build_solution(b, 0)
        n = b.order
        for _ in range(6):
            s, t = rng.permutation(n), rng.permutation(n)
            yield _forged_bundle(base, sigma=np.tile(s, (n, 1)), tau=np.tile(t, (n, 1)))
    sigma = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [0, 1, 3, 2], [0, 1, 3, 2]])
    tau = np.tile([0, 2, 1, 3], (4, 1))
    yield _forged_bundle(build_solution(CYCLIC3, 0), sigma=sigma, tau=tau)


def test_fused_checks_match_oracle_on_random_permutation_tables():
    # random sigma/tau rows: the mixed closed forms often stop being
    # bijections, which both paths must report as the same error
    outcomes = set()
    for tb in _random_table_bundles():
        got = _outcome(twisted_coproduct_check, tb)
        assert got == _outcome(brute_twisted_coproduct, tb)
        assert _outcome(coproduct_commutation_check, tb) == _outcome(brute_coproduct_commutation, tb)
        outcomes.add("raise" if isinstance(got, str) else tuple(c.status for c in got))
    assert "raise" in outcomes and ("fail", "fail", "fail", "fail") in outcomes


# the braid constraints each proved check follows from; every check but
# the twisted braids holds exactly where its constraints all do
_CHECK_CONSTRAINTS = {
    "group-like:V": ("c1",),
    "group-like:W": ("c2",),
    "mixed-coproduct:F-on-W": ("c3",),
    "mixed-coproduct:Fhat-on-V": ("c3",),
    "coproduct-commutation": ("c1", "c2", "c3"),
    "matrix-braid": ("c1", "c2", "c3"),
    "matrix-ybe": ("c1", "c2", "c3"),
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
}


def _swapped_bundles():
    """Each forged bundle, then its mirror r -> P r P (sigma and tau exchanged), which trades c1 for c2."""
    for tb in _forged_bundles():
        yield tb
        s = tb.solution
        yield _forged_bundle(s, sigma=s.tau, tau=s.sigma)


def test_coproduct_families_are_decided_by_their_braid_constraints():
    seen = set()
    for tb in (*_swapped_bundles(), *_random_table_bundles(), *_c1_c2_bundles()):
        holds = {r.name: r.ok for r in brute_braid_constraints(tb.solution)}
        want = {name: all(holds[c] for c in cs) for name, cs in _CHECK_CONSTRAINTS.items()}
        commutation = coproduct_commutation_check(tb)
        assert commutation == brute_coproduct_commutation(tb)
        got = {commutation.name: commutation.ok}
        try:
            checks = twisted_coproduct_check(tb)
        except RuntimeError:
            # only a failing mixed family materializes a closed form
            assert not holds["c3"]
            with pytest.raises(RuntimeError, match="bijection"):
                brute_twisted_coproduct(tb)
        else:
            assert checks == brute_twisted_coproduct(tb)
            got.update((c.name, c.ok) for c in checks)
        assert got == {name: want[name] for name in got}
        seen.add(tuple(holds.values()))
    # each constraint fails while another holds, so a family decided by
    # the wrong constraint gives the wrong status somewhere
    assert {
        (False, True, False), (False, True, True), (True, False, False), (True, False, True), (True, True, False),
    } <= seen


def test_proved_coproduct_families_touch_no_element(monkeypatch):
    # every per-element test materializes an operator or compares arrays
    calls = collections.Counter()
    real_matrix, real_equal = TwistBundle.matrix, np.array_equal

    def matrix(bundle, name, *args):
        calls[name] += 1
        return real_matrix(bundle, name, *args)

    def array_equal(*args):
        calls["array_equal"] += 1
        return real_equal(*args)

    monkeypatch.setattr(TwistBundle, "matrix", matrix)
    monkeypatch.setattr(np, "array_equal", array_equal)
    for b in (CYCLIC3, S3_TRIVIAL, cyclic_unit_brace(4)):
        for z in range(b.order):
            tb = bundle_for(b, z)
            assert all(r.ok for r in tb.solution.braid_constraints)
            calls.clear()
            checks = [coproduct_commutation_check(tb), *twisted_coproduct_check(tb)]
            assert all(c.status == "pass" for c in checks)
            assert not calls
    # a shift whose constraints fail still runs the per-element loop
    s = build_solution(S3_TRIVIAL, 0)
    forged = TwistBundle(dataclasses.replace(s, tau=build_solution(S3_TRIVIAL, 1).tau))
    assert coproduct_commutation_check(forged).status == "fail"
    assert calls["DeltaV"] > 0


def test_bundle_rejects_rows_that_are_not_permutations():
    s = build_solution(CYCLIC3, 1)
    sigma = s.sigma.copy()
    sigma[2, 0] = sigma[2, 1]
    tau = s.tau.copy()
    tau[1, 3] = tau[1, 2]
    for forged in (dataclasses.replace(s, sigma=sigma), dataclasses.replace(s, tau=tau)):
        with pytest.raises(RuntimeError, match="not a permutation"):
            twisted_coproduct_check(TwistBundle(forged))
        with pytest.raises(RuntimeError, match="not a permutation"):
            coproduct_commutation_check(TwistBundle(forged))


def test_lift_commutation_and_cocycle():
    # shift index 1 is the element labelled 3 in the modulus-16 family
    for b, z in ((CYCLIC3, 1), (S3_TRIVIAL, 3), (cyclic_unit_brace(4), 1)):
        tb = bundle_for(b, z)
        assert all(c.status == "pass" for c in lift_commutation_check(tb))
        assert all(c.status == "pass" for c in cocycle_check(tb))


def test_cocycle_factorizations_equal_materialized_products():
    tb = bundle_for(CYCLIC3, 1)
    f12 = lift12(tb.matrix("F"))
    f23 = lift23(tb.matrix("F"))
    lhs = f12 @ tb.matrix("Fstar_12_3")
    rhs = f23 @ tb.matrix("F_1_23")
    closed = tb.matrix("F123")
    assert lhs.equals(rhs) and lhs.equals(closed)
    fh12 = lift12(tb.matrix("Fhat"))
    fh23 = lift23(tb.matrix("Fhat"))
    lhs = fh12 @ tb.matrix("Fhat_12_3")
    rhs = fh23 @ tb.matrix("Fhatstar_1_23")
    assert lhs.equals(rhs) and lhs.equals(tb.matrix("Fhat123"))


def test_twisted_solution_closed_forms_and_braid():
    for b, z in ((CYCLIC3, 1), (S3_TRIVIAL, 2)):
        tb = bundle_for(b, z)
        for check in twisted_solution_check(tb):
            assert check.status == "pass", check


def test_involutive_collapse_to_flip():
    for b, z in ((TRIV_INV, 0), (TRIV_INV, 1), (CYCLIC3, 0), (CYCLIC3, 2)):
        tb = bundle_for(b, z)
        flip = tb.matrix("P")
        assert tb.matrix("rF").equals(flip)
        assert tb.matrix("rFhat").equals(flip)
        names = {c.name for c in twisted_solution_check(tb)}
        assert "involutive-collapse:F" in names and "involutive-collapse:Fhat" in names


def _twisted_solution_cases():
    """Every shift of the small built-in braces, two odd-matrix shifts and the forged bundles that build."""
    small = (
        *(cyclic_unit_brace(n) for n in range(3, 7)),
        S3_TRIVIAL,
        radical_even_brace(8),
        product_brace(cyclic_unit_brace(2), S3_TRIVIAL),
    )
    for b in small:
        for z in admissible_z(b).tolist():
            yield bundle_for(b, z)
    odd = odd_matrix_brace()
    yield bundle_for(odd, 168)
    yield bundle_for(odd, 106)
    yield _unproved_braided_bundle()
    for s in _forged_solutions():
        try:
            yield TwistBundle(s)
        except RuntimeError:
            pass  # a sigma or tau row that is not a permutation: no bundle


def test_twisted_solution_derivations_match_materialized_oracle():
    # the closed forms and the collapse are derived, and the braids lift
    # rF and rFhat; the oracle materializes each conjugation and compares
    outcomes = collections.Counter()
    for tb in _twisted_solution_cases():
        for kw in ({}, {"budget": 1, "sample_points": 64, "seed": 3}):
            got = _outcome(lambda b: twisted_solution_check(b, **kw), tb)
            assert got == _outcome(lambda b: brute_twisted_solution(b, **kw), tb)
            if isinstance(got, str):
                # a forged pair map whose involutivity disagrees with the socle criterion
                assert got.startswith("direct involutivity test"), got
                continue
            outcomes["collapse"] += any(c.name.startswith("involutive-collapse:") for c in got)
            outcomes["compared"] += not all(r.ok for r in tb.solution.braid_constraints)
            outcomes.update(f"braid {c.status}" for c in got if c.name.startswith("twisted-braid:"))
    assert outcomes["collapse"] and outcomes["compared"]
    assert outcomes["braid pass"] and outcomes["braid fail"] and outcomes["braid sampled"]


def test_trivial_involutive_bundle_is_all_identities():
    tb = bundle_for(TRIV_INV, 0)
    assert is_identity(tb.matrix("F"))
    assert is_identity(tb.matrix("Fhat"))
    for x in range(2):
        assert is_identity(tb.matrix("V", x))
        assert is_identity(tb.matrix("DeltaV", x))
        assert is_identity(tb.matrix("DeltaW", x))


def test_group_likeness_and_mixed_coproducts():
    for b, z in ((CYCLIC3, 1), (S3_TRIVIAL, 4), (TRIV_INV, 1)):
        tb = bundle_for(b, z)
        for check in twisted_coproduct_check(tb):
            assert check.status == "pass", check


def test_coassociativity_defect_zero_for_trivial_involutive():
    tb = bundle_for(TRIV_INV, 0)
    for eta in range(2):
        check = coproduct_defect(tb, eta)
        sparse = iterated_coproduct_difference(tb, eta)
        assert check.status == "pass"
        assert sparse is not None and sparse.nnz == 0
    assert all(c.status == "pass" for c in r_lift_defects(tb))


def test_coassociativity_defect_nonzero_for_cyclic3_shift3():
    tb = bundle_for(CYCLIC3, 1)
    r_checks = r_lift_defects(tb)
    assert any(c.status == "fail" for c in r_checks)
    failing = next(c for c in r_checks if c.status == "fail")
    assert failing.witness is not None and "triple" in failing.witness


def test_coassociativity_v_side_nonzero_somewhere_on_s3():
    tb = bundle_for(S3_TRIVIAL, 1)
    nonzero = []
    for eta in range(6):
        check = coproduct_defect(tb, eta)
        sparse = iterated_coproduct_difference(tb, eta)
        if check.status == "fail":
            nonzero.append(eta)
            assert sparse is not None and sparse.nnz > 0
            # entries of the sparse difference must be +1/-1 pairs per row
            vals = {}
            for r, c, v in sparse.entries:
                vals.setdefault(r, []).append(v)
            assert all(sorted(v) == [-1, 1] for v in vals.values())
    assert nonzero


def test_sparse_difference_roundtrip():
    a = PermMatrix(2, 1, np.array([0, 1]))
    b = PermMatrix(2, 1, np.array([1, 0]))
    d = sparse_perm_difference(a, b)
    assert d.nnz == 4
    assert d.entries == ((0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1))


def _unproved_braided_bundle():
    """sigma of cyclic2n n=4 at shift 0 with tau of shift 1.

    Every braid constraint fails, so no twisted braid is proved, yet both
    twisted matrices braid at every point.  The forged solution keeps
    shift 1, outside the socle, so its involutivity cross-check holds.
    """
    b = cyclic_unit_brace(4)
    sigma, s = build_solution(b, 0).sigma, build_solution(b, 1)
    return TwistBundle(dataclasses.replace(s, sigma=sigma))


def _twisted_braids(tb, **kw):
    return [c for c in twisted_solution_check(tb, **kw) if c.name.startswith("twisted-braid:")]


def test_sampled_mode_reports_sampled_status():
    tb = _unproved_braided_bundle()
    assert not any(r.ok for r in tb.solution.braid_constraints)
    for check in _twisted_braids(tb, budget=1, sample_points=32, seed=0):
        assert check.status == "sampled"
        assert 0 < check.points <= 32


def test_oddmatrix_tensor_checks_run_sampled_under_default_budget(monkeypatch):
    # one swapped pair of sigma entries breaks c1 and c3 but keeps c2: the
    # checks that follow from c2 alone are proved at n^3 points, and the
    # others run on the seeded sample, whose failures the oracle confirms
    s = swap_sigma_entries(build_solution(odd_matrix_brace(), 37), 200, 3, 9)
    assert [r.ok for r in s.braid_constraints] == [False, True, False]
    tb = TwistBundle(s)
    kw = {"sample_points": 20_000, "seed": 1}
    got = [*lift_commutation_check(tb, **kw), *cocycle_check(tb, **kw)]
    with monkeypatch.context() as m:
        m.setattr(tensor, "_compare_chains", brute_compare_chains)
        assert got == [*lift_commutation_check(tb, **kw), *cocycle_check(tb, **kw)]
    proved = {
        "lift-commutation:rc23-with-Fhatstar_1_23",
        "cocycle:F-closed-form",
        "cocycle:Fhat-factorizations",
        "cocycle:Fhat-closed-form",
    }
    draws = seeded_points(256**3, 20_000, 1).size
    for c in got:
        if c.name in proved:
            assert (c.status, c.points) == ("pass", 256**3), c
        else:
            assert c.status in ("sampled", "fail") and c.points == draws, c


def test_export_object_names():
    tb = bundle_for(CYCLIC3, 1)
    for name in ("rcheck", "r", "P", "F", "Fhat", "rF", "rFhat", "F123", "Fhat123"):
        m = export_object(tb, name)
        assert np.array_equal(np.sort(m.perm), np.arange(m.size))
    assert export_object(tb, "V:1").equals(tb.matrix("V", 1))
    assert export_object(tb, "DeltaW:2").equals(tb.matrix("DeltaW", 2))
    bad_names = ("V", "V:", "V:x", "V:9", "V: 2", "V:+2", "V:\u0663", "V:1_0", "rcheck:1", "rcheck:", "F123:", "nonsense")
    for bad in bad_names:
        with pytest.raises(UnknownObjectError):
            export_object(tb, bad)


def test_row_maps_match_decoded_maps():
    rng = np.random.default_rng(11)
    for b, z in ((CYCLIC3, 1), (S3_TRIVIAL, 4), (cyclic_unit_brace(4), 3)):
        tb = bundle_for(b, z)
        n = tb.n
        formulas = {name: tb.formula(name) for name, op in tb.ops.items() if op.arity == 3 and not op.parametric}
        for eta in range(n):
            for bracketing in ("left", "right"):
                formulas[f"DeltaV-{bracketing}:{eta}"] = tb.formula(f"DeltaV-{bracketing}", eta)
        q = random_perm_matrix(rng, n, 2)
        pair = _pair_formula(q)
        formulas.update({"pair12": _lift12(pair), "pair23": _lift23(pair), "pair13": _lift13(pair)})

        def grid_map(fn):
            # one row e per block, as the exhaustive comparison sees the grid
            blocks = [_grid(lo, hi, n) for lo, hi in row_blocks(n, n * n)]
            return np.concatenate([np.broadcast_to(_encode(fn(*g), n), (1, n, n)).ravel() for g in blocks])

        for name, fn in formulas.items():
            assert np.array_equal(grid_map(fn), brute_row_map(fn, n)), name
        # the lifted pair formulas are the permutation-level lifts of q
        for lift, oracle in (("pair12", lift12), ("pair23", lift23), ("pair13", lift13)):
            assert np.array_equal(grid_map(formulas[lift]), oracle(q).perm), lift
        for name in ("F123", "Fhat123"):
            assert np.array_equal(tb.matrix(name).perm, brute_row_map(formulas[name], n))


def _operators_against_former_builders(tb, elements):
    """Each table operator, at each of ``elements`` if it takes one, against its former builder.

    Yields (name, outcome): "equal", or "raise" where both sides raise the
    same RuntimeError (a mixed closed form that is not a bijection).
    """
    for name, op in tb.ops.items():
        for x in elements if op.parametric else [None]:
            try:
                want = former_matrix(tb, name, x)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=f"^{exc}$"):
                    tb.matrix(name, x)
                yield name, "raise"
                continue
            assert tb.matrix(name, x).equals(want), (name, x)
            yield name, "equal"


def test_materializer_matches_former_builders(monkeypatch):
    # 16-point blocks: arity-2 and arity-3 maps fill over several row blocks
    monkeypatch.setattr(tensor, "BLOCK_POINTS", 16)
    real = [bundle_for(b, z) for b in (*map(cyclic_unit_brace, range(2, 6)), S3_TRIVIAL) for z in range(b.order)]
    for tb in real:
        outcomes = set(_operators_against_former_builders(tb, range(tb.n)))
        assert {outcome for _, outcome in outcomes} == {"equal"}
        assert {name for name, _ in outcomes} == set(tb.ops)
    # on random tables the mixed closed forms are often not bijections
    raised = set()
    for tb in (*_forged_bundles(), *_random_table_bundles()):
        raised.update(name for name, outcome in _operators_against_former_builders(tb, range(tb.n)) if outcome == "raise")
    assert raised == {"F-on-W", "Fhat-on-V"}


def test_materializer_matches_former_builders_on_odd_matrix_shifts():
    # every arity-1 and arity-2 operator at every element; an arity-3 map has
    # n^3 = 2^24 rows, so the formulas that are not lifts run at one shift and
    # one element, and are decoded point by point on their first and last rows
    b = odd_matrix_brace()
    eta = next(i for i in range(b.order) if i != b.identity)
    for z in (1, 128):
        tb = bundle_for(b, z)
        for name, op in tb.ops.items():
            if op.arity < 3:
                for x in range(tb.n) if op.parametric else [None]:
                    assert tb.matrix(name, x).equals(former_matrix(tb, name, x)), (name, x)
    former = FormerBuilders(tb)
    formulas = {
        **{name: f for name, f in former._pointwise().items() if name[-2:] not in ("12", "23", "13")},
        "split-r-left": former.split_r("left"),
        "split-r-right": former.split_r("right"),
        "DeltaV-right": former.iterated_delta_v(eta, "right"),
        "DeltaV-left": former.iterated_delta_v(eta, "left"),
    }
    n = tb.n
    rows = np.r_[0 : 2 * n * n, (n - 2) * n * n : n**3]
    for name, fn in formulas.items():
        got = tb.matrix(name, eta if tb.ops[name].parametric else None).perm
        assert np.array_equal(got[rows], _encode(fn(*_decode3(rows, n)), n)), name


def test_splitting_primitives_invert_their_coproducts():
    for tb in (*_real_bundles(), *_forged_bundles()):
        p, a, b = _grid(0, tb.n, tb.n)
        for split, delta in (("D_V", "DeltaV"), ("D_W", "DeltaW")):
            got = tb.formula(split, p)(*tb.formula(delta, p)(a, b))
            assert all(np.array_equal(*np.broadcast_arrays(g, w)) for g, w in zip(got, (a, b)))


def test_bundle_is_freed_without_the_cycle_collector():
    # each shift's bundle holds several n^2 tables; a formula that closed
    # over the bundle would keep it alive until the collector ran
    gc.disable()
    try:
        tb = bundle_for(CYCLIC3, 1)
        tb.matrix("F123")
        ref = weakref.ref(tb)
        del tb
        assert ref() is None
    finally:
        gc.enable()


def _report_checks(tb, **kw):
    return [c for _, c in tensor_checks(tb, TENSOR_FAMILIES, **kw)]


def test_exhaustive_report_checks_match_block_oracle(monkeypatch):
    # the oracle decodes 16 points at a time, so witnesses also come from
    # later blocks; forged and mirrored tables fail each constraint, so the
    # checks that follow from it reach the sweep
    kw = {"budget": 1 << 22, "sample_points": 64, "seed": 3}
    chain_checks = []

    def oracle(name, *args):
        check = brute_compare_chains(name, *args, block=16)
        chain_checks.append(check)
        return check

    def probe_oracle(brute):
        def run(*args, **kwargs):
            checks = brute(*args, **kwargs, block=16)
            chain_checks.extend(checks if isinstance(checks, list) else [checks])
            return checks
        return run

    for tb in _swapped_bundles():
        got = _report_checks(tb, **kw)
        with monkeypatch.context() as m:
            m.setattr(tensor, "_compare_chains", oracle)
            # the probes decide their chains without comparing them; the report reaches them by name
            m.setattr(reporting, "coproduct_defect", probe_oracle(brute_coproduct_defect))
            m.setattr(reporting, "r_lift_defects", probe_oracle(brute_r_lift_defects))
            want = _report_checks(tb, **kw)
        assert got == want
        assert all(c.status != "sampled" for c in got)
    failing = {c.name for c in chain_checks if c.status == "fail"}
    assert {"matrix-braid", "matrix-ybe", "twisted-braid:F", "twisted-braid:Fhat"} <= failing
    assert any(name.startswith("lift-commutation:") for name in failing)
    assert any(c.witness["point"] >= 16 for c in chain_checks if c.status == "fail")


def test_chain_checks_spanning_many_grid_blocks_match_oracle(monkeypatch):
    # 100-point blocks hold one row of e for n = 8 and two for n = 6, so
    # the forged bundles' comparisons run over several blocks; with the
    # proofs off every chain check is compared
    kw = {"budget": 1 << 22, "sample_points": 64, "seed": 3}
    compared = []
    real = tensor._compare_chains

    def recorded(name, n, *args):
        check = real(name, n, *args)
        compared.append((n, check))
        return check

    def checks(tb, defect=coproduct_defect, lifts=r_lift_defects):
        defects = [defect(tb, eta, **kw) for eta in range(tb.n)]
        return [*_chain_checks(tb, **kw), *lifts(tb, **kw), *defects]

    for tb in (*_swapped_bundles(), *_c1_c2_bundles()):
        with monkeypatch.context() as m:
            m.setattr(tensor, "BLOCK_POINTS", 100)
            m.setattr(tensor, "_proved", lambda bundle, name: False)
            m.setattr(tensor, "_compare_chains", recorded)
            got = checks(tb)
            m.setattr(tensor, "_compare_chains", brute_compare_chains)
            assert got == checks(tb, brute_coproduct_defect, brute_r_lift_defects)
    assert len(compared) > 1000 and all(c.status != "sampled" for _, c in compared)
    first_block = {n: row_blocks(n, 100)[0][1] * n * n for n, _ in compared}
    later_witnesses = sum(c.status == "fail" and c.witness["point"] >= first_block[n] for n, c in compared)
    assert later_witnesses


def test_budget_boundary_between_exhaustive_and_sampled(monkeypatch):
    tb = _unproved_braided_bundle()
    total = tb.n**3
    full = _twisted_braids(tb, budget=total)[0]
    assert full.status == "pass" and full.points == total
    kw = {"budget": total - 1, "sample_points": 200, "seed": 4}
    got = [*_twisted_braids(tb, **kw), *r_lift_defects(tb, **kw)]
    with monkeypatch.context() as m:
        m.setattr(tensor, "_compare_chains", brute_compare_chains)
        want = [*_twisted_braids(tb, **kw), *brute_r_lift_defects(tb, **kw)]
    assert got == want
    draws = seeded_points(total, 200, 4).size
    assert got[0].status == "sampled" and got[0].points == draws
    assert got[2].status == "fail" and got[2].witness is not None
    # a proved check passes at every point on either side of the boundary
    real = bundle_for(cyclic_unit_brace(4), 3)
    for budget in (total, total - 1):
        assert braid_matrix_check(real, budget=budget) == Check("matrix-braid", "pass", total)


def _chain_checks(tb, **kw):
    """The chain checks that braid constraints prove, in report order."""
    return [
        braid_matrix_check(tb, **kw),
        ybe_matrix_check(tb, **kw),
        *lift_commutation_check(tb, **kw),
        *cocycle_check(tb, **kw),
        *_twisted_braids(tb, **kw),
    ]


def _real_bundles():
    for b in (CYCLIC3, S3_TRIVIAL, cyclic_unit_brace(4)):
        for z in range(b.order):
            yield bundle_for(b, z)


def test_chain_checks_are_decided_by_their_braid_constraints(monkeypatch):
    kw = {"budget": 1 << 22, "sample_points": 64, "seed": 3}
    seen = set()
    braided_without_constraints = 0
    for tb in (*_swapped_bundles(), *_random_table_bundles(), *_c1_c2_bundles(), *_real_bundles()):
        holds = {r.name: r.ok for r in brute_braid_constraints(tb.solution)}
        got = _chain_checks(tb, **kw)
        with monkeypatch.context() as m:
            m.setattr(tensor, "_proved", lambda bundle, name: False)
            m.setattr(tensor, "_compare_chains", brute_compare_chains)
            assert got == _chain_checks(tb, **kw)
        for c in got:
            premises = all(holds[k] for k in _CHECK_CONSTRAINTS[c.name])
            if c.name.startswith("twisted-braid:"):
                assert c.ok or not premises, c
            else:
                assert c.ok == premises, c
        seen.add(tuple(holds.values()))
        braided_without_constraints += not any(holds.values()) and all(c.ok for c in got[-2:])
    # each constraint fails while another holds, so a check proved from
    # the wrong constraints gives the wrong verdict somewhere
    assert {
        (False, True, False), (False, True, True), (True, False, False), (True, False, True), (True, True, False),
    } <= seen
    # the twisted braids also hold where no constraint does; the sweep decides those
    assert braided_without_constraints


def test_proved_chain_checks_evaluate_no_point(monkeypatch):
    calls = collections.Counter()
    real = tensor._chain

    def counted(*args):
        calls["_chain"] += 1
        return real(*args)

    monkeypatch.setattr(tensor, "_chain", counted)
    for tb in _real_bundles():
        # the proof holds beyond the budget too, where the sweep would sample
        for budget in (1 << 22, 1):
            calls.clear()
            checks = _chain_checks(tb, budget=budget, sample_points=64, seed=0)
            assert all(c.status == "pass" and c.points == tb.n**3 for c in checks)
            assert not calls
    # a check whose constraints fail still evaluates points, either way
    tb = _unproved_braided_bundle()
    for budget in (1 << 22, 1):
        calls.clear()
        braid_matrix_check(tb, budget=budget, sample_points=64, seed=0)
        assert calls["_chain"] > 0


def test_sample_is_drawn_once_and_shared_read_only(monkeypatch):
    decoded = []
    real = tensor._decode3
    monkeypatch.setattr(tensor, "_decode3", lambda p, n: decoded.append(n) or real(p, n))
    tensor._sample.cache_clear()
    tb = _unproved_braided_bundle()
    checks = _report_checks(tb, budget=1, sample_points=64, seed=5)
    assert decoded == [tb.n]
    p, pts = tensor._sample(tb.n, 64, 5)
    assert not any(a.flags.writeable for a in (p, *pts))
    # every check that ran on the sample ran on this one
    assert sum(c.points == p.size for c in checks) > 1


SEEDS = (0, 1, 2**64 - 1)


def test_splitmix64_gives_the_published_values():
    # the first outputs of Vigna's splitmix64.c from state 1234567
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821]
    assert splitmix64(1234567, 0, 5).tolist() == want
    assert list(itertools.islice(splitmix64_reference(1234567), 5)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_splitmix64_matches_the_pure_python_reference(seed):
    size = settings.DRAW_BLOCK + 100
    want = list(itertools.islice(splitmix64_reference(seed), size))
    got = splitmix64(seed, 0, size)
    assert got.dtype == np.uint64 and got.tolist() == want
    assert splitmix64(seed, settings.DRAW_BLOCK - 2, 5).tolist() == want[settings.DRAW_BLOCK - 2 : settings.DRAW_BLOCK + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("total", [2**24, 512, 1000, 1])
def test_seeded_points_match_the_pure_python_reference(seed, total):
    # 1000 is no power of two, so draws are rejected; a count past one
    # block of stream values draws a second block
    for count in (1, 300, settings.DRAW_BLOCK + 1000):
        got = seeded_points(total, count, seed)
        assert got.dtype == np.int64
        assert got.tolist() == seeded_points_reference(total, count, seed), (total, count)
    assert seeded_points(1, 5, seed).tolist() == [0]


def test_seeded_samples_of_different_seeds_differ():
    a, b = (set(seeded_points(2**24, 1000, seed).tolist()) for seed in (0, 1))
    assert len(a & b) < 10


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_shift_selection_matches_the_reference(seed):
    for b in (cyclic_unit_brace(5), odd_matrix_brace()):
        adm = admissible_z(b).tolist()
        for k in (1, 5, len(adm) - 1):
            assert select_shifts(b, {"sample": k}, seed) == sample_shifts_reference(adm, k, seed), (b.name, k)
        assert select_shifts(b, {"sample": len(adm)}, seed) == adm


def _transposition_table_bundles():
    """Bundles whose sigma and tau rows are each the identity or one random transposition, 20 per brace.

    Most points are fixed, so a probe's defects are sparse: a small sample
    can miss every one, and the first one seldom sits at the start of a row.
    """
    rng = np.random.default_rng(12)

    def rows(n):
        out = np.tile(np.arange(n), (n, 1))
        for row in out:
            if rng.random() < 0.7:
                i, j = rng.choice(n, size=2, replace=False)
                row[[i, j]] = row[[j, i]]
        return out

    for b in (CYCLIC3, S3_TRIVIAL):
        base = build_solution(b, 0)
        for _ in range(20):
            yield TwistBundle(dataclasses.replace(base, sigma=rows(b.order), tau=rows(b.order)))


def _probes_with_oracles(tb, **kw):
    """Every eta's V probe and both r lifts, each paired with the oracle run on that probe's own chains."""
    pairs = [(coproduct_defect(tb, eta, **kw), brute_coproduct_defect(tb, eta, **kw)) for eta in range(tb.n)]
    return pairs + list(zip(r_lift_defects(tb, **kw), brute_r_lift_defects(tb, **kw)))


def test_defect_probes_match_oracle_on_forged_and_real_bundles(monkeypatch):
    # 16-point blocks, so a sampled defect is also found past the first block
    monkeypatch.setattr(tensor, "SAMPLE_BLOCK", 16)
    seen = set()
    later_blocks = 0
    bundles = (*_swapped_bundles(), *_random_table_bundles(), *_transposition_table_bundles(), *_c1_c2_bundles())
    for tb in (*bundles, *_real_bundles()):
        exact = None
        for kw in (
            {"budget": 1 << 22, "sample_points": 64, "seed": 3},
            {"budget": 1, "sample_points": 5, "seed": 3},
            {"budget": 1, "sample_points": 50, "seed": 3},
            {"budget": 1, "sample_points": 5000, "seed": 3},
        ):
            pairs = _probes_with_oracles(tb, **kw)
            for got, want in pairs:
                assert got == want, (got, want)
            exact = exact or [got.status for got, _ in pairs]
            seen.update((kw["budget"], got.status, status) for (got, _), status in zip(pairs, exact))
            if kw["budget"] == 1:
                p, _ = tensor._sample(tb.n, kw["sample_points"], kw["seed"])
                failed = [got.witness["point"] for got, _ in pairs if got.status == "fail"]
                later_blocks += sum(np.searchsorted(p, failed) >= 16)
    # (budget, status, exhaustive status): beyond the budget a probe without
    # a defect, a defect the sample misses and one it finds all occur
    assert seen == {
        (1 << 22, "pass", "pass"), (1 << 22, "fail", "fail"),
        (1, "sampled", "pass"), (1, "sampled", "fail"), (1, "fail", "fail"),
    }
    assert later_blocks


def test_defect_probes_match_oracle_on_odd_matrix_shifts():
    b = odd_matrix_brace()
    etas = (b.identity, next(i for i in range(b.order) if i != b.identity))
    for z in (37, 106, 168):
        tb = bundle_for(b, z)
        got = [*(coproduct_defect(tb, eta) for eta in etas), *r_lift_defects(tb)]
        assert got == [*(brute_coproduct_defect(tb, eta) for eta in etas), *brute_r_lift_defects(tb)]
        assert {c.status for c in got} == {"sampled", "fail"}


def test_defect_probes_compare_no_chains_and_run_them_at_one_point(monkeypatch):
    sizes = []
    real = tensor._chain

    def counted(fns, pts):
        sizes.append(np.broadcast(*pts).size)
        return real(fns, pts)

    def no_comparison(*args):
        raise AssertionError("a defect probe compared its chains")

    monkeypatch.setattr(tensor, "_chain", counted)
    monkeypatch.setattr(tensor, "_compare_chains", no_comparison)
    odd = odd_matrix_brace()
    for tb in (*_real_bundles(), bundle_for(odd, 37)):
        for budget in (1 << 22, 1):
            for eta in range(min(tb.n, 2)):
                sizes.clear()
                check = coproduct_defect(tb, eta, budget=budget)
                # both chains run at the witness alone, and only for a defect
                assert sizes == [1, 1] * (check.status == "fail")
            sizes.clear()
            checks = r_lift_defects(tb, budget=budget)
            assert sizes == [1, 1] * sum(c.status == "fail" for c in checks)
