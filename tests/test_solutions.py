import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_braid_witness,
    brute_inverse_composition,
    brute_sigma_tau,
    sigma_property_witnesses,
    swap_sigma_entries,
)
from zbrace.braces import (
    cyclic_unit_brace,
    make_skew_brace,
    odd_matrix_brace,
    odd_matrix_pair_criterion,
    product_brace,
    radical_even_brace,
    socle,
    trivial_skew_brace,
)
from zbrace import reporting, solutions, tensor
from zbrace.groups import cyclic_group, symmetric_group, validate_group
from zbrace.reporting import build_report, solution_suite
from zbrace.solutions import (
    CriterionMismatchError,
    DeformedSolution,
    InadmissibleZError,
    TableMismatchError,
    build_solution,
    dedup_solutions,
    gv_correspondence_check,
    inverse_composition_check,
    inverse_solution,
    is_involutive,
    pair_map,
    product_identity_check,
    sigma_shift_criterion,
    transpose_identity_check,
    verify_braid_constraints,
)

CYCLIC3 = cyclic_unit_brace(3)
S3_TRIVIAL = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
RADICAL = radical_even_brace(8)
SMALL_BRACES = [CYCLIC3, S3_TRIVIAL, RADICAL, cyclic_unit_brace(2)]


def label_pair(b, pair):
    return tuple(b.labels[v] for v in pair)


def test_identity_first_argument_maps_to_swap_with_identity():
    for b in SMALL_BRACES:
        for z in range(b.order):
            s = build_solution(b, z)
            for y in range(b.order):
                assert s.apply(b.identity, y) == (y, b.identity)


def test_cyclic3_z3_frozen_values():
    # direct modular evaluation: sigma = 3*5 - 3*3 + 3 = 9 = 1 mod 8 in the
    # shifted additive group; tau = 1^{-1} * 15 = 7 mod 8
    s = build_solution(CYCLIC3, 1)
    assert label_pair(CYCLIC3, s.apply(1, 2)) == ("1", "7")
    assert label_pair(CYCLIC3, s.apply(0, 3)) == ("7", "1")


def test_cyclic3_z1_is_rump_form():
    s = build_solution(CYCLIC3, 0)
    # sigma = 3*5 - 3 + 1 = 13 = 5; tau = 5^{-1} * 15 = 5*15 = 75 = 3 mod 8
    assert label_pair(CYCLIC3, s.apply(1, 2)) == ("5", "3")


def test_tables_match_brute_force_formulas():
    for b in SMALL_BRACES:
        add, mul = b.add.table.tolist(), b.mul.table.tolist()
        neg, minv = b.add.inverses.tolist(), b.mul.inverses.tolist()
        for z in range(b.order):
            s = build_solution(b, z)
            sig, tau = brute_sigma_tau(add, mul, neg, minv, z)
            assert s.sigma.tolist() == sig
            assert s.tau.tolist() == tau


def test_braid_constraints_pass_exhaustively():
    for b in SMALL_BRACES:
        for z in range(b.order):
            s = build_solution(b, z)
            reports = verify_braid_constraints(s)
            assert [r.name for r in reports] == ["c1", "c2", "c3"]
            assert all(r.ok and r.witness is None for r in reports)
            assert all(r.points == b.order**3 for r in reports)


def test_braid_constraints_agree_with_stepwise_composition_oracle():
    for b in (CYCLIC3, S3_TRIVIAL):
        for z in range(b.order):
            s = build_solution(b, z)
            assert brute_braid_witness(s.sigma.tolist(), s.tau.tolist()) is None


def test_corrupted_sigma_breaks_constraint_c1_with_witness():
    s = build_solution(CYCLIC3, 1)
    bad = swap_sigma_entries(s, 1, 0, 2)
    reports = {r.name: r for r in verify_braid_constraints(bad)}
    assert not reports["c1"].ok
    assert reports["c1"].witness is not None
    # the reported witness triple must really violate constraint 1
    e, x, y = reports["c1"].witness
    S, TT = bad.sigma, bad.tau.T
    assert S[e, S[x, y]] != S[S[e, x], S[TT[e, x], y]]
    # and the independent stepwise oracle must also reject the corrupted map
    assert brute_braid_witness(bad.sigma.tolist(), bad.tau.tolist()) is not None


def test_involutivity_matches_socle_criterion_everywhere():
    for b in SMALL_BRACES + [odd_matrix_brace()]:
        soc = set(socle(b).tolist())
        zs = range(b.order) if b.order <= 16 else [0, 1, 5, 37, 64, 128, 255]
        for z in zs:
            s = build_solution(b, z)
            assert is_involutive(s) == (b.is_left_brace and z in soc)


def test_identity_shift_is_involutive_for_braces():
    for b in (CYCLIC3, RADICAL, cyclic_unit_brace(2)):
        assert is_involutive(build_solution(b, b.identity))


def test_involutivity_witness_two_step():
    s = build_solution(CYCLIC3, 1)
    wit = s.involutivity_witness
    assert wit is not None
    start, mid, end = wit
    assert s.apply(*start) == mid and s.apply(*mid) == end and end != start
    assert build_solution(CYCLIC3, 0).involutivity_witness is None


def test_criterion_mismatch_raises_on_inconsistent_flags():
    s = build_solution(CYCLIC3, 1)
    lied = dataclasses.replace(s, brace=dataclasses.replace(CYCLIC3, is_left_brace=False))
    # direct test says non-involutive and the criterion agrees for z=3; force a
    # mismatch by lying about the socle membership through z
    s0 = build_solution(CYCLIC3, 0)
    lied0 = dataclasses.replace(s0, brace=dataclasses.replace(CYCLIC3, is_left_brace=False))
    with pytest.raises(CriterionMismatchError):
        is_involutive(lied0)
    assert is_involutive(lied) is False  # both sides still say False


def test_inverse_solution_composes_to_identity_both_ways():
    for b in SMALL_BRACES:
        n2 = b.order * b.order
        for z in range(b.order):
            s = build_solution(b, z)
            inv = inverse_solution(s)
            assert np.array_equal(inv.combined[s.combined], np.arange(n2))
            assert np.array_equal(s.combined[inv.combined], np.arange(n2))


def test_inverse_solution_equals_forward_on_socle_shifts():
    for b in (CYCLIC3, RADICAL):
        for z in socle(b).tolist():
            s = build_solution(b, z)
            inv = inverse_solution(s)
            assert np.array_equal(s.sigma, inv.sigma)
            assert np.array_equal(s.tau, inv.tau)


def test_inverse_solution_frozen_value():
    inv = inverse_solution(build_solution(CYCLIC3, 1))
    assert label_pair(CYCLIC3, inv.apply(0, 3)) == ("3", "5")


def _duplicate_image_forgery():
    """Shift 1 of cyclic2n n=3 with pair 3 = (0, 3) sent to the image (sigma_0(0), tau_0(0)) of pair 0."""
    s = build_solution(CYCLIC3, 1)
    sigma, tau = s.sigma.copy(), s.tau.copy()
    sigma[0, 3], tau[3, 0] = sigma[0, 0], tau[0, 0]
    return dataclasses.replace(s, sigma=sigma, tau=tau)


def test_transpose_identity_detects_duplicate_images():
    check = transpose_identity_check(build_solution(CYCLIC3, 1))
    assert check.ok and check.witness is None
    check = transpose_identity_check(_duplicate_image_forgery())
    assert not check.ok and check.witness == (0, 3)


def test_transpose_identity_oddmatrix_sampled_shift():
    om = odd_matrix_brace()
    check = transpose_identity_check(build_solution(om, 123))
    assert check.ok and check.witness is None


def test_replaced_tables_derive_their_own_pair_map():
    # sigma of one shift with tau of another: the copy's pair map and the
    # checks that read it describe the copy's tables, not the original's
    b = cyclic_unit_brace(4)
    s0, s1 = build_solution(b, 0), build_solution(b, 1)
    assert "combined" in vars(s0)  # build_solution derived the original's pair map
    copy = dataclasses.replace(s0, sigma=s0.sigma, tau=s1.tau)
    assert np.array_equal(copy.combined, pair_map(s0.sigma, s1.tau))
    assert not np.array_equal(copy.combined, s0.combined)
    fresh = DeformedSolution(b, s0.z, s0.sigma, s1.tau)
    for check in (transpose_identity_check, inverse_composition_check):
        assert check(copy) == check(fresh)
    assert inverse_composition_check(copy).witness == (1, 0)


def test_report_inverts_each_solution_table_once(monkeypatch):
    # Each solution derives sigma^-1 and tau^-1 once, and the constraint
    # certificates and the twist bundle read them from it.
    b = cyclic_unit_brace(4)
    built, inverted = [], []
    row_inverses = solutions.row_inverses

    def counted_build(*args):
        built.append(build_solution(*args))
        return built[-1]

    def counted_inverses(table, *name):
        inverted.append(table)
        return row_inverses(table, *name)

    monkeypatch.setattr(reporting, "build_solution", counted_build)
    # every module binding, so that an inversion anywhere is counted
    for module in (solutions, tensor):
        if hasattr(module, "row_inverses"):
            monkeypatch.setattr(module, "row_inverses", counted_inverses)
    report = build_report(b, list(range(b.order)), level="all")
    assert report["summary"]["fail"] == 0
    # every class representative and the identity shift; the other shifts restate
    assert len(built) == len(dedup_solutions(b, range(b.order)).classes) + 1 < b.order + 1
    for s in built:
        assert [sum(t is table for t in inverted) for table in (s.sigma, s.tau)] == [1, 1], s.z
    # and none for the inverse solutions that inverse-composition builds
    assert len(inverted) == 2 * len(built)


def test_inverse_composition_matches_two_order_oracle():
    # one composition order decides both, and the inverse's rows need no test of their own
    om = odd_matrix_brace()
    cases = [build_solution(b, z) for b in SMALL_BRACES for z in range(b.order)]
    cases += [build_solution(om, 168), build_solution(om, 106)]
    b4 = cyclic_unit_brace(4)
    forged = [
        swap_sigma_entries(build_solution(CYCLIC3, 1), 1, 0, 2),
        dataclasses.replace(build_solution(b4, 0), tau=build_solution(b4, 1).tau),
        _duplicate_image_forgery(),
    ]
    for s in cases + forged:
        assert inverse_composition_check(s) == brute_inverse_composition(s), (s.brace.name, s.z)
    assert all(inverse_composition_check(s).ok for s in cases)
    assert not any(inverse_composition_check(s).ok for s in forged)


def test_braid_certificates_and_product_identity_read_one_verdict(monkeypatch):
    s = build_solution(CYCLIC3, 1)
    vars(s)["product_witness"] = (0, 1)  # a lying verdict: the tables meet the identity
    sweeps = []
    first_difference = solutions.first_difference

    def counted(*args):
        sweeps.append(args)
        return first_difference(*args)

    monkeypatch.setattr(solutions, "first_difference", counted)
    # without the product identity no certificate applies, so all three constraints are swept
    checks = verify_braid_constraints(s)
    assert [(c.name, c.status) for c in checks] == [("c1", "pass"), ("c2", "pass"), ("c3", "pass")]
    assert len(sweeps) == 3
    check = product_identity_check(s)
    assert check.status == "fail" and check.witness == (0, 1, -1)
    sweeps.clear()
    assert all(c.ok for c in verify_braid_constraints(build_solution(CYCLIC3, 1)))
    assert not sweeps  # the true verdict proves all three


def test_pair_map_bijection_is_read_from_one_verdict(monkeypatch):
    s = build_solution(CYCLIC3, 1)
    vars(s)["pair_collision"] = (0, 1)  # a lying verdict: the pair map is a bijection
    check = transpose_identity_check(s)
    assert check.status == "fail" and check.witness == (0, 1)
    monkeypatch.setattr(DeformedSolution, "pair_collision", property(lambda self: (0, 1)))
    with pytest.raises(TableMismatchError, match="pair map is not a bijection"):
        build_solution(CYCLIC3, 1)


def test_involutivity_is_read_from_one_verdict():
    s = build_solution(CYCLIC3, 1)
    vars(s)["involutivity_witness"] = None  # a lying verdict on a non-involutive shift
    with pytest.raises(CriterionMismatchError):
        is_involutive(s)


def _gv_checks(s1):
    return {c.name: c for c in gv_correspondence_check(s1)}


def test_gv_on_one_element_brace_is_trivially_true():
    one = trivial_skew_brace(cyclic_group(1), name="one")
    rep = _gv_checks(build_solution(one, one.identity))
    assert rep["gv-conjugation-identity"].ok and rep["gv-inverse-relation"].ok
    assert rep["gv-tables-equal-at-identity-shift"].ok


def test_product_identity_everywhere():
    for b in SMALL_BRACES:
        for z in range(b.order):
            rep = product_identity_check(build_solution(b, z))
            assert rep.ok


def test_dedup_cyclic2_single_class():
    b = cyclic_unit_brace(2)
    part = dedup_solutions(b, range(2))
    assert [[b.labels[z] for z in cls] for cls in part.classes] == [["1", "3"]]


def test_dedup_cyclic3_two_classes():
    part = dedup_solutions(CYCLIC3, range(4))
    labels = [[CYCLIC3.labels[z] for z in cls] for cls in part.classes]
    assert labels == [["1", "5"], ["3", "7"]]


def test_dedup_cyclic4_classes_congruent_mod8():
    b = cyclic_unit_brace(4)
    part = dedup_solutions(b, range(8))
    labels = [tuple(b.labels[z] for z in cls) for cls in part.classes]
    assert labels == [("1", "9"), ("3", "11"), ("5", "13"), ("7", "15")]


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(4))))
def test_dedup_invariant_under_reordering(order):
    base = dedup_solutions(CYCLIC3, range(4)).classes
    assert dedup_solutions(CYCLIC3, order).classes == base


def test_dedup_oddmatrix_criterion_agrees_with_table_equality():
    om = odd_matrix_brace()
    rng = np.random.default_rng(0)
    zs = sorted(int(z) for z in rng.choice(256, size=10, replace=False))
    part = dedup_solutions(om, zs, pair_criterion=odd_matrix_pair_criterion)
    assert part.criterion_pairs  # evaluated for every pair
    for z1, z2, crit, equal in part.criterion_pairs:
        assert crit == equal
    # ground truth: shifts are equivalent iff their matrices agree mod 4
    from zbrace.braces import odd_matrix_entries

    for cls in part.classes:
        base = np.array(odd_matrix_entries(cls[0])) % 4
        for z in cls[1:]:
            assert np.array_equal(np.array(odd_matrix_entries(z)) % 4, base)


def test_socle_shifts_share_one_solution():
    for b in (CYCLIC3, RADICAL):
        soc = socle(b).tolist()
        part = dedup_solutions(b, soc)
        assert len(part.classes) == 1


def test_gv_tables_equal_for_left_braces():
    for b in (CYCLIC3, RADICAL, cyclic_unit_brace(2)):
        rep = _gv_checks(build_solution(b, b.identity))
        assert rep["gv-tables-equal-at-identity-shift"].status == "pass"
        assert rep["gv-conjugation-identity"].ok


def test_gv_inverse_relation_holds_everywhere():
    for b in SMALL_BRACES + [product_brace(cyclic_unit_brace(2), S3_TRIVIAL)]:
        rep = _gv_checks(build_solution(b, b.identity))
        assert rep["gv-inverse-relation"].ok


def test_gv_conjugation_fails_for_nonabelian_addition():
    # computed ground truth: the substitution identity cannot hold once the
    # additive group is nonabelian (equal images force the substituted
    # argument to equal b); the checker must report the failure honestly.
    conj = _gv_checks(build_solution(S3_TRIVIAL, S3_TRIVIAL.identity))["gv-conjugation-identity"]
    assert conj.ok is False
    assert conj.witness is not None
    a, bb = conj.witness
    b = S3_TRIVIAL
    s1 = build_solution(b, b.identity)
    c = b.plus(b.plus(b.neg(b.circ_inv(a)), bb), b.circ_inv(a))
    lhs = s1.apply(a, c)
    from zbrace.solutions import gv_tables

    sgv, tgv = gv_tables(b)
    assert lhs != (int(sgv[a, bb]), int(tgv[bb, a]))


def test_sigma_shift_criterion_agreement_and_socle_equivalence():
    for b in SMALL_BRACES:
        soc = set(socle(b).tolist())
        s1 = build_solution(b, b.identity)
        for z in range(b.order):
            check = sigma_shift_criterion(build_solution(b, z), s1)
            tables_equal = check.witness["sigma_equals_identity_shift"]
            commutes = check.witness["shift_commutation"]
            assert tables_equal == commutes and check.ok
            if b.is_left_brace:
                assert tables_equal == (z in soc)


def test_sigma_property_sweep_all_hold():
    for b in SMALL_BRACES:
        for z in range(b.order):
            out = sigma_property_witnesses(b, z)
            assert all(v is None for v in out.values()), (b.name, z, out)


def test_sigma_property_sweep_oddmatrix_sampled_shift():
    om = odd_matrix_brace()
    out = sigma_property_witnesses(om, 37, skip_quartic=True)
    assert all(v is None for v in out.values())


def test_inadmissible_z_rejected():
    with pytest.raises(InadmissibleZError):
        build_solution(CYCLIC3, 9)
    # one-sided example: cyclic addition with Klein circle, if any shift fails
    z4 = cyclic_group(4)
    klein = validate_group([[a ^ b for b in range(4)] for a in range(4)])
    b = make_skew_brace(z4, klein, name="z4-klein")
    from zbrace.braces import admissible_z

    adm = set(admissible_z(b).tolist())
    for z in range(4):
        if z in adm:
            build_solution(b, z)
        else:
            with pytest.raises(InadmissibleZError):
                build_solution(b, z)


def test_product_solution_acts_coordinatewise_at_paired_shift():
    left = cyclic_unit_brace(2)
    prod = product_brace(left, S3_TRIVIAL)
    n2 = S3_TRIVIAL.order
    zb = 1  # any shift in the left factor, paired with the right identity
    z = zb * n2 + S3_TRIVIAL.identity
    s = build_solution(prod, z)
    sl = build_solution(left, zb)
    sr = build_solution(S3_TRIVIAL, S3_TRIVIAL.identity)
    for a in range(left.order):
        for c in range(n2):
            for d in range(left.order):
                for e in range(n2):
                    got = s.apply(a * n2 + c, d * n2 + e)
                    u1, t1 = sl.apply(a, d)
                    u2, t2 = sr.apply(c, e)
                    assert got == (u1 * n2 + u2, t1 * n2 + t2)


# Map-level entries of forged shifts (oracles.swap_sigma_entries), whose
# involutivity cross-check agrees with the socle criterion: pins the
# failing entries of a report, which no built-in shift produces.
_FORGED_SUITES = [
    (
        (cyclic_unit_brace(3), 1, 1, 0, 1),
        [
            ("admissible", "pass", 0, None, "every shift of a two-sided brace is admissible"),
            ("nondegenerate-sigma", "pass", 16, None, ""),
            ("nondegenerate-tau", "pass", 16, None, ""),
            ("constraint-c1", "fail", 64, [1, 0, 0], ""),
            ("constraint-c2", "fail", 64, [1, 1, 0], ""),
            ("constraint-c3", "fail", 64, [1, 0, 0], ""),
            ("product-identity", "fail", 16, [1, 0, -1], ""),
            ("transpose-identity", "fail", 16, [4, 13], ""),
            (
                "involutivity-criterion", "pass", 16,
                {"involutive": False, "left_brace": True, "socle_member": False,
                 "two_step_witness": [[0, 1], [1, 0], [1, 3]]},
                "direct double-application test agrees with the socle criterion",
            ),
            ("sigma-shift-criterion", "pass", 16,
             {"sigma_equals_identity_shift": False, "shift_commutation": False}, ""),
            ("inverse-composition", "fail", 32, [1, 0], ""),
        ],
    ),
    (
        (S3_TRIVIAL, 0, 0, 0, 1),
        [
            ("admissible", "pass", 0, None, "every shift of a two-sided brace is admissible"),
            ("nondegenerate-sigma", "pass", 36, None, ""),
            ("nondegenerate-tau", "pass", 36, None, ""),
            ("constraint-c1", "fail", 216, [0, 0, 0], ""),
            ("constraint-c2", "pass", 216, None, ""),
            ("constraint-c3", "pass", 216, None, ""),
            ("product-identity", "fail", 36, [0, 0, -1], ""),
            ("transpose-identity", "pass", 36, None, ""),
            (
                "involutivity-criterion", "pass", 36,
                {"involutive": False, "left_brace": False, "socle_member": True,
                 "two_step_witness": [[0, 0], [1, 0], [0, 1]]},
                "direct double-application test agrees with the socle criterion",
            ),
            ("sigma-shift-criterion", "fail", 36,
             {"sigma_equals_identity_shift": False, "shift_commutation": True}, ""),
            ("inverse-composition", "fail", 72, [0, 0], ""),
        ],
    ),
]


@pytest.mark.parametrize("forge, expected", _FORGED_SUITES, ids=["cyclic2n-3-z1", "trivial-S3-z0"])
def test_solution_suite_failure_entries_on_forged_shifts(forge, expected):
    b, z, x, y1, y2 = forge
    forged = swap_sigma_entries(build_solution(b, z), x, y1, y2)
    entries = solution_suite(forged, build_solution(b, b.identity))
    assert all(e["section"] == "solution" and e["z"] == z and e["elapsed_ms"] == 0.0 for e in entries)
    assert [(e["name"], e["status"], e["points"], e["witness"], e["note"]) for e in entries] == expected
