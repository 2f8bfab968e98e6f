"""Each certificate against the cubic sweep it replaced (the oracles in tests/oracles.py).

A certificate proves its verdict at every point, and falls back to a sweep
when a premise fails.  Either way the result must be the cubic sweep's:
the same braid reports (status, witness, points), the same exception
type, message and witness, the same two-sided flag.
"""

import dataclasses
import random

import numpy as np
import pytest

from oracles import (
    brute_braid_constraints,
    brute_radical_ring_laws,
    cubic_brace_laws,
    cubic_validate_group,
    swap_sigma_entries,
)
from zbrace import braces, groups, solutions
from zbrace.braces import (
    BraceError,
    NotRadicalError,
    admissible_z,
    cyclic_unit_brace,
    from_radical_ring,
    make_skew_brace,
    odd_matrix_brace,
    product_brace,
    radical_even_brace,
    trivial_skew_brace,
)
from zbrace.groups import (
    GroupValidationError,
    cyclic_group,
    generating_set,
    symmetric_group,
    validate_group,
)
from zbrace.solutions import (
    build_solution,
    pair_map,
    sigma_is_left_action,
    tau_table_from_sigma,
    verify_braid_constraints,
)

S3_TRIVIAL = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
# (Z/6, +) with the dihedral circle a o b = a + (-1)^a b: a left brace that is
# not two-sided, so only the shifts 0 and 3 are admissible
Z6_DIHEDRAL = make_skew_brace(
    cyclic_group(6),
    validate_group([[(a + (-1) ** a * b) % 6 for b in range(6)] for a in range(6)]),
    name="z6-dihedral",
)
SMALL_BRACES = [
    cyclic_unit_brace(2),
    cyclic_unit_brace(3),
    cyclic_unit_brace(4),
    S3_TRIVIAL,
    radical_even_brace(8),
    radical_even_brace(16),
    product_brace(cyclic_unit_brace(2), S3_TRIVIAL),
    Z6_DIHEDRAL,
]
ODD_MATRIX = odd_matrix_brace()
BUILT_IN = SMALL_BRACES + [
    cyclic_unit_brace(5),
    cyclic_unit_brace(6),
    trivial_skew_brace(symmetric_group(4), name="trivial-S4"),
    trivial_skew_brace(cyclic_group(6), name="trivial-Z6"),
    ODD_MATRIX,
]
ODD_MATRIX_SHIFTS = (0, 1, 5, 37, 64, 85, 106, 128, 168, 200, 237, 255)


def _reports(s):
    return [(r.name, r.ok, r.witness, r.points) for r in verify_braid_constraints(s)]


def _brute_reports(s):
    return [(r.name, r.ok, r.witness, r.points) for r in brute_braid_constraints(s)]


def _with_sigma(s, sigma):
    """``s`` with a replaced sigma and the tau that the product identity forces."""
    tau = tau_table_from_sigma(s.brace, sigma)
    return dataclasses.replace(s, sigma=sigma, tau=tau, combined=pair_map(sigma, tau))


def _closure(table, identity, gens):
    """Right products identity g1 g2 ... of ``gens``, by plain breadth-first search."""
    reached, frontier = {identity}, [identity]
    while frontier:
        frontier = [int(table[h][g]) for h in frontier for g in gens]
        frontier = [v for v in dict.fromkeys(frontier) if v not in reached]
        reached.update(frontier)
    return reached


def _conjugated_action(s, seed):
    """psi sigma_x psi^{-1}: still a left action, with tau from the product identity.

    c1 is then certified, while c2 and c3 fail at the same triples.
    """
    rng = np.random.default_rng(seed)
    psi = rng.permutation(s.order)
    return _with_sigma(s, psi[s.sigma[:, np.argsort(psi)]])


def _action_off_last_generator(s):
    """sigma_x followed by a transposition for x outside the subgroup H of all but the last generator.

    sigma_a sigma_b = sigma_{a o b} still holds for every a in H, so only
    the last generator of (B, o) can expose that sigma is no action.
    """
    mul = s.brace.mul
    inside = np.zeros(s.order, dtype=bool)
    inside[list(_closure(mul.table, mul.identity, mul.generators[:-1]))] = True
    swap = np.arange(s.order)
    swap[[1, 2]] = swap[[2, 1]]
    sigma = s.sigma.copy()
    sigma[~inside] = sigma[~inside][:, swap]
    return _with_sigma(s, sigma)


# (a) braid constraints: certificate and row sweep against the block sweep


def test_braid_reports_match_block_sweep_on_every_small_shift():
    for b in SMALL_BRACES:
        for z in admissible_z(b).tolist():
            s = build_solution(b, z)
            assert _reports(s) == _brute_reports(s), (b.name, z)


def test_braid_reports_match_block_sweep_on_odd_matrix_shifts():
    for z in ODD_MATRIX_SHIFTS:
        s = build_solution(ODD_MATRIX, z)
        got = _reports(s)
        assert got == _brute_reports(s), z
        assert all(ok and points == 256**3 for _, ok, _, points in got)


def _forged_solutions():
    # sigma of one shift, tau of another: the product identity usually fails
    for b in (S3_TRIVIAL, cyclic_unit_brace(4)):
        sols = [build_solution(b, z) for z in range(b.order)]
        for s0 in sols:
            for s1 in sols:
                yield dataclasses.replace(s0, tau=s1.tau, combined=pair_map(s0.sigma, s1.tau))
    # one swapped pair of sigma entries, tau kept
    for b, z in ((cyclic_unit_brace(3), 1), (S3_TRIVIAL, 4), (cyclic_unit_brace(4), 3), (ODD_MATRIX, 106)):
        s = build_solution(b, z)
        for x in (1, b.order - 1):
            yield swap_sigma_entries(s, x, 0, 2)
    yield swap_sigma_entries(build_solution(ODD_MATRIX, 106), 200, 3, 9)
    # actions that are not the deformation's, and sigma that is an action only off one generator
    for b, z in ((cyclic_unit_brace(4), 3), (S3_TRIVIAL, 2), (radical_even_brace(16), 5), (ODD_MATRIX, 106)):
        s = build_solution(b, z)
        yield _conjugated_action(s, seed=z)
        yield _action_off_last_generator(s)
    # random permutation rows: sigma is no action, and nothing holds
    rng = np.random.default_rng(7)
    for b in (cyclic_unit_brace(3), S3_TRIVIAL):
        base = build_solution(b, 0)
        n = b.order
        for _ in range(20):
            sigma = np.array([rng.permutation(n) for _ in range(n)])
            tau = np.array([rng.permutation(n) for _ in range(n)])
            yield dataclasses.replace(base, sigma=sigma, tau=tau, combined=pair_map(sigma, tau))


def test_braid_reports_match_block_sweep_on_forged_solutions():
    patterns = set()
    witness_points = set()
    for s in _forged_solutions():
        got = _reports(s)
        assert got == _brute_reports(s), (s.brace.name, s.z)
        patterns.add((sigma_is_left_action(s),) + tuple(ok for _, ok, _, _ in got))
        witness_points.update((s.order, points) for _, ok, _, points in got if not ok)
    # every premise fails somewhere and every fallback reports a failure
    assert (True, True, False, False) in patterns  # c1 certified, c2 and c3 swept and failing
    assert (False, False, True, False) in patterns
    assert (False, False, False, False) in patterns
    # on the n = 256 carrier a failure counts the triples up to the end of its row block
    assert {(256, 64 * 256**2), (256, 128 * 256**2)} <= witness_points


def test_action_check_needs_every_generator():
    for b, z in ((cyclic_unit_brace(4), 3), (ODD_MATRIX, 106)):
        forged = _action_off_last_generator(build_solution(b, z))
        assert not sigma_is_left_action(forged)
        assert not brute_braid_constraints(forged)[0].ok


# (b) group and brace validation: certificate and fallback against the cubic sweeps


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (GroupValidationError, BraceError) as exc:
        return (type(exc), str(exc), exc.witness)


def _validated(table):
    g = validate_group(table)
    return g.identity, g.inverses.tolist()


def test_validate_group_matches_cubic_sweep_on_one_corrupted_entry():
    tables = [
        cyclic_unit_brace(4).add.table,
        cyclic_unit_brace(5).mul.table,
        symmetric_group(3).table,
        symmetric_group(4).table,
        radical_even_brace(16).mul.table,
        ODD_MATRIX.mul.table,
    ]
    rng = np.random.default_rng(11)
    kinds = set()
    for base in tables:
        n = base.shape[0]
        for trial in range(12 if n < 256 else 3):
            t = base.copy()
            if trial:  # trial 0 keeps the valid table
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                t[i, j] = int(rng.integers(0, n))
            got = _outcome(_validated, t)
            assert got == _outcome(cubic_validate_group, t), (n, trial)
            kinds.add(got[0])
    assert {"ok", groups.NotAssociativeError, groups.NoIdentityError} <= kinds


def _relabelled(g, p):
    """The table of g carried over by the permutation p of the carrier."""
    table = np.empty_like(g.table)
    table[np.ix_(p, p)] = p[g.table]
    return validate_group(table)


def test_make_skew_brace_matches_cubic_laws_on_relabelled_circle():
    rng = np.random.default_rng(3)
    seen = set()
    for b in (cyclic_unit_brace(4), cyclic_unit_brace(5), S3_TRIVIAL, radical_even_brace(16), ODD_MATRIX):
        n, e = b.order, b.identity
        for trial in range(8 if n < 256 else 2):
            p = np.arange(n)
            if trial:  # keep the identity fixed, so only the brace laws can fail
                rest = np.delete(p, e)
                p[rest] = rng.permutation(rest)
            mul = _relabelled(b.mul, p)
            got = _outcome(lambda: make_skew_brace(b.add, mul).is_two_sided)
            assert got == _outcome(cubic_brace_laws, b.add, mul), (b.name, trial)
            seen.add(got[0])
    assert {"ok", braces.NotLeftDistributiveError} <= seen


def test_two_sided_flag_matches_cubic_loop_on_every_built_in_family():
    for b in BUILT_IN:
        assert b.is_two_sided == cubic_brace_laws(b.add, b.mul), b.name
    assert not Z6_DIHEDRAL.is_two_sided
    assert admissible_z(Z6_DIHEDRAL).tolist() == [0, 3]


# (c) the generating sets, and every certificate passing on valid braces


def test_greedy_generators_reach_the_whole_carrier():
    for b in BUILT_IN:
        for g in (b.add, b.mul):
            gens = g.generators
            assert gens == generating_set(g.table, g.identity)
            assert _closure(g.table, g.identity, gens) == set(range(g.order)), b.name
            # greedy: each generator is the smallest element the earlier ones miss
            for k, x in enumerate(gens):
                missed = set(range(g.order)) - _closure(g.table, g.identity, gens[:k])
                assert x == min(missed)
            assert 2 ** len(gens) <= g.order


def test_certificates_pass_without_fallback_on_every_built_in_brace(monkeypatch):
    # every exhaustive law sweep goes through first_difference; record the sides it is given
    swept = []
    real_sweep = groups.first_difference

    def recording_sweep(n, sides, *block):
        swept.append(sides.__name__)
        return real_sweep(n, sides, *block)

    for module in (groups, braces, solutions):
        monkeypatch.setattr(module, "first_difference", recording_sweep)
    assert radical_even_brace(512).order == 256
    assert swept == []
    for b in BUILT_IN:
        add, mul = validate_group(b.add.table), validate_group(b.mul.table)
        assert make_skew_brace(add, mul).is_two_sided == b.is_two_sided
        assert swept == [], b.name
        zs = admissible_z(b).tolist()
        for z in zs if b.order <= 32 else ODD_MATRIX_SHIFTS[:3]:
            s = build_solution(b, z)
            assert sigma_is_left_action(s)
            swept.clear()
            assert all(r.ok for r in verify_braid_constraints(s))
            assert swept == ["c2"], (b.name, z)
        swept.clear()


def _klein_product(c):
    """The bilinear product on (Z/2)^2 (index 2 x + y, addition XOR) with e_i e_j = c[2 i + j]."""
    bits = [(v >> 1, v & 1) for v in range(4)]
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for k in range(4):
                if bits[a][k >> 1] and bits[b][k & 1]:
                    table[a][b] ^= c[k]
    return table


def _ring_inputs():
    """Every bilinear product on (Z/2)^2, then seeded tables over Z3, Z4, Z8 and (Z/2)^2.

    A seeded table is a bilinear product (k a b on Z/m) or a product
    g(a) b that is additive in b only, with up to two entries overwritten,
    so it breaks the ring laws in few, varied places.
    """
    klein = [[a ^ b for b in range(4)] for a in range(4)]
    for c in range(256):
        yield klein, _klein_product([c >> 6, (c >> 4) & 3, (c >> 2) & 3, c & 3])
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.choice((3, 4, 8, "klein"))
        if m == "klein":
            add, mul = klein, _klein_product([rng.randrange(4) for _ in range(4)])
        else:
            g = [rng.randrange(m) for _ in range(m)] if rng.random() < 0.3 else [rng.randrange(m) * a for a in range(m)]
            add = [[(a + b) % m for b in range(m)] for a in range(m)]
            mul = [[g[a] * b % m for b in range(m)] for a in range(m)]
        for _ in range(rng.choice((0, 1, 1, 2))):
            mul[rng.randrange(len(add))][rng.randrange(len(add))] = rng.randrange(len(add))
        yield add, mul


def test_radical_ring_verdicts_and_witnesses_match_plain_loops():
    seen = set()
    for add, mul in _ring_inputs():
        laws = brute_radical_ring_laws(add, mul)
        failed = [law for law in ("left", "right", "associative", "adjoint") if laws[law] is not None]
        if not failed:
            b = from_radical_ring(np.array(add), np.array(mul))
            assert b.mul.table.tolist() == [[add[add[mul[x][y]][x]][y] for y in range(len(add))] for x in range(len(add))]
            continue
        with pytest.raises(NotRadicalError) as info:
            from_radical_ring(np.array(add), np.array(mul))
        # distributivity is named first, left before right, then associativity, then the adjoint
        assert info.value.witness == laws[failed[0]], (add, mul)
        seen.add(failed[0])
    assert seen == {"left", "right", "associative", "adjoint"}
