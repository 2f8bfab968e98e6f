"""Each certificate against the cubic sweep it replaced (the oracles in tests/oracles.py).

A certificate proves its verdict at every point, and falls back to a sweep
when a premise fails.  Either way the result must be the cubic sweep's:
the same braid reports (status, witness, points), the same exception
type, message and witness, the same two-sided flag.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from oracles import (
    Z6_DIHEDRAL,
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
    direct_product,
    generating_set,
    symmetric_group,
    validate_group,
)
from zbrace.solutions import (
    DeformedSolution,
    build_solution,
    derived_rack_certificate,
    sigma_is_left_action,
    sigma_table,
    tau_table_from_sigma,
    verify_braid_constraints,
)

S3_TRIVIAL = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
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
    return dataclasses.replace(s, sigma=sigma, tau=tau)


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
                yield dataclasses.replace(s0, tau=s1.tau)
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
    # a constant sigma is an action with the product identity, but no sigma_x is a bijection
    yield _with_sigma(build_solution(S3_TRIVIAL, 2), np.zeros((6, 6), dtype=np.int64))
    # random permutation rows: sigma is no action, and nothing holds
    rng = np.random.default_rng(7)
    for b in (cyclic_unit_brace(3), S3_TRIVIAL):
        base = build_solution(b, 0)
        n = b.order
        for _ in range(20):
            sigma = np.array([rng.permutation(n) for _ in range(n)])
            tau = np.array([rng.permutation(n) for _ in range(n)])
            yield dataclasses.replace(base, sigma=sigma, tau=tau)


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


def _endomorphisms(g):
    """Every endomorphism of the group g, as image lists: generator images extended along right products."""
    n = g.order
    found = []
    for images in itertools.product(range(n), repeat=len(g.generators)):
        f = {g.identity: g.identity}
        frontier = [g.identity]
        while frontier:
            reached = []
            for a in frontier:
                for x, y in zip(g.generators, images):
                    ax = g.op(a, x)
                    if ax not in f:
                        f[ax] = g.op(f[a], y)
                        reached.append(ax)
            frontier = reached
        if all(f[g.op(a, b)] == g.op(f[a], f[b]) for a in range(n) for b in range(n)):
            found.append([f[a] for a in range(n)])
    return found


def _rack(g, h):
    """x <| u = u + h(x - u) on the group g, as a plain table."""
    return [[g.op(u, h[g.op(x, g.inv(u))]) for u in range(g.order)] for x in range(g.order)]


def test_closed_form_rack_is_self_distributive_for_every_endomorphism():
    carriers = [
        cyclic_group(4),
        cyclic_group(6),
        direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(2), cyclic_group(4)),
        symmetric_group(3),
        direct_product(symmetric_group(3), cyclic_group(2)),
    ]
    rng = random.Random(5)
    broken = 0
    for g in carriers:
        n = g.order
        endos = _endomorphisms(g)
        assert len(endos) >= 2, n
        for h in endos:
            rack = _rack(g, h)
            for x, y, w in itertools.product(range(n), repeat=3):
                assert rack[rack[x][y]][w] == rack[rack[x][w]][rack[y][w]], (n, h, x, y, w)
        # a map that is no endomorphism breaks the law somewhere
        h = [rng.randrange(n) for _ in range(n)]
        rack = _rack(g, h)
        triples = itertools.product(range(n), repeat=3)
        broken += any(rack[rack[x][y]][w] != rack[rack[x][w]][rack[y][w]] for x, y, w in triples)
    assert broken


def _shift_map(b, z):
    """h(w) = -z + (w o z - z) + z, the map of the closed-form rack at shift z, as a list."""
    return [b.plus(b.plus(b.neg(z), b.plus(b.circ(w, z), b.neg(z))), z) for w in range(b.order)]


def _with_rack(s, sigma):
    """``s`` with a replaced sigma and tau read back from the closed-form rack.

    tau_y(x) = sigma_u^{-1}(x <| u) with u = sigma_x(y), so the derived
    table is u + h(x - u) whatever sigma is.
    """
    n = s.order
    rack = _rack(s.brace.add, _shift_map(s.brace, s.z))
    inverse = np.argsort(sigma, axis=1)
    tau = np.empty_like(sigma)
    for x, y in itertools.product(range(n), repeat=2):
        u = sigma[x, y]
        tau[y, x] = inverse[u, rack[x][u]]
    return dataclasses.replace(s, sigma=sigma, tau=tau)


def _rack_premises(s):
    """c1's certificate and the three derived-rack premises, by plain loops over every element.

    (c1 certified, h additive, derived table = u + h(x - u), every sigma_x
    an endomorphism of the derived table).
    """
    b, n = s.brace, s.order
    S, T = s.sigma.tolist(), s.tau.tolist()
    product = all(b.circ(S[x][y], T[y][x]) == b.circ(x, y) for x, y in itertools.product(range(n), repeat=2))
    h = _shift_map(b, s.z)
    additive = all(h[b.plus(a, c)] == b.plus(h[a], h[c]) for a, c in itertools.product(range(n), repeat=2))
    inverse = [{S[x][y]: y for y in range(n)} for x in range(n)]
    derived = [[S[u][T[inverse[x][u]][x]] for u in range(n)] for x in range(n)]
    closed = derived == _rack(b.add, h)
    respected = all(
        S[x][derived[y][w]] == derived[S[x][y]][S[x][w]] for x, y, w in itertools.product(range(n), repeat=3)
    )
    return product and sigma_is_left_action(s), additive, closed, respected


# A left action of S3 on its own six elements (labels 012, 021, 102, 120,
# 201, 210), found by search over the homomorphisms S3 -> Sym(6): with tau
# from the product identity at z = 1, c1 is certified and the derived table
# is the closed-form rack, but sigma_021 is no endomorphism of it, and c2 fails.
_S3_ACTION_OFF_THE_RACK = np.array([
    [0, 1, 2, 3, 4, 5],
    [0, 2, 1, 4, 3, 5],
    [4, 2, 1, 3, 0, 5],
    [4, 1, 2, 0, 3, 5],
    [3, 1, 2, 4, 0, 5],
    [3, 2, 1, 0, 4, 5],
])


def _rack_forgeries():
    # other actions, tau from the product identity: c1 certified, the closed form fails, c2 holds
    s = build_solution(cyclic_unit_brace(3), 1)
    for seed in (0, 2):
        yield _conjugated_action(s, seed)
    # inadmissible shifts, built past build_solution: h is not additive
    for z in (1, 2, 4, 5):
        sigma = sigma_table(Z6_DIHEDRAL, z)
        tau = tau_table_from_sigma(Z6_DIHEDRAL, sigma)
        yield DeformedSolution(Z6_DIHEDRAL, z, sigma, tau)
    # only the rack endomorphism premise fails
    yield _with_sigma(build_solution(S3_TRIVIAL, 1), _S3_ACTION_OFF_THE_RACK)
    # the units mod 8 acting through their two factors of order 2, by (0 1)
    # and (2 3): every sigma_g respects the closed-form rack, but the
    # derived table is not that rack, and c2 fails
    klein = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]])
    yield _with_sigma(build_solution(cyclic_unit_brace(3), 0), klein)
    # identity sigma, tau from the rack of an inadmissible shift: of the
    # certificate's own premises only additivity fails (c2 holds all the same:
    # h(w) = w, or w - 2z for odd w, still gives a self-distributive rack)
    identity = build_solution(Z6_DIHEDRAL, 0)
    yield _with_rack(dataclasses.replace(identity, z=1), np.tile(np.arange(6), (6, 1)))
    # on the units mod 16, sigma_x swaps the elements 1 and 5 when x = 3 mod 4
    # and is the identity otherwise, tau from the rack: c1 holds, though not
    # by its certificate, and the rack is the closed form
    b = cyclic_unit_brace(4)
    swap = np.array([2, 1, 0, 3, 4, 5, 6, 7])
    odd = np.array([int(label) % 4 == 3 for label in b.labels])
    for z in (1, 3):
        yield _with_rack(build_solution(b, z), np.where(odd[:, None], swap, np.arange(8)))
    # the same swap for x outside the subgroup {1, 3, 9, 11} generated by the
    # first generator 3: only the last generator, 5, breaks the rack
    outside = np.array([int(label) not in (1, 3, 9, 11) for label in b.labels])
    yield _with_rack(build_solution(b, 3), np.where(outside[:, None], swap, np.arange(8)))


def test_derived_rack_fallback_matches_block_sweep(monkeypatch):
    swept = []
    real_sweep = groups.first_difference

    def recording_sweep(n, sides, *block):
        swept.append(sides.__name__)
        return real_sweep(n, sides, *block)

    monkeypatch.setattr(solutions, "first_difference", recording_sweep)
    patterns = set()
    for s in _rack_forgeries():
        swept.clear()
        got = [(r.name, r.status, r.witness, r.points) for r in verify_braid_constraints(s)]
        assert got == [(r.name, r.status, r.witness, r.points) for r in brute_braid_constraints(s)], (s.brace.name, s.z)
        assert "c2" in swept and not derived_rack_certificate(s), (s.brace.name, s.z)
        patterns.add(_rack_premises(s) + (got[1][1],))
    assert patterns == {
        (True, True, False, True, "pass"),
        (True, False, False, False, "fail"),
        (True, True, True, False, "fail"),
        (True, True, False, False, "fail"),
        (False, False, True, True, "pass"),
        (False, True, True, False, "fail"),
    }


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
            assert sigma_is_left_action(s) and derived_rack_certificate(s)
            swept.clear()
            assert all(r.ok for r in verify_braid_constraints(s))
            assert swept == [], (b.name, z)
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
