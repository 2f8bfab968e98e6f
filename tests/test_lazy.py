import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import brute_lazy_constraints, brute_lazy_laws
from zbrace import lazy
from zbrace.lazy import odd_fraction_brace, sampled_brace_laws, sampled_verify_lazy


def test_carrier_membership():
    lb = odd_fraction_brace()
    assert lb.contains(Fraction(3, 5))
    assert lb.contains(Fraction(-7, 9))
    assert not lb.contains(Fraction(2, 5))
    assert not lb.contains(Fraction(1, 4))
    assert lb.contains(lb.one)


def test_operations_stay_in_carrier_and_are_exact():
    lb = odd_fraction_brace()
    a, b = Fraction(3, 5), Fraction(-9, 7)
    assert lb.add(a, b) == a - 1 + b
    assert lb.neg(a) == 2 - a
    assert lb.add(a, lb.neg(a)) == 1
    assert lb.circle(a, b) == a * b
    assert lb.circle(a, lb.circle_inv(a)) == 1
    for v in (lb.add(a, b), lb.neg(a), lb.circle(a, b), lb.circle_inv(a)):
        assert lb.contains(v)


def test_sampled_brace_laws_hold():
    lb = odd_fraction_brace()
    for check in sampled_brace_laws(lb, samples=500, seed=3):
        assert check.status == "sampled", check


def test_sigma_closed_form():
    # sigma_a(b) = a*b - a*z + z in plain rational arithmetic
    lb = odd_fraction_brace()
    z, a, b = Fraction(3, 5), Fraction(7, 3), Fraction(-1, 9)
    assert lb.sigma(z, a, b) == a * b - a * z + z


def test_constraints_hold_on_ten_thousand_sampled_triples():
    lb = odd_fraction_brace()
    out = {c.name: c for c in sampled_verify_lazy(lb, Fraction(3, 5), samples=10_000, seed=0)}
    for name in ("constraint-c1", "constraint-c2", "constraint-c3", "product-identity"):
        assert out[name].status == "sampled"
        assert out[name].points == 10_000


def _lazy_variant(kind):
    lb = odd_fraction_brace()
    if kind == "circle-not-associative":
        # a o b = a*b*b whenever b is an integer: (a o b) o c != a o (b o c) there
        return dataclasses.replace(
            lb, circle=lambda a, b: a * b * (b if b.denominator == 1 else 1)
        )
    if kind == "neg-not-inverse":
        return dataclasses.replace(lb, neg=lambda a: 2 - a if a > 0 else a)
    if kind == "add-not-associative":
        return dataclasses.replace(lb, add=lambda a, b: a - 1 + b if a < 7 else a + 1 + b)
    if kind == "neg-leaves-carrier":
        return dataclasses.replace(lb, neg=lambda a: 3 - a)
    return lb


@pytest.mark.parametrize("kind", ["intact", "circle-not-associative", "neg-not-inverse"])
@pytest.mark.parametrize("z", [Fraction(1), Fraction(3, 5)], ids=str)
def test_constraint_verdicts_match_direct_evaluation(kind, z):
    lb = _lazy_variant(kind)
    expected = brute_lazy_constraints(lb, z, samples=300, seed=7)
    got = {c.name: c for c in sampled_verify_lazy(lb, z, samples=300, seed=7)}
    for name, witness in expected.items():
        assert got[name].witness == witness, name
        assert got[name].status == ("sampled" if witness is None else "fail"), name
        assert got[name].points == 300
    if kind != "intact":
        assert any(w is not None for w in expected.values())


@pytest.mark.parametrize(
    "kind", ["intact", "circle-not-associative", "neg-not-inverse", "add-not-associative", "neg-leaves-carrier"]
)
def test_law_verdicts_match_direct_evaluation(kind):
    lb = _lazy_variant(kind)
    for seed in range(3):
        expected = brute_lazy_laws(lb, samples=300, seed=seed)
        got = sampled_brace_laws(lb, samples=300, seed=seed)
        assert [c.name for c in got] == list(expected)
        for c in got:
            assert c.witness == expected[c.name], (c.name, seed)
            assert c.status == ("sampled" if c.witness is None else "fail")
            assert c.points == 300
        if kind != "intact":
            assert any(w is not None for w in expected.values())
    if kind == "add-not-associative":
        assert expected["add-associativity"] is not None


def test_identity_shift_is_involutive_on_samples():
    lb = odd_fraction_brace()
    out = {c.name: c for c in sampled_verify_lazy(lb, Fraction(1), samples=2000, seed=1)}
    assert out["involutive-at-identity"].status == "sampled"


def test_non_identity_shift_has_two_step_witness():
    lb = odd_fraction_brace()
    out = {c.name: c for c in sampled_verify_lazy(lb, Fraction(3), samples=2000, seed=2)}
    check = out["non-involutive-witness"]
    assert check.status == "sampled"
    (x, y), (u, v), (uu, vv) = check.witness
    assert (lb.sigma(Fraction(3), x, y), lb.tau(Fraction(3), y, x)) == (u, v)
    assert (uu, vv) != (x, y)


def test_distinct_shifts_are_separated():
    lb = odd_fraction_brace()
    z, w = Fraction(3), Fraction(5)
    out = {c.name: c for c in sampled_verify_lazy(lb, z, samples=1000, seed=4, w=w)}
    check = out["distinct-shift-witness"]
    assert check.status == "sampled"
    a, lhs, rhs = check.witness
    assert lhs != rhs
    assert lhs == lb.add(lb.neg(lb.circle(a, z)), z)
    # direct evaluation at a = 3: -(3 o z) + z = 1 - 2z in rational arithmetic
    a3 = Fraction(3)
    assert lb.add(lb.neg(lb.circle(a3, z)), z) == 1 - 2 * z
    assert lb.add(lb.neg(lb.circle(a3, w)), w) == 1 - 2 * w
    assert 1 - 2 * z != 1 - 2 * w


def test_equal_shifts_have_no_separator():
    lb = odd_fraction_brace()
    out = {c.name: c for c in sampled_verify_lazy(lb, Fraction(3), samples=500, seed=5, w=Fraction(3))}
    assert out["distinct-shift-witness"].status == "sampled"
    assert out["distinct-shift-witness"].witness is None


def test_shift_outside_carrier_rejected():
    lb = odd_fraction_brace()
    with pytest.raises(ValueError):
        sampled_verify_lazy(lb, Fraction(2, 5), samples=10)
    with pytest.raises(ValueError):
        sampled_verify_lazy(lb, Fraction(1), samples=0)


def test_sampler_is_seed_deterministic():
    lb = odd_fraction_brace()
    r1, r2 = random.Random(9), random.Random(9)
    assert [lb.sample(r1) for _ in range(20)] == [lb.sample(r2) for _ in range(20)]


def test_sampled_brace_laws_refuse_an_empty_sample():
    lb = odd_fraction_brace()
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sampled_brace_laws(lb, samples=samples)


# -- the integer-pair kernel ---------------------------------------------

MAGNITUDES = (1, 25, 1000)
OPERATION_FIELDS = ("add", "neg", "circle", "circle_inv", "equal", "contains", "sample")


def _wrapped(lb, fields=OPERATION_FIELDS):
    """A copy whose listed callables are wrappers that behave the same."""
    return dataclasses.replace(
        lb, **{f: (lambda fn: lambda *args: fn(*args))(getattr(lb, f)) for f in fields}
    )


def _runs_on_pairs(lb):
    return lazy._primitives(lb).one == (1, 1)


def _assert_fraction_witnesses(checks):
    def leaves(v):
        if isinstance(v, tuple):
            for x in v:
                yield from leaves(x)
        else:
            yield v

    for c in checks:
        for v in leaves(c.witness or ()):
            assert type(v) is Fraction, (c.name, v)


def test_sampler_draws_numerator_then_denominator():
    for m in MAGNITUDES:
        lb, rng, ref = odd_fraction_brace(m), random.Random(m), random.Random(m)
        for _ in range(200):
            num = 2 * ref.randint(-m, m) + 1
            den = 2 * ref.randint(-m, m) + 1
            assert lb.sample(rng) == Fraction(num, den)


@pytest.mark.parametrize("m", MAGNITUDES)
def test_pair_kernel_is_chosen_only_for_the_unmodified_brace(m):
    lb = odd_fraction_brace(m)
    assert _runs_on_pairs(lb)
    assert not _runs_on_pairs(_wrapped(lb))
    for field in OPERATION_FIELDS:
        assert not _runs_on_pairs(_wrapped(lb, (field,))), field


@pytest.mark.parametrize("m", MAGNITUDES)
@pytest.mark.parametrize("z", [Fraction(1), Fraction(3, 5), Fraction(3), Fraction(-7, 3)], ids=str)
def test_pair_kernel_matches_the_generic_path(m, z):
    lb = odd_fraction_brace(m)
    generic = _wrapped(lb)
    for w in (None, Fraction(1), z):
        for seed in range(5):
            got = sampled_verify_lazy(lb, z, samples=40, seed=seed, w=w)
            assert got == sampled_verify_lazy(generic, z, samples=40, seed=seed, w=w)
            _assert_fraction_witnesses(got)
    for seed in range(5):
        got = sampled_brace_laws(lb, samples=40, seed=seed)
        assert got == sampled_brace_laws(generic, samples=40, seed=seed)


def test_pair_kernel_matches_the_generic_path_on_criterion_eleven():
    lb = odd_fraction_brace()
    got = sampled_verify_lazy(lb, Fraction(3, 5), samples=10_000, seed=0)
    assert got == sampled_verify_lazy(_wrapped(lb), Fraction(3, 5), samples=10_000, seed=0)
    _assert_fraction_witnesses(got)


def test_pair_kernel_witnesses_are_fractions():
    lb = odd_fraction_brace()
    checks = sampled_verify_lazy(lb, Fraction(3), samples=50, seed=0, w=Fraction(5))
    assert {c.name for c in checks if c.witness} == {"non-involutive-witness", "distinct-shift-witness"}
    _assert_fraction_witnesses(checks)


def _unreduced(rng, x):
    """x as a kernel pair: numerator and denominator times one odd factor of either sign."""
    k = rng.choice((1, -1)) * (2 * rng.randrange(20) + 1)
    return k * x.numerator, k * x.denominator


def test_pair_primitives_agree_with_fraction_operations():
    lb = odd_fraction_brace()
    ops = lazy._primitives(lb)
    dec = ops.decode
    rng = random.Random(11)
    special = [Fraction(1), Fraction(-1), Fraction(3**40, -(5**31)), Fraction(-(7**25), 3**30)]
    outside = [Fraction(2, 5), Fraction(-3, 4), Fraction(6, 7), Fraction(5, -8)]

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            x = rng.choice(special)
        else:
            m = (1, 25, 10**12)[kind - 1]
            x = Fraction(2 * rng.randint(-m, m) + 1, 2 * rng.randint(-m, m) + 1)
        return x, _unreduced(rng, x)

    def value(pair):
        got = dec(pair)
        assert type(got) is Fraction
        return got

    negative_denominators = 0
    for _ in range(2000):
        (z, pz), (a, pa), (b, pb) = draw(), draw(), draw()
        negative_denominators += pa[1] < 0
        assert value(pa) == a
        assert value(ops.add(pa, pb)) == lb.add(a, b)
        assert value(ops.neg(pa)) == lb.neg(a)
        assert value(ops.circle(pa, pb)) == lb.circle(a, b)
        assert value(ops.circle_inv(pa)) == lb.circle_inv(a)
        assert ops.equal(pa, pb) == (a == b)
        assert ops.equal(pa, _unreduced(rng, a))
        assert ops.equal(ops.circle(pa, ops.circle_inv(pa)), ops.one)
        s, t = ops.apply(pz, pa, pb)
        assert (value(s), value(t)) == (lb.sigma(z, a, b), lb.tau(z, b, a))
        for x in (pa, ops.add(pa, pb), ops.neg(pa), ops.circle(pa, pb), ops.circle_inv(pa), s, t):
            assert ops.contains(x) and lazy._is_odd_fraction(dec(x))
        px = _unreduced(rng, rng.choice(outside))
        assert not ops.contains(px) and not lazy._is_odd_fraction(dec(px))
        assert not ops.equal(px, pa)
    assert negative_denominators > 500


@pytest.mark.parametrize("m", (0, 1, 25, 1000, 10**12))
def test_drawer_reproduces_randint_and_leaves_the_same_state(m):
    # width 2m + 1 > 2**32 at m = 10**12, so each getrandbits call takes several words
    lb = odd_fraction_brace(m)
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        draw = lazy._primitives(lb).drawer(rng)
        for _ in range(300):
            assert draw() == (2 * ref.randint(-m, m) + 1, 2 * ref.randint(-m, m) + 1)
        assert rng.random() == ref.random()


def test_magnitude_zero_draws_one():
    lb = odd_fraction_brace(0)
    rng = random.Random(0)
    assert {lb.sample(rng) for _ in range(50)} == {Fraction(1)}
    checks = sampled_brace_laws(lb, samples=20, seed=0)
    assert all(c.status == "sampled" for c in checks)


@pytest.mark.parametrize("magnitude", [-1, True, 2.5, "3", None])
def test_bad_magnitude_is_refused_when_the_brace_is_built(magnitude):
    with pytest.raises(ValueError, match="magnitude must be a non-negative integer"):
        odd_fraction_brace(magnitude)


def test_importing_lazy_loads_no_numpy_and_no_other_zbrace_module():
    # The lazy workload's set-up is this import alone. It keeps its own
    # SampledCheck record because zbrace.solutions.Check would pull in numpy.
    code = (
        "import sys, zbrace.lazy; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'zbrace')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lazy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['zbrace', 'zbrace.lazy']"
