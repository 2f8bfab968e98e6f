"""Sampled verification over unbounded exact-value carriers.

A ``LazyBrace`` bundles the brace operations as callables over exact
values (rationals here); laws and braid constraints can only be checked
pointwise on seeded pseudorandom samples, so results are reported as
"sampled", never as proved.

Each check is one loop over a set of primitives chosen once per call
(``_primitives``). The canonical odd-fraction brace is evaluated on
unreduced integer pairs (p, q) with p and q odd, standing for p/q. No
result is reduced: two pairs are equal when they cross-multiply to the
same product, and carrier membership stays a parity test, because a pair
and its lowest terms differ by an odd factor. Its draws come straight
from ``rng.getrandbits`` in the steps of ``rng.randint``, so the draws,
statuses, points and witnesses (decoded to reduced ``Fraction``s) are
those of the ``Fraction`` operations. Any other brace, including a
``dataclasses.replace`` copy of the canonical one with a replaced
operation, runs on its own callables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple

Element = Any
Pair = tuple[int, int]


@dataclass(frozen=True)
class LazyBrace:
    name: str
    one: Element
    add: Callable[[Element, Element], Element]
    neg: Callable[[Element], Element]
    circle: Callable[[Element, Element], Element]
    circle_inv: Callable[[Element], Element]
    equal: Callable[[Element, Element], bool]
    contains: Callable[[Element], bool]
    sample: Callable[[random.Random], Element]

    def sigma(self, z: Element, a: Element, b: Element) -> Element:
        return self._sigma(z, a, self.circle(a, b))

    def tau(self, z: Element, b: Element, a: Element) -> Element:
        return self.apply(z, a, b)[1]

    def apply(self, z: Element, a: Element, b: Element) -> tuple[Element, Element]:
        """(sigma_a(b), tau_b(a)), with tau_b(a) = sigma_a(b)^{-1} o (a o b) sharing a o b."""
        ab = self.circle(a, b)
        s = self._sigma(z, a, ab)
        return s, self.circle(self.circle_inv(s), ab)

    def _sigma(self, z: Element, a: Element, ab: Element) -> Element:
        return self.add(self.add(ab, self.neg(self.circle(a, z))), z)


# The odd-fraction brace's operations live at module level, so that
# _primitives recognises an unmodified brace by the identity of its fields.


def _odd_add(a: Fraction, b: Fraction) -> Fraction:
    return a - 1 + b


def _odd_neg(a: Fraction) -> Fraction:
    return 2 - a


def _odd_circle(a: Fraction, b: Fraction) -> Fraction:
    return a * b


def _odd_circle_inv(a: Fraction) -> Fraction:
    return 1 / a


def _odd_equal(a: Fraction, b: Fraction) -> bool:
    return a == b


def _is_odd_fraction(x: Element) -> bool:
    return isinstance(x, Fraction) and x.numerator % 2 == 1 and x.denominator % 2 == 1


@dataclass(frozen=True)
class _OddFractionSampler:
    """(2i + 1)/(2j + 1) with i, then j, drawn as by ``rng.randint(-magnitude, magnitude)``."""

    magnitude: int

    def __post_init__(self) -> None:
        m = self.magnitude
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValueError(f"magnitude must be a non-negative integer, got {m!r}")

    def drawer(self, rng: random.Random) -> Callable[[], Pair]:
        """A callable drawing the unreduced pair (2i + 1, 2j + 1) from ``rng``.

        ``rng.randint(-m, m)`` is -m plus a draw below width = 2m + 1, which
        CPython's ``_randbelow_with_getrandbits`` takes as ``getrandbits(k)``
        with k = width.bit_length(), drawn again while it is >= width. This
        makes the same ``getrandbits`` calls, so ``rng`` ends in the same state.
        """
        getrandbits = rng.getrandbits
        width = 2 * self.magnitude + 1
        k = width.bit_length()
        low = 1 - 2 * self.magnitude  # 2 * (i - m) + 1 = 2 * i + low

        def draw() -> Pair:
            i = getrandbits(k)
            while i >= width:
                i = getrandbits(k)
            j = getrandbits(k)
            while j >= width:
                j = getrandbits(k)
            return 2 * i + low, 2 * j + low

        return draw

    def __call__(self, rng: random.Random) -> Fraction:
        return Fraction(*self.drawer(rng)())


def odd_fraction_brace(magnitude: int = 25) -> LazyBrace:
    """Rationals with odd numerator and denominator, a +1 b = a - 1 + b, a o b = a*b.

    ``magnitude`` (a non-negative integer, else ``ValueError``) bounds the
    integers drawn by the sampler; arithmetic is exact on the full infinite
    carrier. The sampled checks evaluate this brace on unreduced integer
    pairs, with the same draws and results as its ``Fraction`` callables; a
    copy with any operation replaced is evaluated through its callables
    instead.
    """
    return LazyBrace(
        name="odd-fractions",
        one=Fraction(1),
        add=_odd_add,
        neg=_odd_neg,
        circle=_odd_circle,
        circle_inv=_odd_circle_inv,
        equal=_odd_equal,
        contains=_is_odd_fraction,
        sample=_OddFractionSampler(magnitude),
    )


# The odd-fraction operations on pairs (p, q), p and q odd, q of either
# sign. Every result is again such a pair, since a sum of three odd
# products is odd and so is 2q - p; no result is reduced.


def _pair_add(a: Pair, b: Pair) -> Pair:
    (ap, aq), (bp, bq) = a, b
    return ap * bq + bp * aq - aq * bq, aq * bq


def _pair_neg(a: Pair) -> Pair:
    p, q = a
    return 2 * q - p, q


def _pair_circle(a: Pair, b: Pair) -> Pair:
    return a[0] * b[0], a[1] * b[1]


def _pair_circle_inv(a: Pair) -> Pair:
    p, q = a
    return q, p


def _pair_equal(a: Pair, b: Pair) -> bool:
    return a[0] * b[1] == b[0] * a[1]


def _pair_contains(a: Pair) -> bool:
    return a[0] % 2 == 1 and a[1] % 2 == 1


def _pair_apply(z: Pair, a: Pair, b: Pair) -> tuple[Pair, Pair]:
    """(sigma_a(b), tau_b(a)) from sigma_a(b) = a(b - z) + z and tau_b(a) = ab / sigma_a(b).

    The closed form is exact: (ab +1 (2 - az)) +1 z = ab - az + z. With
    sigma_a(b) = num / (aq bq zq), tau_b(a) = ap bp zq / num.
    """
    (zp, zq), (ap, aq), (bp, bq) = z, a, b
    num = ap * (bp * zq - zp * bq) + zp * aq * bq
    return (num, aq * bq * zq), (ap * bp * zq, num)


def _encode(x: Fraction) -> Pair:
    return x.numerator, x.denominator


def _decode(x: Pair) -> Fraction:
    return Fraction(*x)


def _same(x: Element) -> Element:
    return x


class _Primitives(NamedTuple):
    """What every sampled loop evaluates: elements in, elements out.

    ``drawer(rng)`` is the sampler bound to one generator, called with no
    arguments. ``encode`` turns a shift into the loop's element form and
    ``decode`` turns a loop element back into a carrier element for a
    witness.
    """

    drawer: Callable[[random.Random], Callable[[], Element]]
    apply: Callable[[Element, Element, Element], tuple[Element, Element]]
    circle: Callable[[Element, Element], Element]
    add: Callable[[Element, Element], Element]
    neg: Callable[[Element], Element]
    circle_inv: Callable[[Element], Element]
    equal: Callable[[Element, Element], bool]
    contains: Callable[[Element], bool]
    one: Element
    encode: Callable[[Element], Element]
    decode: Callable[[Element], Element]


def _primitives(lb: LazyBrace) -> _Primitives:
    """Integer-pair primitives for the canonical odd-fraction brace, else lb's own callables."""
    canonical = (
        lb.add is _odd_add
        and lb.neg is _odd_neg
        and lb.circle is _odd_circle
        and lb.circle_inv is _odd_circle_inv
        and lb.equal is _odd_equal
        and lb.contains is _is_odd_fraction
        and type(lb.sample) is _OddFractionSampler
    )
    if canonical:
        return _Primitives(
            drawer=lb.sample.drawer,
            apply=_pair_apply,
            circle=_pair_circle,
            add=_pair_add,
            neg=_pair_neg,
            circle_inv=_pair_circle_inv,
            equal=_pair_equal,
            contains=_pair_contains,
            one=_encode(lb.one),
            encode=_encode,
            decode=_decode,
        )
    return _Primitives(
        drawer=partial(partial, lb.sample),  # rng -> partial(lb.sample, rng)
        apply=lb.apply,
        circle=lb.circle,
        add=lb.add,
        neg=lb.neg,
        circle_inv=lb.circle_inv,
        equal=lb.equal,
        contains=lb.contains,
        one=lb.one,
        encode=_same,
        decode=_same,
    )


@dataclass(frozen=True)
class SampledCheck:
    name: str
    status: str  # "sampled" (held on every sample) or "fail"
    points: int
    witness: tuple | None
    note: str = ""


def sampled_brace_laws(lb: LazyBrace, samples: int = 1000, seed: int = 0) -> list[SampledCheck]:
    """Pointwise group and distributivity laws on seeded random triples.

    ``samples`` triples are drawn from ``random.Random(seed)``; each law
    records its first failing sample as the witness. At least one sample
    is required.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ops = _primitives(lb)
    add, neg, circle, circle_inv = ops.add, ops.neg, ops.circle, ops.circle_inv
    equal, contains, one, dec = ops.equal, ops.contains, ops.one, ops.decode
    draw = ops.drawer(random.Random(seed))
    closure = add_assoc = add_unit = circle_assoc = circle_unit = distributive = None
    for _ in range(samples):
        a, b, c = draw(), draw(), draw()
        # The subterms that more than one law uses, each evaluated once.
        a_plus_b, b_plus_c, neg_a = add(a, b), add(b, c), neg(a)
        a_circ_b, inv_a = circle(a, b), circle_inv(a)
        if closure is None:
            if not (contains(a_plus_b) and contains(neg_a) and contains(a_circ_b) and contains(inv_a)):
                closure = (dec(a), dec(b))
        if add_assoc is None and not equal(add(a_plus_b, c), add(a, b_plus_c)):
            add_assoc = (dec(a), dec(b), dec(c))
        if add_unit is None:
            if not (equal(add(a, one), a) and equal(add(one, a), a) and equal(add(a, neg_a), one)):
                add_unit = (dec(a),)
        if circle_assoc is None and not equal(circle(a_circ_b, c), circle(a, circle(b, c))):
            circle_assoc = (dec(a), dec(b), dec(c))
        if circle_unit is None and not (equal(circle(a, one), a) and equal(circle(a, inv_a), one)):
            circle_unit = (dec(a),)
        if distributive is None:
            if not equal(circle(a, b_plus_c), add(add(a_circ_b, neg_a), circle(a, c))):
                distributive = (dec(a), dec(b), dec(c))
    verdicts = {
        "closure": closure,
        "add-associativity": add_assoc,
        "add-identity-inverse": add_unit,
        "circle-associativity": circle_assoc,
        "circle-identity-inverse": circle_unit,
        "left-distributivity": distributive,
    }
    return [
        SampledCheck(
            name=name,
            status="sampled" if witness is None else "fail",
            points=samples,
            witness=witness,
        )
        for name, witness in verdicts.items()
    ]


def sampled_verify_lazy(
    lb: LazyBrace,
    z: Element,
    samples: int = 10_000,
    seed: int = 0,
    w: Element | None = None,
) -> list[SampledCheck]:
    """Braid constraints and companions for shift z on sampled triples.

    Runs the three braid constraints and the product identity in exact
    arithmetic; probes involutivity two ways (z = 1 must hold on every
    sampled pair, z != 1 must produce an explicit two-step witness); and,
    when a second shift w != z is given, searches for an element a with
    -(a o z) + z != -(a o w) + w, separating the two deformations.

    The triples come from ``random.Random(seed)`` and the involutivity and
    separator draws from ``random.Random(seed + 1)``. On the canonical
    odd-fraction brace every loop runs on unreduced integer pairs, and the
    witnesses are decoded back to reduced ``Fraction``s.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not lb.contains(z):
        raise ValueError(f"shift {z!r} is not in the carrier of {lb.name}")
    ops = _primitives(lb)
    apply, circle, add, neg = ops.apply, ops.circle, ops.add, ops.neg
    equal, dec = ops.equal, ops.decode
    z = ops.encode(z)
    draw = ops.drawer(random.Random(seed))

    # Each constraint side is one component of r_z at one of six pairs, so
    # every sigma and tau below is evaluated once per sample.
    c1 = c2 = c3 = prod = None
    for _ in range(samples):
        e, x, y = draw(), draw(), draw()
        s_xy, t_yx = apply(z, x, y)  # sigma_x(y), tau_y(x)
        if prod is None and not equal(circle(s_xy, t_yx), circle(x, y)):
            prod = (dec(x), dec(y))
        if c1 is None or c2 is None or c3 is None:
            s_ex, t_xe = apply(z, e, x)  # sigma_e(x), tau_x(e)
            s_txe_y, t_y_txe = apply(z, t_xe, y)  # sigma_{tau_x(e)}(y), tau_y(tau_x(e))
            s_e_sxy, t_sxy_e = apply(z, e, s_xy)  # sigma_e(sigma_x(y)), tau_{sigma_x(y)}(e)
            c1_rhs, c3_lhs = apply(z, s_ex, s_txe_y)
            c3_rhs, c2_rhs = apply(z, t_sxy_e, t_yx)
            if c1 is None and not equal(s_e_sxy, c1_rhs):
                c1 = (dec(e), dec(x), dec(y))
            if c2 is None and not equal(t_y_txe, c2_rhs):
                c2 = (dec(e), dec(x), dec(y))
            if c3 is None and not equal(c3_lhs, c3_rhs):
                c3 = (dec(e), dec(x), dec(y))

    out = [
        SampledCheck("constraint-c1", "sampled" if c1 is None else "fail", samples, c1),
        SampledCheck("constraint-c2", "sampled" if c2 is None else "fail", samples, c2),
        SampledCheck("constraint-c3", "sampled" if c3 is None else "fail", samples, c3),
        SampledCheck("product-identity", "sampled" if prod is None else "fail", samples, prod),
    ]

    draw2 = ops.drawer(random.Random(seed + 1))
    inv_samples = min(samples, 2000)
    if equal(z, ops.one):
        bad = None
        for _ in range(inv_samples):
            x, y = draw2(), draw2()
            uu, vv = apply(z, *apply(z, x, y))
            if not (equal(uu, x) and equal(vv, y)):
                bad = (dec(x), dec(y))
                break
        out.append(
            SampledCheck(
                "involutive-at-identity",
                "sampled" if bad is None else "fail",
                inv_samples,
                bad,
            )
        )
    else:
        wit = None
        for _ in range(inv_samples):
            x, y = draw2(), draw2()
            u, v = apply(z, x, y)
            uu, vv = apply(z, u, v)
            if not (equal(uu, x) and equal(vv, y)):
                wit = ((dec(x), dec(y)), (dec(u), dec(v)), (dec(uu), dec(vv)))
                break
        out.append(
            SampledCheck(
                "non-involutive-witness",
                "sampled" if wit is not None else "fail",
                inv_samples,
                wit,
                note="two applications move the recorded pair",
            )
        )

    if w is not None:
        if not lb.contains(w):
            raise ValueError(f"shift {w!r} is not in the carrier of {lb.name}")
        w = ops.encode(w)
        sep = None
        for _ in range(inv_samples):
            a = draw2()
            lhs = add(neg(circle(a, z)), z)
            rhs = add(neg(circle(a, w)), w)
            if not equal(lhs, rhs):
                sep = (dec(a), dec(lhs), dec(rhs))
                break
        status = "sampled" if (sep is not None) == (not equal(z, w)) else "fail"
        out.append(
            SampledCheck(
                "distinct-shift-witness",
                status,
                inv_samples,
                sep,
                note="element separating the deformations at z and w",
            )
        )
    return out
