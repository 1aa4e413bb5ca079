"""Sparse multivariate polynomial arithmetic."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmoments import ParamMismatch, ResourceBoundError, UniRat
from qmoments.identities import Mismatch, _compare_pairs, _key_order
from qmoments.mpoly import FIELD, MPoly
from qmoments.qrat import ONE, ZERO


def xvars(n, param="q"):
    return [MPoly.var(i, n, param) for i in range(n)]


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""

    def expire(*_):
        raise TimeoutError("no answer in %d s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_basic_ring_ops():
    x, y = xvars(2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coeff_of((2, 0)) == UniRat.one()
    assert p.coeff_of((1, 1)).is_zero()
    assert (p - p).is_zero()
    assert (x + 1) * (x + 1) * (x + 1) == x * x * x + 3 * x * x + 3 * x + 1


def test_zero_coefficients_dropped():
    x, y = xvars(2)
    p = x + y - x
    assert set(p.terms) == {(0, 1)}
    assert MPoly({(0, 0): 0}, 2).is_zero()


def test_uni_rat_coefficients_and_param():
    q = UniRat.mono("q", 1)
    x, y = xvars(2, "q")
    p = x.scale(q) + y.scale(1 - q)
    assert p.param == "q"
    t_poly = MPoly.var(0, 2, "t")
    with pytest.raises(ParamMismatch):
        p + t_poly.scale(UniRat.mono("t", 1))


def test_degrees():
    x, y = xvars(2)
    p = x * x * y + x * y
    assert p.homogeneous_degree() is None
    assert (x * y + x * x).homogeneous_degree() == 2
    assert MPoly.zero(2).homogeneous_degree() == 0


def test_divexact_roundtrip_random():
    rng = random.Random(23)
    n = 3
    x = xvars(n)
    for _ in range(40):
        t = {}
        for _ in range(rng.randrange(1, 6)):
            e = tuple(rng.randrange(0, 3) for _ in range(n))
            t[e] = t.get(e, 0) + rng.randrange(-3, 4)
        a = MPoly(t, n, "q")
        ds = [x[i] - x[j] for i, j in (rng.sample(range(n), 2) for _ in range(rng.randrange(1, 4)))]
        prod = a
        for d in ds:
            prod = prod * d
        for d in reversed(ds):
            prod = prod.divexact(d)
        assert prod == a


def test_divexact_vandermonde():
    x = xvars(3)
    v = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
    q = x[0] * x[0] + x[1] * x[2]
    p = v * q
    got = p.divexact(x[0] - x[1]).divexact(x[0] - x[2]).divexact(x[1] - x[2])
    assert got == q


def test_divexact_inexact_raises():
    x, y = xvars(2)
    with pytest.raises(ArithmeticError):
        (x * x + y).divexact(x - y)
    with pytest.raises(ValueError):  # not a divisor +-(x_i - x_j)
        (x * x + y).divexact(x + y)


def test_mul_keep_filter():
    x, y = xvars(2)
    geo = sum((MPoly.mono((i, 0), 1, "q") for i in range(1, 5)), MPoly.one(2))
    p = geo.mul(geo, keep=((0, 2, 3),))
    assert p.coeff_of((3, 0)) == UniRat.const(4)
    assert p.coeff_of((4, 0)).is_zero()
    _ = y


def test_swap_and_permute():
    x, y, z = xvars(3)
    p = x * x * y + z
    assert p.swap_vars(0, 1) == y * y * x + z
    sym = x * y + x * z + y * z
    assert sym.swap_vars(0, 2) == sym


def test_embed():
    x, y = xvars(2)
    p = x * y + x
    big = xvars(4)
    assert p.embed(4, 1) == big[1] * big[2] + big[1]
    assert p.embed(4, 0) == big[0] * big[1] + big[0]
    assert p.embed(4, 2) == big[2] * big[3] + big[2]
    for offset in (-1, 3):
        with pytest.raises(ValueError):
            p.embed(4, offset)


def test_subs_and_eval():
    q = UniRat.mono("q", 1)
    x, y = xvars(2, "q")
    p = x * x + x * y.scale(q)
    # eval_points takes rational constants only
    with pytest.raises(ValueError):
        p.eval_points([[q, 1 - q]])
    val = eval1(p, [Fraction(1, 2), 2])
    assert val == Fraction(1, 4) + q
    assert val.constant() is None  # still has q


def test_specialize_param():
    q = UniRat.mono("q", 1)
    x, y = xvars(2, "q")
    p = x.scale(1 - q) + y.scale(q ** 2)
    sp = p.specialize_param(Fraction(1, 2))
    assert sp.coeff_of((1, 0)) == UniRat.const(Fraction(1, 2))
    assert sp.coeff_of((0, 1)) == UniRat.const(Fraction(1, 4))
    assert sp.param is None


# -- packed Laurent kernel against the UniRat arithmetic -------------------------

SLOT = 1 << 63  # signed 8-byte slots, the kernel's narrowest width, hold |x| < SLOT
ROOT = 3037000499  # largest d with d * d < SLOT
NEAR_SLOT = [SLOT - 1, SLOT, SLOT + 1, SLOT // 2, (SLOT - 1) // 7, ROOT, ROOT + 1, 1 << 31]


def laurent_coeff(digit):
    """A Laurent polynomial in q, possibly with negative exponents and a
    constant denominator (so L > 1)."""
    return st.builds(
        lambda lo, ds, den: sum(
            (UniRat.mono("q", lo + i, Fraction(d, den)) for i, d in enumerate(ds)),
            ZERO,
        ),
        st.integers(-3, 3),
        st.lists(digit, min_size=1, max_size=4),
        st.sampled_from([1, 1, 1, 2, 3, 6]),
    )


SMALL = st.integers(-4, 4)
BOUNDARY = st.one_of(SMALL, st.sampled_from(NEAR_SLOT), st.sampled_from(NEAR_SLOT).map(lambda x: -x))


def laurent_poly(digit=BOUNDARY, nvars=2, max_terms=4, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, laurent_coeff(digit), max_size=max_terms).map(
        lambda t: MPoly(t, nvars, "q")
    )


def with_rational_coeff(poly):
    """The same poly plus 1/(1 - q) on one coefficient: a non-monomial
    denominator that never cancels, since the rest has no pole at q = 1, so
    building it raises ValueError."""
    terms = dict(poly.terms)
    e = next(iter(terms), (0,) * poly.nvars)
    terms[e] = terms.get(e, ZERO) + ONE / (1 - UniRat.mono("q", 1))
    return MPoly(terms, poly.nvars, "q")


def ref_mul(a, b, keep=None):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if keep is None or keep(e):
                out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def canon(terms):
    return {e: (c.num, c.den, c.param) for e, c in terms.items()}


def low_degree(e):
    return sum(e) <= 3


LOW_DEGREE = ((0, 2, 3),)  # low_degree as truncation blocks


PROPS = settings(max_examples=150, deadline=None)


@PROPS
@given(laurent_poly(), laurent_poly())
def test_packed_mul_matches_unirat(a, b):
    prod = a.mul(b)
    assert canon(prod.terms) == canon(ref_mul(a.terms, b.terms))


@PROPS
@given(laurent_poly(), laurent_poly())
def test_packed_mul_keep_matches_unirat(a, b):
    assert canon(a.mul(b, keep=LOW_DEGREE).terms) == canon(
        ref_mul(a.terms, b.terms, low_degree)
    )


@PROPS
@given(laurent_poly(), laurent_poly(), laurent_poly())
def test_packed_add_matches_unirat(a, b, c):
    total = a + b
    assert canon(total.terms) == canon(ref_add(a.terms, b.terms))
    # a sum of products mixes slot widths, offsets and denominators
    mixed = a * b + c
    assert canon(mixed.terms) == canon(ref_add(ref_mul(a.terms, b.terms), c.terms))


@PROPS
@given(laurent_poly())
def test_non_laurent_operand_raises(b):
    with pytest.raises(ValueError):
        with_rational_coeff(b)


def test_non_constant_coefficient_without_a_name_raises():
    # decoding names every non-constant coefficient after the poly, so an
    # unnamed one cannot be packed
    with pytest.raises(ValueError):
        MPoly({(1,): UniRat((0, 1), (1,), None)}, 1)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        laurent_poly(st.integers(-(1 << 20), 1 << 20), nvars=1, max_terms=2, max_exp=1),
        min_size=18,
        max_size=22,
    )
)
def test_product_chain_widens_slots(factors):
    packed = MPoly.one(1, "q")
    ref = {(0,): UniRat.one()}
    for f in factors:
        packed = packed.mul(f)
        ref = ref_mul(ref, f.terms)
    assert canon(packed.terms) == canon(ref)


def test_product_digit_at_slot_boundary():
    # (2^63 - 1) / 7 * 7 = 2^63 - 1, the largest digit a signed 8-byte slot
    # holds; the certified bound reaches it exactly, so the 8-byte width
    # chosen before the product is kept
    for sign in (1, -1):
        a = MPoly({(1, 0): UniRat.mono("q", -1, sign * ((SLOT - 1) // 7))}, 2, "q")
        b = MPoly({(0, 1): UniRat.mono("q", 2, 7)}, 2, "q")
        assert a._w == b._w == 8
        prod = a * b
        assert (prod._w, prod._mag) == (8, SLOT - 1)
        assert prod.terms == {(1, 1): UniRat.mono("q", 1, sign * (SLOT - 1))}
        # one unit more does not fit: the slots widen
        bigger = prod + MPoly({(1, 1): UniRat.mono("q", 1, sign)}, 2, "q")
        assert bigger._w == 16
        assert bigger.terms == {(1, 1): UniRat.mono("q", 1, sign * SLOT)}


def test_bound_counts_digit_and_term_sums():
    # every single digit product ROOT^2 fits in 8 bytes, but sums of two do not
    q = UniRat.mono("q", 1)
    x = MPoly.var(0, 1, "q")
    one = MPoly.one(1, "q")
    by_digits = one.scale(ROOT * (1 + q))  # middle digit of the square: 2 ROOT^2
    by_terms = (one + x).scale(ROOT)  # x coefficient of the square: 2 ROOT^2
    by_sum = one.scale(ROOT) + one.scale(ROOT)  # one slot of 2 ROOT: square 4 ROOT^2
    disjoint = one.scale(ROOT) + x.scale(ROOT)  # no shared exponent: bound ROOT
    assert (by_sum._mag, disjoint._mag) == (2 * ROOT, ROOT)
    for p in (by_digits, by_terms, by_sum, disjoint):
        sq = p * p
        assert sq._w == 16
        assert canon(sq.terms) == canon(ref_mul(p.terms, p.terms))


# -- packed scale and eval_points against the UniRat loops -------------------------


def laurent_scalar(digit=BOUNDARY):
    """A nonzero Laurent polynomial in q (possibly a bare constant)."""
    return laurent_coeff(digit).filter(lambda c: not c.is_zero())


def ref_eval(terms, values):
    total = ZERO
    for e, c in terms.items():
        t = c
        for a, v in zip(e, values):
            if a:
                t = t * UniRat.const(v) ** a
        total = total + t
    return total


def canon1(c):
    return (c.num, c.den, c.param)


def eval1(p, xs):
    """The value of p at the one point xs, by `eval_points`."""
    (value,) = p.eval_points([xs])
    return value


@PROPS
@given(laurent_poly(), laurent_scalar())
def test_packed_scale_matches_unirat(a, c):
    scaled = a.scale(c)
    assert canon(scaled.terms) == canon({e: v * c for e, v in a.terms.items()})
    # a packed product scaled and then added stays packed throughout
    chain = a.mul(a).scale(c) + a
    ref = ref_add({e: v * c for e, v in ref_mul(a.terms, a.terms).items()}, a.terms)
    assert canon(chain.terms) == canon(ref)


@PROPS
@given(laurent_poly(), laurent_scalar(SMALL))
def test_scale_by_non_laurent_scalar_raises(a, c):
    # c / (1 - q) has a non-monomial denominator unless c cancels it
    r = c / (1 - UniRat.mono("q", 1))
    assume(any(r.den[:-1]))
    with pytest.raises(ValueError):
        a.scale(r)
    assert a.scale(0).is_zero()


def test_scale_by_lascoux_weights_is_packed():
    from qmoments.hall_littlewood import b_lambda, hl_p
    from qmoments.partitions import Partition, subpartitions
    from qmoments.rbasis import qprime_skew

    lam = Partition((3, 2, 1))
    pl = hl_p(lam, 3).poly
    for mu in subpartitions(lam):
        c = b_lambda(mu) * qprime_skew(lam, mu)
        scaled = pl.scale(c)
        assert scaled.terms == {e: v * c for e, v in pl.terms.items()}


POINT = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=20),
    st.sampled_from([SLOT - 1, -(SLOT + 1), ROOT]),
)


@PROPS
@given(laurent_poly(max_terms=6, max_exp=3), st.lists(POINT, min_size=2, max_size=2))
def test_packed_eval_matches_unirat(a, xs):
    got = eval1(a, xs)
    assert canon1(got) == canon1(ref_eval(a.terms, xs))
    # UniRat constants take the same path
    assert canon1(eval1(a, [UniRat.const(x) for x in xs])) == canon1(got)


@PROPS
@given(laurent_poly(), st.lists(POINT, min_size=2, max_size=2))
def test_eval_of_non_laurent_poly_raises(a, xs):
    with pytest.raises(ValueError):
        eval1(with_rational_coeff(a), xs)


@PROPS
@given(laurent_poly(SMALL, max_exp=3), st.integers(-3, 3).filter(bool), st.integers(-3, 3))
def test_eval_at_non_constant_values_raises(a, i, j):
    # eval_points refuses a non-constant point; with q specialized first the
    # point is constant, and the value is the UniRat loop's at that q
    xs = [UniRat.mono("q", i, 2), 1 + UniRat.mono("q", j)]
    with pytest.raises(ValueError):
        a.eval_points([xs])
    x = Fraction(1, 3)
    got = eval1(a.specialize_param(x), [v.eval_at(x) for v in xs])
    assert got == ref_eval(a.terms, xs).eval_at(x)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        max_size=6,
    ),
    st.lists(st.sampled_from([1, 2, 3, 4, 8, 9, 16, 27, 64, 125]), min_size=3, max_size=3),
)
def test_eval_at_integer_points_like_group_orders(coeffs, orders):
    # eval_on_group passes the integer torsion orders |H[p^k]| as Fractions
    # to a poly with constant coefficients and no parameter
    p = MPoly(coeffs, 3)
    xs = [Fraction(v) for v in orders]
    got = eval1(p, xs)
    assert canon1(got) == canon1(ref_eval(p.terms, xs))
    assert got.constant() is not None


def test_eval_digit_at_slot_boundary():
    # the sum's slot reaches 2^63 - 1 exactly; one unit more widens the slots
    for total in (SLOT - 1, SLOT, -SLOT, -(SLOT + 1)):
        p = MPoly({(1,): UniRat.mono("q", -1, total - 1), (0,): UniRat.mono("q", -1)}, 1, "q")
        assert eval1(p, [1]) == UniRat.mono("q", -1, total)
        assert eval1(p, [Fraction(1, 3)]) == ref_eval(p.terms, [Fraction(1, 3)])


def laurent_value(c):
    """{q-exponent: Fraction} of the UniRat c over c*q^v."""
    v = len(c.den) - 1
    return {i - v: Fraction(x, c.den[-1]) for i, x in enumerate(c.num) if x}


def fraction_eval(terms, xs):
    """{q-exponent: Fraction} of the decoded terms at xs, in Fractions only."""
    out = {}
    for e, c in terms.items():
        m = Fraction(1)
        for x, a in zip(xs, e):
            m *= Fraction(x) ** a
        v = len(c.den) - 1
        for i, x in enumerate(c.num):
            out[i - v] = out.get(i - v, 0) + Fraction(x, c.den[-1]) * m
    return {k: x for k, x in out.items() if x}


def check_eval_points(poly, points):
    got = poly.eval_points(points)
    assert len(got) == len(points)
    for c, xs in zip(got, points):
        assert laurent_value(c) == fraction_eval(poly.terms, xs)
        # canonical: the UniRat loop's form and parameter name
        assert canon1(c) == canon1(ref_eval(poly.terms, xs))


@PROPS
@given(
    laurent_poly(max_terms=6, max_exp=3),
    st.lists(st.lists(POINT, min_size=2, max_size=2), min_size=1, max_size=4),
)
def test_eval_points_matches_fraction_evaluation(a, points):
    check_eval_points(a, points)


@PROPS
@given(
    laurent_poly(max_terms=6, max_exp=3),
    st.lists(st.lists(POINT, min_size=2, max_size=2), min_size=1, max_size=4),
)
def test_embedded_poly_ignores_the_extra_coordinate(a, points):
    # the extra variable's degree bound is 0: its denominator, a prime no
    # short point uses, changes no factor; a non-constant value still raises
    extra = [Fraction(3, 10007 + 2 * i) for i in range(len(points))]
    assert a.embed(3, 0).eval_points([xs + [x] for xs, x in zip(points, extra)]) == a.eval_points(points)
    assert a.embed(3, 1).eval_points([[x] + xs for xs, x in zip(points, extra)]) == a.eval_points(points)
    with pytest.raises(ValueError):
        a.embed(3, 0).eval_points([points[0] + [UniRat.mono("q", 1)]])


def test_eval_points_widens_once_for_the_largest_point():
    # the 8-byte slots hold the value at x = 1, but at x = 7 a slot of the
    # sum reaches 7 * (2^61 + 1) > 2^63: the slots widen to the largest
    # point's bound, and every point runs at that width
    p = MPoly({(1,): UniRat.mono("q", -1, SLOT // 4 + 1), (0,): UniRat.mono("q", 2, 5)}, 1, "q")
    check_eval_points(p, [[1], [7], [Fraction(1, 3)], [0], [-SLOT]])
    x, y = xvars(2)
    assert [canon1(c) for c in (x - y).eval_points([[3, 3], [1, 2]])] == [((), (1,), None), ((-1,), (1,), None)]
    assert x.eval_points([]) == []
    with pytest.raises(ValueError):
        x.eval_points([[1, 2], [1]])


def test_eval_zero_and_empty_polys():
    x, y = xvars(2)
    assert eval1(x - y, [3, 3]).is_zero()
    assert eval1(MPoly.zero(2, "q"), [1, 2]).is_zero()
    assert eval1(MPoly.const(UniRat.mono("q", -2, 5), 0, "q"), []) == UniRat.mono("q", -2, 5)
    with pytest.raises(ValueError):
        eval1(x, [1])


# -- packed exact division by x_i - x_j against the UniRat loop -------------------


def ref_divexact(terms, lead, rest, sign):
    """The UniRat division loop for the divisor sign * (x^lead - x^rest)."""
    r = dict(terms)
    out = {}
    while r:
        m = max(r)
        qe = tuple(a - b for a, b in zip(m, lead))
        if min(qe) < 0:
            raise ArithmeticError("inexact polynomial division")
        qc = r.pop(m) * sign
        out[qe] = qc
        t = tuple(a + b for a, b in zip(qe, rest))
        s = r.get(t, ZERO) + qc * sign
        if s.is_zero():
            r.pop(t, None)
        else:
            r[t] = s
    return out


def difference(i, j, nvars=3):
    """x_i - x_j as an MPoly, with the lex-larger exponent and the sign."""
    x = xvars(nvars)
    unit = lambda k: tuple(int(v == k) for v in range(nvars))
    lead, rest = sorted([unit(i), unit(j)], reverse=True)
    return x[i] - x[j], lead, rest, 1 if i < j else -1


PAIR = st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 1), (1, 2)])


@PROPS
@given(laurent_poly(nvars=3), PAIR, st.booleans())
def test_packed_divexact_matches_unirat(g, pair, decoded):
    d, lead, rest, sign = difference(*pair)
    f = g * d
    if decoded:
        f = MPoly(f.terms, 3, "q")  # packed afresh: mag is the exact largest slot
    quot = f.divexact(d)
    assert canon(quot.terms) == canon(ref_divexact(f.terms, lead, rest, sign)) == canon(g.terms)


@PROPS
@given(laurent_poly(nvars=3), laurent_coeff(BOUNDARY), PAIR)
def test_packed_divexact_inexact_raises(g, c, pair):
    d, lead, rest, sign = difference(*pair)
    # x_k^2 for k the variable of lead: one term the divisor leaves behind
    extra = MPoly({tuple(2 * v for v in lead): c}, 3, "q")
    f = g * d + extra
    if c.is_zero():
        assert f.divexact(d) == g
        return
    with pytest.raises(ArithmeticError):
        ref_divexact(f.terms, lead, rest, sign)
    with time_limit(2), pytest.raises(ArithmeticError):
        f.divexact(d)


def test_packed_divexact_quotient_outgrows_dividend_slots():
    # M (x - y)(x + y)^2 has slots +-M, but the quotient M (x + y)^2 has 2M,
    # past the 8-byte slot the dividend fits in
    m = SLOT // 2 + 5
    x, y = xvars(2)
    for s in (1, -1):
        f = MPoly({(3, 0): s * m, (2, 1): s * m, (1, 2): -s * m, (0, 3): -s * m}, 2, "q")
        assert f._w == 8
        for d, sign in ((x - y, 1), (y - x, -1)):
            got = f.divexact(d)
            assert got.terms == {
                (2, 0): UniRat.const(sign * s * m),
                (1, 1): UniRat.const(2 * sign * s * m),
                (0, 2): UniRat.const(sign * s * m),
            }


def test_divexact_by_other_divisors_raises():
    x, y, z = xvars(3)
    g = x * x + y.scale(UniRat.mono("q", -1, 3)) * z
    others = (x + y, 2 * x - 2 * y, x - y * y, x * y - z, x - y.scale(UniRat.mono("q", 1)), x)
    for d in others + (MPoly.zero(3, "q"), 2, UniRat.mono("q", 1)):
        with pytest.raises(ValueError):
            (g * d).divexact(d)


# -- packed exponent keys: the two-term product, field bounds, 0 variables --------

TOP = (1 << FIELD) - 1  # the largest exponent a key field holds


def two_terms(nvars=2, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(
        exps, laurent_coeff(BOUNDARY).filter(lambda c: not c.is_zero()), min_size=2, max_size=2
    ).map(lambda t: MPoly(t, nvars, "q"))


@PROPS
@given(laurent_poly(max_terms=8), two_terms(), st.booleans())
def test_two_term_product_matches_unirat(a, b, left):
    x, y = (b, a) if left else (a, b)
    prod = x.mul(y)
    assert canon(prod.terms) == canon(ref_mul(x.terms, y.terms))
    kept = x.mul(y, keep=LOW_DEGREE)
    assert canon(kept.terms) == canon(ref_mul(x.terms, y.terms, low_degree))


def shift_factor():
    """sign * (q^s x^u - q^t x^v), u != v, s and t each below, at or above 0:
    both packed coefficients are +-2^m, so `mul` applies them as shifts."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.builds(
        lambda u, v, s, t, sign: MPoly(
            {u: UniRat.mono("q", s, sign), v: UniRat.mono("q", t, -sign)}, 2, "q"
        ),
        exps,
        exps,
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from([1, -1]),
    ).filter(lambda f: len(f.terms) == 2)


def is_power_of_two(c):
    return abs(c) & (abs(c) - 1) == 0


@PROPS
@given(laurent_poly(max_terms=8), shift_factor(), st.booleans())
def test_shift_factor_product_matches_unirat(a, f, left):
    # an operand over L * q^V with L > 1 and V > 0
    a = a + MPoly.mono((2, 1), UniRat.mono("q", -2, Fraction(1, 6)), "q")
    assert a._L > 1 and a._V > 0
    assert all(map(is_power_of_two, f._coeffs.values()))
    x, y = (f, a) if left else (a, f)
    assert canon(x.mul(y).terms) == canon(ref_mul(x.terms, y.terms))
    kept = x.mul(y, keep=LOW_DEGREE)
    assert canon(kept.terms) == canon(ref_mul(x.terms, y.terms, low_degree))


@PROPS
@given(laurent_poly(max_terms=8))
def test_two_term_factor_off_the_powers_of_two_matches_unirat(a):
    x, y = xvars(2)
    f = 2 * x - 3 * y  # 2 is a shift, -3 a multiply
    assert not all(map(is_power_of_two, f._coeffs.values()))
    assert canon(a.mul(f).terms) == canon(ref_mul(a.terms, f.terms))


NEAR_TOP = st.sampled_from([0, 1, 2, TOP // 2, TOP - 1, TOP])


def field_poly(nvars=2, max_terms=3):
    exps = st.tuples(*[NEAR_TOP] * nvars)
    return st.dictionaries(exps, laurent_coeff(SMALL), max_size=max_terms).map(
        lambda t: MPoly(t, nvars, "q")
    )


def degrees(terms, nvars):
    return [max((e[i] for e in terms), default=0) for i in range(nvars)]


@PROPS
@given(field_poly(), field_poly())
def test_exponents_at_the_field_top(a, b):
    # the product runs while every per-variable degree sum fits a field, and
    # raises ResourceBoundError once one could cross it
    fits = max(map(sum, zip(degrees(a.terms, 2), degrees(b.terms, 2)))) <= TOP
    if fits:
        assert canon(a.mul(b).terms) == canon(ref_mul(a.terms, b.terms))
    else:
        with pytest.raises(ResourceBoundError):
            a.mul(b)
    assert canon((a + b).terms) == canon(ref_add(a.terms, b.terms))


def block_poly():
    # small exponents, so that most products fit, and exponents near the top
    exps = st.tuples(*[st.sampled_from([0, 1, 2, 3, TOP // 2, TOP - 1, TOP])] * 3)
    return st.dictionaries(exps, laurent_coeff(SMALL), min_size=1, max_size=4).map(
        lambda t: MPoly(t, 3, "q")
    )


@settings(max_examples=500, deadline=None)
@given(block_poly(), block_poly(), st.data())
def test_block_truncation_matches_the_tuple_predicate(a, b, data):
    # caps of 0, on either side of some term's block sum (the edge of the
    # guard bit) and past the block's degree; exponents near the field top
    # give block sums past a field
    deg = [x + y for x, y in zip(degrees(a.terms, 3), degrees(b.terms, 3))]
    sums = [tuple(x + y for x, y in zip(e1, e2)) for e1 in a.terms for e2 in b.terms]
    blocks = []
    for _ in range(data.draw(st.integers(1, 2))):
        lo = data.draw(st.integers(0, 2))
        hi = data.draw(st.integers(lo + 1, 3))
        edges = [sum(e[lo:hi]) for e in sums]
        high = sum(deg[lo:hi])
        caps = [0, high + 1, high + TOP] + edges + [s - 1 for s in edges if s]
        blocks.append((lo, hi, data.draw(st.sampled_from(caps))))

    def keep(e):
        return all(sum(e[lo:hi]) <= cap for lo, hi, cap in blocks)

    for lo, hi, cap in blocks:
        deg[lo:hi] = [min(d, cap) for d in deg[lo:hi]]
    if max(deg) > TOP:
        with pytest.raises(ResourceBoundError):
            a.mul(b, keep=tuple(blocks))
        return
    got = a.mul(b, keep=tuple(blocks))
    assert all(d <= bound for d, bound in zip(got._deg, deg))
    assert canon(got.terms) == canon(ref_mul(a.terms, b.terms, keep))


def test_product_crossing_the_field_top_raises():
    x = xvars(3)
    for i in range(3):
        k = (i + 1) % 3
        top = MPoly.mono([TOP if v == i else 0 for v in range(3)], 1, "q")
        for other in (x[i], x[i] - x[k], x[k] - x[i].scale(UniRat.mono("q", 2))):
            with pytest.raises(ResourceBoundError):
                top * other
        assert canon((top * x[k]).terms) == canon(ref_mul(top.terms, x[k].terms))


def test_exponent_past_the_field_top_is_not_packed():
    # an exponent past a field, or a negative one, raises at construction
    for e in ((TOP + 1, 0), (0, TOP + 1), (1 << 40, 3)):
        with pytest.raises(ResourceBoundError):
            MPoly({e: UniRat.mono("q", -1, 3), (1, 1): 2}, 2, "q")
    for e in ((-1, 0), (2, -3)):
        with pytest.raises(ValueError):
            MPoly({e: UniRat.mono("q", -1, 3), (1, 1): 2}, 2, "q")
    assert MPoly.mono((TOP, 0), 1, "q")._deg == (TOP, 0)


@PROPS
@given(field_poly(nvars=3), PAIR, laurent_coeff(SMALL))
def test_packed_divexact_at_the_field_top(g, pair, c):
    # g * d fits while every degree of g plus one does; the division walks
    # exponent from x_i over to x_j, so it runs while deg_i + deg_j of the
    # dividend fits a field, and raises ResourceBoundError past it
    d, lead, rest, sign = difference(*pair)
    deg = [a + (v in pair) for v, a in enumerate(degrees(g.terms, 3))]
    if max(deg) > TOP:
        with pytest.raises(ResourceBoundError):
            g * d
        return
    f = g * d
    with time_limit(20):
        if deg[pair[0]] + deg[pair[1]] > TOP:
            with pytest.raises(ResourceBoundError):
                f.divexact(d)
            return
        assert canon(f.divexact(d).terms) == canon(g.terms)
        # x_k^2 for k the variable of lead: a remainder the divisor leaves
        f = f + MPoly({tuple(2 * v for v in lead): c}, 3, "q")
        if c.is_zero():
            return
        with pytest.raises(ArithmeticError):
            f.divexact(d)


def test_packed_divexact_raises_when_the_lead_field_is_empty():
    # the remainder's largest key has no x_i: subtracting x_i would borrow
    # from the field above (or go negative), so the division must stop there
    x = xvars(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for f in (x[j], x[j] * x[j] + x[2 - i], x[i] + x[j] * x[j] * x[j], x[i] * x[i]):
            for d in (x[i] - x[j], x[j] - x[i]):
                with time_limit(2), pytest.raises(ArithmeticError):
                    f.divexact(d)


def test_packed_divexact_remainder_past_the_field_top_raises():
    # dividing x^TOP y^5 by x - y walks the remainder to y^(TOP + 5), past a
    # field.  On packed keys, y^(TOP + 1) would carry into x, and the carried
    # remainder x^5 would cancel the dividend's -x^5, so an inexact division
    # would pass; the degree bound deg_x + deg_y <= TOP refuses it first
    x, y = xvars(2)
    for f in (MPoly.mono((TOP, 5), 3, "q"), MPoly({(TOP, 5): 1, (5, 0): -1}, 2, "q")):
        with time_limit(20), pytest.raises(ResourceBoundError):
            f.divexact(x - y)
    # the largest dividend the bound lets through: deg_x + deg_y = TOP
    g = MPoly.mono((TOP - 7, 5), 3, "q")
    assert canon((g * (x - y)).divexact(x - y).terms) == canon(g.terms)
    with pytest.raises(ResourceBoundError):
        (g * x * (x - y)).divexact(x - y)


@st.composite
def embed_case(draw):
    """(poly on k variables, nvars, offset): offset 0, nvars - k or any in
    between; exponents up to the field top; the empty poly included."""
    k = draw(st.integers(0, 3))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, TOP - 1, TOP])] * k)
    p = MPoly(draw(st.dictionaries(exps, laurent_coeff(BOUNDARY), max_size=4)), k, "q")
    nvars = draw(st.integers(k, k + 3))
    offset = draw(st.one_of(st.just(0), st.just(nvars - k), st.integers(0, nvars - k)))
    return p, nvars, offset


@PROPS
@given(embed_case())
def test_packed_embed_matches_padded_exponents(case):
    # the reference pads each decoded exponent tuple with zeros
    p, nvars, offset = case
    pad = nvars - offset - p.nvars
    ref = MPoly({(0,) * offset + e + (0,) * pad: c for e, c in p.terms.items()}, nvars, "q")
    got = p.embed(nvars, offset)
    assert got.nvars == nvars and got.param == p.param
    assert canon(got.terms) == canon(ref.terms)
    assert got == ref and got._deg == ref._deg


@st.composite
def swap_case(draw):
    """(poly on 1-4 variables, i, j): i < j, i > j or i == j; exponents up
    to the field top; the empty poly included."""
    k = draw(st.integers(1, 4))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, TOP - 1, TOP])] * k)
    p = MPoly(draw(st.dictionaries(exps, laurent_coeff(BOUNDARY), max_size=5)), k, "q")
    return p, draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))


@PROPS
@given(swap_case())
def test_packed_swap_matches_swapped_exponents(case):
    # the reference swaps entries i and j of each decoded exponent tuple
    p, i, j = case
    swap = lambda e: tuple(e[j] if v == i else e[i] if v == j else a for v, a in enumerate(e))
    ref = MPoly({swap(e): c for e, c in p.terms.items()}, p.nvars, "q")
    got = p.swap_vars(i, j)
    assert got.nvars == p.nvars and got.param == p.param
    assert canon(got.terms) == canon(ref.terms)
    assert got == ref and got._deg == ref._deg
    assert got.swap_vars(j, i) == p


def test_every_slot_is_immutable():
    p = MPoly.mono((1, 2), UniRat.mono("q", -1, 3), "q")
    for name in MPoly.__slots__ + ("nvars",):
        before = getattr(p, name)
        with pytest.raises(AttributeError):
            setattr(p, name, before)
        assert getattr(p, name) is before
    with pytest.raises(AttributeError):
        p.extra = 1


def zero_var_poly():
    return st.dictionaries(st.just(()), laurent_coeff(BOUNDARY), max_size=1).map(
        lambda t: MPoly(t, 0, "q")
    )


@PROPS
@given(zero_var_poly(), zero_var_poly(), laurent_scalar())
def test_zero_variable_polys_match_unirat(a, b, c):
    prod = a.mul(b)
    assert canon(prod.terms) == canon(ref_mul(a.terms, b.terms))
    assert canon((a + b).terms) == canon(ref_add(a.terms, b.terms))
    assert canon(a.scale(c).terms) == canon({e: v * c for e, v in a.terms.items()})
    assert canon1(eval1(a, [])) == canon1(ref_eval(a.terms, []))


@PROPS
@given(field_poly(max_terms=4), st.lists(st.sampled_from([-1, 1, Fraction(-1), 0]), min_size=2, max_size=2))
def test_packed_eval_at_the_field_top(a, xs):
    assert canon1(eval1(a, xs)) == canon1(ref_eval(a.terms, xs))


# -- equality, zero test and negation on the packed form ---------------------------


def layout(p):
    return p._w, p._L, p._V


def relaid(a, how):
    """a with the same values in another packed layout: over 3L (scaled by
    1/3, then by 3), over q^5 or in wider slots (a constant q^-5 or 2^200
    added and taken away)."""
    if how == "L":
        return a.scale(Fraction(1, 3)).scale(3)
    c = MPoly.const(UniRat.mono("q", -5) if how == "V" else 1 << 200, a.nvars, "q")
    return (a + c) - c


@PROPS
@given(laurent_poly(), st.sampled_from("LVw"), laurent_poly(SMALL, max_terms=2))
def test_packed_equality_across_layouts(a, how, d):
    v = relaid(a, how)
    assert layout(v) != layout(a)
    assert v == a and a == v and not v != a
    assert (v - a).is_zero() and not (v - a)
    assert v.is_zero() == (not a.terms) == (not v)
    changed = v + d
    assert (changed == a) == d.is_zero() == (changed == v)
    # against the same values packed afresh from the decoded terms
    assert MPoly(dict(a.terms), 2, "q") == v
    assert canon(v.terms) == canon(a.terms)


def test_packed_equality_checks_arity_and_parameter():
    x, y = xvars(2)
    p = x * y
    assert p != MPoly.mono((1, 1, 0), 1, "q") * MPoly.one(3, "q")
    assert p != (MPoly.var(0, 2, "t") * MPoly.var(1, 2, "t"))
    assert p == MPoly.var(0, 2) * MPoly.var(1, 2)  # no parameter name: compatible


@PROPS
@given(laurent_poly())
def test_packed_negation_keeps_the_layout(a):
    p = a.mul(MPoly.one(2, "q"))
    n = -p
    fields = lambda p: (p._w, p._L, p._V, p._mag, p._span, p._deg)
    assert fields(n) == fields(p)
    assert canon(n.terms) == canon({e: -c for e, c in a.terms.items()})
    assert canon((-a).terms) == canon(n.terms)
    # 1 - p and p - 1, as `1 - a * x[i]` is built
    one = {(0, 0): UniRat.one()}
    minus = {e: -c for e, c in a.terms.items()}
    assert canon((1 - p).terms) == canon(ref_add(one, minus))
    assert canon((p - 1).terms) == canon(ref_add(a.terms, {(0, 0): -UniRat.one()}))


def dict_loop(pairs):
    """The key-by-key comparison of two maps per pair, as it ran before the
    packed compare: the reference for `identities._compare_pairs`."""
    compared = 0
    first = None
    for label, lhs, rhs in pairs:
        for k in sorted(set(lhs) | set(rhs), key=_key_order):
            compared += 1
            a, b = lhs.get(k), rhs.get(k)
            same = (b is None or b.is_zero()) if a is None else (
                a.is_zero() if b is None else a == b
            )
            if not same and first is None:
                first = Mismatch(label, repr(k), repr(a), repr(b))
    return first is None, first, compared


@st.composite
def side_pairs(draw):
    """(lhs, rhs): packed MPolys in different layouts, the rhs holding the
    lhs's values or those with one coefficient changed, one key missing or
    one key extra."""
    a = draw(laurent_poly(SMALL, max_terms=5))
    lhs = a.mul(MPoly.one(2, "q"))
    rhs = relaid(a, draw(st.sampled_from("LVw")))
    edit = draw(st.sampled_from(["none", "change", "drop", "extra"]))
    coeff = laurent_coeff(SMALL).filter(bool)
    keys = sorted(a.terms)
    if edit in ("change", "drop") and keys:
        e = draw(st.sampled_from(keys))
        rhs = rhs + MPoly({e: -a.terms[e] if edit == "drop" else draw(coeff)}, 2, "q")
    elif edit == "extra":
        e = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e not in a.terms))
        rhs = rhs + MPoly({e: draw(coeff)}, 2, "q")
    return lhs, rhs


@PROPS
@given(side_pairs(), side_pairs(), st.booleans())
def test_packed_compare_matches_the_dict_loop(first, second, mutate):
    pairs = [("first", *first), ("second", *second)]
    decoded = [(label, a.terms, b.terms) for label, a, b in pairs]
    got = _compare_pairs(pairs, mutate=mutate)
    if mutate:
        assert got == _compare_pairs(decoded, mutate=True)
    else:
        assert got == dict_loop(decoded)
