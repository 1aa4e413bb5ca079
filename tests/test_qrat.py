"""Exact rational-function arithmetic in one parameter."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmoments import ParamMismatch, UniRat
from qmoments import qrat
from qmoments.qrat import ONE, ZERO, _pack_signed, _pgcd, _pmul, _trim, _unpack_signed, laurent_sum_of_products
from qmoments.qseries import qbinomial


def q():
    return UniRat.mono("q", 1)


def test_constants_and_canonical_form():
    assert UniRat.const(0).is_zero()
    assert UniRat.const(1) == ONE
    assert UniRat.const(Fraction(4, 6)) == UniRat.const(Fraction(2, 3))
    assert UniRat.const(5).param is None
    assert ZERO.param is None
    # constants compare equal across parameter names
    assert UniRat((3,), (1,), "q") == UniRat.const(3)
    assert UniRat((3,), (1,), "q") == UniRat((3,), (1,), "t")


def test_poly_and_mono():
    x = q()
    p = 1 + 2 * x + x ** 3
    assert p == UniRat((1, 2, 0, 1), (1,), "q")
    assert UniRat.mono("q", 3) == x ** 3
    assert UniRat.mono("q", -2) == ONE / x ** 2
    assert UniRat.mono("q", 2, Fraction(1, 3)) == x ** 2 / 3


def test_reduction():
    x = q()
    r = (x ** 2 - 1) / (x - 1)
    assert r == x + 1
    assert r.den == (1,)
    r2 = (2 * x + 2) / (4 * x + 4)
    assert r2 == UniRat.const(Fraction(1, 2))
    # sign normalization: denominator leading coefficient positive
    r3 = UniRat((1,), (-1, -1), "q")
    assert r3.den[-1] > 0
    assert r3 == -ONE / (1 + x)


def test_param_mismatch():
    x, t = UniRat.mono("q", 1), UniRat.mono("t", 1)
    with pytest.raises(ParamMismatch):
        x + t
    with pytest.raises(ParamMismatch):
        x * t
    assert (x == t) is False
    # constants unify with anything
    assert (x + 1).param == "q"
    assert (t * 2).param == "t"


def test_field_laws_random():
    rng = random.Random(3)

    def rand_rat():
        num = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))]
        den = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 4))]
        if not any(den):
            den[0] = 1
        return UniRat(num, den, "q")

    for _ in range(120):
        a, b, c = rand_rat(), rand_rat(), rand_rat()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if not b.is_zero():
            assert (a / b) * b == a
        assert a * 1 == a and a + 0 == a


def test_pow():
    x = q()
    assert (1 + x) ** 0 == UniRat.one()
    assert (1 + x) ** 3 == 1 + 3 * x + 3 * x ** 2 + x ** 3
    assert (x ** -2) * x ** 2 == UniRat.one()
    assert x ** -1 == ONE / x


def test_eval_at():
    x = q()
    r = (1 + x) / (1 - x)
    assert r.eval_at(Fraction(1, 2)) == 3
    assert r.eval_at(0) == 1
    with pytest.raises(ZeroDivisionError):
        r.eval_at(1)


def test_recip_param():
    x = q()
    r = (1 + x + x ** 2) / (1 - x ** 3)
    rr = r.recip_param()
    for pt in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
        assert rr.eval_at(pt) == r.eval_at(1 / pt)
    assert x.recip_param() == ONE / x
    assert UniRat.const(7).recip_param() == UniRat.const(7)
    assert r.recip_param().recip_param() == r


def test_pow_param():
    x = q()
    r = (1 - x) / (1 + 2 * x ** 2)
    r2 = r.pow_param(3)
    for pt in (Fraction(1, 2), Fraction(-2, 5)):
        assert r2.eval_at(pt) == r.eval_at(pt ** 3)
    assert x.pow_param(2) == x ** 2


def test_rename():
    x = q()
    r = (1 + x) / (1 - x)
    rt = r.rename("t")
    assert rt.param == "t"
    assert rt.num == r.num and rt.den == r.den


def test_json_and_views():
    x = q()
    r = (1 + x) / (1 - x)
    # canonical form keeps the denominator's leading coefficient positive
    assert (r.num, r.den, r.param) == ((-1, -1), (-1, 1), "q")
    p = 1 + x ** 2
    assert p.poly_coeffs() == (1, 0, 1)
    assert (p / 2).poly_coeffs() == (Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        r.poly_coeffs()
    assert UniRat.const(Fraction(3, 4)).constant() == Fraction(3, 4)
    assert r.constant() is None


def test_pack_unpack_round_trip_at_every_width():
    # widths outside {1, 2, 4, 8} take the byte-slicing path of _unpack_signed
    rng = random.Random(17)
    for w in range(1, 13):
        top = 1 << (8 * w - 1)
        for _ in range(20):
            c = [rng.randrange(-top, top) for _ in range(rng.randrange(1, 80))]
            c[rng.randrange(len(c))] = rng.choice((-top, top - 1))
            assert _unpack_signed(_pack_signed(c, w), w, len(c)) == c


def test_big_product_reduces():
    x = q()
    num = UniRat.one()
    den = UniRat.one()
    for j in range(1, 9):
        num = num * (1 - x ** (2 * j))
        den = den * (1 - x ** j)
    r = num / den
    assert r.den == (1,)
    # (q^2;q^2)_n/(q;q)_n = (-q;q)_n
    expect = UniRat.one()
    for j in range(1, 9):
        expect = expect * (1 + x ** j)
    assert r == expect


def test_hash_consistency():
    x = q()
    a = (x ** 2 - 1) / (x - 1)
    b = x + 1
    assert a == b and hash(a) == hash(b)


# -- sums of products of Laurent factors on one certified width ----------------

SLOT = 1 << 63  # a signed 8-byte slot holds |x| < SLOT
NEAR_SLOT = [SLOT - 1, SLOT, SLOT + 1, SLOT // 2, SLOT // 3, 3037000499, 1 << 31]


def factor_value(c, low, d):
    """The Laurent factor sum_i c[i] q^(low+i) / d as a UniRat."""
    return sum((UniRat.mono("q", low + i, Fraction(x, d)) for i, x in enumerate(c)), ZERO)


def ref_sum_of_products(terms):
    total = ZERO
    for t in terms:
        v = UniRat.one()
        for f in t:
            v = v * f
        total = total + v
    return total


DIGIT = st.one_of(st.integers(-5, 5), st.sampled_from(NEAR_SLOT), st.sampled_from(NEAR_SLOT).map(lambda x: -x))
FACTOR = st.builds(
    factor_value,
    st.lists(DIGIT, min_size=0, max_size=4),
    st.integers(-4, 3),
    st.sampled_from([1, 1, 2, 3, 6, 35]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(FACTOR, max_size=4), max_size=4))
def test_laurent_sum_of_products_matches_unirat(terms):
    got = laurent_sum_of_products(terms)
    want = ref_sum_of_products(terms)
    assert (got.num, got.den, got.param) == (want.num, want.den, want.param)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(FACTOR, min_size=1, max_size=3), min_size=1, max_size=3), st.data())
def test_laurent_sum_shares_factor_objects(terms, data):
    # the same numerator in several terms is packed once
    shared = data.draw(FACTOR)
    terms = [t + [shared] for t in terms]
    got = laurent_sum_of_products(terms)
    assert got == ref_sum_of_products(terms)


def test_laurent_sum_final_slot_at_width_boundary():
    # B = |slot|: 2^63 - 1 is the largest slot 8 bytes hold, 2^63 needs 9
    for top in (SLOT - 1, SLOT, SLOT + 1, (1 << 71) - 1, 1 << 71):
        for sign in (1, -1):
            for terms in (
                [[((sign * top,), -2, 1)]],
                [[((sign * (top // 2),), -2, 1)], [((sign * (top - top // 2),), -2, 1)]],
                [[((0, sign * (top // 7)), -3, 1), ((7,), 0, 1)], [((sign * (top % 7),), -2, 1)]],
            ):
                terms = [[factor_value(*f) for f in t] for t in terms]
                assert laurent_sum_of_products(terms) == UniRat.mono("q", -2, sign * top)


def test_laurent_sum_bound_counts_denominator_ratio():
    # x/1 + x/3 = 4x/3: the numerator over L = 3 is 3x + x, past 2^63 while
    # x + x is not (x is prime to 3, so x/3 keeps its denominator)
    x = SLOT // 2 - 2
    got = laurent_sum_of_products([[UniRat.const(x)], [UniRat.const(Fraction(x, 3))]])
    assert got == UniRat.const(Fraction(4 * x, 3))
    terms = [[factor_value((x, x), -1, 2)], [factor_value((x,), 0, 6)]]
    assert laurent_sum_of_products(terms) == ref_sum_of_products(terms)


def test_laurent_sum_edge_cases():
    assert laurent_sum_of_products([]).is_zero()
    assert laurent_sum_of_products([[ZERO], [factor_value((0, 0), 3, 5)]]).is_zero()
    assert laurent_sum_of_products([[]]) == UniRat.one()  # the empty product
    # the terms cancel: (1 - q) + (q - 1) = 0
    assert laurent_sum_of_products([[1 - q()], [q() - 1]]).is_zero()
    one_over = laurent_sum_of_products([[UniRat.mono("q", -2, Fraction(3, 6))]])
    assert (one_over.num, one_over.den, one_over.param) == ((1,), (0, 0, 2), "q")
    assert laurent_sum_of_products([[UniRat.const(2)]]).param is None


def test_laurent_sum_refuses_a_non_monomial_denominator():
    # a factor over 1 - q is no Laurent polynomial, in any term or place
    for terms in ([[ONE / (1 - q())]], [[q()], [q(), ONE / (1 - q())]]):
        with pytest.raises(ValueError):
            laurent_sum_of_products(terms)


def test_laurent_sum_takes_the_parameter_name_from_its_factors():
    t = UniRat.mono("t", 1)
    assert laurent_sum_of_products([[t, UniRat.const(2)], [ONE]]).param == "t"
    assert laurent_sum_of_products([[q()], [UniRat.mono("q", -1)]]).param == "q"
    # a sum of constants has no name, nor has a q-sum that comes out constant
    assert laurent_sum_of_products([[UniRat.const(2), UniRat.const(Fraction(1, 3))]]).param is None
    assert laurent_sum_of_products([[q()], [-q()]]).param is None
    with pytest.raises(ParamMismatch):
        laurent_sum_of_products([[q()], [t]])
    with pytest.raises(ParamMismatch):
        laurent_sum_of_products([[q(), t]])


# -- ring laws against sympy, an independent oracle ------------------------------


def conv(a, b):
    """The product of two ascending integer coefficient lists."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sympy_q():
    """sympy's polynomial ring Z[q] and its fraction field, with their q."""
    sp = pytest.importorskip("sympy")
    R, q = sp.ring("q", sp.ZZ)
    K, qk = sp.field("q", sp.ZZ)
    return R, q, K, qk


def sympy_poly(coeffs):
    R, q, _, _ = sympy_q()
    return sum((x * q**i for i, x in enumerate(coeffs)), R.zero)


def sympy_value(num, den):
    """num/den (ascending integer coefficients) in sympy's Z(q)."""
    _, _, K, qk = sympy_q()
    poly = lambda c: sum((x * qk**i for i, x in enumerate(c)), K.zero)
    return poly(num) / poly(den)


def assert_canonical(r, expected):
    """r is the reduced form of the sympy value `expected`: the same value,
    no common factor of numerator and denominator (a power of q, a
    polynomial or an integer), no zero leading coefficient and a positive
    leading denominator coefficient."""
    assert sympy_value(r.num, r.den) == expected
    if not r.num:
        assert r.den == (1,)
        return
    assert r.num[-1] and r.den[-1] > 0
    assert math.gcd(*r.num, *r.den) == 1
    assert sympy_poly(r.num).gcd(sympy_poly(r.den)).degree() == 0


COEFFS = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


@st.composite
def raw_fraction(draw):
    """(num, den) = (f * g * q^i, h * g * q^j) with a common factor g."""
    f, g = draw(COEFFS), draw(COEFFS.filter(any))
    h = draw(COEFFS.filter(any))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [0] * i + conv(f, g), [0] * j + conv(h, g)


SYMPY = settings(max_examples=150, deadline=None)


@SYMPY
@given(raw_fraction())
def test_normalization_matches_sympy(raw):
    num, den = raw
    assert_canonical(UniRat(num, den, "q"), sympy_value(num, den))


@SYMPY
@given(raw_fraction(), raw_fraction())
def test_ring_operations_match_sympy(x, y):
    a, b = UniRat(*x, "q"), UniRat(*y, "q")
    va, vb = sympy_value(*x), sympy_value(*y)
    assert_canonical(a + b, va + vb)
    assert_canonical(a - b, va - vb)
    assert_canonical(a * b, va * vb)
    if b:
        assert_canonical(a / b, va / vb)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(-2, 14))
def test_qbinomial_matches_sympy(n, k):
    _, _, K, q = sympy_q()
    expected = K.zero
    if 0 <= k <= n:
        expected = K.one
        for i in range(1, k + 1):
            expected *= (1 - q ** (n - k + i)) / (1 - q**i)
    got = qbinomial(n, k)
    assert got.den == (1,)
    assert_canonical(got, expected)


# -- the heuristic gcd behind every reduction ------------------------------------

NONZERO_POLY = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)), min_size=1, max_size=6
).filter(lambda c: c[-1]).map(tuple)


def primitive_gcd_by_sympy(a, b):
    """The gcd of a and b in Z[q] with its content removed and positive lead."""
    _, g = sympy_poly(a).gcd(sympy_poly(b)).primitive()
    if g.LC < 0:
        g = -g
    return tuple(int(x) for x in reversed(g.to_dense()))


@SYMPY
@given(NONZERO_POLY, NONZERO_POLY, NONZERO_POLY)
def test_pgcd_matches_sympy(a, b, c):
    ac, bc = _trim(conv(a, c)), _trim(conv(b, c))
    g, qa, qb = _pgcd(ac, bc)
    assert g == primitive_gcd_by_sympy(ac, bc)
    assert _pmul(g, qa) == ac and _pmul(g, qb) == bc


def count_evaluation_points(monkeypatch):
    """Count the evaluation points _pgcd tries: each failed check moves on."""
    failed = []
    exactdiv = qrat._pexactdiv

    def counting(a, b):
        try:
            return exactdiv(a, b)
        except ArithmeticError:
            failed.append(b)
            raise

    monkeypatch.setattr(qrat, "_pexactdiv", counting)
    return lambda: len(failed) + 1


def test_pgcd_grows_the_evaluation_point(monkeypatch):
    # the first three points give the linear candidates 2q - 3, q - 8 and
    # 2q - 49, none of which divides a
    points = count_evaluation_points(monkeypatch)
    a, b = (3, 1, 0, 3), (2, -1, -3, -2)
    assert _pgcd(a, b) == ((1,), a, b)
    assert points() == 4


def test_pgcd_of_degree_near_max_c_degree(monkeypatch):
    # the values at xi carry about 8,000 base-xi digits, so each evaluation
    # point costs big-int work; the pair still needs only two points
    points = count_evaluation_points(monkeypatch)
    num = (-1,) + (0,) * 8189 + (1,)  # q^8190 - 1
    den = _pmul((-1, 0, 0, 0, 0, 0, 1), (2, 1))  # (q^6 - 1)(q + 2)
    start = time.perf_counter()
    g, qn, qd = _pgcd(num, den)
    assert time.perf_counter() - start < 1.0
    assert g == (-1, 0, 0, 0, 0, 0, 1) and qd == (2, 1)
    assert _pmul(g, qn) == num
    assert points() == 2
    r = UniRat(num, den, "q")
    assert r.den == (2, 1) and len(r.num) == 8185
