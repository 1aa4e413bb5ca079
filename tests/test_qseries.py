"""q-shifted factorials, q-binomials, and truncated z-series."""

from fractions import Fraction
from math import inf

import pytest

from qmoments import SingularityError, UniRat
from qmoments.qseries import (
    ZSeries,
    euler_coeff,
    euler_coeff_recip,
    qbinomial,
    qpochhammer,
    qq,
)


def q():
    return UniRat.var("q")


def test_qq():
    x = q()
    assert qq(0) == UniRat.one()
    assert qq(1) == 1 - x
    assert qq(3) == (1 - x) * (1 - x ** 2) * (1 - x ** 3)
    assert qq(2, base=2) == (1 - x ** 2) * (1 - x ** 4)


def test_qpochhammer_zero_and_positive():
    x = q()
    assert qpochhammer((UniRat.var("q"), 0), 0) == UniRat.one()
    # (q; q)_2 = (1-q)(1-q^2)
    assert qpochhammer((1, 1), 2) == (1 - x) * (1 - x ** 2)
    # (a;q)_k with a = 1 vanishes for k >= 1
    assert qpochhammer((1, 0), 3).is_zero()
    # fractional coefficient
    assert qpochhammer((Fraction(1, 2), 1), 1) == 1 - x / 2


def test_qpochhammer_negative():
    x = q()
    # the j=2 factor of (q^2;q)_{-2} is 1 - q^{2-2} = 0 -> singular
    with pytest.raises(SingularityError):
        qpochhammer((1, 2), -2)
    # nonsingular: (q^3;q)_{-2} = 1/((1-q^2)(1-q))
    got = qpochhammer((1, 3), -2)
    assert got == 1 / ((1 - x ** 2) * (1 - x))
    # inverse relation (a;q)_{-k} * prod = 1
    prod = (1 - x) * (1 - x ** 2) * (1 - x ** 3)
    assert qpochhammer((1, 4), -3) * prod == UniRat.one()


def test_qpochhammer_infinite_euler():
    # (zq; q)_inf: z-coeff -(q+q^2+...) = -q/(1-q), z^2-coeff q^3/((1-q)(1-q^2))
    s = qpochhammer((1, 1), inf, trunc=2)
    x = q()
    assert s.coeff_at(0) == UniRat.one()
    assert s.coeff_at(1) == -x / (1 - x)
    assert s.coeff_at(2) == x ** 3 / ((1 - x) * (1 - x ** 2))
    # functional equation (zq;q)_inf = (1 - zq) * (zq^2;q)_inf, exactly
    n = 8
    zz = ZSeries.z(n, "q")
    a = qpochhammer((1, 1), inf, trunc=n)
    b = qpochhammer((1, 2), inf, trunc=n)
    assert a == (ZSeries.one(n, "q") - zz.scale(x)) * b
    # base 2 with z carried to the square: (z^2 q; q^2)_inf
    c = qpochhammer((1, 1), inf, trunc=6, base=2, zpow=2)
    assert c.coeff_at(2) == -x / (1 - x ** 2)
    assert c.coeff_at(3).is_zero()
    assert c.coeff_at(4) == x ** 4 / ((1 - x ** 2) * (1 - x ** 4))


def test_qpochhammer_infinite_requires_trunc():
    with pytest.raises(ValueError):
        qpochhammer((1, 1), inf)
    with pytest.raises(ValueError):
        qpochhammer((1, 1), inf, trunc=4, zpow=0)


def test_euler_coeff_consistency():
    n = 7
    s = qpochhammer((1, 2), inf, trunc=n, base=1)
    for j in range(n + 1):
        assert s.coeff_at(j) == euler_coeff(j, 2)
    # reciprocal expansion times direct expansion = 1
    direct = qpochhammer((1, 1), inf, trunc=n)
    recip = ZSeries([euler_coeff_recip(j, 1) for j in range(n + 1)], n, "q")
    assert direct * recip == ZSeries.one(n, "q")


def test_qbinomial_values():
    x = q()
    assert qbinomial(2, 1) == 1 + x
    assert qbinomial(4, 2) == 1 + x + 2 * x ** 2 + x ** 3 + x ** 4
    assert qbinomial(3, 5).is_zero()
    assert qbinomial(5, 0) == UniRat.one()
    assert qbinomial(0, 0) == UniRat.one()
    for n in range(13):
        for k in range(n + 1):
            assert all(c > 0 for c in qbinomial(n, k).num)


def test_qbinomial_ratio_definition():
    for n in range(9):
        for k in range(n + 1):
            assert qbinomial(n, k) == qq(n) / (qq(k) * qq(n - k))


def test_qbinomial_pascal_both():
    x = q()
    for n in range(1, 13):
        for k in range(n + 1):
            b = qbinomial(n, k)
            assert b == qbinomial(n - 1, k - 1) + UniRat.mono("q", k) * qbinomial(n - 1, k)
            assert b == UniRat.mono("q", n - k) * qbinomial(n - 1, k - 1) + qbinomial(n - 1, k)
    _ = x


def test_qbinomial_inverse_identity():
    # [n k] at q -> 1/q is q^{k(k-n)} [n k]
    for n in range(8):
        for k in range(n + 1):
            b = qbinomial(n, k)
            assert b.recip_param() == UniRat.mono("q", k * (k - n)) * b


def test_finite_qbinomial_theorem():
    # sum_k (-1)^k z^k q^{k(k-1)/2} [n k] = (z; q)_n with symbolic z and q
    for n in range(9):
        n_trunc = n + 2
        lhs = ZSeries.zero(n_trunc, "q")
        zz = ZSeries.z(n_trunc, "q")
        for k in range(n + 1):
            term = (zz ** k if k else ZSeries.one(n_trunc, "q")).scale(
                UniRat.mono("q", k * (k - 1) // 2, -1 if k % 2 else 1) * qbinomial(n, k)
            )
            lhs = lhs + term
        rhs = ZSeries.one(n_trunc, "q")
        for j in range(n):
            rhs = rhs * (ZSeries.one(n_trunc, "q") - zz.scale(UniRat.mono("q", j)))
        assert lhs == rhs


def test_zseries_ops():
    n = 5
    one = ZSeries.one(n, "q")
    zz = ZSeries.z(n, "q")
    s = (one + zz) * (one - zz)
    assert s == one - zz * zz
    assert s.coeff_at(0) == UniRat.one()
    assert s.coeff_at(2) == UniRat.const(-1)
    with pytest.raises(IndexError):
        s.coeff_at(6)
    # truncation of product = min of truncations
    t = ZSeries.one(3, "q") * ZSeries.one(7, "q")
    assert t.trunc == 3


def test_zseries_subs_and_inverse():
    n = 6
    zz = ZSeries.z(n, "q")
    geo = ZSeries([UniRat.one()] * (n + 1), n, "q")  # sum z^n
    shifted = geo.subs_z(qpow=1)
    x = q()
    for k in range(n + 1):
        assert shifted.coeff_at(k) == x ** k
    sq = geo.subs_z(zpow=2)
    assert sq.coeff_at(2) == UniRat.one() and sq.coeff_at(3).is_zero()
    inv = geo.inverse()
    assert inv == ZSeries([1, -1], n, "q")
    with pytest.raises(ZeroDivisionError):
        zz.inverse()


def test_euler_identity_series_inverse():
    # sum_n z^n q^n/(q)_n == 1/(zq; q)_inf, the latter via series inversion
    n = 10
    lhs = ZSeries([euler_coeff_recip(j, 1) for j in range(n + 1)], n, "q")
    rhs = qpochhammer((1, 1), inf, trunc=n).inverse()
    assert lhs == rhs

