"""q-shifted factorials, q-binomials, and truncated z-series."""

from fractions import Fraction
from math import inf

import pytest

from qmoments import UniRat
from qmoments.qseries import (
    ZSeries,
    euler_coeff,
    euler_coeff_recip,
    qbinomial,
    qpochhammer,
    qq,
)


def q():
    return UniRat.mono("q", 1)


def test_qq():
    x = q()
    assert qq(0) == UniRat.one()
    assert qq(1) == 1 - x
    assert qq(3) == (1 - x) * (1 - x ** 2) * (1 - x ** 3)
    assert qq(2, base=2) == (1 - x ** 2) * (1 - x ** 4)


def test_qpochhammer_zero_and_positive():
    x = q()
    assert qpochhammer((x, 0), 0) == UniRat.one()
    # (q; q)_2 = (1-q)(1-q^2)
    assert qpochhammer((1, 1), 2) == (1 - x) * (1 - x ** 2)
    # (a;q)_k with a = 1 vanishes for k >= 1
    assert qpochhammer((1, 0), 3).is_zero()
    # fractional coefficient
    assert qpochhammer((Fraction(1, 2), 1), 1) == 1 - x / 2


def test_qpochhammer_negative():
    # only k >= 0 and k = inf are defined
    for k in (-1, -3):
        with pytest.raises(ValueError):
            qpochhammer((1, 3), k)


def test_qpochhammer_infinite_euler():
    # (zq; q)_inf: z-coeff -(q+q^2+...) = -q/(1-q), z^2-coeff q^3/((1-q)(1-q^2))
    s = qpochhammer((1, 1), inf, trunc=2)
    x = q()
    assert s.coeff_at(0) == UniRat.one()
    assert s.coeff_at(1) == -x / (1 - x)
    assert s.coeff_at(2) == x ** 3 / ((1 - x) * (1 - x ** 2))
    # functional equation (zq;q)_inf = (1 - zq) * (zq^2;q)_inf, exactly
    n = 8
    a = qpochhammer((1, 1), inf, trunc=n)
    b = qpochhammer((1, 2), inf, trunc=n)
    assert a.coeffs == (ZSeries([1, -x], n, "q") * b).coeffs
    # base 2, as UMOY_TYPE_S reads it: the z^j coefficients of (z q; q^2)_inf
    assert euler_coeff(1, 1, base=2) == -x / (1 - x ** 2)
    assert euler_coeff(2, 1, base=2) == x ** 4 / ((1 - x ** 2) * (1 - x ** 4))


def test_qpochhammer_infinite_requires_trunc():
    with pytest.raises(ValueError):
        qpochhammer((1, 1), inf)


def test_euler_coeff_consistency():
    n = 7
    s = qpochhammer((1, 2), inf, trunc=n)
    for j in range(n + 1):
        assert s.coeff_at(j) == euler_coeff(j, 2)
    # reciprocal expansion times direct expansion = 1
    direct = qpochhammer((1, 1), inf, trunc=n)
    recip = ZSeries([euler_coeff_recip(j) for j in range(n + 1)], n, "q")
    assert (direct * recip).coeffs == ZSeries.one(n, "q").coeffs


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
        lhs = ZSeries([], n_trunc, "q")
        zz = ZSeries([0, 1], n_trunc, "q")
        for k in range(n + 1):
            term = (zz ** k if k else ZSeries.one(n_trunc, "q")).scale(
                UniRat.mono("q", k * (k - 1) // 2, -1 if k % 2 else 1) * qbinomial(n, k)
            )
            lhs = lhs + term
        rhs = ZSeries.one(n_trunc, "q")
        for j in range(n):
            rhs = rhs * ZSeries([1, UniRat.mono("q", j, -1)], n_trunc, "q")
        assert lhs.coeffs == rhs.coeffs


def test_zseries_ops():
    n = 5
    one = ZSeries.one(n, "q")
    zz = ZSeries([0, 1], n, "q")
    s = (one + zz) * ZSeries([1, -1], n, "q")
    assert s.coeffs == (one + (zz * zz).scale(-1)).coeffs
    assert s.coeff_at(0) == UniRat.one()
    assert s.coeff_at(2) == UniRat.const(-1)
    with pytest.raises(IndexError):
        s.coeff_at(6)
    # truncation of product = min of truncations
    t = ZSeries.one(3, "q") * ZSeries.one(7, "q")
    assert t.trunc == 3


def test_zseries_subs_and_inverse():
    n = 6
    zz = ZSeries([0, 1], n, "q")
    geo = ZSeries([UniRat.one()] * (n + 1), n, "q")  # sum z^n
    shifted = geo.subs_z(qpow=1)
    x = q()
    for k in range(n + 1):
        assert shifted.coeff_at(k) == x ** k
    sq = geo.subs_z(zpow=2)
    assert sq.coeff_at(2) == UniRat.one() and sq.coeff_at(3).is_zero()
    inv = geo.inverse()
    assert inv.coeffs == ZSeries([1, -1], n, "q").coeffs
    with pytest.raises(ZeroDivisionError):
        zz.inverse()


def test_euler_identity_series_inverse():
    # sum_n z^n q^n/(q)_n == 1/(zq; q)_inf, the latter via series inversion
    n = 10
    lhs = ZSeries([euler_coeff_recip(j) for j in range(n + 1)], n, "q")
    rhs = qpochhammer((1, 1), inf, trunc=n).inverse()
    assert lhs.coeffs == rhs.coeffs

