"""R-basis polynomials, monomial expansion, inversion coefficients."""

from math import comb

import pytest

from qmoments import Partition, UniRat
from qmoments.mpoly import MPoly
from qmoments.partitions import partitions_of, subpartitions
from qmoments.rbasis import (
    c_coeff,
    dot_product_conjugates,
    mirror_poly,
    monomial_in_R_basis,
    qprime_skew,
    rlambda_expand,
    rlambda_poly,
)
from qmoments.qseries import qbinomial


def t():
    return UniRat.mono("t", 1)


def q():
    return UniRat.mono("q", 1)


def test_rlambda_poly_small():
    x1 = MPoly.var(0, 1, "t")
    assert rlambda_poly(Partition([1])) == x1 - 1
    # two variables
    y1, y2 = MPoly.var(0, 2, "t"), MPoly.var(1, 2, "t")
    assert rlambda_poly(Partition([2]), 2) == y2 - y1
    assert rlambda_poly(Partition([2, 1]), 2) == (y1 - MPoly.const(t(), 2)) * (y2 - y1)
    assert rlambda_poly(Partition([]), 0) == MPoly.one(0)
    # (1,1): (x_1 - 1)(x_1 - t)
    assert rlambda_poly(Partition([1, 1])) == (x1 - 1) * (x1 - MPoly.const(t(), 1))


def test_rlambda_poly_needs_width():
    with pytest.raises(ValueError):
        rlambda_poly(Partition([3]), 2)
    # extra variables are allowed and unused
    p = rlambda_poly(Partition([1]), 3)
    assert all(e[1] == 0 and e[2] == 0 for e in p.terms)


def test_rlambda_expand_examples():
    # (1,1): {x^(1,1): 1, x^(1): -(1+t), x^0: t}
    exp = rlambda_expand(Partition([1, 1]))
    assert exp[Partition([1, 1])] == UniRat.one()
    assert exp[Partition([1])] == -(1 + t())
    assert exp[Partition([])] == t()
    # empty partition
    assert rlambda_expand(Partition([])) == {Partition([]): UniRat.one()}
    # (2): x_2 - x_1
    exp2 = rlambda_expand(Partition([2]))
    assert exp2 == {
        Partition([2]): UniRat.one(),
        Partition([1]): UniRat.const(-1),
    }
    # (2,1): some subpartitions get coefficient zero (dropped)
    exp3 = rlambda_expand(Partition([2, 1]))
    assert exp3[Partition([2, 1])] == UniRat.one()
    assert exp3[Partition([1, 1])] == UniRat.const(-1)
    assert exp3[Partition([2])] == -t()
    assert exp3[Partition([1])] == t()
    assert Partition([]) not in exp3


def test_rlambda_expand_closed_form_matches_product():
    # every expansion multiplies out the defining product and compares
    for n in range(7):
        for lam in partitions_of(n, max_part=3):
            rlambda_expand(lam)


def test_c_coeff_frozen_values():
    x = q()
    assert c_coeff(Partition([1, 1]), Partition([1])) == 1 + x
    assert c_coeff(Partition([2, 1]), Partition([2])) == x
    assert c_coeff(Partition([2, 2]), Partition([2])) == x * (1 + x)
    assert c_coeff(Partition([2, 1]), Partition([1, 1])) == UniRat.one()
    assert c_coeff(Partition([3]), Partition([2])) == UniRat.one()


def test_c_coeff_conventions():
    for n in range(6):
        for lam in partitions_of(n):
            assert c_coeff(lam, lam) == UniRat.one()
            assert c_coeff(lam, Partition([])) == UniRat.one()
    # mu not within lam -> 0
    assert c_coeff(Partition([2]), Partition([1, 1])).is_zero()
    assert c_coeff(Partition([1]), Partition([3])).is_zero()


def test_c_coeff_nonnegative_integer_coefficients():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in subpartitions(lam):
                c = c_coeff(lam, mu)
                assert c.den == (1,)
                assert all(v >= 0 for v in c.num)
                assert c.den == (1,)
                assert not c.is_zero()


def every_column_c(lam, mu):
    """C_{lam,mu} as the product over all lam_1 columns, trivial ones too."""
    prod, expo = UniRat.one(), 0
    for i in range(1, lam.part(1) + 1):
        lc, mc, mc1 = lam.conj(i), mu.conj(i), mu.conj(i + 1)
        prod = prod * qbinomial(lc - mc1, lc - mc)
        expo += mc1 * (lc - mc)
    return UniRat.mono("q", expo) * prod


def test_c_coeff_skips_only_trivial_columns():
    lams = [lam for n in range(9) for lam in partitions_of(n)]
    lams += [Partition(p) for p in ([30], [12, 12, 5], [9, 4, 4, 1, 1], [3] * 6)]
    for lam in lams:
        for mu in subpartitions(lam):
            assert c_coeff(lam, mu) == every_column_c(lam, mu)


def test_one_row_and_one_column():
    # x^(n) = sum over k<=n of R_(k), all coefficients 1
    lam = Partition([4])
    exp = monomial_in_R_basis(lam)
    for k in range(5):
        assert exp[Partition([k] if k else [])] == UniRat.one()
    # x^(1^m): coefficient of R_(1^k) is [m k]_q
    m = 4
    expc = monomial_in_R_basis(Partition([1] * m))
    for k in range(m + 1):
        assert expc[Partition([1] * k)] == qbinomial(m, k)


def test_monomial_in_R_basis_2x2():
    x = q()
    exp = monomial_in_R_basis(Partition([2, 2]))
    want = {
        Partition([2, 2]): UniRat.one(),
        Partition([2, 1]): 1 + x,
        Partition([2]): x * (1 + x),
        Partition([1, 1]): UniRat.one(),
        Partition([1]): 1 + x,
        Partition([]): UniRat.one(),
    }
    assert exp == want


def test_inversion_round_trip():
    # sum_mu C_{lam,mu}(t) R_mu == x^lam, for lam_1 <= 3, |lam| <= 6
    for n in range(7):
        for lam in partitions_of(n, max_part=3):
            monomial_in_R_basis(lam)


def test_mirror_poly():
    x = q()
    assert mirror_poly(Partition([])) == [UniRat.one()]
    assert mirror_poly(Partition([1, 1])) == [UniRat.one(), 1 + x, UniRat.one()]
    got = mirror_poly(Partition([2, 1]))
    assert got == [UniRat.one(), 1 + x, 1 + x, UniRat.one()]


def test_mirror_palindromic_through_weight_8():
    for n in range(9):
        for lam in partitions_of(n):
            seq = mirror_poly(lam)  # raises if not palindromic
            assert len(seq) == n + 1


def test_dot_product_conjugates():
    assert dot_product_conjugates(Partition([1, 1]), Partition([1, 1])) == 4
    assert dot_product_conjugates(Partition([2, 1]), Partition([1])) == 2
    assert dot_product_conjugates(Partition([3, 1]), Partition([])) == 0
    assert dot_product_conjugates(Partition([2, 2]), Partition([2])) == 4


def test_qprime_skew_values():
    x = q()
    assert qprime_skew(Partition([1, 1]), Partition([1])) == 1 + x
    assert qprime_skew(Partition([1]), Partition([1])) == UniRat.one()
    # mu = empty: q^{n(lam)}
    for lam in ([2, 1], [3, 1, 1], [2, 2]):
        lam = Partition(lam)
        assert qprime_skew(lam, Partition([])) == UniRat.mono("q", lam.nstat())
    assert qprime_skew(Partition([1]), Partition([2])).is_zero()


def test_qprime_skew_relation_and_positivity():
    # C_{lam,mu}(1/q) = q^{n(mu)-n(lam)} Q'; also nonnegative integer coeffs
    for n in range(7):
        for lam in partitions_of(n):
            for mu in subpartitions(lam):
                v = qprime_skew(lam, mu)
                lhs = c_coeff(lam, mu).recip_param()
                assert lhs == UniRat.mono("q", mu.nstat() - lam.nstat()) * v
                assert v.den == (1,)
                assert all(c >= 0 for c in v.num)
                # the q-power is n of the skew diagram lam / mu
                expo = mu.size + lam.nstat() + mu.nstat() - dot_product_conjugates(lam, mu)
                width = lam.part(1)
                assert expo == sum(comb(lam.conj(i) - mu.conj(i), 2) for i in range(1, width + 1))
