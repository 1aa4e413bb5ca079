"""Moment formulas: pinned values, coherence, rank laws, prediction tables."""
import time
from fractions import Fraction

import mpmath
import pytest

from qmoments import moments, rbasis
from qmoments.errors import ModeError, ResourceBoundError, UsageError
from qmoments.moments import (
    ABELIAN,
    CLASS_GROUP_IMAGINARY,
    CLASS_GROUP_REAL,
    SELMER,
    SHA,
    TYPE_S,
    MomentQuery,
    RankProfile,
    coherence_check,
    conjecture_table,
    fouvry_klueners_numbers,
    m_u,
    m_u_float,
    m_u_s,
    m_u_s_float,
    pj_rank_prob,
)
from qmoments.partitions import Partition, partitions_of, subpartitions
from qmoments.qseries import qbinomial
from qmoments.rbasis import c_coeff


def test_m_u_pinned_values():
    assert m_u(MomentQuery(Partition((1,)), 3, 0)) == 2
    assert m_u(MomentQuery(Partition((1,)), 3, 1)) == Fraction(4, 3)
    assert m_u(MomentQuery(Partition(()), 5, 2)) == 1
    assert m_u(MomentQuery(Partition((2,)), 2, 1)) == Fraction(7, 4)
    # u = 0 collapses to the total subgroup count
    assert m_u(MomentQuery(Partition((1, 1)), 2, 0)) == 1 + 3 + 1


def test_m_u_s_pinned_values():
    for p in (2, 3, 5):
        assert m_u_s(MomentQuery(Partition((1,)), p, 0, TYPE_S)) == 1 + p
        assert m_u_s(MomentQuery(Partition((1,)), p, 1, TYPE_S)) == 1 + Fraction(1, p)
    assert m_u_s(MomentQuery(Partition((2,)), 2, 1, TYPE_S)) == Fraction(7, 4)
    assert m_u_s(MomentQuery(Partition(()), 3, 0, TYPE_S)) == 1


def test_flavor_and_mode_errors():
    with pytest.raises(ValueError):
        m_u(MomentQuery(Partition((1,)), 2, 0, TYPE_S))
    with pytest.raises(ValueError):
        m_u_s(MomentQuery(Partition((1,)), 2, 0, ABELIAN))
    with pytest.raises(ModeError):
        m_u(MomentQuery(Partition((1,)), 2, Fraction(1, 2)))
    with pytest.raises(ModeError):
        m_u_s(MomentQuery(Partition((1,)), 2, -1, TYPE_S))
    with pytest.raises(ValueError):
        MomentQuery(Partition((1,)), 2, 0, "OTHER")


def test_m_u_weakly_decreasing_in_u():
    for p in (2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                vals = [m_u(MomentQuery(lam, p, u)) for u in range(4)]
                for a, b in zip(vals, vals[1:]):
                    assert a >= b
                    if lam.size:
                        assert a > b


def test_coherence_small_grid():
    for p in (2, 3, 5):
        for n in range(6):
            for lam in partitions_of(n):
                ok, report = coherence_check(lam, p)
                assert ok
                assert report["m0s"] == report["m1s_scaled"]
    ok, report = coherence_check(Partition((1,)), 2)
    assert report["m0s"] == 3 and report["m1s"] == Fraction(3, 2)
    assert report["scale"] == 2


def test_float_entry_points():
    lam = Partition((2, 1))
    exact0 = m_u(MomentQuery(lam, 3, 0))
    exact1 = m_u(MomentQuery(lam, 3, 1))
    f0 = m_u_float(lam, 3, 0)
    assert abs(f0 - mpmath.mpmathify(exact0)) < mpmath.mpf("1e-25")
    half = m_u_float(lam, 3, Fraction(1, 2))
    assert mpmath.mpmathify(exact1) < half < mpmath.mpmathify(exact0)
    s1 = m_u_s(MomentQuery(lam, 2, 1, TYPE_S))
    assert abs(m_u_s_float(lam, 2, 1) - mpmath.mpmathify(s1)) < mpmath.mpf("1e-25")


def test_pj_rank_prob_trivial_profile():
    factor, residual = pj_rank_prob(RankProfile(Partition(()), 1, 2, 0))
    assert factor == 1
    expected = 1
    for j in range(1, 60):
        expected *= 1 - Fraction(1, 2**j)
    assert abs(residual.value - mpmath.mpmathify(expected)) < mpmath.mpf("1e-11")
    assert residual.error < mpmath.mpf("1e-11")
    lo, hi = residual.bounds()
    assert lo <= mpmath.mpmathify(expected) <= hi
    assert abs(residual.value - mpmath.mpf("0.288788095086602")) < mpmath.mpf("1e-10")


def test_pj_rank_prob_direct_substitution():
    # mu = (1), ell = 1: factor 1/(p^{1+u} (1 - 1/p)), tail from j >= 2
    factor, residual = pj_rank_prob(RankProfile(Partition((1,)), 1, 3, 1))
    assert factor == 1 / (Fraction(3) ** 2 * (1 - Fraction(1, 3)))
    expected = 1
    for j in range(2, 50):
        expected *= 1 - Fraction(1, 3 ** (1 + j))
    assert abs(residual.value - mpmath.mpmathify(expected)) < mpmath.mpf("1e-12")
    # type-S flavor, mu = (1): factor 1/(p^{2+(2u-1)} (1 - 1/p^2))
    factor, residual = pj_rank_prob(
        RankProfile(Partition((1,)), 1, 2, 1), flavor=TYPE_S
    )
    assert factor == 1 / (Fraction(2) ** 3 * (1 - Fraction(1, 4)))
    expected = 1
    for j in range(2, 50):
        expected *= 1 - Fraction(1, 2 ** (1 + 2 * j))
    assert abs(residual.value - mpmath.mpmathify(expected)) < mpmath.mpf("1e-12")


def test_pj_rank_prob_normalization():
    for flavor, p, u in ((ABELIAN, 2, 0), (ABELIAN, 3, 1), (TYPE_S, 2, 1)):
        total = mpmath.mpf(0)
        for top in range(7):
            factor, residual = pj_rank_prob(
                RankProfile(Partition((top,) if top else ()), 1, p, u), flavor
            )
            total += mpmath.mpmathify(factor) * residual.value
        assert abs(total - 1) < mpmath.mpf("1e-6")


def test_pj_rank_profile_validation():
    with pytest.raises(ValueError):
        RankProfile(Partition((2, 1)), 1, 2, 0)
    with pytest.raises(ValueError):
        RankProfile(Partition((1,)), 1, 2, 0, trunc=0)
    with pytest.raises(ModeError):
        pj_rank_prob(RankProfile(Partition((1,)), 1, 2, Fraction(1, 3)))


def test_conjecture_table_values():
    assert conjecture_table(CLASS_GROUP_IMAGINARY, lam=(1,), p=3) == 2
    assert conjecture_table(CLASS_GROUP_REAL, lam=(1,), p=3) == Fraction(4, 3)
    assert conjecture_table(SHA, lam=(1,), p=5, u=0) == 6
    assert conjecture_table(SHA, lam=(1,), p=5, u=1) == Fraction(6, 5)
    assert conjecture_table(SELMER, lm=(1, 2), p=2) == 15
    assert conjecture_table(SELMER, lm=(1, 3), p=2) == 135
    assert conjecture_table(SELMER, lm=(2, 1), p=2) == 7
    with pytest.raises(ValueError):
        conjecture_table(SHA, lam=(1,), p=5)
    with pytest.raises(ValueError):
        conjecture_table("OTHER", lam=(1,), p=5, u=0)


def test_selmer_product_law():
    for p in (2, 3, 5):
        for m in range(7):
            prod = Fraction(1)
            for j in range(1, m + 1):
                prod *= 1 + Fraction(p) ** j
            assert conjecture_table(SELMER, lm=(1, m), p=p) == prod


def test_selmer_m1_row_is_the_divisor_sum():
    # the average size of Sel_n is sigma(n) (Bhargava-Kane-Lenstra-Poonen-Rains);
    # the m = 1 row is the n = p^ell case
    for p in (2, 3, 5):
        for ell in range(1, 5):
            assert conjecture_table(SELMER, lm=(ell, 1), p=p) == sum(p**j for j in range(ell + 1))


def test_selmer_refuses_out_of_range_rows():
    for lm in ((0, 1), (1, -1), (-1, 2)):
        with pytest.raises(UsageError):
            conjecture_table(SELMER, lm=lm, p=2)


def test_fouvry_klueners_numbers():
    assert fouvry_klueners_numbers(0, 2) == 1
    assert fouvry_klueners_numbers(1, 3) == 2
    assert fouvry_klueners_numbers(2, 2) == 5
    assert fouvry_klueners_numbers(1, 3, real=True) == Fraction(4, 3)
    assert fouvry_klueners_numbers(2, 2, real=True) == Fraction(11, 4)
    # the real flavor equals p^{-n} * sum_k qbin(n,k;p) p^k (palindromy)
    for p in (2, 3):
        for n in range(6):
            mirrored = sum(
                qbinomial(n, k).eval_at(p) * Fraction(p) ** k for k in range(n + 1)
            )
            assert fouvry_klueners_numbers(n, p, real=True) == mirrored / p**n


def test_pj_rank_prob_size_is_bounded():
    start = time.perf_counter()
    for profile, flavor in (
        (RankProfile((1,), 1, 3, 10**8), ABELIAN),
        (RankProfile((1,), 1, 3, 10**8), TYPE_S),
        (RankProfile((400,), 1, 2, 0), ABELIAN),
        (RankProfile((1,), 1, 2, 0, trunc=10**6), ABELIAN),
    ):
        with pytest.raises(ResourceBoundError):
            pj_rank_prob(profile, flavor)
    assert time.perf_counter() - start < 1.0
    # trunc = 120 at p = 2 is about 7,500 bits: inside the bound
    factor, residual = pj_rank_prob(RankProfile((1,), 1, 2, 1, trunc=120))
    assert factor == Fraction(1, 4) / (1 - Fraction(1, 2)) and residual.terms == 120


def test_pj_rank_prob_refuses_an_exponent_past_a_float():
    # u = 10^400 makes the exponent sum an int no float holds: the integer
    # lower bound refuses it before any log2 of it is taken
    for flavor in (ABELIAN, TYPE_S):
        with pytest.raises(ResourceBoundError):
            pj_rank_prob(RankProfile((1,), 1, 3, 10**400), flavor)


def test_moment_size_bound_counts_c_degree():
    # C_{1^n,1^k}(q) = [n choose k]_q reaches degree n^2/4
    assert moments._c_degree(Partition([1] * 10)) == 25
    assert max(
        len(c_coeff(Partition([1] * 10), mu).num) - 1 for mu in subpartitions(Partition([1] * 10))
    ) == 25
    with pytest.raises(ResourceBoundError):
        m_u(MomentQuery(Partition([1] * 300), 3, 0))


def test_moment_work_estimate_counts_the_c_table():
    # _c_product_steps gives what a walk over every mu inside lam counts:
    # the mu, and the schoolbook steps of the q-binomial product of each C
    for n in range(9):
        for lam in partitions_of(n):
            steps = count = 0
            for mu in subpartitions(lam):
                count += 1
                heights, length = mu.conjugate() + (0,), 1
                for a, h, below in zip(lam.conjugate(), heights, heights[1:]):
                    d = (a - h) * (h - below)
                    if d:
                        steps += length * (d + 1)
                        length += d
            assert rbasis._c_product_steps(lam) == (steps, count), lam
    # lams that ran 10 s to past 150 s are refused before any C is built;
    # 300,300 and 3^25 (about 3 s) and 1^100 are admitted
    for lam in ([1000, 1000], [2] * 90, [5] * 20, [10] * 10, [1] * 175, [10**6] * 3):
        with pytest.raises(ResourceBoundError, match="exact moment work"):
            moments._check_work(Partition(lam))
    for lam in ([300, 300], [3] * 25, [1] * 100, []):
        moments._check_work(Partition(lam))


@pytest.mark.parametrize(
    "call",
    [
        lambda: conjecture_table("OTHER", lam=(1,), p=5, u=0),
        lambda: conjecture_table(SHA, lam=(1,), u=0),
        lambda: conjecture_table(SHA, lam=(1,), p=5),
        lambda: conjecture_table(SELMER, p=2),
        lambda: fouvry_klueners_numbers(-1, 3),
        lambda: MomentQuery(Partition((1,)), 1, 0),
        lambda: m_u(MomentQuery((1,), 2.5, 0)),
        lambda: m_u(MomentQuery((1,), 4, 0)),
        lambda: m_u(MomentQuery((1,), True, 0)),
        lambda: m_u_s(MomentQuery((1,), Fraction(3), 0, TYPE_S)),
        lambda: m_u_float((1,), 4, 0.5),
        lambda: m_u_float((1,), 2.5, 0.5),
        lambda: m_u_float((1,), 1, 0.5),
        lambda: m_u_s_float((1,), True, 0.5),
        lambda: m_u_s_float((1,), 9, 0.5),
        lambda: MomentQuery(Partition((1,)), 2, 0, "OTHER"),
        lambda: m_u(MomentQuery(Partition((1,)), 2, 0, TYPE_S)),
        lambda: RankProfile(Partition((2, 1)), 1, 2, 0),
        lambda: RankProfile(Partition((1,)), 1, 2, 0, trunc=0),
        lambda: pj_rank_prob(RankProfile(Partition((1,)), 1, 2, 0), "OTHER"),
        lambda: m_u_float((1,), 2, -1),
        lambda: m_u_float((1,), 2, float("nan")),
        lambda: m_u_float((1,), 2, "x"),
        lambda: m_u_s_float((1,), 2, -1 / 2),
        lambda: RankProfile(Partition((1,)), 1, 4, 0),
        lambda: RankProfile(Partition((1,)), 1, 1, 0),
        lambda: conjecture_table(CLASS_GROUP_IMAGINARY, lam=None, p=3),
        lambda: conjecture_table(SELMER, p=3, lm=(1, None)),
        lambda: fouvry_klueners_numbers(None, 3),
        lambda: fouvry_klueners_numbers(2.5, 3),
        lambda: fouvry_klueners_numbers(True, 3),
        lambda: fouvry_klueners_numbers(2, 4),
        lambda: RankProfile((1,), None, 2, 0),
        lambda: RankProfile((1,), 1, 2, 0, trunc=None),
        lambda: RankProfile((1,), 1.0, 2, 0),
    ],
    ids=[
        "table-kind", "table-p", "table-u", "table-lm", "fk-n", "query-p", "query-float-p",
        "query-composite-p", "query-bool-p", "query-fraction-p", "float-composite-p",
        "float-float-p", "float-p-1", "float-s-bool-p", "float-s-composite-p", "query-flavor",
        "entry-flavor", "profile-ell", "profile-trunc", "rank-flavor", "float-negative-u",
        "float-nan-u", "float-string-u", "float-s-negative-u", "profile-composite-p",
        "profile-p-1", "table-no-lam", "table-lm-none", "fk-none-n", "fk-float-n",
        "fk-bool-n", "fk-composite-p", "profile-none-ell", "profile-none-trunc",
        "profile-float-ell",
    ],
)
def test_bad_moments_input_is_a_usage_error(call):
    with pytest.raises(UsageError):
        call()


def test_fouvry_klueners_refuses_a_composite_p_before_any_qbinomial(monkeypatch):
    def no_qbinomial(*args):
        raise AssertionError("a q-binomial was built")

    monkeypatch.setattr(moments, "qbinomial", no_qbinomial)
    with pytest.raises(UsageError):
        fouvry_klueners_numbers(3, 4)
    with pytest.raises(ResourceBoundError):
        fouvry_klueners_numbers(10**6, 2)
