"""Acceptance suite: fifteen end-to-end criteria covering the oracle
equivalences, closed-form values, identity verifications, and the guard on
the verifier itself.  Each test prints one PASS line; pytest -v adds the
matching per-criterion PASSED/FAILED line."""

from fractions import Fraction

import mpmath

from qmoments.groups import (
    PGroup,
    aut_order,
    count_injective_homs,
    count_subgroups_of_type,
    eval_on_group,
)
from qmoments.identities import (
    RANDOM_POINT,
    SYMBOLIC_EXACT,
    TRUNCATED_SERIES,
    IdentityCase,
    verify,
)
from qmoments.moments import (
    ABELIAN,
    TYPE_S,
    MomentQuery,
    RankProfile,
    coherence_check,
    m_u,
    m_u_s,
    pj_rank_prob,
)
from qmoments.mpoly import MPoly
from qmoments.partitions import Partition, partitions_of, subpartitions
from qmoments.qrat import ZERO, UniRat
from qmoments.qseries import qbinomial
from qmoments.rbasis import c_coeff, mirror_poly, rlambda_poly


def _ok(num, msg):
    print("ACCEPTANCE %02d PASS - %s" % (num, msg))


def _partitions_up_to(size, max_part=None):
    for n in range(size + 1):
        for lam in partitions_of(n):
            if max_part is None or not lam or lam[0] <= max_part:
                yield lam


def _verified(ident, params, strategy):
    report = verify(IdentityCase(ident, params, strategy))
    assert report.passed, (ident, params, report.mismatch)
    return report


def test_criterion_01_subgroup_oracle_matches_formula():
    checks = 0
    for lam in _partitions_up_to(4):
        for p in (2, 3):
            group = PGroup(p, lam)
            for mu in subpartitions(lam):
                oracle = count_subgroups_of_type(group, mu)
                formula = c_coeff(lam, mu).eval_at(Fraction(p))
                assert oracle == formula, (lam, mu, p, oracle, formula)
                checks += 1
    _ok(1, "subgroup counts equal evaluated coefficients (%d checks)" % checks)


def test_criterion_02_injection_oracle_matches_polynomial():
    checks = 0
    for lam in _partitions_up_to(3):
        poly = rlambda_poly(lam)
        for mu in _partitions_up_to(4):
            for p in (2, 3):
                group = PGroup(p, mu)
                brute = count_injective_homs(lam, group)
                formula = eval_on_group(poly.specialize_param(Fraction(p)), group)
                assert brute == formula, (lam, mu, p, brute, formula)
                checks += 1
    _ok(2, "injective-hom counts equal evaluated polynomials (%d checks)" % checks)


def test_criterion_03_inversion_round_trip():
    checks = 0
    for lam in _partitions_up_to(6, max_part=3):
        lam = Partition(lam)
        ell = max(lam.part(1), 1)
        total = MPoly.zero(ell, "t")
        for mu in subpartitions(lam):
            coeff = c_coeff(lam, mu).rename("t")
            total = total + rlambda_poly(mu, ell=ell).scale(coeff)
        target = tuple(lam.mult(i) for i in range(1, ell + 1))
        assert total == MPoly({target: UniRat.one()}, ell, "t"), lam
        checks += 1
    _ok(3, "coefficient-weighted sums collapse to single monomials (%d partitions)" % checks)


def test_criterion_04_mirror_symmetry_and_coherence():
    palindromes = 0
    for lam in _partitions_up_to(8):
        lam = Partition(lam)
        seq = mirror_poly(lam)
        m = lam.size
        assert all(seq[k] == seq[m - k] for k in range(m + 1)), lam
        palindromes += 1
    coherent = 0
    for lam in _partitions_up_to(5):
        for p in (2, 3, 5):
            ok, report = coherence_check(lam, p)
            assert ok, report
            coherent += 1
    _ok(4, "mirror sequences palindromic (%d) and zero/one moments coherent (%d)"
        % (palindromes, coherent))


def test_criterion_05_cubic_field_average_values():
    assert m_u(MomentQuery(Partition((1,)), 3, 0, ABELIAN)) == 2
    assert m_u(MomentQuery(Partition((1,)), 3, 1, ABELIAN)) == Fraction(4, 3)
    _ok(5, "imaginary and real averages at p=3 are 2 and 4/3")


def test_criterion_06_type_s_first_moments():
    for p in (2, 3, 5):
        assert m_u_s(MomentQuery(Partition((1,)), p, 0, TYPE_S)) == 1 + p
        assert m_u_s(MomentQuery(Partition((1,)), p, 1, TYPE_S)) == 1 + Fraction(1, p)
    _ok(6, "type-S first moments are 1+p at u=0 and 1+1/p at u=1")


def test_criterion_07_binomial_sum_product_form():
    for p in (2, 3, 5):
        q2 = Fraction(p * p)
        for m in range(0, 7):
            lhs = sum(
                qbinomial(m, k).eval_at(q2) * Fraction(p) ** k for k in range(m + 1)
            )
            rhs = Fraction(1)
            for j in range(1, m + 1):
                rhs *= 1 + Fraction(p) ** j
            assert lhs == rhs, (m, p, lhs, rhs)
    _ok(7, "binomial sums at squared base match the product closed form")


def test_criterion_08_generating_function_both_forms():
    cases = 0
    for lam in _partitions_up_to(4):
        for p in (2, 3):
            _verified("GENFUN", {"lam": list(lam), "p": p, "zmax": 6}, TRUNCATED_SERIES)
            cases += 1
        _verified("COMBINAT", {"lam": list(lam), "zmax": 6}, TRUNCATED_SERIES)
        cases += 1
    _ok(8, "numeric and symbolic generating-function forms agree (%d cases)" % cases)


def test_criterion_09_column_bounded_averages_and_special_case():
    cases = 0
    for ell in (1, 2, 3):
        for lam in _partitions_up_to(4, max_part=ell):
            for ident in ("UMOY_ABELIAN", "UMOY_TYPE_S"):
                _verified(ident, {"ell": ell, "lam": list(lam), "zmax": 8}, TRUNCATED_SERIES)
                cases += 1
        _verified("DELAUNAY", {"ell": ell, "zmax": 8}, TRUNCATED_SERIES)
        cases += 1
        # single-row special case: the inversion side collapses to a 0/1 indicator
        for size in range(0, 9):
            total = ZERO
            for nu in subpartitions(Partition((ell,))):
                if nu.size == size:
                    total = total + c_coeff((ell,), nu)
            if size <= ell:
                assert total == UniRat.one(), (ell, size)
            else:
                assert total.is_zero(), (ell, size)
    _ok(9, "column-bounded averages verified both flavors plus single-row collapse (%d cases)"
        % cases)


def test_criterion_10_finite_identities_symbolic_and_sampled():
    for n in range(1, 4):
        for k in range(1, 4):
            _verified("FINITE_QBINHL", {"n": n, "k": k}, SYMBOLIC_EXACT)
    seeds = {1: 20260815, 2: 20260816, 3: 20260817}
    for k, seed in seeds.items():
        report = _verified(
            "FINITE_QBINHL", {"n": 4, "k": k, "samples": 20, "seed": seed}, RANDOM_POINT
        )
        assert report.seed == seed
    for n in range(1, 5):
        for k in range(1, 4):
            _verified("CSQ", {"n": n, "k": k}, SYMBOLIC_EXACT)
    _ok(10, "finite identities exact through n=3 symbolic, n=4 sampled at recorded seeds")


def test_criterion_11_symmetric_function_identities():
    _verified("QBINHL", {"nx": 3, "d": 5}, TRUNCATED_SERIES)
    _verified("WARNAAR_A2", {"nx": 3, "ny": 3, "dx": 5, "dy": 5}, TRUNCATED_SERIES)
    _verified("LASCOUX", {"nx": 3, "ny": 3, "dx": 5, "dy": 5}, TRUNCATED_SERIES)
    _ok(11, "three-variable symmetric-function identities match through degree 5")


def test_criterion_12_binomial_theorem_and_euler():
    for n in range(0, 9):
        _verified("QBIN", {"n": n}, SYMBOLIC_EXACT)
    _verified("EULER", {"zmax": 10}, TRUNCATED_SERIES)
    _ok(12, "finite binomial theorem through n=8 and partition series through z^10")


def test_criterion_13_automorphism_orders():
    checks = 0
    for lam in _partitions_up_to(4):
        for p in (2, 3):
            expected = aut_order(lam, p)
            brute = count_injective_homs(lam, PGroup(p, lam))
            assert expected == brute, (lam, p, expected, brute)
            checks += 1
    assert aut_order((1, 1), 2) == 6
    _ok(13, "automorphism orders equal self-injection counts (%d checks), spot value 6" % checks)


def test_criterion_14_rank_probabilities_normalize():
    for p in (2, 3):
        for u in (0, 1):
            low = mpmath.mpf(0)
            high = mpmath.mpf(0)
            for rank in range(0, 7):
                profile = RankProfile(Partition((rank,) if rank else ()), 1, p, u)
                factor, residual = pj_rank_prob(profile, ABELIAN)
                lo, hi = residual.bounds()
                low += mpmath.mpmathify(factor) * lo
                high += mpmath.mpmathify(factor) * hi
            assert high < 1 + mpmath.mpf("1e-12"), (p, u, high)
            assert low > 1 - mpmath.mpf("1e-6"), (p, u, low)
    _ok(14, "rank-profile probabilities sum to 1 within 1e-6 with certified bounds")


def test_criterion_15_mutation_guard():
    case = IdentityCase("GENFUN", {"lam": [2, 1], "p": 2, "zmax": 6}, TRUNCATED_SERIES)
    assert verify(case).passed
    corrupted = verify(case, mutate=True)
    assert not corrupted.passed
    mismatch = corrupted.mismatch
    assert mismatch is not None
    assert mismatch.label and mismatch.key is not None
    assert mismatch.lhs != mismatch.rhs
    payload = corrupted.as_json()["mismatch"]
    assert payload["series"] and payload["coefficient"] is not None
    _ok(15, "corrupted registration fails with a localized coefficient mismatch")
