"""Group oracles: brute-force recounts, classical values, and formula cross-checks."""
import time
from fractions import Fraction
from itertools import product as cartesian

import pytest

from qmoments import groups
from qmoments.errors import ModeError, ResourceBoundError, UsageError
from qmoments.groups import (
    PGroup,
    aut_order,
    auts_order,
    count_injective_homs,
    count_subgroups_of_type,
    enumerate_subgroups,
    eval_on_group,
    torsion_order,
)
from qmoments.mpoly import MPoly
from qmoments.partitions import Partition, partitions_of
from qmoments.qseries import qq
from qmoments.rbasis import c_coeff, rlambda_poly


def _span(H, gens):
    """Subgroup generated by a list of elements, built by repeated closure."""
    sub = {H.zero()}
    for g in gens:
        grown = set()
        k = g
        cosets = [sub]
        while k != H.zero():
            cosets.append({H.add(s, k) for s in sub})
            k = H.add(k, g)
        for c in cosets:
            grown |= c
        sub = grown
    return frozenset(sub)


def _torsion_type(H, sub):
    """Type of a subgroup, read off from its p^k-torsion orders."""
    p = H.p
    conj = []
    prev_log = 0
    while p**prev_log < len(sub):
        k = len(conj) + 1
        t = sum(1 for g in sub if all(v * p**k % m == 0 for v, m in zip(g, H.moduli)))
        log = 0
        while p**log < t:
            log += 1
        assert p**log == t, "torsion subgroup size is not a p-power"
        conj.append(log - prev_log)
        prev_log = log
    return Partition(conj).conjugate()


def test_pgroup_arithmetic():
    H = PGroup(2, Partition((2, 1)))
    assert H.moduli == (4, 2)
    assert H.order == 8
    assert H.zero() == (0, 0)
    assert H.add((3, 1), (2, 1)) == (1, 0)
    assert H.neg((1, 1)) == (3, 1)
    assert H.smul(3, (2, 1)) == (2, 1)
    assert sorted(H.elements())[0] == (0, 0)
    assert len(list(H.elements())) == 8
    assert H.order_log((0, 0)) == 0
    assert H.order_log((2, 0)) == 1
    assert H.order_log((0, 1)) == 1
    assert H.order_log((1, 1)) == 2


@pytest.mark.parametrize("p", [1, 4, 9, 2.0, 2.5, True, "2"])
def test_pgroup_refuses_a_p_that_is_not_a_prime_int(p):
    # a composite p would count 6 subgroups of type (1,) in "Z/4 x Z/4"
    with pytest.raises(UsageError):
        PGroup(p, (1, 1))


def test_torsion_order_examples():
    H = PGroup(2, Partition((2, 1)))
    assert torsion_order(H, 0) == 1
    assert torsion_order(H, 1) == 4
    assert torsion_order(H, 2) == 8
    assert torsion_order(H, 5) == 8
    with pytest.raises(ValueError):
        torsion_order(H, -1)


def test_torsion_order_brute():
    for p in (2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                H = PGroup(p, lam)
                for k in range(lam.part(1) + 2):
                    brute = sum(
                        1
                        for g in H.elements()
                        if all(v * p**k % m == 0 for v, m in zip(g, H.moduli))
                    )
                    assert torsion_order(H, k) == brute


def test_aut_order_values():
    assert aut_order(Partition(()), 2) == 1
    assert aut_order(Partition((1,)), 3) == 2
    assert aut_order(Partition((1, 1)), 2) == 6  # GL_2(F_2)
    assert aut_order(Partition((1, 1, 1)), 2) == 168  # GL_3(F_2)
    assert aut_order(Partition((1, 1)), 3) == 48  # GL_2(F_3)
    assert aut_order(Partition((2,)), 2) == 2  # units mod 4
    assert aut_order(Partition((3,)), 3) == 18  # units mod 27
    assert aut_order(Partition((2, 1)), 2) == 8


def test_auts_order_values():
    assert auts_order(Partition(()), 5) == 1
    assert auts_order(Partition((1,)), 2) == 6
    assert auts_order(Partition((1,)), 3) == 24
    assert auts_order(Partition((2,)), 2) == 48


def test_enumerate_subgroups_examples():
    klein = enumerate_subgroups(PGroup(2, Partition((1, 1))))
    assert klein == {
        Partition(()): 1,
        Partition((1,)): 3,
        Partition((1, 1)): 1,
    }
    cyclic = enumerate_subgroups(PGroup(3, Partition((2,))))
    assert cyclic == {
        Partition(()): 1,
        Partition((1,)): 1,
        Partition((2,)): 1,
    }
    for p, lam in ((2, (2, 1)), (3, (1, 1)), (2, (2, 2))):
        counts = enumerate_subgroups(PGroup(p, Partition(lam)))
        assert counts[Partition(lam)] == 1


def test_enumerate_subgroups_tuple_span_recount():
    cases = [
        (2, (1, 1)),
        (2, (2, 1)),
        (2, (1, 1, 1)),
        (2, (2, 2)),
        (2, (1, 1, 1, 1)),
        (3, (1, 1)),
        (3, (2, 1)),
    ]
    for p, lam in cases:
        H = PGroup(p, Partition(lam))
        rank = Partition(lam).length
        elems = list(H.elements())
        spans = {_span(H, gens) for gens in cartesian(elems, repeat=rank)}
        counts = enumerate_subgroups(H)
        assert sum(counts.values()) == len(spans)
        by_type = {}
        for sub in spans:
            mu = _torsion_type(H, sub)
            by_type[mu] = by_type.get(mu, 0) + 1
        assert counts == by_type
        for mu, cnt in by_type.items():
            assert count_subgroups_of_type(H, mu) == cnt


def test_subgroup_counts_outside_containment_and_elementary_64():
    H = PGroup(2, Partition((2, 1)))
    for mu in ((3,), (1, 1, 1), (2, 2), (3, 1, 1)):
        assert count_subgroups_of_type(H, mu) == 0
    counts = enumerate_subgroups(PGroup(2, Partition((1,) * 6)))
    assert counts[Partition((1, 1, 1))] == 1395
    assert sum(counts.values()) == 2825


def _elementary(p, r):
    return PGroup(p, Partition((1,) * r))


def test_row_echelon_count_equals_span_search():
    for p, rmax in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for r in range(rmax + 1):
            H = _elementary(p, r)
            for k in range(r + 2):
                mu = Partition((1,) * k)
                assert count_subgroups_of_type(H, mu) == len(groups._spans(mu, H)), (p, r, k)


def test_row_echelon_bases_span_each_subspace_once():
    for p, r in ((2, 4), (3, 3)):
        H = _elementary(p, r)
        # naive recount: grow the whole lattice from {0}, one element at a time
        lattice = {frozenset((H.zero(),))}
        todo = list(lattice)
        while todo:
            sub = todo.pop()
            for g in H.elements():
                cyclic = _span(H, [g])
                bigger = frozenset(H.add(s, c) for s in sub for c in cyclic)
                if bigger not in lattice:
                    lattice.add(bigger)
                    todo.append(bigger)
        for k in range(r + 1):
            spans = [_span(H, list(basis)) for basis in groups._bases(p, r, k)]
            assert len(set(spans)) == len(spans)
            assert all(len(span) == p**k for span in spans)
            assert len(spans) == sum(1 for sub in lattice if len(sub) == p**k)
            assert count_subgroups_of_type(H, (1,) * k) == len(spans)


def test_row_echelon_count_is_fast_and_bounded():
    start = time.perf_counter()
    assert count_subgroups_of_type(_elementary(2, 7), (1,) * 7) == 1
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError) as info:
        count_subgroups_of_type(_elementary(2, 10), (1,) * 5)
    assert time.perf_counter() - start < 0.1
    assert info.value.limit == groups.MAX_ORACLE_WORK


def test_span_search_work_is_bounded_per_level():
    # aut 1^10 at p = 2: 1,023 lines times 1,023 candidates, each building
    # a span of order 4, at level 2
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError) as info:
        count_injective_homs((1,) * 10, _elementary(2, 10))
    assert time.perf_counter() - start < 1.0
    assert (info.value.limit, info.value.requested) == (groups.MAX_ORACLE_WORK, 1023 * 1023 * 4)
    # aut (6,1^6) at p = 2: its third level would build 65,544,192 elements
    with pytest.raises(ResourceBoundError):
        count_injective_homs((6,) + (1,) * 6, PGroup(2, (6,) + (1,) * 6))


def test_count_subgroups_matches_inversion_coefficients():
    for p in (2, 3):
        for lam in ((1, 1), (2,), (2, 1), (1, 1, 1)):
            lam = Partition(lam)
            H = PGroup(p, lam)
            counts = enumerate_subgroups(H)
            total = 0
            for mu, cnt in counts.items():
                assert cnt == c_coeff(lam, mu).eval_at(p)
                total += cnt
            assert count_subgroups_of_type(H, Partition((5,))) == 0
            assert total == sum(counts.values())


def test_pontryagin_count_symmetry():
    for p, lam in ((2, (2, 1)), (2, (2, 2)), (2, (1, 1, 1)), (3, (2, 1))):
        lam = Partition(lam)
        counts = enumerate_subgroups(PGroup(p, lam))
        by_size = {}
        for mu, cnt in counts.items():
            by_size[mu.size] = by_size.get(mu.size, 0) + cnt
        for k in range(lam.size + 1):
            assert by_size.get(k, 0) == by_size.get(lam.size - k, 0)


def test_count_injective_homs_examples():
    assert count_injective_homs(Partition((1,)), PGroup(2, Partition((2,)))) == 1
    assert count_injective_homs(Partition((1, 1)), PGroup(2, Partition((1,)))) == 0
    assert count_injective_homs(Partition((1, 1)), PGroup(2, Partition((1, 1)))) == 6
    assert count_injective_homs(Partition((1,)), PGroup(3, Partition((1, 1)))) == 8
    assert count_injective_homs(Partition(()), PGroup(2, Partition((2, 1)))) == 1


def test_count_injective_homs_naive_recount():
    def naive(lam, H):
        p = H.p
        total = 0
        for gens in cartesian(list(H.elements()), repeat=lam.length):
            if any(
                H.smul(p ** lam.part(i + 1), g) != H.zero()
                for i, g in enumerate(gens)
            ):
                continue  # not a homomorphism
            if len(_span(H, list(gens))) == p**lam.size:
                total += 1
        return total

    cases = [(2, lam, mu)
             for lam in ((1,), (2,), (1, 1), (2, 1))
             for mu in ((1,), (2,), (1, 1), (2, 1), (1, 1, 1))]
    cases += [(3, (1,), (1, 1)), (3, (1, 1), (1, 1)), (3, (1, 1), (2,))]
    for p, lam, mu in cases:
        lam, mu = Partition(lam), Partition(mu)
        H = PGroup(p, mu)
        assert count_injective_homs(lam, H) == naive(lam, H)


def test_injections_match_rlambda_values():
    cases = [
        (2, (1,), (2, 1)),
        (2, (2,), (2, 1)),
        (2, (1, 1), (2, 1, 1)),
        (2, (2, 1), (2, 2)),
        (3, (1, 1), (2, 1)),
        (3, (2,), (4,)),
        (3, (3,), (4,)),
    ]
    for p, lam, mu in cases:
        lam, mu = Partition(lam), Partition(mu)
        T = rlambda_poly(lam).specialize_param(p)
        assert count_injective_homs(lam, PGroup(p, mu)) == eval_on_group(
            T, PGroup(p, mu)
        )


def test_aut_order_equals_self_injections():
    for p, lam in ((2, (1, 1)), (2, (2, 1)), (2, (1, 1, 1)), (3, (2,)), (3, (1, 1))):
        lam = Partition(lam)
        assert aut_order(lam, p) == count_injective_homs(lam, PGroup(p, lam))


def test_hominj_factors_through_subgroup_count():
    for p, mu in ((2, (2, 1)), (2, (1, 1, 1)), (3, (2, 1))):
        H = PGroup(p, Partition(mu))
        for lam in ((1,), (2,), (1, 1), (2, 1)):
            lam = Partition(lam)
            assert count_injective_homs(lam, H) == aut_order(
                lam, p
            ) * count_subgroups_of_type(H, lam)


def test_sum_over_groups_generating_value():
    # sum over mu of size n of R_lam(H_mu; p)/|Aut H_mu|
    # equals 1/(p^{n-m} (1/p;1/p)_{n-m}) for |lam| = m <= n.
    for p in (2, 3):
        for lam in ((), (1,), (2,), (1, 1), (2, 1), (2, 2)):
            lam = Partition(lam)
            T = rlambda_poly(lam).specialize_param(p) if lam.size else None
            for n in range(lam.size, 7):
                lhs = Fraction(0)
                for mu in partitions_of(n):
                    val = (
                        eval_on_group(T, PGroup(p, mu))
                        if T is not None
                        else Fraction(1)
                    )
                    lhs += Fraction(val, aut_order(mu, p))
                d = n - lam.size
                rhs = 1 / (
                    Fraction(p) ** d * qq(d).eval_at(Fraction(1, p))
                )
                assert lhs == rhs


def test_eval_on_group():
    H = PGroup(2, Partition((2, 1)))
    assert eval_on_group(MPoly.var(0, 1), H) == 4
    assert eval_on_group(MPoly.one(1), H) == 1
    # variables beyond lam_1 read the full group order
    assert eval_on_group(MPoly.var(2, 3), PGroup(2, Partition((2,)))) == 4
    T = rlambda_poly(Partition((1,))).specialize_param(3)
    assert eval_on_group(T, PGroup(3, Partition((1, 1)))) == 8
    with pytest.raises(ModeError):
        eval_on_group(rlambda_poly(Partition((2, 1))), H)


def test_resource_bounds(monkeypatch):
    big = PGroup(2, Partition((13,)))
    with pytest.raises(ResourceBoundError):
        enumerate_subgroups(big)
    with pytest.raises(ResourceBoundError):
        count_injective_homs(Partition((1,)), big)
    with pytest.raises(ResourceBoundError):
        # small target group but oversized source
        count_injective_homs(Partition((13,)), PGroup(2, Partition((1,))))
    monkeypatch.setenv("QMOMENTS_MAX_GROUP_ORDER", "8")
    with pytest.raises(ResourceBoundError):
        enumerate_subgroups(PGroup(2, Partition((1, 1, 1, 1))))
    assert enumerate_subgroups(PGroup(2, Partition((2, 1))))[Partition((1,))] == 3
    monkeypatch.setenv("QMOMENTS_MAX_GROUP_ORDER", "16384")
    assert count_injective_homs(Partition((1,)), big) == 1
