"""Partition parsing, statistics, containment, enumeration."""

import random
from fractions import Fraction

import pytest

from qmoments import ParseError, Partition, parse_partition, partitions_of, subpartitions
from qmoments.groups import PGroup, count_subgroups_of_type
from qmoments.hall_littlewood import hl_p
from qmoments.partitions import subpartition_count


def test_construction_and_normalization():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([]) == Partition(())
    assert Partition([5]).size == 5
    assert Partition([3, 2, 2]).length == 3
    assert Partition([]).size == 0 and Partition([]).length == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ParseError):
        Partition([1, 2])
    with pytest.raises(ParseError):
        Partition([2, -1])


@pytest.mark.parametrize(
    "parts", [[2.5], [2.0], [True], [2, False], "21", ["2", "1"], [Fraction(2)], None, 5]
)
def test_construction_refuses_parts_that_are_not_ints(parts):
    # int(a) would build another partition: [2.5] -> (2,), "21" -> (2, 1);
    # input that is not iterable is no partition either
    with pytest.raises(ParseError):
        Partition(parts)
    with pytest.raises(ParseError):
        hl_p(parts, 2)
    with pytest.raises(ParseError):
        count_subgroups_of_type(PGroup(2, (1, 1)), parts)


def test_part_and_conj_padding():
    lam = Partition([4, 2, 1])
    assert [lam.part(i) for i in range(1, 6)] == [4, 2, 1, 0, 0]
    assert lam.conjugate() == Partition([3, 2, 1, 1])
    assert [lam.conj(i) for i in range(1, 7)] == [3, 2, 1, 1, 0, 0]


def test_conjugate_involution():
    rng = random.Random(7)
    for _ in range(200):
        parts = sorted((rng.randrange(1, 9) for _ in range(rng.randrange(0, 7))), reverse=True)
        lam = Partition(parts)
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size
        # part i of the conjugate counts the parts >= i
        top = parts[0] if parts else 0
        want = tuple(sum(1 for a in parts if a >= i) for i in range(1, top + 1))
        assert type(lam.conjugate()) is Partition and lam.conjugate() == want


def test_multiplicities():
    lam = Partition([4, 2, 2, 1])
    assert lam.mult(2) == 2
    assert lam.mult(3) == 0
    assert lam.mult(1) == 1
    assert lam.mult(4) == 1
    # m_i = conj(i) - conj(i+1)
    for i in range(1, 7):
        assert lam.mult(i) == lam.conj(i) - lam.conj(i + 1)


def test_nstat():
    assert Partition([]).nstat() == 0
    assert Partition([3]).nstat() == 0
    assert Partition([2, 2]).nstat() == 2
    assert Partition([3, 2, 1]).nstat() == 2 * 1 + 1 * 2  # 0*3 + 1*2 + 2*1
    # n(lambda) = sum over columns of C(col, 2)
    for n in range(11):
        for lam in partitions_of(n):
            assert lam.nstat() == sum(c * (c - 1) // 2 for c in lam.conjugate())


def test_contains():
    lam = Partition([3, 2])
    assert lam.contains(Partition([3, 2]))
    assert lam.contains(Partition([]))
    assert lam.contains(Partition([2, 2]))
    assert not lam.contains(Partition([3, 3]))
    assert not lam.contains(Partition([1, 1, 1]))
    assert not Partition([]).contains(Partition([1]))
    # the same test on the conjugates
    lams = [lam for n in range(8) for lam in partitions_of(n)]
    for lam in lams:
        lc = lam.conjugate()
        for mu in lams:
            mc = mu.conjugate()
            assert lam.contains(mu) == (len(mc) <= len(lc) and all(m <= a for m, a in zip(mc, lc)))


def test_parse_forms():
    assert parse_partition("3,2,2") == Partition([3, 2, 2])
    assert parse_partition(" 3, 2 ,2 ") == Partition([3, 2, 2])
    assert parse_partition("") == Partition([])
    assert parse_partition("  ") == Partition([])
    assert parse_partition("2^3 1^2") == Partition([2, 2, 2, 1, 1])
    assert parse_partition("1^2 2^3") == Partition([2, 2, 2, 1, 1])
    assert parse_partition("5^1") == Partition([5])


def test_parse_errors():
    for bad in ("1,2", "a,b", "2,-1", "0,0", "2^", "^2", "2^0 1", "1.5", "3 2"):
        with pytest.raises(ParseError):
            parse_partition(bad)


def test_render_roundtrip():
    lam = Partition([3, 2, 2])
    assert parse_partition(str(lam)) == lam
    assert parse_partition("2^2 3^1") == lam
    assert parse_partition(str(Partition([]))) == Partition([])


def test_partitions_of_counts():
    # partition numbers p(0..10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == e


def test_partitions_of_order_and_filters():
    got = list(partitions_of(4))
    assert got == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
        Partition([1, 1, 1, 1]),
    ]
    assert list(partitions_of(4, max_part=2)) == [
        Partition([2, 2]),
        Partition([2, 1, 1]),
        Partition([1, 1, 1, 1]),
    ]
    assert list(partitions_of(4, max_length=2)) == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
    ]
    assert list(partitions_of(0)) == [Partition([])]
    assert list(partitions_of(3, max_part=1, max_length=2)) == []


def test_subpartitions_exact_set():
    lam = Partition([2, 1])
    got = sorted(subpartitions(lam))
    assert got == sorted(
        [
            Partition([]),
            Partition([1]),
            Partition([2]),
            Partition([1, 1]),
            Partition([2, 1]),
        ]
    )


def test_subpartitions_match_containment_filter():
    rng = random.Random(11)
    for _ in range(20):
        parts = sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 4))), reverse=True)
        lam = Partition(parts)
        via_gen = sorted(subpartitions(lam))
        via_filter = sorted(
            mu
            for n in range(lam.size + 1)
            for mu in partitions_of(n)
            if lam.contains(mu)
        )
        assert via_gen == via_filter
        assert len(via_gen) == len(set(via_gen))


def test_mult_form():
    assert parse_partition("1^2 2^3") == Partition([2, 2, 2, 1, 1])
    assert parse_partition("2^3 1^2") == Partition([2, 2, 2, 1, 1])


def test_subpartition_count_matches_the_listing():
    for lam in [(), (1,), (2, 1), (3, 3, 1), (4, 2, 2, 1), (5, 5, 5), (6, 4, 3, 1, 1)]:
        assert subpartition_count(lam, 10**6) == sum(1 for _ in subpartitions(lam)), lam
    assert subpartition_count([30] * 5, 10**6) == 324_632
    assert subpartition_count(range(12, 0, -1), 10**6) == 742_900
    # past the limit the hook's count lam_1 * length + 1 stands for it
    assert subpartition_count([10**9] * 3, limit=100) == 3 * 10**9 + 1
    assert subpartition_count([3, 3], limit=100) == 10
