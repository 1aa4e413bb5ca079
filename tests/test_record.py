"""The shared frozen-record base and the eight value classes built on it."""

from fractions import Fraction

import pytest

from qmoments import hl_p
from qmoments.groups import PGroup
from qmoments.hall_littlewood import HLValue
from qmoments.identities import IdentityCase, Mismatch, VerificationReport
from qmoments.moments import ABELIAN, MomentQuery, RankProfile, Residual
from qmoments.partitions import Partition
from qmoments.record import Record

_HL = hl_p((2, 1), 3)

# (class, field values, whether every value is hashable)
SAMPLES = [
    (PGroup, (3, Partition((2, 1))), True),
    (HLValue, (_HL.lam, _HL.n, _HL.poly), False),
    (IdentityCase, ("QBIN", {"n": 5}, "symbolic-exact"), False),
    (Mismatch, ("z-coefficients", "3", "1/2", "1/3"), True),
    (VerificationReport,
     ("QBIN", {"n": 5}, "symbolic-exact", False, Mismatch("s", "k", "1", "2"), 6, 0.25, 7),
     False),
    (MomentQuery, (Partition((2, 1)), 3, 1, ABELIAN), True),
    (RankProfile, (Partition((1,)), 2, 3, 1, 12), True),
    (Residual, (Fraction(1, 3), Fraction(1, 100), 40), True),
]


@pytest.mark.parametrize("cls, values, hashable", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_record_equality_hash_repr_and_frozen(cls, values, hashable):
    a = cls(*values)
    b = cls(**dict(zip(cls._fields, values)))
    assert a == b and not a != b
    assert tuple(getattr(a, f) for f in cls._fields) == values
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    # another record class with the same fields and values is not equal
    twin_cls = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
    twin = twin_cls(*values)
    assert a != twin and twin != a
    assert a != values
    assert repr(a) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % (f, v) for f, v in zip(cls._fields, values))
    )
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[-1])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_record_field_order_and_repr_pins():
    assert PGroup._fields == ("p", "lam")
    assert VerificationReport._fields[-1] == "seed"
    assert repr(Mismatch("s", "k", "1", "2")) == "Mismatch(label='s', key='k', lhs='1', rhs='2')"
    assert repr(MomentQuery((1,), 3, 1)) == (
        "MomentQuery(lam=Partition((1,)), p=3, u=1, flavor='ABELIAN')"
    )


def test_record_defaults_apply():
    report = VerificationReport("QBIN", {"n": 1}, "symbolic-exact", True, None, 2, 0.0)
    assert report.seed is None
    assert "seed" not in report.as_json()
    assert RankProfile((1,), 1, 2, 0).trunc == 40
    assert MomentQuery((1,), 2, 0).flavor == ABELIAN
    assert RankProfile((1,), 1, 2, 0, trunc=5) == RankProfile((1,), 1, 2, 0, 5)


def test_record_constructor_rejects_bad_arguments():
    with pytest.raises(TypeError):
        Mismatch("s", "k", "1")
    with pytest.raises(TypeError):
        Mismatch("s", "k", "1", "2", "3")
    with pytest.raises(TypeError):
        Mismatch("s", "k", "1", "2", label="t")
    with pytest.raises(TypeError):
        Mismatch("s", "k", "1", rhs="2", other="3")


def test_record_post_init_normalizes_and_rejects():
    group = PGroup(2, [2, 1])
    assert isinstance(group.lam, Partition)
    assert group.moduli == (4, 2)
    assert "moduli" in vars(group)  # cached, but not a field
    assert group == PGroup(2, (2, 1)) and hash(group) == hash(PGroup(2, (2, 1)))
    assert isinstance(MomentQuery([1, 1], 3, 0).lam, Partition)
    assert isinstance(RankProfile([2], 1, 3, 0).mu, Partition)
    with pytest.raises(ValueError):
        PGroup(1, (1,))
    with pytest.raises(ValueError):
        MomentQuery((1,), 1, 0)
    with pytest.raises(ValueError):
        MomentQuery((1,), 3, 0, "NOPE")
    with pytest.raises(ValueError):
        RankProfile((2, 1), 1, 2, 0)
    with pytest.raises(ValueError):
        RankProfile((1,), 1, 2, 0, trunc=0)
