"""Hall-Littlewood polynomials against independent constructions: the
symmetrize-and-divide formula, Schur polynomials at q=0, monomial
symmetric at q=1."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import inf
from pathlib import Path

import pytest

import qmoments
from qmoments import Partition, ResourceBoundError, UniRat
from qmoments.errors import InvariantError
from qmoments.hall_littlewood import HLValue, b_lambda, hl_p, principal_spec
from qmoments.mpoly import MPoly, _unit
from qmoments.partitions import partitions_of
from qmoments.qrat import ZERO
from qmoments.qseries import qq

# ---------------------------------------------------------------------------
# oracle 1: symmetrize and divide (Macdonald III (2.2))
#   sum over the distinct fillings f of the n positions by value classes of
#   sign(f) x^f * prod over a < b of (x_i - q x_j), i, j ordered by class
#   (x_a - x_b within one class), divided by the Vandermonde product


def hl_symmetrized(lam, n):
    lam = Partition(lam)
    if lam.length > n:
        return MPoly.zero(n, "q")
    vals = sorted(set(lam), reverse=True)
    if len(lam) < n:
        vals.append(0)
    mults = [(lam.mult(v) if v else n - len(lam)) for v in vals]
    base = [ci for ci, m in enumerate(mults) for _ in range(m)]
    total = MPoly.zero(n, "q")
    for f in set(permutations(base)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if f[a] > f[b])
        term = MPoly.mono(tuple(vals[c] for c in f), -1 if inv % 2 else 1, "q")
        for a in range(n):
            for b in range(a + 1, n):
                i, j = (b, a) if f[a] > f[b] else (a, b)
                s = 0 if f[a] == f[b] else 1
                term = term * MPoly.two_term(_unit(n, i), _unit(n, j), s, "q")
        total = total + term
    for a in range(n):
        for b in range(a + 1, n):
            total = total.divexact(MPoly.two_term(_unit(n, a), _unit(n, b), 0, "q"))
    return total


# oracle 2: Schur polynomial via the bialternant ratio


def schur_poly(lam, n):
    lam = Partition(lam)
    if lam.length > n:
        return MPoly.zero(n)
    a = [lam.part(j) + n - j for j in range(1, n + 1)]
    num = MPoly.zero(n)
    for sigma in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        exps = tuple(a[sigma[i]] for i in range(n))
        num = num + MPoly.mono(exps, -1 if inv % 2 else 1)
    for i in range(n):
        for j in range(i + 1, n):
            num = num.divexact(MPoly.var(i, n) - MPoly.var(j, n))
    return num


# oracle 3: monomial symmetric polynomial


def monomial_sym(lam, n):
    lam = Partition(lam)
    if lam.length > n:
        return MPoly.zero(n)
    exps = tuple(lam.part(i) for i in range(1, n + 1))
    out = MPoly.zero(n)
    for e in set(permutations(exps)):
        out = out + MPoly.mono(e, 1)
    return out


# ---------------------------------------------------------------------------


def test_hl_p_examples():
    for n in (1, 2, 3):
        expect = MPoly.zero(n, "q")
        for i in range(n):
            expect = expect + MPoly.var(i, n, "q")
        assert hl_p(Partition([1]), n).poly == expect
    x1, x2 = MPoly.var(0, 2, "q"), MPoly.var(1, 2, "q")
    assert hl_p(Partition([1, 1]), 2).poly == x1 * x2
    qv = UniRat.mono("q", 1)
    assert hl_p(Partition([2]), 2).poly == x1 * x1 + x2 * x2 + (x1 * x2).scale(1 - qv)


def test_hl_p_bounds_and_zero():
    with pytest.raises(ResourceBoundError):
        hl_p(Partition([1]), 6)
    v = hl_p(Partition([1, 1, 1]), 2)
    assert v.poly.is_zero()
    assert v.poly == MPoly.zero(2, "q")
    assert hl_p(Partition([]), 2).poly == MPoly.one(2, "q")


def test_hl_elementary():
    # P_{1^r}(x_1..x_n) = e_r, independent of q
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            p = hl_p(Partition([1] * r), n).poly
            expect = MPoly.zero(n)
            for comb_ in permutations(range(n), r):
                if list(comb_) == sorted(comb_):
                    e = tuple(1 if k in comb_ else 0 for k in range(n))
                    expect = expect + MPoly.mono(e, 1)
            assert p == expect


def test_hl_matches_symmetrize_and_divide():
    for size in range(6):
        for lam in partitions_of(size):
            for n in range(5):
                assert hl_p(lam, n).poly == hl_symmetrized(lam, n), (lam, n)


def test_hl_one_case_n5():
    lam = Partition([2, 1])
    assert hl_p(lam, 5).poly == hl_symmetrized(lam, 5)


def test_hl_schur_at_q0():
    for size in range(5):
        for lam in partitions_of(size):
            for n in range(4):
                got = hl_p(lam, n).poly.specialize_param(0)
                assert got == schur_poly(lam, n), (lam, n)


def test_hl_monomial_at_q1():
    for size in range(5):
        for lam in partitions_of(size):
            for n in range(4):
                got = hl_p(lam, n).poly.specialize_param(1)
                assert got == monomial_sym(lam, n), (lam, n)


def test_b_lambda():
    qv = UniRat.mono("q", 1)
    assert b_lambda(Partition([2, 1])) == (1 - qv) ** 2
    assert b_lambda(Partition([1, 1])) == (1 - qv) * (1 - qv ** 2)
    assert b_lambda(Partition([])) == UniRat.one()
    assert b_lambda(Partition([3, 3, 1])) == qq(2) * qq(1)


def test_principal_spec_closed_form():
    qv = UniRat.mono("q", 1)
    # (2,1), n=2 -> z^3 q (1+q): q-part q(1+q), z-degree 3
    v = principal_spec(Partition([2, 1]), 2)
    assert v == qv * (1 + qv)
    assert principal_spec(Partition([1]), 1) == UniRat.one()
    assert principal_spec(Partition([1, 1]), 1) == ZERO


def test_principal_spec_matches_substitution():
    # already asserted internally; exercise across a grid
    for size in range(6):
        for lam in partitions_of(size):
            for n in range(1, 5):
                principal_spec(lam, n)


def test_principal_spec_infinite():
    qv = UniRat.mono("q", 1)
    v = principal_spec(Partition([2, 1]), inf)
    assert v == qv / b_lambda(Partition([2, 1]))
    # infinite form = finite form times (q)_{n-l}/(q)_n limit ratio sanity:
    # for growing n the finite value times (q)_{n-l(lam)}/(q)_n equals it
    lam = Partition([2, 1])
    for n in (2, 3, 4, 5):
        fin = principal_spec(lam, n)
        assert fin * qq(n - lam.length) / qq(n) == v


def test_hl_value_invariants_direct():
    v = hl_p(Partition([2, 1]), 3)
    assert isinstance(v, HLValue)
    p = v.poly
    assert p.homogeneous_degree() == 3
    assert p.swap_vars(0, 2) == p
    assert p.coeff_of((2, 1, 0)) == UniRat.one()
    # q-coefficients: P_(2,1) on 3 vars has known structure
    qv = UniRat.mono("q", 1)
    assert p.coeff_of((1, 1, 1)) == (1 - qv) * (2 + qv)


# ---------------------------------------------------------------------------
# HLValue invariants are checks, not asserts


def test_hlvalue_rejects_a_broken_poly():
    x0, x1 = (MPoly.var(i, 2, "q") for i in range(2))
    lam = Partition((2, 1))
    m21 = x0 * x0 * x1 + x0 * x1 * x1
    for poly, what in (
        (m21 + x0 * x0 * x0, "not symmetric"),
        (m21 + x0 + x1, "not homogeneous"),
        (m21.scale(2), "not monic"),
        (MPoly.zero(2, "q"), "zero with at most n parts"),
    ):
        with pytest.raises(InvariantError, match=what):
            HLValue(lam, 2, poly)
    assert HLValue(lam, 2, m21).poly == hl_p(lam, 2).poly


_UNDER_O = """
from qmoments.errors import InvariantError
from qmoments.hall_littlewood import HLValue, hl_p
from qmoments.identities import IdentityCase, verify
from qmoments.mpoly import MPoly, _unit
assert False  # stripped by -O
v = hl_p((2, 1), 3)
try:
    HLValue(v.lam, 3, v.poly + MPoly.mono((3, 0, 0), 1, "q"))
    print("unchecked")
except InvariantError:
    print("checked")
params = {"n": 4, "k": 2, "samples": 20, "seed": 20260816}
rep = verify(IdentityCase("FINITE_QBINHL", params, "random-point"))
print(len(v.poly.terms), rep.passed, rep.compared)
from qmoments import moments
from qmoments.moments import SELMER, TYPE_S, MomentQuery, conjecture_table, fouvry_klueners_numbers, m_u_s
checks = (
    lambda: m_u_s(MomentQuery((3,), 2, 1, TYPE_S)),  # a row: the geometric sum
    lambda: conjecture_table(SELMER, p=2, lm=(1, 3)),
    lambda: fouvry_klueners_numbers(4, 3),
)
print(*(f() for f in checks))
good = moments.mirror_poly
moments.mirror_poly = lambda lam: [2 * s for s in good(lam)]
for f in checks:
    try:
        f()
        print("unchecked")
    except InvariantError:
        print("checked")
from qmoments import rbasis
checks = (
    lambda: rbasis.rlambda_expand((2, 1)),
    lambda: rbasis.monomial_in_R_basis((2, 1)),
    lambda: rbasis.mirror_poly((2, 1)),
    lambda: rbasis.rlambda_poly((2, 1)).terms,
)
print(*(len(f()) for f in checks))
good_c, good_r = rbasis.c_coeff, rbasis.rlambda_poly
# C_{lam,()} + 1: the R-sum keeps an extra x^() and the mirror loses its
# palindrome; twice R_lam breaks the closed form
rbasis.c_coeff = lambda lam, mu: good_c(lam, mu) + (0 if mu else 1)
rbasis.rlambda_poly = lambda lam, ell=None: good_r(lam, ell) * 2
for f in checks[:3]:
    try:
        f()
        print("unchecked")
    except InvariantError:
        print("checked")
from types import SimpleNamespace
from qmoments import hall_littlewood
print(hall_littlewood.principal_spec((2, 1), 3))
# twice P_lam misses the closed form at x_i = q^(i-1)
good_hl = hall_littlewood.hl_p
hall_littlewood.hl_p = lambda lam, n: SimpleNamespace(poly=good_hl(lam, n).poly.scale(2))
try:
    hall_littlewood.principal_spec((2, 1), 4)
    print("unchecked")
except InvariantError:
    print("checked")
"""


def test_hl_checks_and_sample_points_run_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(qmoments.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True, check=True
    )
    terms = len(hl_p((2, 1), 3).poly.terms)
    assert done.stdout.splitlines() == [
        "checked", "%d True 20" % terms, "15/8 135 212", "checked", "checked", "checked",
        "4 5 4 4", "checked", "checked", "checked",
        repr(principal_spec((2, 1), 3)), "checked",
    ]
