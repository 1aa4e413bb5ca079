"""Exact u-averaged moments over finite abelian p-groups and groups of
type S, rank-distribution laws with certified residuals, and the
conjectural prediction tables built from them.

mpmath is imported inside the float entry points and `pj_rank_prob`, so
an exact query never loads it."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError, ModeError, ResourceBoundError, UsageError
from .groups import _check_prime
from .partitions import Partition, subpartitions
from .qseries import qbinomial
from .rbasis import _c_degree, c_coeff
from .record import Record

ABELIAN = "ABELIAN"
TYPE_S = "TYPE_S"

CLASS_GROUP_IMAGINARY = "CLASS_GROUP_IMAGINARY"
CLASS_GROUP_REAL = "CLASS_GROUP_REAL"
SHA = "SHA"
SELMER = "SELMER"

# An exact moment sum_mu C_{lam,mu}(b) p^(-|mu| e) has about
# (|lam| * |e| + deg C) * log2(p) bits, where p^-e is the weight of one unit
# of |mu|, b = p (or p^2 for type S) and deg C bounds the degree of
# C_{lam,mu}(q).  Past this bound the Fraction powers and C_{lam,mu} take
# seconds to minutes, and the answer outgrows the 4300-digit limit of
# int-to-str conversion, so the query exits with a resource bound instead.
MAX_MOMENT_BITS = 8192


def _check_u(u):
    """Exact mode needs an integral u; reject anything else loudly."""
    f = Fraction(u)
    if f.denominator != 1 or f < 0:
        raise ModeError(
            "exact mode needs a nonnegative integral u, got %s; "
            "use the float entry point" % (u,)
        )
    return int(f)


def _check_size(lam, p, e, cbase):
    """Exit with a resource bound before computing a moment of
    C_{lam,mu}(cbase) times powers of p^-e that is too large."""
    bits = lam.size * abs(e) * math.log2(p) + _c_degree(lam) * math.log2(cbase)
    if bits > MAX_MOMENT_BITS:
        raise ResourceBoundError("exact moment size (bits)", MAX_MOMENT_BITS, math.ceil(bits))


class MomentQuery(Record):
    """One moment request: the exponent partition, the prime, u, flavor."""

    lam: Partition
    p: int
    u: object
    flavor: str = ABELIAN

    def __post_init__(self):
        object.__setattr__(self, "lam", Partition(self.lam))
        _check_prime(self.p)
        if self.flavor not in (ABELIAN, TYPE_S):
            raise UsageError("unknown flavor %r" % (self.flavor,))


@lru_cache(maxsize=None)
def _c_values(lam, p):
    """All (|mu|, C_{lam,mu} evaluated at p) over subpartitions of lam."""
    return tuple(
        (mu.size, c_coeff(lam, mu).eval_at(p)) for mu in subpartitions(lam)
    )


def _moment(lam, p, u, flavor, dps):
    """sum over mu inside lam of C_{lam,mu}(b) p^{-|mu| e}, where (b, e) is
    (p, u) for the abelian flavor and (p^2, 2u - 1) for type S: exact for
    dps None, else an mpmath float at dps decimal digits.  Every query is
    size-checked first, since both modes build each C_{lam,mu}(b) exactly."""
    _check_prime(p)
    lam = Partition(lam)
    b, e = (p * p, 2 * u - 1) if flavor == TYPE_S else (p, u)
    _check_size(lam, p, e, b)
    if dps is not None:
        import mpmath

        with mpmath.workdps(dps):
            uu = mpmath.mpf(str(u)) if isinstance(u, float) else mpmath.mpmathify(u)
            ee = 2 * uu - 1 if flavor == TYPE_S else uu
            total = mpmath.mpf(0)
            for size, c in _c_values(lam, b):
                total += mpmath.mpmathify(c) * mpmath.power(p, -size * ee)
            return total
    pf = Fraction(p)
    val = sum((c * pf ** (-size * e) for size, c in _c_values(lam, b)), Fraction(0))
    # row partitions collapse to a geometric sum
    if lam.length <= 1 and val != sum(pf ** (-e * k) for k in range(lam.size + 1)):
        raise InvariantError("the moment of the row %s is not the geometric sum" % (lam,))
    return val


def _exact(query, flavor):
    """The exact moment of a query, which must be of the given flavor."""
    if query.flavor != flavor:
        raise UsageError("this entry point computes the %s flavor, not %s" % (flavor, query.flavor))
    return _moment(query.lam, query.p, _check_u(query.u), flavor, None)


def m_u(query):
    """u-average of x^lam over finite abelian p-groups:
    sum over mu inside lam of C_{lam,mu}(p) p^{-|mu| u}."""
    return _exact(query, ABELIAN)


def m_u_s(query):
    """u-average of x^lam in the sense of groups of type S:
    sum over mu inside lam of C_{lam,mu}(p^2) p^{-|mu|(2u-1)}."""
    return _exact(query, TYPE_S)


def m_u_float(lam, p, u, dps=30):
    """Arbitrary-precision float m_u for real u >= 0 at dps decimal digits."""
    return _moment(lam, p, u, ABELIAN, dps)


def m_u_s_float(lam, p, u, dps=30):
    """Arbitrary-precision float m_u_s for real u >= 0 at dps decimal digits."""
    return _moment(lam, p, u, TYPE_S, dps)


def coherence_check(lam, p):
    """Check M_0^S(x^lam) = M_1^S(x^lam) * p^|lam| exactly; return (ok, report)."""
    lam = Partition(lam)
    lhs = m_u_s(MomentQuery(lam, p, 0, TYPE_S))
    base = m_u_s(MomentQuery(lam, p, 1, TYPE_S))
    scale = p**lam.size
    report = {
        "lam": lam,
        "p": p,
        "m0s": lhs,
        "m1s": base,
        "scale": scale,
        "m1s_scaled": base * scale,
    }
    return lhs == base * scale, report


class RankProfile(Record):
    """Prescribed p^j-ranks mu_1 >= ... >= mu_ell (trailing zeros included)."""

    mu: Partition
    ell: int
    p: int
    u: object
    trunc: int = 40

    def __post_init__(self):
        object.__setattr__(self, "mu", Partition(self.mu))
        if self.ell < max(1, self.mu.length):
            raise UsageError("ell must cover every nonzero rank")
        if self.trunc < 1:
            raise UsageError("truncation order must be at least 1")


class Residual(Record):
    """Truncated infinite product with a rigorous one-sided error bound.

    The true product lies in [value * (1 - error), value]."""

    value: object
    error: object
    terms: int

    def bounds(self):
        return (self.value * (1 - self.error), self.value)


def pj_rank_prob(profile, flavor=ABELIAN):
    """Probability of a full rank profile, as (exact factor, residual).

    ABELIAN: the u-probability that a finite abelian p-group has
    p^j-rank mu_j for j = 1..ell.  TYPE_S: the u-probability that a group
    of type S has p^j-rank 2*mu_j.  The infinite product over
    j >= mu_ell + 1 is returned truncated, with a geometric tail bound.
    A profile whose exact values would pass MAX_MOMENT_BITS raises
    ResourceBoundError before any of them is built.
    """
    u = _check_u(profile.u)
    p, trunc = profile.p, profile.trunc
    parts = [profile.mu.part(j) for j in range(1, profile.ell + 1)] + [0]
    weight = sum(a * a for a in parts)
    size = sum(parts)
    if flavor == ABELIAN:
        expo, qstep, estart = weight + u * size, 1, u
    elif flavor == TYPE_S:
        expo, qstep, estart = 2 * weight + (2 * u - 1) * size, 2, 2 * u - 1
    else:
        raise UsageError("unknown flavor %r" % (flavor,))
    lo = parts[profile.ell - 1] + 1 if profile.ell else 1
    tail_top = estart + qstep * (lo + trunc)
    # every value below is a ratio of products of powers of p; bound the sum
    # of their exponents (each estart + qstep*j is positive) before any is built
    diffs = [parts[j] - parts[j + 1] for j in range(profile.ell)]
    total = (
        abs(expo)
        + sum(qstep * d * (d + 1) // 2 for d in diffs)
        + trunc * estart + qstep * (trunc * lo + trunc * (trunc - 1) // 2)
        + tail_top
    )
    bits = total * math.log2(p)
    if bits > MAX_MOMENT_BITS:
        raise ResourceBoundError("exact rank probability size (bits)", MAX_MOMENT_BITS, math.ceil(bits))
    denom = Fraction(p) ** expo
    for d in diffs:
        for i in range(1, d + 1):
            denom *= 1 - Fraction(1, p ** (qstep * i))
    factor = 1 / denom
    # residual: prod_{j >= mu_ell + 1} (1 - p^{-(estart + qstep*j)})
    partial = Fraction(1)
    for j in range(lo, lo + trunc):
        partial *= 1 - Fraction(1, p ** (estart + qstep * j))
    tail = Fraction(1, p**tail_top) / (1 - Fraction(1, p**qstep))
    import mpmath

    with mpmath.workdps(40):
        residual = Residual(
            value=mpmath.mpmathify(partial),
            error=mpmath.mpmathify(tail),
            terms=profile.trunc,
        )
    return factor, residual


def conjecture_table(kind, lam=None, p=None, u=None, lm=None):
    """Predicted average for one conjectural table row, as an exact rational.

    CLASS_GROUP_IMAGINARY / CLASS_GROUP_REAL take lam and p (u fixed to 0
    resp. 1); SHA takes lam, p, and u; SELMER takes lm = (ell, m) and p,
    with lam = the rectangle ell^m, and raises UsageError unless ell >= 1
    and m >= 0.
    """
    if p is None or p < 2:
        raise UsageError("a prime p is required")
    if kind == CLASS_GROUP_IMAGINARY:
        return m_u(MomentQuery(Partition(lam), p, 0))
    if kind == CLASS_GROUP_REAL:
        return m_u(MomentQuery(Partition(lam), p, 1))
    if kind == SHA:
        if u is None:
            raise UsageError("SHA needs u")
        return m_u_s(MomentQuery(Partition(lam), p, u, TYPE_S))
    if kind == SELMER:
        ell, m = lm if lm is not None else (None, None)
        if ell is None:
            raise UsageError("SELMER needs lm=(ell, m)")
        if ell < 1 or m < 0:
            raise UsageError("SELMER needs ell >= 1 and m >= 0, got ell=%d, m=%d" % (ell, m))
        lam = Partition([ell] * m)
        val = m_u_s(MomentQuery(lam, p, 0, TYPE_S))
        if ell == 1:
            prod = Fraction(1)
            for j in range(1, m + 1):
                prod *= 1 + Fraction(p) ** j
            if val != prod:
                raise InvariantError("the SELMER moment at ell = 1 is not prod_j (1 + p^j)")
        return val
    raise UsageError("unknown conjecture kind %r" % (kind,))


def fouvry_klueners_numbers(n, p, real=False):
    """Moments of x^{1^n}: sum_k qbin(n,k; p) for the imaginary flavor and
    sum_k qbin(n,k; p) p^{-k} for the real flavor, exactly.

    Both values are checked to agree with m_u at lam = 1^n (u = 0 and 1),
    so the real flavor also equals p^{-n} * sum_k qbin(n,k; p) p^k by the
    palindromic symmetry of the summands.
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    val = Fraction(0)
    for k in range(n + 1):
        term = qbinomial(n, k).eval_at(p)
        val += term * Fraction(p) ** (-k) if real else term
    lam = Partition([1] * n)
    if val != m_u(MomentQuery(lam, p, 1 if real else 0)):
        raise InvariantError("the q-binomial sum for 1^%d disagrees with m_u" % n)
    return val
