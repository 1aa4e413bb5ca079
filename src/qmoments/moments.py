"""Exact u-averaged moments over finite abelian p-groups and groups of
type S, rank-distribution laws with certified residuals, and the
conjectural prediction tables built from them.

mpmath is imported inside the float entry points and `pj_rank_prob`, so
an exact query never loads it."""
from __future__ import annotations

import math
from fractions import Fraction

from . import identities
from .errors import InvariantError, ModeError, ResourceBoundError, UsageError
from .groups import _check_prime
from .partitions import Partition
from .qseries import qbinomial
from .rbasis import _c_degree, _c_product_steps, mirror_poly
from .record import Record

ABELIAN = "ABELIAN"
TYPE_S = "TYPE_S"

# flavor -> (k, e): the moment of x^lam is sum_mu C_{lam,mu}(p^k) p^(-|mu| e(u)),
# and the rank law's factors step by powers of p^k
_FLAVORS = {ABELIAN: (1, lambda u: u), TYPE_S: (2, lambda u: 2 * u - 1)}

CLASS_GROUP_IMAGINARY = "class-imaginary"
CLASS_GROUP_REAL = "class-real"
SHA = "sha"
SELMER = "selmer"

# conjecture -> (flavor, the u it fixes (None: the caller's), the
# `conjecture_table` args it reads, label), keyed by the CLI's names
CONJECTURES = {
    CLASS_GROUP_IMAGINARY: (ABELIAN, 0, ("lam",), "conjectural average over class groups of imaginary quadratic fields (odd p)"),
    CLASS_GROUP_REAL: (ABELIAN, 1, ("lam",), "conjectural average over class groups of real quadratic fields (odd p)"),
    SHA: (TYPE_S, None, ("lam", "u"), "conjectural average over p-parts of Tate-Shafarevich groups (type-S heuristic)"),
    SELMER: (TYPE_S, 0, ("lm",), "conjectural p-Selmer moment (type-S heuristic at u=0)"),
}

# An exact moment sum_mu C_{lam,mu}(b) p^(-|mu| e) has about
# (|lam| * |e| + deg C) * log2(p) bits, where p^-e is the weight of one unit
# of |mu|, b = p (or p^2 for type S) and deg C bounds the degree of
# C_{lam,mu}(q).  Past this bound the Fraction powers and C_{lam,mu} take
# seconds to minutes, and the answer outgrows the 4300-digit limit of
# int-to-str conversion, so the query exits with a resource bound instead.
MAX_MOMENT_BITS = 8192

FLOAT_DPS = 30  # the decimal digits of the float moments


def _real_u(u):
    """u, unless it is a bool, not an int, Fraction or float, or not finite
    (UsageError)."""
    number = isinstance(u, (int, Fraction, float)) and not isinstance(u, bool)
    if not (number and -math.inf < u < math.inf):
        raise UsageError("u must be a finite number, got %r" % (u,))
    return u


def _check_u(u):
    """Exact mode needs an integral u; reject anything else loudly."""
    f = Fraction(_real_u(u))
    if f.denominator != 1 or f < 0:
        raise ModeError(
            "exact mode needs a nonnegative integral u, got %s; "
            "use the float entry point" % (u,)
        )
    return int(f)


def _flavor(flavor):
    """The (k, e) row of a flavor; UsageError for any other."""
    if flavor not in _FLAVORS:
        raise UsageError("unknown flavor %r" % (flavor,))
    return _FLAVORS[flavor]


def _check_size(size, degree, p, e, cbase):
    """Exit with a resource bound before computing a moment of
    C_{lam,mu}(cbase) times powers of p^-e that is too large, for a lam of
    the given size and `_c_degree`."""
    # a lower bound, as p, cbase >= 2, and past 2^900 a float would overflow
    bits = size * abs(e) + degree
    if bits < 2**900:
        bits = size * abs(e) * math.log2(p) + degree * math.log2(cbase)
    if bits > MAX_MOMENT_BITS:
        raise ResourceBoundError("exact moment size (bits)", MAX_MOMENT_BITS, math.ceil(bits))


def _check_work(lam):
    """Exit with a resource bound before building the C table of lam
    (`mirror_poly`) when its estimated work passes MAX_VERIFY_WORK, the
    budget `verify` checks too, in units of about 1 us: 40 units per mu
    inside lam, a tenth per mu and degree of C (`_c_degree`), a twelfth per
    schoolbook step of the products `c_coeff` forms (`_c_product_steps`),
    and a hundredth per len(lam)^4 for the q-Pascal table of the
    q-binomials up to len(lam), each weight read off measured `moments`
    calls (BENCH_moment_work.json).  The lam_1 * len(lam) + 1 mu inside
    the hook of lam bound the count from below before it is taken."""
    budget = identities.MAX_VERIFY_WORK
    work = 40 * (lam.part(1) * len(lam) + 1)
    if work <= budget:
        steps, count = _c_product_steps(lam)
        work = count * (400 + _c_degree(lam) + 1) // 10 + steps // 12 + len(lam) ** 4 // 100
    if work > budget:
        raise ResourceBoundError("exact moment work", budget, work)


class MomentQuery(Record):
    """One moment request: the exponent partition, the prime, u, flavor."""

    lam: Partition
    p: int
    u: object
    flavor: str = ABELIAN

    def __post_init__(self):
        object.__setattr__(self, "lam", Partition(self.lam))
        _check_prime(self.p)
        _flavor(self.flavor)


def _moment(lam, p, u, flavor, dps):
    """sum over mu inside lam of C_{lam,mu}(b) p^{-|mu| e}, where b = p^k and
    e = e(u) for the flavor's (k, e) row of `_FLAVORS`, read off
    `mirror_poly` at q = b, T = p^-e: exact for dps None, else an mpmath
    float at dps decimal digits.  Both modes refuse a bad p or u and
    size-check every query first, since both build each S_m(b) exactly."""
    k, weight = _flavor(flavor)
    _check_prime(p)
    if dps is None:
        u = _check_u(u)
    elif _real_u(u) < 0:
        raise UsageError("u must be >= 0, got %r" % (u,))
    lam = Partition(lam)
    b, e = p**k, weight(u)
    _check_size(lam.size, _c_degree(lam), p, e, b)
    _check_work(lam)
    table = mirror_poly(lam)
    if dps is not None:
        import mpmath

        with mpmath.workdps(dps):
            uu = mpmath.mpf(str(u)) if isinstance(u, float) else mpmath.mpmathify(u)
            ee = weight(uu)
            total = mpmath.mpf(0)
            for size, c in enumerate(table):
                total += mpmath.mpmathify(c.eval_at(b)) * mpmath.power(p, -size * ee)
            return total
    pf = Fraction(p)
    val = sum((c.eval_at(b) * pf ** (-size * e) for size, c in enumerate(table)), Fraction(0))
    # row partitions collapse to a geometric sum
    if lam.length <= 1 and val != sum(pf ** (-e * k) for k in range(lam.size + 1)):
        raise InvariantError("the moment of the row %s is not the geometric sum" % (lam,))
    return val


def _exact(query, flavor):
    """The exact moment of a query, which must be of the given flavor."""
    if query.flavor != flavor:
        raise UsageError("this entry point computes the %s flavor, not %s" % (flavor, query.flavor))
    return _moment(query.lam, query.p, query.u, flavor, None)


def m_u(query):
    """u-average of x^lam over finite abelian p-groups:
    sum over mu inside lam of C_{lam,mu}(p) p^{-|mu| u}."""
    return _exact(query, ABELIAN)


def m_u_s(query):
    """u-average of x^lam in the sense of groups of type S:
    sum over mu inside lam of C_{lam,mu}(p^2) p^{-|mu|(2u-1)}."""
    return _exact(query, TYPE_S)


def m_u_float(lam, p, u):
    """Arbitrary-precision float m_u for real u >= 0 at FLOAT_DPS decimal digits."""
    return _moment(lam, p, u, ABELIAN, FLOAT_DPS)


def m_u_s_float(lam, p, u):
    """Arbitrary-precision float m_u_s for real u >= 0 at FLOAT_DPS decimal digits."""
    return _moment(lam, p, u, TYPE_S, FLOAT_DPS)


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
        _check_prime(self.p)
        for name in ("ell", "trunc"):
            if type(getattr(self, name)) is not int:  # bool is an int subclass
                raise UsageError("%s must be an int, got %r" % (name, getattr(self, name)))
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
    qstep, e = _flavor(flavor)
    estart = e(u)
    p, trunc = profile.p, profile.trunc
    parts = [profile.mu.part(j) for j in range(1, profile.ell + 1)] + [0]
    expo = qstep * sum(a * a for a in parts) + estart * sum(parts)
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
    _check_size(total, 0, p, 1, p)
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

    The kind's `CONJECTURES` row names the args it reads: lam for
    CLASS_GROUP_IMAGINARY / CLASS_GROUP_REAL (u fixed to 0 resp. 1), lam and
    u for SHA, and lm = (ell, m) for SELMER, with lam = the rectangle ell^m
    (UsageError unless ell >= 1 and m >= 0 are ints).  An unknown kind, an
    arg the row reads left out or one it does not read given, raises
    UsageError; `_moment` checks lam, p and u.
    """
    if kind not in CONJECTURES:
        raise UsageError("unknown conjecture kind %r" % (kind,))
    flavor, fixed, reads, _ = CONJECTURES[kind]
    given = [name for name, value in (("lam", lam), ("u", u), ("lm", lm)) if value is not None]
    if given != list(reads):
        raise UsageError("%s reads %s, got %s" % (kind, " and ".join(reads), " and ".join(given) or "none"))
    if lm is not None:
        ell, m = lm
        if type(ell) is not int or type(m) is not int or ell < 1 or m < 0:
            raise UsageError("%s needs lm = (ell, m), ints with ell >= 1 and m >= 0, got %r" % (kind, lm))
        # size-check ell^m (`_c_degree` ell m^2 / 4) before m = 2^31 parts fill memory
        _check_prime(p)
        k, weight = _FLAVORS[flavor]
        _check_size(ell * m, ell * m * m // 4, p, weight(fixed), p**k)
        lam = Partition([ell] * m)
    val = _moment(lam, p, u if fixed is None else fixed, flavor, None)
    if lm is not None and ell == 1:
        prod = Fraction(1)
        for j in range(1, m + 1):
            prod *= 1 + Fraction(p) ** j
        if val != prod:
            raise InvariantError("the %s moment at ell = 1 is not prod_j (1 + p^j)" % kind)
    return val


def _conjecture_label(kind, lam, u, flavor):
    """The label of a conjecture's row, for a moment the row describes: of
    its flavor, at the u it fixes (any u for SHA) and, for SELMER (which
    reads lm), at a rectangle lam; UsageError for any other moment."""
    row_flavor, fixed, reads, label = CONJECTURES[kind]
    if flavor != row_flavor or fixed not in (None, u) or ("lm" in reads and len(set(lam)) > 1):
        raise UsageError("%s labels the %s moment%s%s only" % (
            kind, row_flavor, "" if fixed is None else " at u = %d" % fixed,
            " of a rectangle" if "lm" in reads else ""))
    return label


def fouvry_klueners_numbers(n, p, real=False):
    """Moments of x^{1^n}: sum_k qbin(n,k; p) for the imaginary flavor and
    sum_k qbin(n,k; p) p^{-k} for the real flavor, exactly.

    Both values are checked to agree with m_u at lam = 1^n (u = 0 and 1),
    so the real flavor also equals p^{-n} * sum_k qbin(n,k; p) p^k by the
    palindromic symmetry of the summands.  A bad n or p (UsageError) or an
    over-large n (ResourceBoundError, from m_u) is refused before any
    q-binomial is built.
    """
    if type(n) is not int or n < 0:
        raise UsageError("n must be a nonnegative int, got %r" % (n,))
    moment = m_u(MomentQuery(Partition([1] * n), p, 1 if real else 0))
    val = Fraction(0)
    for k in range(n + 1):
        term = qbinomial(n, k).eval_at(p)
        val += term * Fraction(p) ** (-k) if real else term
    if val != moment:
        raise InvariantError("the q-binomial sum for 1^%d disagrees with m_u" % n)
    return val
