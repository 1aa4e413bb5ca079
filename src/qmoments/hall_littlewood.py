"""Hall-Littlewood polynomials P_lambda(x;q) on small alphabets, the
normalization factor b_lambda(q), and the principal specialization
x_i = z q^{i-1} in closed form."""

from functools import lru_cache
from itertools import permutations
from math import inf

from .errors import InvariantError, ResourceBoundError
from .mpoly import MPoly, _unit
from .partitions import Partition
from .qrat import UniRat, ZERO
from .qseries import qq
from .record import Record

HL_MAX_ALPHABET = 5


class HLValue(Record):
    """A Hall-Littlewood polynomial on a concrete alphabet x_1..x_n.

    On construction the polynomial is checked to be symmetric, homogeneous
    of degree |lam|, and monic in the dominant monomial x^lam.
    """

    lam: Partition
    n: int
    poly: MPoly

    def __post_init__(self):
        p = self.poly
        if p.is_zero():
            self._require(self.lam.length > self.n, "zero with at most n parts")
            return
        self._require(p.homogeneous_degree() == self.lam.size, "not homogeneous of degree |lam|")
        for i in range(self.n - 1):
            self._require(p.swap_vars(i, i + 1) == p, "not symmetric")
        lead = tuple(self.lam.part(i) for i in range(1, self.n + 1))
        self._require(p.coeff_of(lead) == UniRat.one(), "not monic in x^lam")

    def _require(self, ok, what):
        if not ok:
            raise InvariantError(
                "P_%s on %d letters: %s" % (tuple(self.lam), self.n, what)
            )

    def is_zero(self):
        return self.poly.is_zero()


@lru_cache(maxsize=None)
def _hl_cached(lam, n, param):
    # sum over fillings f: positions -> value classes with prescribed class
    # sizes (coset representatives), divided by the Vandermonde product
    vals = sorted(set(lam), reverse=True)
    if len(lam) < n:
        vals.append(0)
    mults = [
        (sum(1 for a in lam if a == v) if v else n - len(lam)) for v in vals
    ]
    base = []
    for ci, m in enumerate(mults):
        base.extend([ci] * m)
    total = MPoly.zero(n, param)
    for f in set(permutations(base)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if f[a] > f[b]
        )
        term = MPoly.mono(
            tuple(vals[f[a]] for a in range(n)),
            -1 if inv % 2 else 1,
            param,
        )
        for a in range(n):
            for b in range(a + 1, n):
                # x_a - x_b for equal classes, else x_i - q x_j with f[i] < f[j]
                i, j = (b, a) if f[a] > f[b] else (a, b)
                s = 0 if f[a] == f[b] else 1
                term = term * MPoly.two_term(_unit(n, i), _unit(n, j), s, param)
        total = total + term
    for a in range(n):
        for b in range(a + 1, n):
            total = total.divexact(MPoly.two_term(_unit(n, a), _unit(n, b), 0, param))
    return HLValue(lam, n, total)


def hl_p(lam, n, param="q"):
    """P_lam(x_1..x_n; q), exactly; the zero value when lam has more than n
    parts.  Alphabets are capped at HL_MAX_ALPHABET."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if n > HL_MAX_ALPHABET:
        raise ResourceBoundError("alphabet size", HL_MAX_ALPHABET, n)
    if n < 0:
        raise ValueError("alphabet size must be nonnegative")
    if lam.length > n:
        return HLValue(lam, n, MPoly.zero(n, param))
    return _hl_cached(lam, n, param)


def b_lambda(lam, param="q"):
    """b_lam(q) = prod_i (q;q)_{m_i(lam)}."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    out = UniRat.one()
    for v in set(lam):
        out = out * qq(lam.mult(v), param)
    return out


@lru_cache(maxsize=None)
def _principal_value(lam, n, param):
    ell = lam.length
    if n == inf:
        val = UniRat.mono(param, lam.nstat()) / b_lambda(lam, param)
    else:
        if ell > n:
            return ZERO
        val = (
            UniRat.mono(param, lam.nstat())
            * qq(n, param)
            / (qq(n - ell, param) * b_lambda(lam, param))
        )
    if n != inf and n <= HL_MAX_ALPHABET:
        # substitute x_i = q^{i-1}; homogeneity carries the z^{|lam|} factor
        p = hl_p(lam, n, param).poly
        for i in range(n):
            p = p.subs_scalar(i, UniRat.mono(param, i))
        if p.coeff_of((0,) * n) != val:
            raise InvariantError("P_%s at x_i = q^(i-1) is not the closed form" % (tuple(lam),))
    return val


def principal_spec(lam, n, param="q"):
    """P_lam(z, zq, ..., zq^{n-1}; q) = z^{|lam|} q^{n(lam)} (q)_n /
    ((q)_{n-l(lam)} b_lam(q)); n = inf drops the (q)_n ratio.

    Returns the q-part as a UniRat.  For alphabets within the hl_p cap the
    closed form is checked against direct substitution into hl_p once per
    (lam, n).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return _principal_value(lam, n, param)
