"""Hall-Littlewood polynomials P_lambda(x;q) on small alphabets, the
normalization factor b_lambda(q), and the principal specialization
x_i = z q^{i-1} in closed form."""

from functools import lru_cache
from math import inf

from .errors import InvariantError, ResourceBoundError
from .mpoly import MPoly
from .partitions import Partition, subpartitions
from .qrat import UniRat, ZERO, laurent_sum_of_products
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


@lru_cache(maxsize=None)
def _hl_cached(lam, n):
    # the branching rule (Macdonald III (5.11'), (5.8')): the sum over the
    # horizontal strips lam/mu with at most n - 1 parts in mu of
    # psi_{lam/mu}(q) x_n^{|lam|-|mu|} P_mu(x_1..x_{n-1}), where psi is the
    # product of 1 - q^{m_j(mu)} over the j with m_j(mu) = m_j(lam) + 1
    if n == 0:
        return HLValue(lam, 0, MPoly.one(0, "q"))
    total = MPoly.zero(n, "q")
    for mu in subpartitions(lam):
        if len(mu) >= n or any(mu.part(i) < a for i, a in enumerate(lam[1:], 1)):
            continue
        psi = UniRat.one()
        for j in set(mu):
            if mu.mult(j) == lam.mult(j) + 1:
                psi = psi * (1 - UniRat.mono("q", mu.mult(j)))
        xn = MPoly.mono((0,) * (n - 1) + (lam.size - mu.size,), psi, "q")
        total = total + _hl_cached(mu, n - 1).poly.embed(n, 0) * xn
    # exact bounds, so a cached P_lam carries its largest |slot| and slot count
    total.measure()
    return HLValue(lam, n, total)


def hl_p(lam, n):
    """P_lam(x_1..x_n; q), exactly; the zero value when lam has more than n
    parts.  Alphabets are capped at HL_MAX_ALPHABET."""
    lam = Partition(lam)
    if n > HL_MAX_ALPHABET:
        raise ResourceBoundError("alphabet size", HL_MAX_ALPHABET, n)
    if n < 0:
        raise ValueError("alphabet size must be nonnegative")
    if lam.length > n:
        return HLValue(lam, n, MPoly.zero(n, "q"))
    return _hl_cached(lam, n)


def b_lambda(lam):
    """b_lam(q) = prod_i (q;q)_{m_i(lam)}."""
    lam = Partition(lam)
    out = UniRat.one()
    for v in set(lam):
        out = out * qq(lam.mult(v))
    return out


@lru_cache(maxsize=None)
def _principal_value(lam, n):
    ell = lam.length
    if n == inf:
        val = UniRat.mono("q", lam.nstat()) / b_lambda(lam)
    else:
        if ell > n:
            return ZERO
        val = (
            UniRat.mono("q", lam.nstat())
            * qq(n)
            / (qq(n - ell) * b_lambda(lam))
        )
    if n != inf and n <= HL_MAX_ALPHABET:
        # substitute x_i = q^{i-1}; homogeneity carries the z^{|lam|} factor
        poly = hl_p(lam, n).poly
        at = [[c, UniRat.mono("q", sum(i * k for i, k in enumerate(e)))] for e, c in poly.terms.items()]
        if laurent_sum_of_products(at) != val:
            raise InvariantError("P_%s at x_i = q^(i-1) is not the closed form" % (tuple(lam),))
    return val


def principal_spec(lam, n):
    """P_lam(z, zq, ..., zq^{n-1}; q) = z^{|lam|} q^{n(lam)} (q)_n /
    ((q)_{n-l(lam)} b_lam(q)); n = inf drops the (q)_n ratio.

    Returns the q-part as a UniRat.  For alphabets within the hl_p cap the
    closed form is checked against direct substitution into hl_p once per
    (lam, n).
    """
    lam = Partition(lam)
    return _principal_value(lam, n)
