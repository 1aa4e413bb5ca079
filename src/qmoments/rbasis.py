"""The R-basis: partition-indexed polynomials R_lambda(x;t), their monomial
expansion, the inversion coefficients C_{lambda,mu}(q), mirror symmetry, and
the specialized skew coefficient tied to C by q -> 1/q.

Monomials are written in multiplicity coordinates: x^mu means
prod_i x_i^{m_i(mu)}, so the exponent of x_i is the number of parts of mu
equal to i.
"""

from functools import lru_cache
from math import comb
from operator import mul

from .errors import InvariantError, ResourceBoundError
from .mpoly import MPoly, _unit
from .partitions import Partition, subpartitions
from .qrat import UniRat, ZERO
from .qseries import qbinomial
from .record import Record

R_TO_MONOMIAL = "R_TO_MONOMIAL"
MONOMIAL_TO_R = "MONOMIAL_TO_R"

# Past this degree bound (_c_degree) a C_{lam,mu} takes seconds to minutes
# (lam = 1^181, bound 8190, takes about 3 s), and at lam = 1^500 the
# recursive q-binomial runs out of stack, so such a query exits with a
# resource bound.  `moments` asks for no larger bound: its MAX_MOMENT_BITS
# already bounds _c_degree(lam) * log2(b) with b >= 2.
MAX_C_DEGREE = 8192


class RExpansion(Record):
    """Coefficient table keyed by subpartitions of lam.

    direction R_TO_MONOMIAL: R_lam = sum_mu coeff[mu] * x^mu.
    direction MONOMIAL_TO_R: x^lam = sum_mu coeff[mu] * R_mu.
    """

    lam: Partition
    direction: str
    coeffs: dict

    def __post_init__(self):
        for mu in self.coeffs:
            if not self.lam.contains(mu):
                raise InvariantError("%s is not contained in %s" % (mu, self.lam))

    def coeff(self, mu):
        return self.coeffs.get(Partition(mu), ZERO)


def rlambda_poly(lam, ell=None):
    """R_lam as a polynomial in x_1..x_ell (x_0 reads as 1); ell >= lam_1.

    Built as prod_{i=1..ell} prod_{j=conj(i+1)}^{conj(i)-1} (x_i - t^j x_{i-1}).
    """
    lam = Partition(lam)
    if ell is None:
        ell = lam.part(1)
    if lam.part(1) > ell:
        raise ValueError(
            "R poly needs at least lam_1=%d variables, got ell=%d" % (lam.part(1), ell)
        )

    def factor(i, j):
        # x_i - t^j x_{i-1}, 1-based i, with x_0 == 1
        lower = _unit(ell, i - 2) if i > 1 else _unit(ell)
        return MPoly.two_term(_unit(ell, i - 1), lower, j, "t")

    out = MPoly.one(ell, "t")
    for i in range(1, ell + 1):
        for j in range(lam.conj(i + 1), lam.conj(i)):
            out = out * factor(i, j)
    return out


def _mu_from_exps(e):
    """Recover mu from multiplicity exponents: conj(mu)_i = sum_{k>=i} e_k."""
    conj = []
    s = 0
    for a in reversed(e):
        s += a
        conj.append(s)
    conj.reverse()
    return Partition([c for c in conj if c]).conjugate()


def rlambda_expand(lam, validate=True):
    """Monomial coefficients of R_lam from the closed form:
    coeff(x^mu) = (-1)^{|lam|-|mu|} t^{sum C(d_i,2) + sum conj(i+1) d_i}
                  prod_i [m_i(lam) choose d_i]_t with d_i = conj_lam(i)-conj_mu(i).

    With validate, R_lam is multiplied out and collected as a cross-check.
    """
    lam = Partition(lam)
    width = lam.part(1)
    coeffs = {}
    for mu in subpartitions(lam):
        d = [lam.conj(i) - mu.conj(i) for i in range(1, width + 1)]
        prod = UniRat.one()
        for i in range(1, width + 1):
            prod = prod * qbinomial(lam.mult(i), d[i - 1], "t")
            if prod.is_zero():
                break
        if prod.is_zero():
            continue
        expo = sum(comb(di, 2) for di in d) + sum(
            lam.conj(i + 1) * d[i - 1] for i in range(1, width + 1)
        )
        sign = -1 if (lam.size - mu.size) % 2 else 1
        coeffs[mu] = UniRat.mono("t", expo, sign) * prod
    if validate:
        direct = rlambda_poly(lam)
        collected = {_mu_from_exps(e): c for e, c in direct.terms.items()}
        if collected != coeffs:
            raise InvariantError("the closed form of R_%s disagrees with its product" % (lam,))
    return RExpansion(lam, R_TO_MONOMIAL, coeffs)


def _c_degree(lam):
    """A bound on the degree of every C_{lam,mu}(q): that degree is
    sum_i mu'_i (lam'_i - mu'_i) <= sum_i lam'_i^2 / 4 (about |lam|^2 / 4
    for lam = 1^n).  sum_i lam'_i^2 = sum_i (2i - 1) lam_i, read off the
    parts in one pass, so a long row costs no more than a short one."""
    return sum(map(mul, range(1, 2 * len(lam), 2), lam)) // 4


@lru_cache(maxsize=None)
def _c_coeff_cached(lam, mu):
    if _c_degree(lam) > MAX_C_DEGREE:
        raise ResourceBoundError("C_{lam,mu} degree", MAX_C_DEGREE, _c_degree(lam))
    if not lam.contains(mu):
        return ZERO
    # a column i > mu_1 adds nothing, and a factor is 1 unless
    # lam'_i != mu'_i and mu'_i != mu'_{i+1}
    mc = mu.conjugate() + (0,)
    prod = UniRat.one()
    expo = 0
    for lc, mc0, mc1 in zip(lam.conjugate(), mc, mc[1:]):
        expo += mc1 * (lc - mc0)
        if lc != mc0 and mc0 != mc1:
            prod = prod * qbinomial(lc - mc1, lc - mc0)
    return UniRat.mono("q", expo) * prod


def c_coeff(lam, mu):
    """Inversion coefficient C_{lam,mu}: q^{sum conj_mu(i+1)(conj_lam(i)-conj_mu(i))}
    prod_i [conj_lam(i)-conj_mu(i+1) choose conj_lam(i)-conj_mu(i)]_q; 0 if mu is
    not contained in lam."""
    lam = Partition(lam)
    mu = Partition(mu)
    return _c_coeff_cached(lam, mu)


def monomial_in_R_basis(lam, validate=True):
    """Expansion x^lam = sum_{mu within lam} C_{lam,mu} R_mu.

    With validate, the R_mu are themselves expanded into monomials and the
    whole sum is required to collapse to the single monomial x^lam.
    """
    lam = Partition(lam)
    coeffs = {mu: c_coeff(lam, mu) for mu in subpartitions(lam)}
    if validate:
        total = {}
        for mu, c in coeffs.items():
            ct = c.rename("t")
            for nu, r in rlambda_expand(mu, validate=False).coeffs.items():
                s = total.get(nu, ZERO) + ct * r
                if s.is_zero():
                    total.pop(nu, None)
                else:
                    total[nu] = s
        if total != {lam: UniRat.one()}:
            raise InvariantError("sum_mu C_{lam,mu} R_mu is not x^%s" % (lam,))
    return RExpansion(lam, MONOMIAL_TO_R, coeffs)


def mirror_poly(lam):
    """Coefficients in T of sum_{mu within lam} C_{lam,mu}(q) T^{|mu|};
    the sequence is checked to be palindromic (mirror symmetry)."""
    lam = Partition(lam)
    out = [ZERO] * (lam.size + 1)
    for mu in subpartitions(lam):
        out[mu.size] = out[mu.size] + c_coeff(lam, mu)
    if out != out[::-1]:
        raise InvariantError("the mirror polynomial of %s is not palindromic" % (lam,))
    return out


def dot_product_conjugates(lam, mu):
    """(conj(lam) | conj(mu)) = sum_i conj_lam(i) * conj_mu(i)."""
    lam = Partition(lam)
    mu = Partition(mu)
    width = min(lam.part(1), mu.part(1))
    return sum(lam.conj(i) * mu.conj(i) for i in range(1, width + 1))


def qprime_skew(lam, mu):
    """Skew coefficient q^{|mu|+n(lam)+n(mu)-(conj|conj)} prod_i
    [conj_lam(i)-conj_mu(i+1) choose conj_lam(i)-conj_mu(i)]_q; 0 if mu is not
    contained in lam.  Related to c_coeff by C_{lam,mu}(1/q) =
    q^{n(mu)-n(lam)} * this (checked in tests/test_rbasis.py)."""
    lam = Partition(lam)
    mu = Partition(mu)
    if not lam.contains(mu):
        return ZERO
    width = lam.part(1)
    expo = mu.size + lam.nstat() + mu.nstat() - dot_product_conjugates(lam, mu)
    # the exponent is n of the skew diagram, hence nonnegative (a test checks
    # it against sum_i C(conj_lam(i) - conj_mu(i), 2))
    prod = UniRat.one()
    for i in range(1, width + 1):
        # the factor is 1 when conj_lam(i) = conj_mu(i) or conj_mu(i) = conj_mu(i+1)
        if lam.conj(i) != mu.conj(i) and mu.conj(i) != mu.conj(i + 1):
            prod = prod * qbinomial(
                lam.conj(i) - mu.conj(i + 1), lam.conj(i) - mu.conj(i)
            )
    return UniRat.mono("q", expo) * prod
