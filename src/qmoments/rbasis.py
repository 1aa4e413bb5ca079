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
from .partitions import Partition, partitions_of, subpartitions
from .qrat import UniRat, ZERO
from .qseries import qbinomial

# Past this degree bound (_c_degree) a C_{lam,mu} takes seconds to minutes
# (lam = 1^181, bound 8190, takes about 3 s), and at lam = 1^500 the
# recursive q-binomial runs out of stack, so such a query exits with a
# resource bound.  `moments` asks for no larger bound: its MAX_MOMENT_BITS
# already bounds _c_degree(lam) * log2(b) with b >= 2.
MAX_C_DEGREE = 8192


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


def rlambda_expand(lam):
    """{mu: coefficient of x^mu in R_lam}, from the closed form
    coeff(x^mu) = (-1)^{|lam|-|mu|} t^{sum C(d_i,2) + sum conj(i+1) d_i}
                  prod_i [m_i(lam) choose d_i]_t with d_i = conj_lam(i)-conj_mu(i).

    R_lam is multiplied out and collected as a cross-check.
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
    collected = {_mu_from_exps(e): c for e, c in rlambda_poly(lam).terms.items()}
    if collected != coeffs:
        raise InvariantError("the closed form of R_%s disagrees with its product" % (lam,))
    return coeffs


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


def monomial_in_R_basis(lam):
    """{mu: C_{lam,mu}} over the mu within lam, so x^lam = sum_mu C_{lam,mu} R_mu.

    The R_mu are multiplied out into monomials, and the whole sum is
    required to collapse to the single monomial x^lam.
    """
    lam = Partition(lam)
    coeffs = {mu: c_coeff(lam, mu) for mu in subpartitions(lam)}
    total = {}
    for mu, c in coeffs.items():
        ct = c.rename("t")
        for e, r in rlambda_poly(mu).terms.items():
            nu = _mu_from_exps(e)
            s = total.get(nu, ZERO) + ct * r
            if s.is_zero():
                total.pop(nu, None)
            else:
                total[nu] = s
    if total != {lam: UniRat.one()}:
        raise InvariantError("sum_mu C_{lam,mu} R_mu is not x^%s" % (lam,))
    return coeffs


def _c_by_size(lam, most=None):
    """[S_0, S_1, ...], S_m the sum over the mu inside lam with |mu| = m of
    C_{lam,mu}(q), for m <= most if given, when only the partitions of
    m <= most that fit in lam's lam_1 x len box are listed."""
    lam = Partition(lam)
    top = lam.size if most is None else min(most, lam.size)
    mus = subpartitions(lam)
    if most is not None:
        box = (partitions_of(m, lam.part(1), len(lam)) for m in range(top + 1))
        mus = (mu for part in box for mu in part if lam.contains(mu))
    out = [ZERO] * (top + 1)
    for mu in mus:
        out[mu.size] = out[mu.size] + c_coeff(lam, mu)
    return out


def _c_product_steps(lam):
    """(steps, count): the number of mu inside lam, and the sum over them of
    the schoolbook steps of the products `c_coeff` forms, len(product so
    far) * len(factor) for each q-binomial factor but 1, counted column by
    column over all mu at once.  At column i, with a = lam'_i, a mu with
    h = mu'_i and h' = mu'_{i+1} has the factor [a - h' choose a - h] of
    degree d = (a - h)(h - h'), which is not 1 exactly when d > 0.  The
    states are the h of a column, each holding its mu's count, sum of
    product lengths and sum of steps; as d is linear in h' for a fixed h,
    the sums over h >= h' give the next column's state h' in one pass down,
    so the whole count takes about lam_1 * len(lam) steps."""
    heights = Partition(lam).conjugate() + (0,)
    count, total, steps = [1] * (heights[0] + 1), [1] * (heights[0] + 1), [0] * (heights[0] + 1)
    for a, below in zip(heights, heights[1:]):
        new = ([0] * (below + 1), [0] * (below + 1), [0] * (below + 1))
        n0 = n1 = n2 = t0 = t1 = t2 = s0 = 0
        for h in range(a, -1, -1):
            n0, n1, n2 = n0 + count[h], n1 + count[h] * (a - h) * h, n2 + count[h] * (a - h)
            t0, t1, t2 = t0 + total[h], t1 + total[h] * (a - h) * h, t2 + total[h] * (a - h)
            s0 += steps[h]
            if h <= below:
                # a factor's steps are len(product) * (d + 1), for the h > h' but a
                new[0][h] = n0
                new[1][h] = t0 + n1 - h * n2
                new[2][h] = s0 + t1 - h * t2 + t0 - total[h] - (total[a] if a > h else 0)
        count, total, steps = new
    return steps[0], count[0]


def mirror_poly(lam):
    """Coefficients in T of sum_{mu within lam} C_{lam,mu}(q) T^{|mu|}, the
    `_c_by_size` table, checked to be palindromic (mirror symmetry)."""
    out = _c_by_size(lam)
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
