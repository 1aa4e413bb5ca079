"""The R-basis: partition-indexed polynomials R_lambda(x;t), their monomial
expansion, the inversion coefficients C_{lambda,mu}(q), mirror symmetry, and
the specialized skew coefficient tied to C by q -> 1/q.

Monomials are written in multiplicity coordinates: x^mu means
prod_i x_i^{m_i(mu)}, so the exponent of x_i is the number of parts of mu
equal to i.
"""

from math import comb
from operator import mul

from .errors import InvariantError, ResourceBoundError
from .mpoly import MPoly, _unit
from .partitions import Partition, subpartitions
from .qrat import UniRat, ZERO
from .qseries import qbinomial

# Past this degree bound (_c_degree) a C_{lam,mu} takes seconds (1^181, bound
# 8190, takes about 0.2 s, 1^400 about 1.8 s) and its value at an integer q
# passes the 4300-digit limit of int-to-str conversion, so such a query
# exits with a resource bound.  `moments` asks for no larger bound: its
# MAX_MOMENT_BITS already bounds _c_degree(lam) * log2(b) with b >= 2.
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


def c_coeff(lam, mu):
    """Inversion coefficient C_{lam,mu}: q^{sum conj_mu(i+1)(conj_lam(i)-conj_mu(i))}
    prod_i [conj_lam(i)-conj_mu(i+1) choose conj_lam(i)-conj_mu(i)]_q; 0 if mu is
    not contained in lam."""
    lam = Partition(lam)
    mu = Partition(mu)
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
    C_{lam,mu}(q), for m <= most if given."""
    lam = Partition(lam)
    top = lam.size if most is None else min(most, lam.size)
    out = [ZERO] * (top + 1)
    for mu in subpartitions(lam, top):
        out[mu.size] = out[mu.size] + c_coeff(lam, mu)
    return out


def _c_column(state, a, hi):
    """One column of height a = lam'_i of the walk of `_c_table_counts`,
    over the states h <= hi of `state` (five lists by h: the number of mu,
    the coefficients of their C, their steps, columns and degrees so far):
    for each h from hi down to 0, (h, the five sums over the states >= h,
    as the next column's state h' = h).  At column i a mu with h = mu'_i and
    h' = mu'_{i+1} has the factor [a - h' choose a - h] of degree
    d = (a - h)(h - h'), 1 exactly when d = 0; d is linear in h', so the
    running sums over h >= h' give the state h'."""
    count, total, steps, cols, degs = state
    n0 = n1 = n2 = t0 = t1 = t2 = s0 = c0 = g0 = 0
    for h in range(hi, -1, -1):
        n0, n1, n2 = n0 + count[h], n1 + count[h] * (a - h) * h, n2 + count[h] * (a - h)
        t0, t1, t2 = t0 + total[h], t1 + total[h] * (a - h) * h, t2 + total[h] * (a - h)
        s0, c0, g0 = s0 + steps[h], c0 + cols[h] + (count[h] if h else 0), g0 + degs[h]
        # a factor's steps are len(product) * (d + 1), for the h > h' but a
        step = s0 + t1 - h * t2 + t0 - total[h] - (total[a] if hi == a > h else 0)
        yield h, (n0, t0 + n1 - h * n2, step, c0, g0 + n1)


def _c_table_counts(lam, most=None):
    """(count, degrees, steps, columns) over the mu inside lam (of size <= most
    if given): the number of mu and the sums of the degrees
    sum_i mu'_i (lam'_i - mu'_i) of their C, of the schoolbook steps
    len(product so far) * len(factor) of their `c_coeff` products and of
    their mu_1, the columns a product walks.  One pass down each column
    (`_c_column`) counts all mu.  With `most` there is a layer of states per
    size so far, and parts past most are cut."""
    lam = Partition(lam)
    if most is not None and lam.part(1) > most:
        lam = Partition([min(a, most) for a in lam])
    heights = lam.conjugate() + (0,)
    top = heights[0] if most is None else min(heights[0], most)
    layers = {}
    for h in range(top + 1):
        layer = layers.setdefault(0 if most is None else h, [[0] * (top + 1) for _ in range(5)])
        layer[0][h] = layer[1][h] = 1
    for a, below in zip(heights, heights[1:]):
        new = {}
        for t, layer in layers.items():
            for h, sums in _c_column(layer, a, min(a, top if most is None else t)):
                if h <= below and (most is None or t + h <= most):
                    state = new.setdefault(0 if most is None else t + h, [[0] * (min(below, top) + 1) for _ in range(5)])
                    for k, value in enumerate(sums):
                        state[k][h] += value
        layers = new
    return tuple(sum(layer[k][0] for layer in layers.values()) for k in (0, 4, 2, 3))


def _c_table_units(counts, top, degree):
    """The units of a C table of `_c_table_counts` counts, of sizes <= top
    and degree bound `degree`: 30 per mu, a third per coefficient of its C,
    an eleventh per schoolbook step and per column of its product, and a
    quarter per coefficient of the table, at most those of the C and
    (top + 1)(degree + 1); one fit on BENCH_moment_work.json and
    BENCH_work_budget.json."""
    count, degrees, steps, columns = counts
    table = min(degrees + count, (top + 1) * (degree + 1))
    return 30 * count + (degrees + count) // 3 + (steps + columns) // 11 + table // 4


def _c_table_work(lam, most):
    """The work of `_c_by_size(lam, most)` and of one read of its table, in
    units of about 1 us (`_c_table_units`).  The budget is verify's
    `identities.MAX_VERIFY_WORK`, read at call time: a lam past
    MAX_C_DEGREE, whose C `c_coeff` refuses, reads one unit past it, and
    without `most` the mu inside the hook of lam, lam_1 * len + 1, the
    columns 1^m of degrees summing to (len + 1) len (len - 1) / 6 and the
    rows walking lam_1 (lam_1 + 1) / 2 columns bound the work from below,
    returned before any count once past it."""
    from . import identities

    limit = identities.MAX_VERIFY_WORK
    lam = Partition(lam)
    width, length = lam.part(1), len(lam)
    if most is None:
        low = 30 * (width * length + 1) + (length + 1) * length * (length - 1) // 18 + width * (width + 1) // 22
        if low > limit:
            return low
    if _c_degree(lam) > MAX_C_DEGREE:
        return limit + 1
    top = lam.size if most is None else min(most, lam.size)
    return _c_table_units(_c_table_counts(lam, most), top, _c_degree(lam))


def _c_tables_work(height, size):
    """(|lam|, the units of `_c_table_work(lam, None)`, or one past the
    budget for a lam past MAX_C_DEGREE) for every lam of at most `height`
    parts and size <= `size`, lazily, the empty lam first.  A lam's columns
    extend those of the lam without its last column, so one walk down that
    tree of lams (`_c_column`) counts each column once for all the lams
    that begin with it."""
    from . import identities

    yield 0, _c_table_units((1, 0, 0, 0), 0, 0)
    # (lam'_i, |lam|, sum_j lam'_j^2, the state before column i)
    stack = [(a, a, a * a, [[int(k < 2)] * (a + 1) for k in range(5)]) for a in range(min(height, size), 0, -1)]
    while stack:
        a, used, squares, state = stack.pop()
        after = [[0] * (a + 1) for _ in range(5)]
        for h, sums in _c_column(state, a, a):
            for k, value in enumerate(sums):
                after[k][h] = value
        if squares // 4 > MAX_C_DEGREE:
            yield used, identities.MAX_VERIFY_WORK + 1
        else:
            yield used, _c_table_units([after[k][0] for k in (0, 4, 2, 3)], used, squares // 4)
        stack.extend((b, used + b, squares + b * b, after) for b in range(min(a, size - used), 0, -1))


def mirror_poly(lam):
    """Coefficients in T of sum_{mu within lam} C_{lam,mu}(q) T^{|mu|}, the
    `_c_by_size` table, checked to be palindromic (mirror symmetry)."""
    out = _c_by_size(lam)
    if out != out[::-1]:
        raise InvariantError("the mirror polynomial of %s is not palindromic" % (lam,))
    return out


def dot_product_conjugates(lam, mu):
    """(conj(lam) | conj(mu)) = sum_i conj_lam(i) * conj_mu(i)."""
    return sum(map(mul, Partition(lam).conjugate(), Partition(mu).conjugate()))


def qprime_skew(lam, mu):
    """Skew coefficient q^{|mu|+n(lam)+n(mu)-(conj|conj)} prod_i
    [conj_lam(i)-conj_mu(i+1) choose conj_lam(i)-conj_mu(i)]_q; 0 if mu is not
    contained in lam.  Related to c_coeff by C_{lam,mu}(1/q) =
    q^{n(mu)-n(lam)} * this (checked in tests/test_rbasis.py)."""
    lam = Partition(lam)
    mu = Partition(mu)
    if not lam.contains(mu):
        return ZERO
    expo = mu.size + lam.nstat() + mu.nstat() - dot_product_conjugates(lam, mu)
    # the exponent is n of the skew diagram, hence nonnegative (a test checks
    # it against sum_i C(conj_lam(i) - conj_mu(i), 2))
    prod = UniRat.one()
    mc = mu.conjugate() + (0,)
    for lc, mc0, mc1 in zip(lam.conjugate(), mc, mc[1:]):
        # the factor is 1 when conj_lam(i) = conj_mu(i) or conj_mu(i) = conj_mu(i+1),
        # so at every column i > mu_1
        if lc != mc0 and mc0 != mc1:
            prod = prod * qbinomial(lc - mc1, lc - mc0)
    return UniRat.mono("q", expo) * prod
