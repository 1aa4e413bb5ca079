"""Exact verification suite for the q-series and symmetric-function identities."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

from .errors import ResourceBoundError, UsageError
from .groups import PGroup, _check_prime, aut_order, torsion_order
from .hall_littlewood import b_lambda, hl_p, principal_spec
from .mpoly import MPoly, _unit
from .partitions import Partition, partitions_of, subpartitions
from .qrat import ONE, UniRat, ZERO, laurent_sum_of_products
from .qseries import euler_coeff, euler_coeff_recip, qbinomial, qpochhammer, qq
from .rbasis import _c_by_size, _c_degree, _c_table_work, _c_tables_work, dot_product_conjugates, qprime_skew
from .record import Record

SYMBOLIC_EXACT = "symbolic-exact"
TRUNCATED_SERIES = "truncated-series"
RANDOM_POINT = "random-point"

MIN_SAMPLES = 20
# The one cost cap of `verify`: `Identity.work(params)` counts the steps of a
# runner's inner loops in units of about 1 us, each count weighted by the
# row of BENCH_work_budget.json its comment names, and a case past this many
# units, about 4 s, is refused before any work; a table of C_{lam,mu} counts
# by `rbasis._c_table_work`, as for the moments.  A binomial C(n + d, d) with
# min(n, d) > 40, or a power with an exponent past 40, is past any budget,
# so the estimates take each at 40 and refuse a huge param at no cost.
MAX_VERIFY_WORK = 4_000_000

_MANIFEST_PATH = Path(__file__).parent / "data" / "manifest.json"


class IdentityCase(Record):
    """One verification case: an identity id plus its concrete parameters,
    and optionally the strategy they run, which `verify` checks."""

    case_id: str
    params: dict
    strategy: str | None = None


class Mismatch(Record):
    """First failing coefficient: which series, which exponent, both values."""

    label: str
    key: str
    lhs: str
    rhs: str


class VerificationReport(Record):
    """Outcome of one case: pass/fail, localized mismatch, resource usage."""

    case_id: str
    params: dict
    strategy: str
    passed: bool
    mismatch: Mismatch | None
    compared: int
    elapsed: float
    seed: int | None = None

    def as_json(self):
        out = {
            "id": self.case_id,
            "params": dict(self.params),
            "strategy": self.strategy,
            "passed": self.passed,
            "compared": self.compared,
            "elapsed_seconds": round(self.elapsed, 6),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.mismatch is not None:
            out["mismatch"] = {
                "series": self.mismatch.label,
                "coefficient": self.mismatch.key,
                "lhs": self.mismatch.lhs,
                "rhs": self.mismatch.rhs,
            }
        return out


def _values_equal(a, b):
    """a == b, a missing value (None) reading as 0."""
    return (a or 0) == (b or 0)


def _key_order(k):
    return (len(k), k) if isinstance(k, tuple) else ((0, k),)


def _first_mismatch(label, lhs, rhs):
    """(number of keys of either map, first Mismatch in key order or None)."""
    keys = sorted(set(lhs) | set(rhs), key=_key_order)
    for k in keys:
        a, b = lhs.get(k), rhs.get(k)
        if not _values_equal(a, b):
            return len(keys), Mismatch(label, repr(k), repr(a), repr(b))
    return len(keys), None


def _compare_pairs(pairs, mutate=False):
    """Compare (label, lhs, rhs) triples; return (passed, mismatch, n).

    The sides are key -> value maps, or two MPolys: those are compared on
    their packed forms (`MPoly.compare`) and decoded only to locate the
    first mismatch.  With `mutate` every rhs is negated, so a passing case
    fails at its first nonzero coefficient."""
    if mutate:
        pairs = [
            (label, lhs, -rhs if isinstance(rhs, MPoly) else {k: -v for k, v in rhs.items()})
            for label, lhs, rhs in pairs
        ]
    compared = 0
    first = None
    for label, lhs, rhs in pairs:
        if isinstance(lhs, MPoly):
            same, n = lhs.compare(rhs)
            if not same and first is None:
                first = _first_mismatch(label, lhs.terms, rhs.terms)[1]
        else:
            n, mismatch = _first_mismatch(label, lhs, rhs)
            if first is None:
                first = mismatch
        compared += n
    return first is None, first, compared


def _mpoly_product(factors, keep=None):
    """The product of `factors` left to right: an MPoly factor is applied by
    `mul(f, keep)` and a scalar one by `scale`.  Scalars before the first
    MPoly multiply as scalars, so a product with no MPoly factor is a
    scalar (ONE for no factors).  `keep` truncates products only, so every
    factor must lie inside it.  The order sets only the cost: put first the
    factors whose products stay small (the cross factors in x_i y_j of two
    alphabets), last those that fill every kept degree."""
    acc = ONE
    for f in factors:
        if isinstance(acc, MPoly):
            acc = acc.mul(f, keep) if isinstance(f, MPoly) else acc.scale(f)
        elif isinstance(f, MPoly):
            acc = f if acc == ONE else f.scale(acc)
        else:
            acc = acc * f
    return acc


def _mpoly_sum(terms, table):
    """The sum over `terms` of their products (`_mpoly_product`), a term
    being a list of hashable names and table[name] its MPoly or scalar.

    A term alone is multiplied left to right in the order of its names.
    Terms that share factors are split as a multivariate Horner scheme
    (Ceberio and Kreinovich, ACM SIGSAM Bulletin 38(1), 2004).  When some
    names are in all n terms, the sum is the inner sum (each term with one
    of each taken out) times all of them at once, in the order of the first
    term.  Otherwise, with f the name whose count c maximises min(c, n - c),
    the sum is (the terms with f, one f taken out) * f plus the terms
    without f: the split halves the terms where it can, so no name that
    sits in nearly every term peels one term at a time.  Ties go to the
    name seen first, so the split, and the order of the products, is the
    same in every process.  The terms with f recurse and the terms without
    f loop, so the depth is at most the length of a term and one partial
    sum is held per level."""
    total = None
    while terms:
        n, counts = len(terms), {}
        for term in terms:
            for name in dict.fromkeys(term):
                counts[name] = counts.get(name, 0) + 1
        if n == 1:
            piece, terms = _mpoly_product([table[name] for name in terms[0]]), []
        elif not counts:
            # every term is the empty product 1
            piece, terms = UniRat.const(n), []
        else:
            shared = [name for name in dict.fromkeys(terms[0]) if counts[name] == n]
            if not shared:
                shared = [max(counts, key=lambda name: min(counts[name], n - counts[name]))]
            inside, outside = [], []
            for term in terms:
                if shared[0] in term:
                    term = list(term)
                    for name in shared:
                        term.remove(name)
                    inside.append(term)
                else:
                    outside.append(term)
            piece = _mpoly_product([_mpoly_sum(inside, table)] + [table[name] for name in shared])
            terms = outside
        total = piece if total is None else total + piece
    return ZERO if total is None else total


def _geom(v, cap, e, ratio=False):
    """Truncated expansion of 1/(1 - q^e x^v) up to (x^v)^cap, for the
    exponent tuple v of a monomial; with `ratio`, of (1 - x^v)/(1 - q^e x^v),
    which is 1, then q^(e*t) - q^(e*(t-1)) at (x^v)^t."""
    terms = {tuple(t * a for a in v): UniRat.mono("q", e * t) for t in range(cap + 1)}
    if ratio:  # times 1 - x^v
        for t, k in enumerate(terms):
            terms[k] = terms[k] - UniRat.mono("q", e * t - e) if t else ONE
    return MPoly(terms, len(v), "q")


def _afac(r, one, a):
    """(a; 1/q)_r = prod_{t<r} (1 - a*q^{-t}) as an MPoly (ONE for r = 0),
    for the exponent tuples of 1 and of the variable a."""
    return _mpoly_product(MPoly.two_term(one, a, -t, "q") for t in range(r))


def _sums_by_size(n, term, zero=ZERO):
    """{m: the sum over the partitions mu of m of term(mu)} for m <= n."""
    return {m: sum(map(term, partitions_of(m)), zero) for m in range(n + 1)}


def _euler_convolution(cvals, n, euler, zero):
    """{m: the sum over j <= m of euler(j) * cvals[m - j]} for m <= n, a
    size missing from the map `cvals` adding nothing."""
    return {
        m: sum((euler(j) * cvals[m - j] for j in range(m + 1) if m - j in cvals), zero)
        for m in range(n + 1)
    }


def _partitions_upto(d, n, k=None):
    """Every lam of size <= d with at most n parts (so P_lam(x_1..x_n) is
    nonzero, being monic in x^lam), each part <= k when k is given."""
    return [lam for m in range(d + 1) for lam in partitions_of(m, max_part=k, max_length=n)]


# ---------------------------------------------------------------------------
# runners: each returns a list of (label, lhs, rhs) triples, both sides
# key -> value maps or both MPolys
# ---------------------------------------------------------------------------


def _run_qbin(params, rng):
    n = params["n"]
    lhs = {}
    for k in range(n + 1):
        lhs[k] = qbinomial(n, k) * UniRat.mono("q", math.comb(k, 2), (-1) ** k)
    coeffs = [ONE]
    for j in range(n):
        nxt = [ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * UniRat.mono("q", j)
        coeffs = nxt
    rhs = {k: coeffs[k] for k in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _run_euler(params, rng):
    n = params["zmax"]
    lhs = {j: UniRat.mono("q", j) / qq(j) for j in range(n + 1)}
    series = qpochhammer((1, 1), math.inf, trunc=n).inverse()
    rhs = {j: series.coeff_at(j) for j in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _run_genfun(params, rng):
    lam = params["lam"]
    p = params["p"]
    n = params["zmax"]

    def term(mu):
        group = PGroup(p, mu)
        return Fraction(math.prod(torsion_order(group, part) for part in lam), aut_order(mu, p))

    lhs = _sums_by_size(n, term, Fraction(0))
    invp = Fraction(1, p)
    # S_m(1/q) at 1/p is S_m(q) at p
    cvals = dict(enumerate(v.eval_at(p) for v in _c_by_size(lam)))
    rhs = _euler_convolution(cvals, n, lambda j: euler_coeff_recip(j).eval_at(invp), Fraction(0))
    return [("z-coefficients", lhs, rhs)]


def _run_combinat(params, rng):
    lam = params["lam"]
    n = params["zmax"]
    lamc = lam.conjugate()

    def combinatorial(mu):
        expo = sum(v * v for v in mu) - sum(map(mul, lamc, mu))
        return UniRat.mono("q", expo) / b_lambda(mu.conjugate())

    def principal(mu):
        ip = dot_product_conjugates(lam, mu)
        weight = UniRat.mono("q", mu.size + mu.nstat() - ip)
        return weight * principal_spec(mu, math.inf)

    route_a = _sums_by_size(n, combinatorial)
    cvals = dict(enumerate(v.recip_param() for v in _c_by_size(lam)))
    route_b = _euler_convolution(cvals, n, euler_coeff_recip, ZERO)
    route_c = _sums_by_size(n, principal)
    return [
        ("combinatorial-vs-inversion", route_a, route_b),
        ("principal-vs-inversion", route_c, route_b),
    ]


def _column_bounded_lhs(lam, ell, n, b, c):
    """z-coefficients up to z^n of the sum over mu with parts <= ell of
    q^{b(2n(mu) - <lam',mu'>) + c|mu|} / b_mu(q^b) times
    (z^b q^{b mu'_ell + 1}; q^b)_inf, the j-th term of that product at
    z^{b(|mu| + j)}.  UMOY_ABELIAN is b = 1 and UMOY_TYPE_S is b = 2, both
    with c = 1; DELAUNAY is b = 1, c = 0 and lam empty.  Every key up to n
    is present, so the odd keys of type S hold ZERO."""
    if lam and lam[0] > ell:
        raise UsageError("largest part must not exceed the torsion exponent bound")
    lhs = {m: ZERO for m in range(n + 1)}
    for m in range(n // b + 1):
        for mu in partitions_of(m, max_part=ell):
            ip = dot_product_conjugates(lam, mu)
            weight = UniRat.mono("q", b * (2 * mu.nstat() - ip) + c * m) / b_lambda(mu).pow_param(b)
            spow = b * mu.conj(ell) + 1
            for j in range((n - b * m) // b + 1):
                key = b * (m + j)
                lhs[key] = lhs[key] + weight * euler_coeff(j, spow, base=b)
    return lhs


def _run_umoy(params, b):
    """UMOY_ABELIAN (b = 1) and UMOY_TYPE_S (b = 2): the column-bounded sum
    against sum_nu C_{lam,nu}(q^-b) q^{(1-b)|nu|} z^{b|nu|}."""
    lam = params["lam"]
    n = params["zmax"]
    lhs = _column_bounded_lhs(lam, params["ell"], n, b, 1)
    rhs = {m: ZERO for m in range(n + 1)}
    for m, v in enumerate(_c_by_size(lam, n // b)):
        rhs[b * m] = v.recip_param().pow_param(b) * UniRat.mono("q", (1 - b) * m)
    return [("z-coefficients", lhs, rhs)]


def _run_delaunay(params, rng):
    ell = params["ell"]
    n = params["zmax"]
    lhs = _column_bounded_lhs(Partition(()), ell, n, 1, 0)
    rhs = {m: (ONE if m <= ell else ZERO) for m in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _q_powers(terms):
    """("q", e) -> q^e for every ("q", e) name in `terms`."""
    return {name: UniRat.mono("q", name[1]) for term in terms for name in term if name[0] == "q"}


def _run_qbinhl(params, rng):
    nx = params["nx"]
    d = params["d"]
    nv = nx + 1
    a_slot = nx
    keep = ((0, nx, d),)  # the total degree in x is at most d
    one, a = _unit(nv), _unit(nv, a_slot)
    lams = _partitions_upto(d, nx)
    terms = [[("x", lam), ("afac", len(lam)), ("q", lam.nstat())] for lam in lams]
    table = _q_powers(terms)
    table.update((("x", lam), hl_p(lam, nx).poly.embed(nv, 0)) for lam in lams)
    table.update((("afac", r), _afac(r, one, a)) for r in range(nx + 1))
    lhs = _mpoly_sum(terms, table)
    cauchy = _mpoly_product(
        [MPoly.one(nv, "q")] + [_geom(_unit(nv, i), d, 0) for i in range(nx)], keep
    )
    num = [MPoly.two_term(one, _unit(nv, i, a_slot), 0, "q") for i in range(nx)]
    rhs = _mpoly_product([cauchy] + num, keep)
    lhs0 = MPoly({e: c for e, c in lhs.terms.items() if not e[a_slot]}, nv, "q")
    return [("main", lhs, rhs), ("cauchy-at-a-zero", lhs0, cauchy)]


def _run_warnaar_a2(params, rng):
    nx, ny = params["nx"], params["ny"]
    dx, dy = params["dx"], params["dy"]
    nv = nx + ny
    keep = ((0, nx, dx), (nx, nv, dy))  # degree in x at most dx, in y at most dy
    lams, mus = _partitions_upto(dx, nx), _partitions_upto(dy, ny)
    terms = [
        [("x", lam), ("y", mu), ("q", lam.nstat() + mu.nstat() - dot_product_conjugates(lam, mu))]
        for lam in lams
        for mu in mus
    ]
    table = _q_powers(terms)
    table.update((("x", lam), hl_p(lam, nx).poly.embed(nv, 0)) for lam in lams)
    table.update((("y", mu), hl_p(mu, ny).poly.embed(nv, nx)) for mu in mus)
    lhs = _mpoly_sum(terms, table)
    # cross factors first: their product has only terms of equal degree in
    # x and y; the one-alphabet series, which fill every kept degree, last
    cross = [_unit(nv, i, j) for i in range(nx) for j in range(nx, nv)]
    factors = [MPoly.one(nv, "q")] + [_geom(t, min(dx, dy), -1, ratio=True) for t in cross]
    factors += [_geom(_unit(nv, i), dx, 0) for i in range(nx)]
    factors += [_geom(_unit(nv, j), dy, 0) for j in range(nx, nv)]
    return [("xy-coefficients", lhs, _mpoly_product(factors, keep))]


def _run_lascoux(params, rng):
    nx, ny = params["nx"], params["ny"]
    dx, dy = params["dx"], params["dy"]
    nv = nx + ny
    keep = ((0, nx, dx), (nx, nv, dy))  # degree in x at most dx, in y at most dy
    lams = _partitions_upto(dx, nx)
    table, terms = {}, []
    by_size, mirr_rhs = {}, {}
    for lam in lams:
        table["x", lam] = hl_p(lam, nx).poly.embed(nv, 0)
        # C_{lam,mu}(1/q) = q^{n(mu)-n(lam)} * qprime_skew(lam, mu), summed by |mu|
        by_size[lam] = [v.recip_param() for v in _c_by_size(lam)]
        for mu in subpartitions(lam):
            skew = qprime_skew(lam, mu)
            key = (str(tuple(lam)), mu.size)
            mirr_rhs[key] = mirr_rhs.get(key, ZERO) + UniRat.mono("q", mu.nstat() - lam.nstat()) * skew
            if len(mu) > ny or mu.size > dy:
                continue
            table["y", mu] = hl_p(mu, ny).poly.embed(nv, nx)
            table["c", lam, mu] = b_lambda(mu) * skew
            terms.append([("x", lam), ("y", mu), ("c", lam, mu)])
    factors = [MPoly.one(nv, "q")]
    for i in range(nx):
        for j in range(nx, nv):
            factors.append(_geom(_unit(nv, i, j), min(dx, dy), 0))
            factors.append(MPoly.two_term(_unit(nv), _unit(nv, i, j), 1, "q"))
    factors += [_geom(_unit(nv, i), dx, 0) for i in range(nx)]
    pairs = [("xy-coefficients", _mpoly_sum(terms, table), _mpoly_product(factors, keep))]

    # principal one-variable y specialization: marker z at y -> z
    nvz = nx + 1
    z_slot = nx
    keepz = ((0, nx, dx), (z_slot, nvz, dx))
    table, terms = {}, []
    for lam in lams:
        table["x", lam] = hl_p(lam, nx).poly.embed(nvz, 0)
        for m, v in enumerate(by_size[lam]):
            table["z", m] = MPoly.mono((0,) * nx + (m,), 1, "q")
            table["c", lam, m] = v
            terms.append([("x", lam), ("z", m), ("c", lam, m), ("q", lam.nstat())])
    table.update(_q_powers(terms))
    factors = [MPoly.one(nvz, "q")] + [_geom(_unit(nvz, i, z_slot), dx, 0) for i in range(nx)]
    factors += [_geom(_unit(nvz, i), dx, 0) for i in range(nx)]
    pairs.append(("principal-y", _mpoly_sum(terms, table), _mpoly_product(factors, keepz)))
    mirr_lhs = {(str(tuple(lam)), m): v for lam, sums in by_size.items() for m, v in enumerate(sums)}
    pairs.append(("mirror-consistency", mirr_lhs, mirr_rhs))
    return pairs


def _run_finite_qbinhl(params, rng):
    """Both cleared sides (`_finite_qbinhl_cleared`): symbolic, or at
    `samples` random points, each table entry at all of them by one
    `eval_points` and each point's sums on one certified slot width."""
    n = params["n"]
    lhs_terms, dfac, rhs_terms, table = _finite_qbinhl_cleared(n, params["k"])
    if "samples" not in params:
        lhs = _mpoly_product([_mpoly_sum(lhs_terms, table)] + [table[name] for name in dfac])
        rhs = _mpoly_sum(rhs_terms, table)
        if not isinstance(rhs, MPoly):  # n = 0: every rhs factor is a scalar
            rhs = MPoly.const(rhs, n + 1, "q")
        return [("cleared-coefficients", lhs, rhs)]
    points = _sample_points(n, params["samples"], rng)
    values = {
        name: f.eval_points(points) if isinstance(f, MPoly) else [f] * len(points)
        for name, f in table.items()
    }
    lhs_map, rhs_map = {}, {}
    for idx in range(len(points)):
        factors = lambda term: [values[name][idx] for name in term]
        inner = laurent_sum_of_products([factors(t) for t in lhs_terms])
        lhs_map[idx] = laurent_sum_of_products([[inner] + factors(dfac)])
        rhs_map[idx] = laurent_sum_of_products([factors(t) for t in rhs_terms])
    return [("sample-points (cleared)", lhs_map, rhs_map)]


def _finite_qbinhl_cleared(n, k):
    """Both sides of FINITE_QBINHL times the denominator D of its rhs, as
    products of named factors.

    Returns (lhs, dfac, rhs, table): lhs * D is the sum over the terms of
    `lhs` times the product of `dfac`, and rhs * D is the sum over the
    terms of `rhs`; a term is a list of factor names and stands for the
    product of their values in `table`, each an MPoly in x_1..x_n, a or a
    scalar.  D is the product of `dfac`: x_i - q^{1-s} ("pole-x"),
    1 - x_j q^s ("pole-one") and x_i - x_j ("vand").  The rhs term of a
    subset S of the alphabet is N_S over the factors of D that S uses, so
    it enters as N_S times the factors S does not use, and both sides are
    polynomials in x and a.  ("P", lam) names P_lam(x) for the lam in the
    n x k box and ("q", e) names q^e.
    """
    lams = _partitions_upto(n * k, n, k)
    lhs = [
        [("P", lam), ("afac", len(lam)), ("afac", n - lam.mult(k)), ("q", lam.nstat())]
        for lam in lams
    ]
    dfac = [("pole-x", i, s) for i in range(n) for s in range(1, n + 1)]
    dfac += [("pole-one", j, s) for j in range(n) for s in range(n)]
    dfac += [("vand", i, j) for i in range(n) for j in range(n) if i != j]
    rhs = []
    for bits in itertools.product((0, 1), repeat=n):
        inset = [i for i in range(n) if bits[i]]
        outset = [j for j in range(n) if not bits[j]]
        s0 = len(inset)
        used = set()
        term = [("q", k * math.comb(s0, 2)), ("afac", s0), ("afac", n - s0)]
        for i in inset:
            # x_i^k * (x_i - a*q^{1-n}) over the pole (x_i - q^{1-s0})
            term += [("num-x", i), ("xpow", i)]
            used.add(("pole-x", i, s0))
        for j in outset:
            # (1 - a*x_j) over the pole (1 - x_j*q^{s0})
            term.append(("num-one", j))
            used.add(("pole-one", j, s0))
        for i in inset:
            for j in outset:
                # (x_i - q*x_j) over (x_i - x_j)
                term.append(("num-vand", i, j))
                used.add(("vand", i, j))
        rhs.append(term + [key for key in dfac if key not in used])
    nv = n + 1
    one, a = _unit(nv), _unit(nv, n)
    table = _q_powers(lhs + rhs)
    table.update((("P", lam), hl_p(lam, n).poly.embed(nv, 0)) for lam in lams)
    table.update((("afac", r), _afac(r, one, a)) for r in range(n + 1))
    for i in range(n):
        x = _unit(nv, i)
        table["num-x", i] = MPoly.two_term(x, a, 1 - n, "q")
        table["xpow", i] = MPoly.mono(_unit(nv, *[i] * k), 1, "q")
        table["num-one", i] = MPoly.two_term(one, _unit(nv, i, n), 0, "q")
        for s in range(1, n + 1):
            table["pole-x", i, s] = MPoly.two_term(x, one, 1 - s, "q")
        for s in range(n):
            table["pole-one", i, s] = MPoly.two_term(one, x, s, "q")
        for j in range(n):
            if i != j:
                table["vand", i, j] = MPoly.two_term(x, _unit(nv, j), 0, "q")
                table["num-vand", i, j] = MPoly.two_term(x, _unit(nv, j), 1, "q")
    return lhs, dfac, rhs, table


def _sample_points(n, samples, rng):
    """`samples` random points [x_1, ..., x_n, a]: distinct x_i outside
    {0, 1, -1}, so no factor of the cleared denominator is 0."""
    points = []
    for _ in range(samples):
        xs = []
        while len(xs) < n:
            v = Fraction(rng.randint(2, 60), rng.randint(1, 17))
            if v in (0, 1, -1) or v in xs:
                continue
            xs.append(v)
        points.append(xs + [Fraction(rng.randint(2, 40), rng.randint(1, 17))])
    return points


def _run_csq(params, rng):
    n, k = params["n"], params["k"]
    nv = 2  # variables: z, a
    zero, z, a, za = (0, 0), (1, 0), (0, 1), (1, 1)
    qn = qq(n)
    table = {("afac", r): _afac(r, zero, a) for r in range(n + 1)}
    table.update((("z", e), MPoly.mono((e, 0), 1, "q")) for e in range(n * k + 1))
    table.update((("dz", j), MPoly.two_term(zero, z, j, "q")) for j in range(-1, 2 * n))
    table.update((("dza", s), MPoly.two_term(zero, za, s, "q")) for s in range(n))
    table.update((("z-a", s), MPoly.two_term(z, a, s, "q")) for s in range(2 - 2 * n, 2 - n))

    lhs_terms = []
    for lam in _partitions_upto(n * k, n, k):
        ell = len(lam)
        table["lam", lam] = UniRat.mono("q", 2 * lam.nstat()) * qn / (qq(n - ell) * b_lambda(lam))
        lhs_terms.append([("z", lam.size), ("lam", lam), ("afac", ell), ("afac", n - lam.mult(k))])
    dz = [table["dz", j] for j in range(-1, 2 * n)]
    lhs = _mpoly_product([_mpoly_sum(lhs_terms, table)] + dz)

    rhs_terms = []
    for r in range(n + 1):
        # times the finite factor (q^{n-r+1}; q)_r
        scal = UniRat.mono("q", (2 * k + 3) * math.comb(r, 2), (-1) ** r) / qq(r)
        table["r", r] = scal * qpochhammer((1, n - r + 1), r)
        term = [("z", k * r), ("r", r), ("dz", 2 * r - 1)]
        term += [("dza", r + t) for t in range(n - r)]
        term.append(("afac", r))
        term += [("z-a", 1 - n - t) for t in range(r)]
        term.append(("afac", n - r))
        term += [("dz", j) for j in range(-1, 2 * n) if not (r - 1 <= j <= r + n - 1)]
        rhs_terms.append(term)
    return [("cleared-coefficients", lhs, _mpoly_sum(rhs_terms, table))]


def _run_mirror_swap(params, rng):
    lam = params["lam"]
    by_size = [v.recip_param() for v in _c_by_size(lam)]
    m = lam.size
    pal_lhs = dict(enumerate(by_size))
    pal_rhs = dict(enumerate(reversed(by_size)))
    pairs = [("palindrome", pal_lhs, pal_rhs)]

    def swap(u):
        return sum((v * UniRat.mono("q", j * u) for j, v in enumerate(by_size)), ZERO)

    # sum_j v_j q^{-ju} against q^{-mu} sum_j v_j q^{ju}, for u = 1, 2
    sw_lhs = {u: swap(-u) for u in (1, 2)}
    sw_rhs = {u: UniRat.mono("q", -m * u) * swap(u) for u in (1, 2)}
    pairs.append(("swap", sw_lhs, sw_rhs))
    return pairs


def _partition_counts(top, ell=None):
    """ways[m] counts the partitions of m <= top with parts <= ell, if given."""
    ways = [1] + [0] * top
    for part in range(1, min(top if ell is None else ell, top) + 1):
        for m in range(part, top + 1):
            ways[m] += ways[m - part]
    return ways


def _series_work(n, ell=None, b=1, length=0):
    """(n + 1)^3 / 4 units, for a q-degree growing with n, per (mu, j) pair
    that `_column_bounded_lhs` visits (parts of mu <= ell, if given, and
    b(|mu| + j) <= n): DELAUNAY ell = 3, zmax = 16 counts 1,089 pairs in
    1.33 s.  A lam of `length` parts widens the q-degrees by <lam', mu'>,
    at (1 + length / 18)^2 times the units: UMOY_ABELIAN at lam = 1^L,
    ell = 9999 and zmax = 8 or 12 read 0.55-0.7 us per unit at L = 1 and
    20-35 at L = 90 and 120, where the factor is 36 and 59.  Type S (b = 2)
    pays a fixed cost per pair and a part growing as (n/b + 1)^4 in place
    of (n + 1)^3: ((n/b + 1)^4 + 3200) / 30 units per pair, read off its
    3,2 rows at zmax = 8 to 37 and its ell = 1, zmax = 59 call.
    Past n/b = 40 the pairs up to 40 alone are past any budget."""
    top = min(n // b, 40)
    pairs = sum(w * (top + 1 - m) for m, w in enumerate(_partition_counts(top, ell)))
    if b == 1:
        return (n + 1) ** 3 * (18 + length) ** 2 // 1296 * pairs
    return ((top + 1) ** 4 + 3200) * (18 + length) ** 2 // 9720 * pairs


def _genfun_work(p):
    """The C table (`_c_table_work`), and 20 + 2 len(lam) units per mu of
    size <= zmax for its group orders, times 1 + bits(p)^2 / 250 for their
    size: at lam = 2,1 GENFUN's mu read about 25 us each at p = 2 and 750
    at MAX_PRIME (82 bits), and at lam = 1^100 about 115-190 at p = 2;
    lam = 2,1, p = 2, zmax = 32 counts 1.07M units in 1.33 s.  Past zmax =
    60 the mu up to 60 alone are past any budget."""
    lam, bits = p["lam"], p["p"].bit_length()
    mus = sum(_partition_counts(min(p["zmax"], 60)))
    return _c_table_work(lam, None) + mus * (20 + 2 * len(lam)) * (250 + bits * bits) // 250


def _combinat_work(p):
    """Its series, the C table (`_c_table_work`), and a tenth of a unit per
    square degree of C per (m, j) product of `_euler_convolution` (its 2^30,
    zmax = 12 row)."""
    lam, n = p["lam"], p["zmax"]
    convolution = (n + 1) * (n + 2) // 2 * (_c_degree(lam) + 1) ** 2 // 10
    return _series_work(n) + _c_table_work(lam, None) + convolution


def _mirror_swap_work(p):
    """The C table (`_c_table_work`) and, unless it alone is past the budget,
    half a unit per table entry and q-degree |lam| + D of the two swapped
    sums (its 2^40, 400 and 1000 rows)."""
    lam = p["lam"]
    work = _c_table_work(lam, None)
    return work if work > MAX_VERIFY_WORK else work + (lam.size + 1) * (lam.size + _c_degree(lam) + 1) // 2


def _umoy_work(p, b):
    """The column-bounded lhs, and, unless that alone is past the budget,
    the C table of the nu of size <= zmax / b (`_c_table_work`; past 40 the
    lhs alone is past any budget)."""
    n, lam = p["zmax"], p["lam"]
    work = _series_work(n, p["ell"], b, len(lam))
    return work if work > MAX_VERIFY_WORK else work + _c_table_work(lam, min(n // b, 40))


def _hl_builds(n, d):
    """(the number of lam of size m <= d with at most n parts, 3 units per
    size listed and per subpartition the `hl_p` build of each lam walks, at
    most C(m + n, n)); for n >= 1 the sizes past 1500 are not counted, as
    with the caller's keys those up to 1500 already pass any budget."""
    ways = _partition_counts(min(d, 1500), n)
    steps = sum(w * math.comb(m + n, min(m, n, 40)) for m, w in enumerate(ways))
    return sum(ways), 3 * (d + 1 + steps)


def _qbinhl_work(p):
    """`_hl_builds`, and a unit per kept key (degree <= d in x, <= nx in a)
    per lhs term and rhs factor: nx = 1, d = 1000 counts 3.5M in 1.31 s."""
    nx, d = p["nx"], p["d"]
    lams, builds = _hl_builds(nx, d)
    keys = math.comb(nx + d, min(nx, d, 40)) * (nx + 1)
    return builds + (lams + 2 * nx + 1) * keys


def _keys_work(nx, d, factors, ny, dy, lams=False):
    """A quarter of a unit per kept key of a truncated chain (degree <= d in
    nx variables, <= dy in ny more) per factor per q-degree d + dy, the
    `hl_p` builds (`_hl_builds`) and, with `lams`, per lam 6 C tables
    (`_c_tables_work`) for its C, skew and lhs terms and 200 units per each of
    its |lam| + 1 principal-y terms: WARNAAR_A2 4,4,5,5 counts 1.10M in
    0.70 s, LASCOUX 1,1,60,60 0.89M in 0.69 s.  With `lams` a y enters by a
    mu inside a lam of the x alphabet, so a kept key's y-degree is at most
    its x-degree and a mu has at most nx parts."""
    per = factors * (d + dy + 1)
    keys = 0 if lams else math.comb(nx + d, min(nx, d, 40)) * math.comb(ny + dy, min(ny, dy, 40))
    for m in range(d + 1 if nx else 1) if lams else ():
        # the x-keys of degree m times the y-keys of degree <= m
        keys += (math.comb(nx + m - 1, m) if nx else 1) * math.comb(ny + min(m, dy), min(ny, m, dy, 40))
        if keys * per // 4 > MAX_VERIFY_WORK:
            break
    work = keys * per // 4
    if work <= MAX_VERIFY_WORK:
        work += _hl_builds(nx, d)[1] + _hl_builds(min(nx, ny) if lams else ny, dy)[1]
    for size, table in _c_tables_work(nx, min(d, 1500)) if lams and work <= MAX_VERIFY_WORK else ():
        work += 6 * table + 200 * (size + 1)
        if work > MAX_VERIFY_WORK:
            break
    return work


def _finite_work(p):
    """2 units per P_lam of the n x k box per C(nk + n - 1, n - 1) monomials
    per part size k + 1 (n = 1, k = 1400: 1401^2 in 3.0 s); then symbolic,
    the degree box (4n - 1 + k)^n (2n + 1) of the cleared sides times their
    2^n rhs terms of 3n^2 - n factors, at 14 per unit (n = 3, k = 6: 6.6M
    in 0.55 s), or per sample the 2^n rhs terms times the square of their
    factors, at 3 per unit (n = 4, k = 3, 500 samples: 15.5M in 3.78 s),
    and 15 per lhs or rhs term and 150 more (n = 1, k = 1: 160 us each)."""
    n, k, e, m = p["n"], p["k"], min(p["n"], 40), max(p["n"] - 1, 0)
    box = math.comb(n + k, min(n, k, 40))
    lams = 2 * box * math.comb(n * k + m, min(m, 40)) * (k + 1)
    factors = 3 * n * n - n
    if "samples" in p:
        return lams + p["samples"] * (2 ** e * factors * factors // 3 + 15 * (box + 2 ** e) + 150)
    return lams + (4 * n - 1 + k) ** e * (2 * n + 1) * 2 ** e * factors // 14


class Identity(Record):
    """A registered identity: `run(params, rng)` returns its (label, lhs,
    rhs) triples; `strategies` are the checks it has, the first one the
    default (a random-point check reads `samples` too); `params` names the
    params the runner reads; `work(params)` estimates its cost in units of
    MAX_VERIFY_WORK; both take the params `verify` checked (lam a Partition)."""

    run: object
    strategies: tuple
    params: tuple
    work: object


_SERIES = (TRUNCATED_SERIES,)
_EXACT = (SYMBOLIC_EXACT,)
_LAM_ELL_Z = ("lam", "ell", "zmax")
_TWO_ALPHABETS = ("nx", "ny", "dx", "dy")
_FINITE = ("n", "k")

REGISTRY = {
    # n = 48: 49^5 / 200 units in 1.24 s
    "QBIN": Identity(_run_qbin, _EXACT, ("n",), lambda p: (p["n"] + 1) ** 5 // 200),
    # zmax = 20: 21^6 / 200 units in 0.40 s
    "EULER": Identity(_run_euler, _SERIES, ("zmax",), lambda p: (p["zmax"] + 1) ** 6 // 200),
    "GENFUN": Identity(_run_genfun, _SERIES, ("lam", "p", "zmax"), _genfun_work),
    "COMBINAT": Identity(_run_combinat, _SERIES, ("lam", "zmax"), _combinat_work),
    "UMOY_ABELIAN": Identity(lambda params, rng: _run_umoy(params, 1), _SERIES, _LAM_ELL_Z,
                             lambda p: _umoy_work(p, 1)),
    "UMOY_TYPE_S": Identity(lambda params, rng: _run_umoy(params, 2), _SERIES, _LAM_ELL_Z,
                            lambda p: _umoy_work(p, 2)),
    "DELAUNAY": Identity(_run_delaunay, _SERIES, ("ell", "zmax"),
                         lambda p: _series_work(p["zmax"], p["ell"])),
    "QBINHL": Identity(_run_qbinhl, _SERIES, ("nx", "d"), _qbinhl_work),
    "WARNAAR_A2": Identity(_run_warnaar_a2, _SERIES, _TWO_ALPHABETS, lambda p: _keys_work(
        p["nx"], p["dx"], p["nx"] * p["ny"] + p["nx"] + p["ny"] + 1, p["ny"], p["dy"])),
    # no LASCOUX factor is in y alone, so its y-degree is at most dx; a cross
    # factor pair keeps keys of equal x and y degree only, so it counts once
    "LASCOUX": Identity(_run_lascoux, _SERIES, _TWO_ALPHABETS, lambda p: _keys_work(
        p["nx"], p["dx"], p["nx"] * p["ny"] + p["nx"] + 1, p["ny"], min(p["dx"], p["dy"]), True)),
    "FINITE_QBINHL": Identity(_run_finite_qbinhl, (SYMBOLIC_EXACT, RANDOM_POINT), _FINITE, _finite_work),
    # the degree box (nk + 2n + 2)(2n + 1) in z and a times the C(n + k, k) lhs
    # terms plus n^3 / 2 for the rhs terms' factors: n = 12, k = 3 counts 2.04M in 2.37 s
    "CSQ": Identity(_run_csq, _EXACT, _FINITE, lambda p: (p["n"] * p["k"] + 2 * p["n"] + 2)
                    * (2 * p["n"] + 1) * (math.comb(p["n"] + p["k"], min(p["n"], p["k"], 40)) + p["n"] ** 3 // 2)),
    "MIRROR_SWAP": Identity(_run_mirror_swap, _EXACT, ("lam",), _mirror_swap_work),
}

IDENTITY_IDS = tuple(sorted(REGISTRY))

# the params whose least value is above 0: the column bound k, the torsion
# exponent ell (p^ell-torsion needs ell >= 1) and the random sample points
_LEAST = {"k": 1, "ell": 1, "samples": MIN_SAMPLES}


def verify(case, mutate=False):
    """Run one case and report pass/fail with the first mismatching coefficient.

    A param the identity does not read (outside its `params`, `samples` and
    `seed`), a missing, malformed or too small param (`_LEAST`, else 0; an
    int param must be an int and not a bool, and `lam` one that `Partition`
    takes), a composite `p`, a `seed` that is not an int (a bool included),
    `samples` for an identity with no random-point check, or a
    `case.strategy` other than the one the params run (random-point with
    `samples`, else the identity's first), raises UsageError, and a case
    whose `work` estimate passes MAX_VERIFY_WORK raises ResourceBoundError,
    before any work."""
    identity = REGISTRY.get(case.case_id)
    if identity is None:
        raise UsageError("unknown identity id: %r" % (case.case_id,))
    unread = [name for name in case.params if name not in identity.params + ("samples", "seed")]
    if unread:
        raise UsageError("%s reads no param %s" % (case.case_id, ", ".join(map(str, unread))))
    names = identity.params + (("samples",) if "samples" in case.params else ())
    missing = [name for name in names if name not in case.params]
    if missing:
        raise UsageError("%s needs %s" % (case.case_id, ", ".join(missing)))
    if "samples" in case.params and RANDOM_POINT not in identity.strategies:
        raise UsageError("%s has no random-point check, so no samples" % case.case_id)
    strategy = RANDOM_POINT if "samples" in case.params else identity.strategies[0]
    if case.strategy not in (None, strategy):
        raise UsageError("%s with these params runs the %s check, not %r"
                         % (case.case_id, strategy, case.strategy))
    checked = dict(case.params)
    for name in names:
        value = case.params[name]
        if name == "lam":
            checked[name] = Partition(value)  # else ParseError, a UsageError
            continue
        if type(value) is not int:
            # a float, bool or string would run as another case (bool is an int)
            raise UsageError("%s has a malformed %s: %r is not an int" % (case.case_id, name, value))
        least = _LEAST.get(name, 0)
        if value < least:
            raise UsageError("%s needs %s >= %d, got %d" % (case.case_id, name, least, value))
    if "p" in identity.params:
        _check_prime(case.params["p"])
    # a random-point case with no seed draws its points at seed 0
    seed = case.params.get("seed", 0 if strategy == RANDOM_POINT else None)
    if seed is not None and type(seed) is not int:  # bool is an int subclass
        raise UsageError("%s has a malformed seed: %r is not an int" % (case.case_id, seed))
    work = identity.work(checked)
    if work > MAX_VERIFY_WORK:
        raise ResourceBoundError("%s work" % case.case_id, MAX_VERIFY_WORK, work)
    rng = random.Random(seed)
    start = time.perf_counter()
    pairs = identity.run(checked, rng)
    passed, mismatch, compared = _compare_pairs(pairs, mutate=mutate)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        case_id=case.case_id,
        params=dict(case.params),
        strategy=strategy,
        passed=passed,
        mismatch=mismatch,
        compared=compared,
        elapsed=elapsed,
        seed=seed,
    )


def load_manifest(path=None):
    """Read the case manifest; returns (version, seed, list of IdentityCase).
    An unreadable or malformed file raises UsageError."""
    path = Path(path or _MANIFEST_PATH)
    try:
        raw = json.loads(path.read_text())
        cases = [
            IdentityCase(str(c["id"]), dict(c.get("params", {})), c["strategy"])
            for c in raw["cases"]
        ]
        return raw["version"], raw.get("default_seed"), cases
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise UsageError("unreadable manifest %s: %s: %s" % (path, type(exc).__name__, exc)) from None


def run_suite(ids=None, manifest=None, mutate=False):
    """Verify every manifest case (optionally filtered); reports sorted by id."""
    _, _, cases = load_manifest(manifest)
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - set(REGISTRY)
        if unknown:
            raise UsageError("unknown identity id: %r" % (sorted(unknown)[0],))
        cases = [c for c in cases if c.case_id in wanted]
    reports = [verify(case, mutate=mutate) for case in cases]
    return sorted(reports, key=lambda r: (r.case_id, repr(sorted(r.params.items()))))
